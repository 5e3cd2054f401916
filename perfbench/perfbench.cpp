// The repository benchmark's measuring process: runs ONE rep of a workload
// through the public harness API (Deployment, OpenLoopEngine, Backend) and
// prints its raw measurements as one JSON line. perfbench/run.py starts one
// process per rep, so every rep begins from a fresh heap and its peak RSS is
// its own, and aggregates the reps into the benchmark's metrics.
//
//   perfbench --workload NAME --seed N --trace 0|1 [--setups K]
//   perfbench --calibrate
//
// A rep first takes K extra set-up samples (build a Deployment, complete a
// warm-up write, destroy it), then builds the measured Deployment, runs the
// workload to quiescence and checks its outputs: the history checker, every
// op completed, no liveness timeout, and on loopback TCP a clean transport.
// Any failed check exits with code 1 and prints no result. A traced rep
// (--trace 1) also posts probe closures, counts allocations during the run,
// times the codec on a corpus shaped like the run's traffic, and returns the
// spans it recorded around each call into the library.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "netio/mesh.hpp"
#include "objects/regular_object.hpp"
#include "sim/world.hpp"
#include "trace.hpp"
#include "wire/messages.hpp"
#include "wire_probe.hpp"

// ---------------------------------------------------------------------------
// Allocation counting (traced reps only, during Deployment::run). The
// replaced operator new is this binary's; the library is unchanged.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with a new-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace rr;
using perfbench::mono_ns;
using perfbench::Scope;
using perfbench::Tracer;

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

// ---------------------------------------------------------------------------
// Workloads. All run at t = 1, b = 1 (S = 4), the smallest deployment the
// paper allows, with the windowed streaming checker on. RATIONALE.md says
// why each exists and what it should and should not move.

enum class Loop { Open, Closed };

struct Spec {
  const char* name;
  harness::BackendKind backend;
  harness::Protocol protocol;
  int readers;
  bool stale_replica;  ///< object 0 is Byzantine with stalereplay
  Loop loop;
  double write_fraction;  ///< open loop only
  /// Open loop: mean think time of each of kClients clients, so the
  /// offered rate is kClients / mean_think (backend clock units).
  Time mean_think;
  /// Open loop: the arrival window. Closed loop: the measured window.
  Time horizon;
  Time closed_warmup;  ///< closed loop: unmeasured warm-up window
  /// The rep runs on one CPU. Spread over several, the kernel's placement
  /// of the mesh threads is bistable and set by what ran before, and the
  /// two placements differ 1.8x in CPU per op (RATIONALE.md).
  bool one_cpu;
};

constexpr std::uint64_t kClients = 1000;
constexpr std::size_t kCheckerWindow = 1024;
constexpr int kLatenessProbes = 600;  ///< per traced rep
constexpr int kCheckpoints = 10;      ///< tenths of the horizon

// The op count of des-regular-stale is part of its definition: at the seed
// its per-op cost grows with run length, so the horizon and rate stay fixed.
const Spec kSpecs[] = {
    {"des-regular-stale", harness::BackendKind::Sim,
     harness::Protocol::Regular, 2, true, Loop::Open, 0.3,
     /*mean_think=*/33'333'333, /*horizon=*/200'000'000, 0, false},
    {"threads-safe-closed", harness::BackendKind::Threads,
     harness::Protocol::Safe, 2, false, Loop::Closed, 0, 0,
     /*horizon=*/1'000'000'000, /*closed_warmup=*/200'000'000, false},
    {"net-safe-open", harness::BackendKind::Net, harness::Protocol::Safe, 1,
     false, Loop::Open, 0.5,
     /*mean_think=*/500'000'000, /*horizon=*/2'000'000'000, 0, true},
};

const Spec* find_spec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

harness::DeploymentOptions deployment_options(const Spec& spec,
                                              std::uint64_t seed) {
  harness::DeploymentOptions o;
  o.res = Resilience::optimal(1, 1, spec.readers);
  o.protocol = spec.protocol;
  o.backend = spec.backend;
  o.seed = seed;
  if (spec.stale_replica) {
    o.faults.byzantine[0] = adversary::StrategyKind::StaleReplay;
  }
  o.delay = harness::DelayKind::Uniform;
  o.delay_lo = 1'000;
  o.delay_hi = 10'000;
  o.checker_window = kCheckerWindow;
  // A stalled wall-clock run stops and reports timed_out() (a failed rep)
  // instead of aborting the process.
  o.thread_max_wall_ms = 60'000;
  return o;
}

// ---------------------------------------------------------------------------
// Latency histograms: bucket counts copied out of harness::LatencyRecorder so
// a warm-up phase can be subtracted. Quantiles interpolate linearly inside
// the recorder's 1/16-octave buckets, so they move smoothly instead of
// snapping to bucket floors.

struct Hist {
  std::vector<std::uint64_t> counts =
      std::vector<std::uint64_t>(harness::LatencyRecorder::kBuckets, 0);
  std::uint64_t n{0};

  static Hist of(const harness::LatencyRecorder& r) {
    Hist h;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      h.counts[i] = r.bucket_count(i);
      h.n += h.counts[i];
    }
    return h;
  }
  Hist& operator-=(const Hist& o) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= o.counts[i];
    n -= o.n;
    return *this;
  }

  [[nodiscard]] double quantile(double q) const {
    const double rank = q * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (static_cast<double>(seen + counts[i]) >= rank) {
        const auto lo =
            static_cast<double>(harness::LatencyRecorder::bucket_floor(i));
        const double hi =
            i + 1 < counts.size()
                ? static_cast<double>(
                      harness::LatencyRecorder::bucket_floor(i + 1))
                : lo;
        const double frac = std::clamp((rank - static_cast<double>(seen)) /
                                           static_cast<double>(counts[i]),
                                       0.0, 1.0);
        return lo + frac * (hi - lo);
      }
      seen += counts[i];
    }
    return 0;
  }
  /// FNV-1a over the bucket counts: equal only for identical histograms.
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto c : counts) h = (h ^ c) * 0x100000001b3ULL;
    return h;
  }
  /// The result fields; requires at least ten samples beyond the p99.
  [[nodiscard]] std::string to_json(const char* what) const {
    const auto at_p99 =
        static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(n)));
    require(n >= at_p99 + 10, std::string(what) +
                                  ": fewer than ten samples beyond the p99 (" +
                                  std::to_string(n) + " samples)");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"n\": %llu, \"p50\": %.17g, \"p90\": %.17g, \"p99\": "
                  "%.17g, \"hash\": \"%016llx\"}",
                  static_cast<unsigned long long>(n), quantile(0.50),
                  quantile(0.90), quantile(0.99),
                  static_cast<unsigned long long>(hash()));
    return buf;
  }
};

struct Usage {
  double cpu_s{0};
  double sys_s{0};
  std::uint64_t ctx_switches{0};

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    Usage u;
    u.sys_s = secs(ru.ru_stime);
    u.cpu_s = secs(ru.ru_utime) + u.sys_s;
    u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  Usage operator-(const Usage& o) const {
    return Usage{cpu_s - o.cpu_s, sys_s - o.sys_s,
                 ctx_switches - o.ctx_switches};
  }
};

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss,
/// which Linux carries across exec from the launching process.
double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  require(f != nullptr, "cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  require(kib > 0, "no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Closed loop: each client invokes its next op the moment the previous one
// completes, until the backend clock passes stop_at. Sojourn is from the
// post of an op to its completion.

class ClosedLoop {
 public:
  explicit ClosedLoop(harness::Deployment& d) : d_(d) {}
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Starts every client; call between runs only (the deployment is
  /// quiescent, so no client step races the write of stop_at_).
  void start(Time stop_at) {
    stop_at_ = stop_at;
    issue_write();
    for (int j = 0; j < d_.res().num_readers; ++j) issue_read(j);
  }
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const harness::LatencyRecorder& sojourn() const {
    return sojourn_;
  }

 private:
  void issue_write() {
    const Time posted = d_.now();
    d_.logged_write(0, harness::value_for(++next_k_),
                    [this, posted](const core::WriteResult&) {
                      if (finish(posted)) issue_write();
                    });
  }
  void issue_read(int j) {
    const Time posted = d_.now();
    d_.logged_read(0, j, [this, posted, j](const core::ReadResult&) {
      if (finish(posted)) issue_read(j);
    });
  }
  /// Records one completion; true while the loop should go on.
  bool finish(Time posted) {
    const Time now = d_.now();
    sojourn_.record(now > posted ? now - posted : 0);
    completed_.fetch_add(1, std::memory_order_relaxed);
    return now < stop_at_;
  }

  harness::Deployment& d_;
  Time stop_at_{0};
  Ts next_k_{0};  ///< touched only by writer steps
  std::atomic<std::uint64_t> completed_{0};
  harness::LatencyRecorder sojourn_;
};

// ---------------------------------------------------------------------------
// Probes: closures posted with Backend::post at known backend times. Each
// writes only its own slot; slots are read after the run has quiesced.

struct ProbeSlot {
  Time due{0};
  Time late{0};
  std::uint64_t wall_start{0};
  std::uint64_t wall_end{0};
  std::uint64_t value{0};  ///< progress count or history size
  ProcessId pid{-1};
};

struct Probes {
  std::vector<ProbeSlot> lateness;
  std::vector<ProbeSlot> checkpoints;  ///< kCheckpoints + 1, on the writer
  std::vector<ProbeSlot> history;      ///< per honest object x checkpoint
  std::function<std::uint64_t()> progress;

  [[nodiscard]] std::size_t count() const {
    return lateness.size() + checkpoints.size() + history.size();
  }
};

void post_probes(harness::Deployment& d, Probes& p, Time start, Time horizon,
                 const Spec& spec) {
  std::vector<ProcessId> clients{d.writer_pid()};
  for (int j = 0; j < spec.readers; ++j) clients.push_back(d.reader_pid(j));
  p.lateness.resize(kLatenessProbes);
  for (int i = 0; i < kLatenessProbes; ++i) {
    auto& s = p.lateness[static_cast<std::size_t>(i)];
    s.due = start + horizon * static_cast<Time>(i + 1) / (kLatenessProbes + 1);
    s.pid = clients[static_cast<std::size_t>(i) % clients.size()];
  }
  p.checkpoints.resize(kCheckpoints + 1);
  for (int k = 0; k <= kCheckpoints; ++k) {
    auto& s = p.checkpoints[static_cast<std::size_t>(k)];
    s.due = start + horizon * static_cast<Time>(k) / kCheckpoints;
    s.pid = d.writer_pid();
  }
  if (spec.protocol == harness::Protocol::Regular) {
    for (int obj = spec.stale_replica ? 1 : 0; obj < d.res().num_objects;
         ++obj) {
      for (int k = 0; k <= kCheckpoints; ++k) {
        ProbeSlot s;
        s.due = start + horizon * static_cast<Time>(k) / kCheckpoints;
        s.pid = d.object_pid(obj);
        p.history.push_back(s);
      }
    }
  }
  // Slots are sized before the first post: no probe sees a reallocation.
  for (auto& s : p.lateness) {
    d.backend().post(s.due, s.pid, [&d, slot = &s](net::Context&) {
      slot->wall_start = mono_ns();
      const Time now = d.now();
      slot->late = now > slot->due ? now - slot->due : 0;
      slot->wall_end = mono_ns();
    });
  }
  for (auto& s : p.checkpoints) {
    d.backend().post(s.due, s.pid, [probes = &p, slot = &s](net::Context&) {
      slot->wall_start = mono_ns();
      slot->value = probes->progress();
      slot->wall_end = mono_ns();
    });
  }
  for (auto& s : p.history) {
    d.backend().post(s.due, s.pid, [&d, slot = &s](net::Context&) {
      slot->wall_start = mono_ns();
      const auto* obj =
          dynamic_cast<const objects::RegularObject*>(&d.backend().process(
              slot->pid));
      slot->value = obj != nullptr ? obj->history_size() : 0;
      slot->wall_end = mono_ns();
    });
  }
}

/// Wall ns per op over the last tenth of the horizon over the first tenth.
double cost_growth(const Probes& p) {
  auto per_op = [&](std::size_t k) {
    const auto& a = p.checkpoints[k];
    const auto& b = p.checkpoints[k + 1];
    const std::uint64_t ops = b.value - a.value;
    return ops == 0 ? 0.0
                    : static_cast<double>(b.wall_start - a.wall_start) /
                          static_cast<double>(ops);
  };
  const double first = per_op(0);
  return first > 0 ? per_op(kCheckpoints - 1) / first : 0;
}

void add_probe_spans(Tracer& tr, const Probes& p, std::uint64_t parent) {
  auto add = [&](const std::vector<ProbeSlot>& slots, const char* name,
                 const char* value_key) {
    for (const auto& s : slots) {
      perfbench::Span span;
      span.name = name;
      span.parent = parent;
      span.start_ns = s.wall_start;
      span.end_ns = s.wall_end;
      span.lane = 1 + s.pid;
      span.args = "\"due\": " + std::to_string(s.due) +
                  ", \"late_ns\": " + std::to_string(s.late);
      if (value_key != nullptr) {
        span.args += std::string(", \"") + value_key +
                     "\": " + std::to_string(s.value);
      }
      tr.add(std::move(span));
    }
  };
  add(p.lateness, "probe.post_lateness", nullptr);
  add(p.checkpoints, "probe.checkpoint", "progress");
  add(p.history, "probe.history_size", "slots");
}

// ---------------------------------------------------------------------------
// One rep.

/// Accumulates "key": value members of one JSON object.
class JsonFields {
 public:
  JsonFields& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  JsonFields& count(const char* k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonFields& raw(const char* k, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += std::string("\"") + k + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Builds the deployment and completes one logged warm-up write; the two
/// timings are the set-up (lazy mesh connects land here).
std::unique_ptr<harness::Deployment> set_up(const Spec& spec,
                                            std::uint64_t seed,
                                            double& build_s,
                                            double& first_op_s, Tracer& tr,
                                            std::uint64_t parent) {
  const std::uint64_t t0 = mono_ns();
  std::unique_ptr<harness::Deployment> d;
  {
    Scope s(tr, "harness.ctor", parent);
    d = std::make_unique<harness::Deployment>(deployment_options(spec, seed));
  }
  const std::uint64_t t1 = mono_ns();
  {
    Scope s(tr, "harness.warmup", parent);
    d->logged_write(d->now(), "warmup");
    d->run();
  }
  const std::uint64_t t2 = mono_ns();
  require(!d->backend().timed_out(), "warm-up write timed out");
  require(d->write_latency().count() == 1, "warm-up write did not complete");
  build_s = static_cast<double>(t1 - t0) / 1e9;
  first_op_s = static_cast<double>(t2 - t1) / 1e9;
  return d;
}

/// The traffic counters of the measured run alone (after - before).
net::NetStats net_delta(const net::NetStats& after,
                        const net::NetStats& before) {
  net::NetStats d = after;
  d.messages_sent -= before.messages_sent;
  d.messages_delivered -= before.messages_delivered;
  d.messages_dropped -= before.messages_dropped;
  d.bytes_sent -= before.bytes_sent;
  d.messages_lost -= before.messages_lost;
  d.messages_duplicated -= before.messages_duplicated;
  d.messages_reordered -= before.messages_reordered;
  for (std::size_t i = 0; i < net::NetStats::kNumTypes; ++i) {
    d.messages_by_type[i] -= before.messages_by_type[i];
    d.bytes_by_type[i] -= before.bytes_by_type[i];
  }
  d.hist_slots_shipped -= before.hist_slots_shipped;
  d.hist_resyncs -= before.hist_resyncs;
  return d;
}

std::uint64_t msgs_of(const net::NetStats& s,
                      std::initializer_list<std::size_t> types) {
  std::uint64_t n = 0;
  for (const auto t : types) n += s.messages_by_type[t];
  return n;
}

/// Runs `extra_setups` set-up samples and then one measured rep; returns the
/// rep's result line.
std::string run_rep(const Spec& spec, std::uint64_t seed, bool traced,
                    int extra_setups) {
  Tracer tr(traced);
  JsonFields out;
  out.raw("workload", std::string("\"") + spec.name + "\"")
      .count("seed", seed)
      .raw("traced", traced ? "true" : "false")
      .raw("backend",
           std::string("\"") + harness::to_string(spec.backend) + "\"")
      .count("origin_unix_ns", perfbench::mono_origin_unix_ns());

  std::vector<double> setups;
  for (int i = 0; i < extra_setups; ++i) {
    Scope s(tr, "setup", 0);
    double build_s = 0;
    double first_op_s = 0;
    auto d = set_up(spec, seed, build_s, first_op_s, tr, s.id());
    setups.push_back(build_s + first_op_s);
    Scope dtor(tr, "harness.dtor", s.id());
    d.reset();
  }

  Scope rep_span(tr, std::string("rep ") + spec.name, 0);
  double build_s = 0;
  double first_op_s = 0;
  auto d = set_up(spec, seed, build_s, first_op_s, tr, rep_span.id());
  setups.push_back(build_s + first_op_s);

  std::unique_ptr<ClosedLoop> closed;
  if (spec.loop == Loop::Closed) {
    closed = std::make_unique<ClosedLoop>(*d);
    Scope s(tr, "closed.warmup", rep_span.id());
    closed->start(d->now() + spec.closed_warmup);
    d->run();
    require(!d->backend().timed_out(), "closed-loop warm-up timed out");
  }

  const Hist reads0 = Hist::of(d->read_latency());
  const Hist writes0 = Hist::of(d->write_latency());
  const Hist sojourn0 = closed ? Hist::of(closed->sojourn()) : Hist{};
  const std::uint64_t closed0 = closed ? closed->completed() : 0;
  const net::NetStats net0 = d->stats();

  // Wall-clock backends get a 1 ms lead so launching is not counted as
  // generator lateness.
  const Time start =
      d->now() + (spec.backend == harness::BackendKind::Sim ? 0 : 1'000'000);
  std::unique_ptr<harness::OpenLoopEngine> engine;
  Probes probes;
  {
    Scope s(tr, "harness.launch", rep_span.id());
    if (spec.loop == Loop::Open) {
      harness::OpenLoopOptions ol;
      ol.arrival = harness::ArrivalKind::Poisson;
      ol.clients = kClients;
      ol.start = start;
      ol.horizon = spec.horizon;
      ol.mean_think = spec.mean_think;
      ol.write_fraction = spec.write_fraction;
      ol.seed = mix64(seed ^ 0x0be7c4ULL);
      engine = std::make_unique<harness::OpenLoopEngine>(*d, ol);
      // Read only from writer steps, which also host the arrival chain.
      probes.progress = [e = engine.get()] { return e->stats().arrivals; };
    } else {
      probes.progress = [c = closed.get(), closed0] {
        return c->completed() - closed0;
      };
    }
    if (traced) post_probes(*d, probes, start, spec.horizon, spec);
    if (engine) {
      engine->launch();
    } else {
      closed->start(start + spec.horizon);
    }
  }

  const Usage u0 = Usage::now();
  const std::uint64_t allocs0 = g_allocs.load();
  g_count_allocs.store(traced);
  const std::uint64_t t0 = mono_ns();
  std::uint64_t events = 0;
  // On the DES the run goes in tenths of the horizon plus the drain after
  // it, each timed: every rep of a seed repeats each slice exactly, so
  // run.py can take each slice's least-disturbed time across reps.
  std::vector<double> slice_wall_s;
  std::vector<double> slice_cpu_s;
  {
    Scope s(tr, "harness.run", rep_span.id());
    if (spec.backend == harness::BackendKind::Sim) {
      std::uint64_t w0 = t0;
      Usage c0 = u0;
      for (int k = 1; k <= kCheckpoints + 1; ++k) {
        events += k <= kCheckpoints
                      ? d->world().run_until(start + spec.horizon *
                                                         static_cast<Time>(k) /
                                                         kCheckpoints)
                      : d->run();
        const std::uint64_t w1 = mono_ns();
        const Usage c1 = Usage::now();
        slice_wall_s.push_back(static_cast<double>(w1 - w0) / 1e9);
        slice_cpu_s.push_back((c1 - c0).cpu_s);
        w0 = w1;
        c0 = c1;
      }
    } else {
      events = d->run();
    }
  }
  const std::uint64_t t1 = mono_ns();
  g_count_allocs.store(false);
  const std::uint64_t allocs = g_allocs.load() - allocs0;
  const Usage usage = Usage::now() - u0;

  {
    Scope s(tr, "checker.check", rep_span.id());
    require(!d->backend().timed_out(),
            std::string(spec.name) + ": run timed out (liveness failure)");
    const auto report = d->check();
    if (!report.ok()) {
      throw Failure(std::string(spec.name) + ": history check failed: " +
                    report.violations.front());
    }
    require(d->log().recorded_total() == d->log().completed_total(),
            std::string(spec.name) + ": an operation never completed");
    s.set_args("\"reads_checked\": " + std::to_string(report.reads_checked) +
               ", \"writes_checked\": " +
               std::to_string(report.writes_checked));
  }

  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t max_queue = 0;
  Hist sojourn;
  if (engine) {
    const auto& st = engine->stats();
    require(st.completed == st.arrivals - st.shed,
            std::string(spec.name) + ": completed != arrivals - shed");
    attempted = st.arrivals;
    completed = st.completed;
    shed = st.shed;
    max_queue = st.max_queue_depth;
    sojourn = Hist::of(st.sojourn);
  } else {
    completed = closed->completed() - closed0;
    attempted = completed;  // a closed loop issues only what it finishes
    sojourn = Hist::of(closed->sojourn());
    sojourn -= sojourn0;
  }
  Hist reads = Hist::of(d->read_latency());
  reads -= reads0;
  Hist writes = Hist::of(d->write_latency());
  writes -= writes0;
  require(completed > 0, std::string(spec.name) + ": no op completed");
  require(reads.n + writes.n == completed,
          std::string(spec.name) + ": latency samples != completed ops");

  netio::TransportStats transport;
  if (auto* mesh = d->backend().mesh()) {
    transport = mesh->transport();
    require(transport.corrupt_frames == 0 && transport.partial_timeouts == 0 &&
                transport.handshake_failures == 0,
            std::string(spec.name) + ": transport errors (corrupt " +
                std::to_string(transport.corrupt_frames) +
                ", partial timeouts " +
                std::to_string(transport.partial_timeouts) +
                ", handshake failures " +
                std::to_string(transport.handshake_failures) + ")");
  }

  using namespace rr::wire;
  const net::NetStats net = net_delta(d->stats(), net0);
  const auto window = d->checker_stats();
  // DES events include the posted probes; the other backends count
  // delivered messages, which probes are not.
  if (spec.backend == harness::BackendKind::Sim) events -= probes.count();

  out.raw("setup_s", json_array(setups))
      .num("build_s", build_s)
      .num("first_op_s", first_op_s)
      .num("run_s", static_cast<double>(t1 - t0) / 1e9)
      .raw("slice_wall_s", json_array(slice_wall_s))
      .raw("slice_cpu_s", json_array(slice_cpu_s))
      .count("attempted", attempted)
      .count("completed", completed)
      .count("shed", shed)
      .count("max_queue_depth", max_queue)
      .count("events", events)
      .count("messages_sent", net.messages_sent)
      .count("bytes_sent", net.bytes_sent)
      .count("hist_slots_shipped", net.hist_slots_shipped)
      .count("read_msgs",
             msgs_of(net, {message_index<ReadMsg>(),
                           message_index<ReadAckMsg>(),
                           message_index<HistReadMsg>(),
                           message_index<HistReadAckMsg>()}))
      .count("write_msgs",
             msgs_of(net, {message_index<PwMsg>(), message_index<PwAckMsg>(),
                           message_index<WMsg>(), message_index<WAckMsg>()}))
      .num("cpu_s", usage.cpu_s)
      .num("sys_s", usage.sys_s)
      .count("ctx_switches", usage.ctx_switches)
      .count("allocs", allocs)
      .raw("reads", reads.to_json("read latency"))
      .raw("writes", writes.to_json("write latency"))
      .raw("sojourn", sojourn.to_json("sojourn"))
      .count("checker_peak_live", window.peak_live)
      .count("checker_retired", window.retired)
      .count("connects", transport.connects)
      .count("corrupt_frames", transport.corrupt_frames)
      .count("partial_timeouts", transport.partial_timeouts)
      .count("handshake_failures", transport.handshake_failures);

  if (traced) {
    std::vector<double> lateness;
    for (const auto& s : probes.lateness) {
      lateness.push_back(static_cast<double>(s.late));
    }
    std::uint64_t history_peak = 0;
    for (const auto& s : probes.history) {
      history_peak = std::max(history_peak, s.value);
    }
    out.raw("lateness_ns", json_array(lateness))
        .num("cost_growth", cost_growth(probes))
        .count("history_peak", history_peak);
    add_probe_spans(tr, probes, rep_span.id());
  }

  {
    Scope s(tr, "harness.dtor", rep_span.id());
    engine.reset();
    closed.reset();
    d.reset();
  }
  out.num("peak_rss_mb", peak_rss_mb());

  if (traced) {
    Scope s(tr, "wire.corpus", rep_span.id());
    std::string err;
    const auto w = perfbench::time_wire(
        net, deployment_options(spec, seed).res.num_objects, spec.readers,
        err);
    require(w.has_value(), err);
    out.raw("wire", JsonFields()
                        .num("encode_ns", w->encode_ns)
                        .num("decode_ns", w->decode_ns)
                        .num("frame_feed_ns", w->frame_feed_ns)
                        .num("encoded_size_ns", w->encoded_size_ns)
                        .str());
  }
  rep_span.set_args("\"completed\": " + std::to_string(completed));
  return out.raw("spans", tr.to_json()).str();
}

/// A fixed integer-mixing loop, timed (median of 7): tells a slower machine
/// apart from a slower program.
double calibrate() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> t;
  for (int r = 0; r < 7; ++r) {
    const std::uint64_t t0 = mono_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t k = 0; k < (1u << 22); ++k) x = mix64(x + k);
    sink = sink + x;
    t.push_back(static_cast<double>(mono_ns() - t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Pins this thread, and so every thread it starts later, to the last CPU
/// the process may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  require(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
          "sched_getaffinity failed");
  int cpu = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  require(sched_setaffinity(0, sizeof one, &one) == 0,
          "sched_setaffinity failed");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --trace 0|1 "
               "[--setups K]\n       perfbench --calibrate\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  int setups = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--calibrate") {
      std::printf("{\"calib_ns\": %.17g}\n", calibrate());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage();
      }
      traced = v[0] == '1';
    } else if (k == "--setups") {
      setups = std::atoi(v);
      if (setups < 0 || setups > 100) return usage();
    } else {
      return usage();
    }
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return usage();
  }
  try {
    if (spec->one_cpu) pin_to_one_cpu();
    const std::string line = run_rep(*spec, seed, traced, setups);
    std::printf("%s\n", line.c_str());
  } catch (const Failure& f) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.what());
    return 1;
  }
  return 0;
}
