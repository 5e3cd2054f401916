#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace rr::harness {
namespace {

/// Shared chaining state for a stream of operations by one client.
struct StreamState {
  int shard{0};
  int remaining{0};
  Ts next_value{1};
  Time gap{0};
  OpStats* stats{nullptr};
  std::function<void()> on_done;
};

void schedule_next_write(Deployment& d, const std::shared_ptr<StreamState>& st,
                         Time at);

void on_write_complete(Deployment& d, const std::shared_ptr<StreamState>& st,
                       const core::WriteResult& r) {
  if (st->stats != nullptr) st->stats->add(r.latency(), r.rounds);
  if (--st->remaining > 0) {
    schedule_next_write(d, st, r.completed_at + st->gap);
  } else if (st->on_done) {
    st->on_done();
  }
}

void schedule_next_write(Deployment& d, const std::shared_ptr<StreamState>& st,
                         Time at) {
  const Value v = value_for(st->next_value++);
  d.logged_write(at, st->shard, v, [&d, st](const core::WriteResult& r) {
    on_write_complete(d, st, r);
  });
}

void schedule_next_read(Deployment& d, int reader,
                        const std::shared_ptr<StreamState>& st, Time at);

void on_read_complete(Deployment& d, int reader,
                      const std::shared_ptr<StreamState>& st,
                      const core::ReadResult& r) {
  if (st->stats != nullptr) st->stats->add(r.latency(), r.rounds);
  if (--st->remaining > 0) {
    schedule_next_read(d, reader, st, r.completed_at + st->gap);
  } else if (st->on_done) {
    st->on_done();
  }
}

void schedule_next_read(Deployment& d, int reader,
                        const std::shared_ptr<StreamState>& st, Time at) {
  d.logged_read(at, st->shard, reader,
                [&d, reader, st](const core::ReadResult& r) {
                  on_read_complete(d, reader, st, r);
                });
}

}  // namespace

void write_stream(Deployment& d, int shard, Time start, Time gap, int count,
                  OpStats* stats, std::function<void()> on_done) {
  if (count <= 0) {
    if (on_done) on_done();
    return;
  }
  auto st = std::make_shared<StreamState>();
  st->shard = shard;
  st->remaining = count;
  st->gap = gap;
  st->stats = stats;
  st->on_done = std::move(on_done);
  schedule_next_write(d, st, start);
}

void write_stream(Deployment& d, Time start, Time gap, int count,
                  OpStats* stats, std::function<void()> on_done) {
  write_stream(d, 0, start, gap, count, stats, std::move(on_done));
}

void read_stream(Deployment& d, int shard, int reader, Time start, Time gap,
                 int count, OpStats* stats, std::function<void()> on_done) {
  if (count <= 0) {
    if (on_done) on_done();
    return;
  }
  auto st = std::make_shared<StreamState>();
  st->shard = shard;
  st->remaining = count;
  st->gap = gap;
  st->stats = stats;
  st->on_done = std::move(on_done);
  schedule_next_read(d, reader, st, start);
}

void read_stream(Deployment& d, int reader, Time start, Time gap, int count,
                 OpStats* stats, std::function<void()> on_done) {
  read_stream(d, 0, reader, start, gap, count, stats, std::move(on_done));
}

void mixed_workload(Deployment& d, const MixedWorkloadOptions& opts,
                    MixedWorkloadStats* stats) {
  for (int s = 0; s < d.shards(); ++s) {
    write_stream(d, s, opts.start, opts.write_gap, opts.writes,
                 stats != nullptr ? &stats->writes : nullptr);
    for (int j = 0; j < d.res().num_readers; ++j) {
      read_stream(d, s, j, opts.start + 500, opts.read_gap,
                  opts.reads_per_reader,
                  stats != nullptr ? &stats->reads : nullptr);
    }
  }
}

void sequential_then_reads(Deployment& d, int writes, int reads_per_reader,
                           MixedWorkloadStats* stats) {
  auto* write_stats = stats != nullptr ? &stats->writes : nullptr;
  auto* read_stats = stats != nullptr ? &stats->reads : nullptr;
  // Per shard, the write stream finishes before any of the shard's reads
  // begin: the done-callback schedules the read streams, so every read is
  // non-concurrent with every write of its own register and the checker's
  // strictest branch (exact value pinning) applies.
  for (int s = 0; s < d.shards(); ++s) {
    write_stream(d, s, 0, 1'000, writes, write_stats,
                 [&d, s, reads_per_reader, read_stats]() {
                   const Time start = d.now() + 10'000;
                   for (int j = 0; j < d.res().num_readers; ++j) {
                     read_stream(d, s, j, start, 2'000, reads_per_reader,
                                 read_stats);
                   }
                 });
  }
}

// ---------------------------------------------------------------------------
// Open-loop load engine.

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::Closed: return "closed";
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::Bursty: return "bursty";
    case ArrivalKind::Diurnal: return "diurnal";
  }
  return "unknown";
}

std::optional<ArrivalKind> arrival_from_name(std::string_view name) {
  for (const auto k : {ArrivalKind::Closed, ArrivalKind::Poisson,
                       ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

ArrivalSampler::ArrivalSampler(const OpenLoopOptions& opts,
                               std::uint64_t seed)
    : kind_(opts.arrival),
      start_(opts.start),
      horizon_(std::max<Time>(1, opts.horizon)),
      burst_period_(opts.burst_period != 0
                        ? opts.burst_period
                        : std::max<Time>(1, opts.horizon / 8)),
      burst_duty_(std::clamp(opts.burst_duty, 0.01, 1.0)),
      burst_boost_(std::max(1.0, opts.burst_boost)),
      rng_(seed) {
  const double base = static_cast<double>(std::max<std::uint64_t>(
                          1, opts.clients)) /
                      static_cast<double>(std::max<Time>(1, opts.mean_think));
  double peak_mult = 1.0;
  if (kind_ == ArrivalKind::Bursty) peak_mult = burst_boost_;
  if (kind_ == ArrivalKind::Diurnal) peak_mult = 2.0;
  peak_rate_ = base * peak_mult;
}

double ArrivalSampler::accept_probability(Time t) const {
  const Time since = t >= start_ ? t - start_ : 0;
  switch (kind_) {
    case ArrivalKind::Closed:
    case ArrivalKind::Poisson:
      return 1.0;
    case ArrivalKind::Bursty: {
      const Time phase = since % burst_period_;
      const bool in_burst =
          static_cast<double>(phase) <
          burst_duty_ * static_cast<double>(burst_period_);
      return in_burst ? 1.0 : 1.0 / burst_boost_;
    }
    case ArrivalKind::Diurnal: {
      // Triangle ramp: rate 0.2x at the horizon's ends, 2x at its middle
      // (peak-normalized below); past the horizon the tail stays at 0.2x.
      const double frac = std::min(
          1.0, static_cast<double>(since) / static_cast<double>(horizon_));
      const double tri = 1.0 - std::abs(2.0 * frac - 1.0);
      return (0.2 + 1.8 * tri) / 2.0;
    }
  }
  return 1.0;
}

Time ArrivalSampler::next(Time now) {
  // Thinning (Lewis & Shedler): exponential candidates at the peak rate,
  // accepted with probability rate(t) / peak. Every shape's floor is
  // bounded away from zero, so this terminates.
  Time delta = 0;
  for (;;) {
    const double u = 1.0 - rng_.uniform01();  // (0, 1]: log() stays finite
    const double dt = -std::log(u) / peak_rate_;
    delta += std::max<Time>(1, static_cast<Time>(dt));
    if (rng_.chance(accept_probability(now + delta))) return delta;
  }
}

namespace {

OpenLoopOptions sanitize(OpenLoopOptions o) {
  o.clients = std::max<std::uint64_t>(1, o.clients);
  o.horizon = std::max<Time>(1, o.horizon);
  o.mean_think = std::max<Time>(1, o.mean_think);
  o.write_fraction = std::clamp(o.write_fraction, 0.0, 1.0);
  o.queue_cap = std::max<std::size_t>(1, o.queue_cap);
  return o;
}

}  // namespace

OpenLoopEngine::OpenLoopEngine(Deployment& d, OpenLoopOptions opts)
    : d_(d),
      opts_(sanitize(std::move(opts))),
      sampler_(opts_, mix64(opts_.seed ^ 0xa77ULL)),
      rng_(mix64(opts_.seed ^ 0x10adULL)) {
  RR_ASSERT_MSG(opts_.arrival != ArrivalKind::Closed,
                "OpenLoopEngine requires an open arrival process");
  RR_ASSERT_MSG(opts_.clients <= 0xffffffffULL,
                "client ids are 32-bit in the station rings");
  const std::size_t stations = station_count();
  rings_.reserve(stations);
  for (std::size_t i = 0; i < stations; ++i) {
    rings_.emplace_back(opts_.queue_cap);
  }
  busy_.assign(stations, 0);
  in_flight_arrival_.assign(stations, 0);
  next_write_k_.assign(static_cast<std::size_t>(d_.shards()), 0);
  client_seen_.assign(static_cast<std::size_t>((opts_.clients + 63) / 64), 0);
}

std::size_t OpenLoopEngine::station_count() const {
  return static_cast<std::size_t>(d_.shards()) *
         static_cast<std::size_t>(1 + d_.res().num_readers);
}

void OpenLoopEngine::launch() {
  RR_ASSERT_MSG(!launched_, "launch() may be called once");
  launched_ = true;
  schedule_next(opts_.start);
}

void OpenLoopEngine::schedule_next(Time t) {
  const Time nt = t + sampler_.next(t);
  if (nt >= opts_.start + opts_.horizon) return;
  // The arrival chain is one self-rescheduling step hosted on shard 0's
  // writer pid: a single driver regardless of population, so the engine's
  // footprint is O(stations) even at millions of clients.
  d_.backend().post(nt, d_.writer_pid(0), [this, nt](net::Context&) {
    on_arrival(nt);
    schedule_next(nt);
  });
}

void OpenLoopEngine::on_arrival(Time t) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.arrivals;
  const auto client =
      static_cast<std::uint32_t>(rng_.uniform(0, opts_.clients - 1));
  const std::size_t word = client >> 6;
  const std::uint64_t bit = 1ULL << (client & 63);
  if ((client_seen_[word] & bit) == 0) {
    client_seen_[word] |= bit;
    ++stats_.distinct_clients;
  }
  const bool is_write = rng_.chance(opts_.write_fraction);
  const auto shards = static_cast<std::uint32_t>(d_.shards());
  const auto readers = static_cast<std::uint32_t>(d_.res().num_readers);
  const std::uint32_t shard = client % shards;
  const std::uint32_t j =
      is_write ? 0 : 1 + (client / shards) % readers;
  const std::size_t station = shard * (1 + readers) + j;
  if (busy_[station] == 0) {
    issue(station, t, client, t);
  } else if (rings_[station].push(t, client)) {
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth,
                                rings_[station].size());
  } else {
    ++stats_.shed;
  }
}

void OpenLoopEngine::issue(std::size_t station, Time arrival,
                           std::uint32_t client, Time at) {
  (void)client;  // the station, not the client id, determines the op
  busy_[station] = 1;
  in_flight_arrival_[station] = arrival;
  const auto readers = static_cast<std::size_t>(d_.res().num_readers);
  const int shard = static_cast<int>(station / (1 + readers));
  const std::size_t j = station % (1 + readers);
  if (j == 0) {
    ++stats_.writes_issued;
    const Ts k = ++next_write_k_[static_cast<std::size_t>(shard)];
    d_.logged_write(at, shard, value_for(k),
                    [this, station](const core::WriteResult&) {
                      on_complete(station);
                    });
  } else {
    ++stats_.reads_issued;
    d_.logged_read(at, shard, static_cast<int>(j - 1),
                   [this, station](const core::ReadResult&) {
                     on_complete(station);
                   });
  }
}

void OpenLoopEngine::on_complete(std::size_t station) {
  const Time now = d_.now();
  const std::lock_guard<std::mutex> lock(mu_);
  const Time arrival = in_flight_arrival_[station];
  ++stats_.completed;
  stats_.sojourn.record(now > arrival ? now - arrival : 0);
  busy_[station] = 0;
  if (!rings_[station].empty()) {
    Time queued_arrival = 0;
    std::uint32_t client = 0;
    rings_[station].pop(queued_arrival, client);
    issue(station, queued_arrival, client, now);
  }
}

}  // namespace rr::harness
