#include "harness/backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/assert.hpp"
#include "netio/mesh.hpp"
#include "runtime/cluster.hpp"
#include "sim/world.hpp"

namespace rr::harness {

const char* to_string(BackendKind k) {
  for (const auto& t : backend_registry()) {
    if (t.kind == k) return t.name;
  }
  return "?";
}

std::optional<BackendKind> backend_from_name(std::string_view name) {
  for (const auto& t : backend_registry()) {
    if (name == t.name || (t.alias != nullptr && name == t.alias)) {
      return t.kind;
    }
  }
  return std::nullopt;
}

std::string backend_names() {
  std::string out;
  for (const auto& t : backend_registry()) {
    if (!out.empty()) out += '|';
    out += t.name;
  }
  return out;
}

namespace {

/// The wall-clock backends can't stretch channel delays after the fact, so
/// gray is an injected per-step delay on the slow-but-alive process:
/// (factor - 1) x 20us approximates "answers everything, factor-of-N late"
/// at this harness's message scale. 0 (healthy) for factor <= 1.
std::uint64_t gray_step_ns(double factor) {
  constexpr double kGrayStepNs = 20'000.0;
  return factor > 1.0 ? static_cast<std::uint64_t>((factor - 1.0) * kGrayStepNs)
                      : 0;
}

class SimBackend final : public Backend {
 public:
  explicit SimBackend(const BackendConfig& cfg) {
    sim::WorldOptions wopts;
    wopts.seed = cfg.seed;
    wopts.reserialize = cfg.reserialize;
    wopts.trace_fingerprint = cfg.trace_fingerprint;
    world_ = std::make_unique<sim::World>(wopts);
    switch (cfg.delay) {
      case DelayKind::Fixed:
        world_->set_delay_model(std::make_unique<sim::FixedDelay>(cfg.delay_lo));
        break;
      case DelayKind::Uniform:
        world_->set_delay_model(
            std::make_unique<sim::UniformDelay>(cfg.delay_lo, cfg.delay_hi));
        break;
      case DelayKind::HeavyTail:
        world_->set_delay_model(std::make_unique<sim::HeavyTailDelay>(
            cfg.delay_lo, cfg.delay_hi, 0.05));
        break;
    }
  }

  ProcessId add_process(std::unique_ptr<net::Process> p) override {
    return world_->add_process(std::move(p));
  }
  void start() override { world_->start(); }
  void post(Time at, ProcessId pid, net::PostFn fn) override {
    world_->post(std::max(at, world_->now()), pid, std::move(fn));
  }
  std::uint64_t run() override { return world_->run(); }
  [[nodiscard]] Time now() const override { return world_->now(); }

  void crash(ProcessId pid) override { world_->crash(pid); }
  void hold(ProcessId from, ProcessId to) override { world_->hold(from, to); }
  void release(ProcessId from, ProcessId to) override {
    world_->release(from, to);
  }
  void hold_all(ProcessId pid) override { world_->hold_all(pid); }
  void release_all(ProcessId pid) override { world_->release_all(pid); }

  void set_link_faults(const net::LinkFaults& lf) override {
    world_->set_link_faults(lf);
  }
  void set_gray(ProcessId pid, double factor) override {
    world_->set_gray(pid, factor);
  }
  bool set_clock_skew(ProcessId pid, std::int64_t offset) override {
    world_->set_clock_skew(pid, offset);
    return true;
  }
  [[nodiscard]] int num_processes() const override {
    return world_->num_processes();
  }

  [[nodiscard]] net::NetStats stats() const override {
    return world_->stats();
  }
  [[nodiscard]] net::Process& process(ProcessId pid) override {
    return world_->process(pid);
  }
  [[nodiscard]] const char* name() const override {
    return to_string(BackendKind::Sim);
  }
  [[nodiscard]] sim::World* world() override { return world_.get(); }

 private:
  std::unique_ptr<sim::World> world_;
};

class ThreadBackend final : public Backend {
 public:
  explicit ThreadBackend(const BackendConfig& cfg)
      : run_timeout_(cfg.run_timeout_ms), max_wall_ms_(cfg.max_wall_time_ms) {
    runtime::ClusterOptions copts;
    copts.seed = cfg.seed;
    copts.max_jitter_us = cfg.max_jitter_us;
    copts.reserialize = cfg.reserialize;
    copts.batched_drain = cfg.threads_batched_drain;
    cluster_ = std::make_unique<runtime::Cluster>(copts);
  }

  ProcessId add_process(std::unique_ptr<net::Process> p) override {
    // Every harness-managed process is active: clients need their own
    // mailbox thread so posted invocations and completion callbacks run as
    // automaton steps, exactly as under the DES.
    return cluster_->add(std::move(p), /*active=*/true);
  }
  void start() override { cluster_->start(); }
  void post(Time at, ProcessId pid, net::PostFn fn) override {
    cluster_->post(at, pid, std::move(fn));
  }
  std::uint64_t run() override {
    // Once a bounded run has given up, the cluster is stopped: later runs
    // report immediately instead of burning another full deadline.
    if (timed_out_) return 0;
    const std::uint64_t bound = max_wall_ms_ > 0 ? max_wall_ms_ : run_timeout_;
    const bool quiesced =
        cluster_->run_quiescent(std::chrono::milliseconds(bound));
    if (!quiesced) {
      if (max_wall_ms_ > 0) {
        // Graceful degradation: stop the threads (joining them makes the
        // histories and stats safe to read single-threaded) and let the
        // harness turn this into a liveness-failure verdict.
        timed_out_ = true;
        cluster_->stop();
        return delivered_since_last_run();
      }
      RR_ASSERT_MSG(quiesced,
                    "thread backend failed to quiesce: livelock or a fault "
                    "plan exceeding the resilience budget");
    }
    return delivered_since_last_run();
  }
  [[nodiscard]] Time now() const override { return cluster_->now(); }

  void crash(ProcessId pid) override { cluster_->crash(pid); }
  void hold(ProcessId from, ProcessId to) override {
    cluster_->hold(from, to);
  }
  void release(ProcessId from, ProcessId to) override {
    cluster_->release(from, to);
  }
  void hold_all(ProcessId pid) override { cluster_->hold_all(pid); }
  void release_all(ProcessId pid) override { cluster_->release_all(pid); }

  void set_link_faults(const net::LinkFaults& lf) override {
    cluster_->set_link_faults(lf);
  }
  void set_gray(ProcessId pid, double factor) override {
    cluster_->set_gray(pid, gray_step_ns(factor));
  }
  [[nodiscard]] bool timed_out() const override { return timed_out_; }
  [[nodiscard]] int num_processes() const override {
    return cluster_->num_processes();
  }

  [[nodiscard]] net::NetStats stats() const override {
    return cluster_->stats();
  }
  [[nodiscard]] net::Process& process(ProcessId pid) override {
    return cluster_->process(pid);
  }
  [[nodiscard]] const char* name() const override {
    return to_string(BackendKind::Threads);
  }
  [[nodiscard]] runtime::Cluster* cluster() override {
    return cluster_.get();
  }

 private:
  /// Counted from the end of the previous run, not from the start of this
  /// one: on real threads work starts the moment it is posted, so messages
  /// delivered between a post and run() belong to this run too.
  std::uint64_t delivered_since_last_run() {
    const std::uint64_t total = cluster_->messages_delivered();
    const std::uint64_t n = total - reported_delivered_;
    reported_delivered_ = total;
    return n;
  }

  std::unique_ptr<runtime::Cluster> cluster_;
  std::uint64_t run_timeout_;
  std::uint64_t max_wall_ms_;
  bool timed_out_{false};
  std::uint64_t reported_delivered_{0};
};

/// Real sockets: netio::Mesh behind the Backend contract. Mirrors
/// ThreadBackend's run()/timed_out() shape -- real time, bounded runs
/// degrade to a liveness verdict -- but every message genuinely crosses a
/// loopback-TCP socket as framed codec bytes, so the reserialize flag is
/// inherently satisfied and the fault surface lives in the userspace proxy
/// between sockets and automata (see netio/mesh.hpp).
class NetBackend final : public Backend {
 public:
  explicit NetBackend(const BackendConfig& cfg)
      : run_timeout_(cfg.run_timeout_ms), max_wall_ms_(cfg.max_wall_time_ms) {
    netio::MeshOptions mopts;
    mopts.seed = cfg.seed;
    mopts.max_jitter_us = cfg.max_jitter_us;
    mopts.max_frame_bytes = cfg.net_max_frame_bytes;
    mopts.frame_timeout_ms = cfg.net_frame_timeout_ms;
    mesh_ = std::make_unique<netio::Mesh>(mopts);
  }

  ProcessId add_process(std::unique_ptr<net::Process> p) override {
    return mesh_->add(std::move(p));
  }
  void start() override { mesh_->start(); }
  void post(Time at, ProcessId pid, net::PostFn fn) override {
    mesh_->post(at, pid, std::move(fn));
  }
  std::uint64_t run() override {
    if (timed_out_) return 0;
    const std::uint64_t before = mesh_->messages_delivered();
    const std::uint64_t bound = max_wall_ms_ > 0 ? max_wall_ms_ : run_timeout_;
    const bool quiesced =
        mesh_->run_quiescent(std::chrono::milliseconds(bound));
    if (!quiesced) {
      if (max_wall_ms_ > 0) {
        // A stalled quorum over real sockets is a red sweep cell, not a
        // hung CI job: stop the mesh and report a liveness verdict.
        timed_out_ = true;
        mesh_->stop();
        return mesh_->messages_delivered() - before;
      }
      RR_ASSERT_MSG(quiesced,
                    "net backend failed to quiesce: livelock, a dead "
                    "transport, or a fault plan exceeding the resilience "
                    "budget");
    }
    return mesh_->messages_delivered() - before;
  }
  [[nodiscard]] Time now() const override { return mesh_->now(); }

  void crash(ProcessId pid) override { mesh_->crash(pid); }
  void hold(ProcessId from, ProcessId to) override { mesh_->hold(from, to); }
  void release(ProcessId from, ProcessId to) override {
    mesh_->release(from, to);
  }
  void hold_all(ProcessId pid) override { mesh_->hold_all(pid); }
  void release_all(ProcessId pid) override { mesh_->release_all(pid); }

  void set_link_faults(const net::LinkFaults& lf) override {
    mesh_->set_link_faults(lf);
  }
  void set_gray(ProcessId pid, double factor) override {
    mesh_->set_gray(pid, gray_step_ns(factor));
  }
  [[nodiscard]] bool timed_out() const override { return timed_out_; }
  [[nodiscard]] int num_processes() const override {
    return mesh_->num_processes();
  }

  [[nodiscard]] net::NetStats stats() const override { return mesh_->stats(); }
  [[nodiscard]] net::Process& process(ProcessId pid) override {
    return mesh_->process(pid);
  }
  [[nodiscard]] const char* name() const override {
    return to_string(BackendKind::Net);
  }
  [[nodiscard]] netio::Mesh* mesh() override { return mesh_.get(); }

 private:
  std::unique_ptr<netio::Mesh> mesh_;
  std::uint64_t run_timeout_;
  std::uint64_t max_wall_ms_;
  bool timed_out_{false};
};

template <class B>
std::unique_ptr<Backend> make_impl(const BackendConfig& cfg) {
  return std::make_unique<B>(cfg);
}

}  // namespace

const std::vector<BackendTraits>& backend_registry() {
  static const std::vector<BackendTraits> kRegistry = {
      {BackendKind::Sim, "des", "sim",
       "deterministic discrete-event simulator (virtual time)",
       &make_impl<SimBackend>},
      {BackendKind::Threads, "threads", "thread",
       "real threads with mailbox queues (wall-clock time)",
       &make_impl<ThreadBackend>},
      {BackendKind::Net, "net", "sockets",
       "loopback-TCP socket mesh with a fault-injecting userspace proxy",
       &make_impl<NetBackend>},
  };
  return kRegistry;
}

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const BackendConfig& cfg) {
  for (const auto& t : backend_registry()) {
    if (t.kind == kind) return t.make(cfg);
  }
  return nullptr;
}

}  // namespace rr::harness
