// One-stop construction of a storage deployment over any backend.
//
// A Deployment wires together, on a harness::Backend (the deterministic
// discrete-event simulator or the threaded cluster): K shards -- each one
// writer plus R readers of the chosen protocol family -- served by S base
// objects, with a fault plan (crashed objects, Byzantine impostors by
// strategy) and a delay model. Protocol wiring comes from the
// protocol-traits registry (harness/protocol.hpp); the physical process
// layout comes from ShardLayout (harness/shard.hpp). It exposes a
// protocol-agnostic invoke/read API plus one HistoryLog per shard, so tests
// and benches can drive any protocol, on either substrate, at any shard
// count, through the same code paths and check every shard's history
// against the paper's correctness conditions.
#pragma once

#include <memory>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "checker/history.hpp"
#include "common/types.hpp"
#include "core/client_api.hpp"
#include "core/client_types.hpp"
#include "harness/backend.hpp"
#include "harness/latency.hpp"
#include "harness/protocol.hpp"
#include "harness/shard.hpp"

namespace rr::core {
class Writer;
class SafeReader;
class RegularReader;
}  // namespace rr::core

namespace rr::baselines {
class PollingReader;
class AuthReader;
}  // namespace rr::baselines

namespace rr::harness {

struct FaultPlan {
  std::vector<int> crashed;  ///< object indices crashed from time 0
  std::map<int, adversary::StrategyKind> byzantine;  ///< index -> strategy

  [[nodiscard]] int total_faulty() const {
    return static_cast<int>(crashed.size() + byzantine.size());
  }

  /// t crashed objects, none Byzantine.
  static FaultPlan crash_only(int count);
  /// `byz` Byzantine objects with `kind`, plus `crash` crashed ones (picked
  /// from the low indices: byzantine first, then crashed).
  static FaultPlan mixed(int byz, adversary::StrategyKind kind, int crash);
};

struct DeploymentOptions {
  Resilience res{Resilience::optimal(1, 1)};
  Protocol protocol{Protocol::Safe};
  /// Execution substrate: deterministic DES or real threads.
  BackendKind backend{BackendKind::Sim};
  /// Number of independent registers served by the deployment. Each shard
  /// gets its own writer and res.num_readers readers; all shards share the
  /// res.num_objects base objects.
  int shards{1};
  std::uint64_t seed{1};
  FaultPlan faults{};
  DelayKind delay{DelayKind::Uniform};
  Time delay_lo{1'000};
  Time delay_hi{10'000};
  bool reserialize{false};  ///< round-trip every message through the codec
  /// DES backend: maintain the schedule fingerprint (sweep determinism).
  bool trace_fingerprint{false};
  /// Threads backend: max artificial delivery jitter (microseconds).
  std::uint32_t thread_jitter_us{0};
  /// Threads backend: swap-drain mailbox batching (default); false selects
  /// the per-message reference path (see BackendConfig).
  bool thread_batched_drain{true};
  /// Regular-object history hard cap: retain at most this many slots
  /// (0 = unlimited, the paper's presentation). Only meaningful for the
  /// Regular / RegularOptimized protocols.
  std::size_t history_limit{0};
  /// Regular-object watermark GC (ack-driven safe-prefix collection); off
  /// reproduces the paper's keep-everything objects, modulo the hard cap.
  bool history_gc{true};
  /// Seeded per-channel link faults (loss / duplication / reorder). The
  /// rules' pid scopes are OBJECT indices here; build() rewrites them to
  /// physical pids via the layout before installing on the backend.
  net::LinkFaults link_faults{};
  /// Per-object local-clock offsets (object index -> signed ns). DES only;
  /// silently ignored on threads (wall clocks don't lie).
  std::map<int, std::int64_t> clock_skew{};
  /// Threads backend: bounded run deadline (ms; 0 = disabled). See
  /// BackendConfig::max_wall_time_ms -- a stalled run reports through
  /// Backend::timed_out() instead of aborting.
  std::uint64_t thread_max_wall_ms{0};
  /// Streaming checker window: when nonzero, each shard's HistoryLog
  /// verifies and retires ops online once nothing live or future can
  /// overlap them, keeping checker memory O(window + in-flight) so soaks
  /// can run forever. 0 retains every op until check().
  std::size_t checker_window{0};
  /// Property retirement verifies (defaults to the protocol's promised
  /// semantics). Unused when checker_window == 0; with the window on,
  /// check()/check_shard() must be called with this same semantics.
  std::optional<Semantics> checker_semantics{};
};

/// harness::Semantics -> checker::Property (the checker layer's mirror).
[[nodiscard]] checker::Property to_property(Semantics s);

class Deployment {
 public:
  explicit Deployment(DeploymentOptions opts);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] Backend& backend() { return *backend_; }
  /// The underlying simulator; asserts unless running on the DES backend.
  [[nodiscard]] sim::World& world();
  /// Logical single-register topology (what each shard's automata see).
  [[nodiscard]] const Topology& topo() const { return topo_; }
  /// Physical process layout across shards.
  [[nodiscard]] const ShardLayout& layout() const { return layout_; }
  [[nodiscard]] const Resilience& res() const { return opts_.res; }
  [[nodiscard]] const DeploymentOptions& options() const { return opts_; }
  [[nodiscard]] int shards() const { return opts_.shards; }
  [[nodiscard]] checker::HistoryLog& log(int shard = 0);
  [[nodiscard]] Time now() const { return backend_->now(); }
  [[nodiscard]] net::NetStats stats() const { return backend_->stats(); }

  /// Invoke -> response latency histograms, in backend clock units, fed by
  /// every WRITE/READ completion across all shards (logged or not). Read
  /// after run() for exact numbers; deterministic on the DES backend.
  [[nodiscard]] const LatencyRecorder& write_latency() const {
    return write_latency_;
  }
  [[nodiscard]] const LatencyRecorder& read_latency() const {
    return read_latency_;
  }

  [[nodiscard]] ProcessId writer_pid(int shard = 0) const {
    return layout_.writer(shard);
  }
  [[nodiscard]] ProcessId reader_pid(int j) const {
    return layout_.reader(0, j);
  }
  [[nodiscard]] ProcessId reader_pid(int shard, int j) const {
    return layout_.reader(shard, j);
  }
  [[nodiscard]] ProcessId object_pid(int i) const {
    return layout_.object(i);
  }

  /// Schedules WRITE(v) on shard 0 at time `at` (unlogged).
  void invoke_write(Time at, Value v, core::WriteCallback cb);
  void invoke_write(Time at, int shard, Value v, core::WriteCallback cb);
  /// Schedules READ() by reader j (shard 0) at time `at` (unlogged).
  void invoke_read(Time at, int reader, core::ReadCallback cb);
  void invoke_read(Time at, int shard, int reader, core::ReadCallback cb);

  /// Logged variants: record invocation/response into the shard's
  /// HistoryLog and then invoke `cb` (which may be null).
  void logged_write(Time at, Value v, core::WriteCallback cb = nullptr);
  void logged_write(Time at, int shard, Value v,
                    core::WriteCallback cb = nullptr);
  void logged_read(Time at, int reader, core::ReadCallback cb = nullptr);
  void logged_read(Time at, int shard, int reader,
                   core::ReadCallback cb = nullptr);

  /// Runs the backend to quiescence; returns events/messages processed.
  std::uint64_t run() { return backend_->run(); }

  /// Checks every shard's recorded history against the protocol's promised
  /// semantics (plus well-formedness); violations are prefixed with their
  /// shard when the deployment is sharded.
  [[nodiscard]] checker::CheckReport check() const;
  [[nodiscard]] checker::CheckReport check(Semantics s) const;
  /// Checks a single shard's history.
  [[nodiscard]] checker::CheckReport check_shard(int shard) const;
  [[nodiscard]] checker::CheckReport check_shard(int shard,
                                                 Semantics s) const;

  /// Windowed-checker residency for one shard (meaningful in batch mode
  /// too: retired is 0 and peak_live is the total recorded).
  [[nodiscard]] checker::WindowStats checker_stats(int shard) const;
  /// Aggregate across shards: retired/live sum, peak_live is the max.
  [[nodiscard]] checker::WindowStats checker_stats() const;

  /// Protocol-agnostic client handles (shard-indexed).
  [[nodiscard]] core::WriterClient& writer_client(int shard = 0);
  [[nodiscard]] core::ReaderClient& reader_client(int shard, int j);

  /// Direct access to the concrete client automata of shard 0 (asserts on
  /// protocol mismatch). Used by protocol-specific tests.
  [[nodiscard]] core::Writer& core_writer();
  [[nodiscard]] core::SafeReader& safe_reader(int j);
  [[nodiscard]] core::RegularReader& regular_reader(int j);
  [[nodiscard]] baselines::PollingReader& polling_reader(int j);
  [[nodiscard]] baselines::AuthReader& auth_reader(int j);
  [[nodiscard]] net::Process& object_process(int i);

 private:
  void build();
  void do_write(net::Context& ctx, int shard, Value v, core::WriteCallback cb);
  void do_read(net::Context& ctx, int shard, int reader, core::ReadCallback cb);

  DeploymentOptions opts_;
  ShardLayout layout_;
  Topology topo_;
  LatencyRecorder write_latency_;
  LatencyRecorder read_latency_;
  std::vector<core::WriterClient*> writers_;               // [shard]
  std::vector<std::vector<core::ReaderClient*>> readers_;  // [shard][j]
  std::vector<std::unique_ptr<checker::HistoryLog>> logs_;  // [shard]
  // Declared last so it is destroyed first: the threads backend joins its
  // worker/timer threads in its destructor, and those threads may still be
  // running closures that touch the logs and client tables above.
  std::unique_ptr<Backend> backend_;
};

}  // namespace rr::harness
