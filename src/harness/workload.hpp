// Workload generators over a Deployment.
//
// All workloads are chained through operation callbacks (one operation at a
// time per client, matching Section 2.2) and record into the deployment's
// per-shard HistoryLogs, so any run -- on either backend, at any shard
// count -- can be checked post-hoc. Streams target one shard; the mixed
// workloads fan out over every shard of the deployment.
//
// Two loops live here. The *closed* loop (write_stream / read_stream /
// mixed_workload) issues the next op a fixed gap after the previous one
// completed: offered load adapts to service time, so it can never expose
// queueing collapse. The *open* loop (OpenLoopEngine) decouples arrivals
// from completions: simulated clients arrive by a seeded stochastic process
// (Poisson / bursty / diurnal), each op is stamped with its arrival time,
// and ops queue per client station when the station is busy -- so the
// recorded sojourn (arrival -> completion) includes queueing delay and the
// engine can model millions of clients with O(stations) state: all
// per-client bookkeeping is SoA (a seen-bitmap and fixed-capacity rings),
// never a per-client heap node or closure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/client_types.hpp"
#include "harness/deployment.hpp"
#include "harness/latency.hpp"
#include "harness/stats.hpp"

namespace rr::harness {

/// Value written by the k-th write (k >= 1) in generated workloads.
[[nodiscard]] inline Value value_for(Ts k) {
  return "v" + std::to_string(k);
}

/// Schedules `count` writes on shard 0 starting at `start`; each subsequent
/// write is invoked `gap` after the previous completed. Latencies/rounds
/// are accumulated into `stats` when non-null.
void write_stream(Deployment& d, Time start, Time gap, int count,
                  OpStats* stats = nullptr,
                  std::function<void()> on_done = nullptr);
/// Same, on a specific shard.
void write_stream(Deployment& d, int shard, Time start, Time gap, int count,
                  OpStats* stats = nullptr,
                  std::function<void()> on_done = nullptr);

/// Schedules `count` reads by reader `j` (shard 0) in the same chained
/// fashion.
void read_stream(Deployment& d, int reader, Time start, Time gap, int count,
                 OpStats* stats = nullptr,
                 std::function<void()> on_done = nullptr);
/// Same, on a specific shard.
void read_stream(Deployment& d, int shard, int reader, Time start, Time gap,
                 int count, OpStats* stats = nullptr,
                 std::function<void()> on_done = nullptr);

/// A mixed workload: per shard, one write stream plus one read stream per
/// reader, all concurrent. Returns after scheduling; call d.run() to
/// execute.
struct MixedWorkloadOptions {
  int writes{20};
  int reads_per_reader{20};
  Time start{0};
  Time write_gap{5'000};
  Time read_gap{3'000};
};

struct MixedWorkloadStats {
  OpStats writes;
  OpStats reads;
};

void mixed_workload(Deployment& d, const MixedWorkloadOptions& opts,
                    MixedWorkloadStats* stats = nullptr);

/// Read-only after a quiesced prefix of writes, per shard: a shard's writes
/// run first (serially), then all of its reads start. Useful for "read not
/// concurrent with write" experiments where safety must pin the exact
/// returned value.
void sequential_then_reads(Deployment& d, int writes, int reads_per_reader,
                           MixedWorkloadStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Open-loop load engine.

/// Arrival process shaping the open-loop offered load. Closed is the
/// sentinel "use the classic closed loop instead" (the scenario default).
enum class ArrivalKind {
  Closed,   ///< no open loop: chained streams with fixed think gaps
  Poisson,  ///< memoryless arrivals at rate clients / mean_think
  Bursty,   ///< on/off duty cycle: rate x boost inside bursts
  Diurnal,  ///< triangle ramp over the horizon (slow ends, busy middle)
};

[[nodiscard]] const char* to_string(ArrivalKind k);
[[nodiscard]] std::optional<ArrivalKind> arrival_from_name(
    std::string_view name);

struct OpenLoopOptions {
  ArrivalKind arrival{ArrivalKind::Poisson};
  /// Simulated client population. Clients hold no individual state beyond
  /// one bit; population only scales the arrival rate and the id space.
  std::uint64_t clients{1000};
  Time start{0};
  /// Arrivals are generated in [start, start + horizon); queued ops drain
  /// to completion afterwards.
  Time horizon{1'000'000};
  /// Mean think time per client (backend clock units): the base arrival
  /// rate is clients / mean_think.
  Time mean_think{1'000'000};
  double write_fraction{0.1};
  /// Bursty: cycle length (0 derives horizon / 8), in-burst duty fraction,
  /// and the rate multiplier inside a burst.
  Time burst_period{0};
  double burst_duty{0.25};
  double burst_boost{4.0};
  std::uint64_t seed{1};
  /// Per-station pending-op ring capacity; arrivals beyond it are shed
  /// (counted, never silently dropped).
  std::size_t queue_cap{1024};
};

/// Counters are exact after the run quiesces (relaxed during it).
struct OpenLoopStats {
  std::uint64_t arrivals{0};
  std::uint64_t writes_issued{0};
  std::uint64_t reads_issued{0};
  std::uint64_t completed{0};
  std::uint64_t shed{0};
  std::uint64_t max_queue_depth{0};
  std::uint64_t distinct_clients{0};
  /// Arrival -> completion (queueing included), the open-loop latency.
  LatencyRecorder sojourn;
};

/// Thinned-Poisson arrival-time sampler: candidate arrivals are exponential
/// at the shape's peak rate and accepted with probability rate(t) / peak, so
/// one code path serves all shapes. next() is allocation-free.
class ArrivalSampler {
 public:
  ArrivalSampler(const OpenLoopOptions& opts, std::uint64_t seed);

  /// Inter-arrival delta (>= 1 tick) from absolute time `now`.
  [[nodiscard]] Time next(Time now);

  /// Instantaneous acceptance probability at absolute time `t` (the shape,
  /// normalized to peak 1). Exposed for the shape-sanity tests.
  [[nodiscard]] double accept_probability(Time t) const;

 private:
  ArrivalKind kind_;
  Time start_;
  Time horizon_;
  Time burst_period_;
  double burst_duty_;
  double burst_boost_;
  double peak_rate_;  ///< candidate rate (arrivals per tick)
  Rng rng_;
};

/// Fixed-capacity FIFO of pending (arrival-time, client) pairs for one
/// client station, SoA so a million queued arrivals are two flat arrays.
/// push/pop never allocate after construction.
class StationRing {
 public:
  explicit StationRing(std::size_t capacity)
      : arrivals_(capacity), clients_(capacity) {}

  [[nodiscard]] bool push(Time arrival, std::uint32_t client) {
    if (size_ == arrivals_.size()) return false;
    const std::size_t slot = (head_ + size_) % arrivals_.size();
    arrivals_[slot] = arrival;
    clients_[slot] = client;
    ++size_;
    return true;
  }

  void pop(Time& arrival, std::uint32_t& client) {
    arrival = arrivals_[head_];
    client = clients_[head_];
    head_ = (head_ + 1) % arrivals_.size();
    --size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return arrivals_.size(); }

 private:
  std::vector<Time> arrivals_;
  std::vector<std::uint32_t> clients_;
  std::size_t head_{0};
  std::size_t size_{0};
};

/// Open-loop driver over a Deployment. launch() schedules the seeded
/// arrival chain; run the backend to quiescence, then read stats(). Client
/// c maps to shard c % shards; writes funnel through the shard's writer
/// station and reads through reader station (c / shards) % R, so each
/// station executes its queue one op at a time (histories stay well-formed)
/// while arrivals keep coming -- the gap between the two is the queue.
class OpenLoopEngine {
 public:
  OpenLoopEngine(Deployment& d, OpenLoopOptions opts);

  /// Schedules the arrival chain (call once, before Deployment::run()).
  void launch();

  /// Exact after the run quiesced.
  [[nodiscard]] const OpenLoopStats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::size_t station_count() const;
  void schedule_next(Time t);
  void on_arrival(Time t);
  /// Issues the op for `client` on `station` at absolute time `at`
  /// (requires the station idle; marks it busy). Called under mu_.
  void issue(std::size_t station, Time arrival, std::uint32_t client,
             Time at);
  void on_complete(std::size_t station);

  Deployment& d_;
  OpenLoopOptions opts_;
  ArrivalSampler sampler_;
  Rng rng_;
  OpenLoopStats stats_;
  /// Serializes arrival/completion bookkeeping on the threads backend
  /// (uncontended on the DES).
  std::mutex mu_;
  std::vector<StationRing> rings_;  ///< [shard * (R+1) + j]
  std::vector<std::uint8_t> busy_;
  /// Arrival time of each busy station's op, kept here rather than in the
  /// completion callback so its [this, station] capture fits
  /// std::function's inline storage (no allocation per op).
  std::vector<Time> in_flight_arrival_;
  std::vector<Ts> next_write_k_;  ///< per shard
  std::vector<std::uint64_t> client_seen_;  ///< bitmap, one bit per client
  bool launched_{false};
};

}  // namespace rr::harness
