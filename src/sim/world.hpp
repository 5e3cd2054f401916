// Deterministic discrete-event simulator for asynchronous message passing.
//
// The World owns a set of processes (net::Process automata), a virtual
// clock, and an event queue of pending message deliveries and scheduled
// closures. Channels are reliable point-to-point links whose delays come
// from a pluggable DelayModel; on top of that, individual channels can be
// *held* (messages buffered indefinitely, realizing the proofs'
// "messages remain in transit") and later *released*, and processes can be
// crashed at any point.
//
// Everything is deterministic given the seed: events are ordered by
// (virtual time, insertion sequence).
//
// Hot-path design (the simulator is the throughput ceiling for every
// experiment in this reproduction):
//   - The event slab is struct-of-arrays: the hot (at, seq, dest) key
//     fields the 4-ary min-heap compares live in their own densely packed
//     array (EventKey, 24 bytes), separate from the cold payload array
//     (EventBody: Message plus closure). Heap sift-up/down touches only
//     keys, so one cache line serves two sibling comparisons instead of
//     dragging ~100-byte events through the cache.
//   - Slab slots are recycled through a free list; step() *moves* the due
//     body out of its slot, so messages -- including regular-storage
//     histories -- are never deep-copied after send, and a steady-state
//     delivery performs no heap allocation.
//   - run()/run_until() deliver runs of events with equal (time, dest) as
//     one batch: the context, destination slot, and crash check are set up
//     once per run instead of once per message. Order is untouched -- a
//     batch is exactly a prefix of the (at, seq) sort, and events created
//     while the batch runs always sort after it (larger seq, at >= now).
//   - Posted closures are net::PostFn (small-buffer callables), so timer
//     posts with harness-sized captures never heap-allocate.
//   - Byte accounting uses wire::encoded_size(), a counting visitor that
//     never materializes the encoded bytes.
//   - Per-type stats are fixed arrays indexed by Message::variant index;
//     the held-channel check (net::HeldChannels) sits behind a held-channel
//     count, so the common no-holds case is a single branch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fault_plane.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/stats.hpp"
#include "sim/delay.hpp"
#include "wire/messages.hpp"

namespace rr::sim {

/// Traffic statistics now live in net::NetStats (shared with the threaded
/// cluster so cross-backend experiments account traffic identically).
using NetStats = net::NetStats;

struct WorldOptions {
  std::uint64_t seed{1};
  /// Round-trip every message through the binary codec. Proves automata
  /// depend only on message contents; on by default in tests.
  bool reserialize{false};
  /// Hard cap on executed events (guards against non-terminating bugs).
  std::uint64_t max_events{50'000'000};
  /// Maintain a running hash of the executed schedule (time, destination,
  /// event kind, message type of every event, in execution order). Two runs
  /// with the same seed and inputs produce the same fingerprint; any
  /// divergence in delivery order changes it. Off by default: it costs a
  /// handful of arithmetic ops per event on the hot path.
  bool trace_fingerprint{false};
};

class World {
 public:
  using Options = WorldOptions;

  explicit World(Options opts = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Registers a process; ids are assigned densely in registration order so
  /// they match Topology when registered in writer, readers, objects order.
  ProcessId add_process(std::unique_ptr<net::Process> p);

  /// Replaces the automaton behind `pid` (used to swap honest objects for
  /// Byzantine impostors after topology construction).
  void replace_process(ProcessId pid, std::unique_ptr<net::Process> p);

  void set_delay_model(std::unique_ptr<DelayModel> m);

  /// Calls on_start on every process (in id order) at time 0.
  void start();

  /// Schedules `fn` to run as a step of process `pid` at virtual time `at`
  /// (>= now). Used by harnesses to invoke operations. Closures that fit
  /// PostFn's inline buffer are stored without heap allocation.
  void post(Time at, ProcessId pid, net::PostFn fn);

  /// Crash: the process takes no further steps; all messages to and from it
  /// that are not yet delivered are dropped, as are future sends. Messages
  /// buffered on held channels adjacent to the process are discarded
  /// immediately (counted as dropped) so they do not pin memory for the
  /// rest of the run.
  void crash(ProcessId pid);
  [[nodiscard]] bool crashed(ProcessId pid) const;

  /// Holds a channel: messages sent from -> to are buffered, not scheduled.
  void hold(ProcessId from, ProcessId to);
  /// Holds every channel adjacent to `pid` (both directions, all peers
  /// except the self-channel pid -> pid, which local computation never
  /// uses).
  void hold_all(ProcessId pid);
  /// Releases a channel; buffered messages are scheduled for delivery with
  /// fresh delays starting at the current time. FIFO order is preserved.
  void release(ProcessId from, ProcessId to);
  void release_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const;

  /// Installs probabilistic link faults (loss / duplication / reorder),
  /// applied by net::FaultPlane. Sampling draws from one dedicated RNG
  /// stream seeded by `lf.seed`, so the base delay sequence of unaffected
  /// channels is untouched. Loss and duplication apply at send time (before
  /// hold buffering); reorder defers a scheduled delivery by
  /// `lf.reorder_delay`.
  void set_link_faults(const net::LinkFaults& lf);

  /// Marks `pid` gray (slow-but-alive): sampled delays on every channel
  /// adjacent to it are multiplied by `factor` (the larger endpoint factor
  /// wins). `factor <= 1` clears the mark. Models a process that answers
  /// everything, just slowly -- legal under the asynchronous model.
  void set_gray(ProcessId pid, double factor);

  /// Skews `pid`'s local clock: Context::now() during its steps returns
  /// now() + offset (clamped at 0). The global event clock is untouched, so
  /// schedules -- and fingerprints -- only change if an automaton acts on
  /// its local reading.
  void set_clock_skew(ProcessId pid, std::int64_t offset);

  /// `pid`'s local clock reading (now() unless skewed).
  [[nodiscard]] Time local_now(ProcessId pid) const {
    if (skew_.empty() || static_cast<std::size_t>(pid) >= skew_.size()) {
      return now_;
    }
    const std::int64_t off = skew_[static_cast<std::size_t>(pid)];
    if (off >= 0) return now_ + static_cast<Time>(off);
    const auto back = static_cast<Time>(-off);
    return now_ > back ? now_ - back : 0;
  }

  /// Executes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until no events remain (messages held on held channels do not
  /// count). Returns the number of events executed. Consecutive deliveries
  /// to the same destination at the same time are dispatched as one batch;
  /// execution order is identical to repeated step().
  std::uint64_t run();

  /// Runs until the virtual clock would pass `deadline` (events at exactly
  /// `deadline` are executed). Returns events executed.
  std::uint64_t run_until(Time deadline);

  [[nodiscard]] Time now() const { return now_; }

  /// Running hash of the executed schedule (see
  /// WorldOptions::trace_fingerprint). 0 until an event executes with
  /// tracing on; bit-identical across runs for identical schedules.
  [[nodiscard]] std::uint64_t schedule_fingerprint() const { return fp_; }

  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& mutable_stats() { return stats_; }
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] net::Process& process(ProcessId pid);

 private:
  friend class WorldContext;

  using EventIndex = std::uint32_t;

  /// Hot half of the event slab: everything the heap order and the batch
  /// scan need, 24 bytes per event. keys_[i] and bodies_[i] describe the
  /// same event.
  struct EventKey {
    Time at{};
    std::uint64_t seq{};
    ProcessId dest{kNoProcess};
    bool is_delivery{false};
  };

  /// Cold half: the payload moved out when the event executes.
  struct EventBody {
    ProcessId from{kNoProcess};
    wire::Message msg{};
    net::PostFn fn{};
  };

  struct ProcSlot {
    std::unique_ptr<net::Process> proc;
    Rng rng;
    bool crashed{false};
  };

  void do_send(ProcessId from, ProcessId to, wire::Message msg);
  void schedule_delivery(ProcessId from, ProcessId to, wire::Message msg,
                         Time at);
  /// Samples the channel delay and applies the gray multiplier of either
  /// endpoint (used by do_send and by release re-injection).
  [[nodiscard]] Time channel_delay(ProcessId from, ProcessId to);
  /// Non-held scheduling with the reorder rule applied; used per copy.
  void schedule_with_faults(ProcessId from, ProcessId to, wire::Message msg);
  /// Schedules everything in released_ with fresh delays from now, in
  /// backlog order, then empties it.
  void schedule_released();
  /// Executes one event plus, for deliveries, the whole run of queued
  /// deliveries with the same (time, dest). Returns events executed.
  std::uint64_t step_batch();
  /// Runs one delivery's handler (crash filtering + reserialize + stats).
  void deliver_one(net::Context& ctx, ProcSlot& slot, ProcessId from,
                   wire::Message& msg);

  /// Folds one executed event into the schedule fingerprint (SplitMix64
  /// finalizer over (at, dest, from, kind)). Caller checks the option flag.
  void fp_note(const EventKey& key, const EventBody& body);

  // Slab + free list + index heap.
  [[nodiscard]] EventIndex alloc_event();
  [[nodiscard]] bool event_before(EventIndex a, EventIndex b) const {
    const EventKey& ka = keys_[a];
    const EventKey& kb = keys_[b];
    if (ka.at != kb.at) return ka.at < kb.at;
    return ka.seq < kb.seq;
  }
  void heap_push(EventIndex idx);
  [[nodiscard]] EventIndex heap_pop();

  Options opts_;
  Rng rng_;
  Time now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t fp_{0};
  std::vector<ProcSlot> procs_;

  std::vector<EventKey> keys_;      ///< event slab, hot (at, seq, dest) half
  std::vector<EventBody> bodies_;   ///< event slab, payload half
  std::vector<EventIndex> free_;    ///< recycled slab slots
  std::vector<EventIndex> heap_;    ///< 4-ary min-heap of slab indices

  net::HeldChannels held_;
  /// Reused release scratch, so hold/release waves allocate nothing at
  /// steady state.
  std::vector<net::Released> released_;

  // Gray-failure library state. All empty/disabled by default: the hot path
  // pays one predictable branch (link faults off, gray_.empty()) per send.
  net::FaultPlane link_;
  Rng link_rng_{0};                 ///< the fault plane's one DES stream
  std::vector<double> gray_;        ///< per-pid delay multiplier (1 = none)
  std::vector<std::int64_t> skew_;  ///< per-pid local-clock offset

  std::unique_ptr<DelayModel> delay_;
  NetStats stats_;
};

}  // namespace rr::sim
