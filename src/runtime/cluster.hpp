// Threaded in-process runtime: the same protocol automata that run under the
// discrete-event simulator, deployed on real threads with mailbox queues.
//
// Processes come in two kinds:
//   active   -- each gets its own thread draining its mailbox (base objects,
//               servers, and harness-driven clients),
//   passive  -- owned by a caller thread, which drives the automaton via
//               drive() / with_context() (this realizes blocking operations
//               without the automaton ever blocking).
//
// Every automaton is touched by one thread at a time -- whichever holds its
// stepping token -- so the protocol code needs no synchronization, exactly
// as under the DES.
//
// The message path runs each message on a thread that already holds, or can
// take, its destination's stepping token (see docs/ARCHITECTURE.md,
// "Threaded backend hot path"):
//   - Delegation. A message whose destination token is free and whose hot
//     lane is empty is stepped inline on the sending thread. A message whose
//     destination token is busy is only enqueued -- no wakeup -- because
//     every token holder drains the destination's hot lane before it
//     releases the token, and re-takes the token if a message landed in the
//     gap. Delivering a message therefore needs no thread switch.
//   - Inline steps are not counted. Only cluster-owned threads, inside a
//     step that pending_ already counts, deliver inline (nesting capped at
//     kMaxInlineDepth), so an inline delivery touches no counter shared
//     across cores. Delivered counts live per slot, written by the holder.
//   - Swap-drain mailboxes. Each lane is a double-buffered pair of vectors:
//     the token holder takes the slot lock once, swaps the whole lane into
//     its drain buffer and dispatches the run lock-free; cleared buffers
//     keep their capacity, so steady-state delivery allocates nothing.
//   - Lean envelopes. The hot lane moves only {from, msg}; posted closures
//     (net::PostFn, 128-byte inline buffer) travel in a separate cold lane
//     that only the owner's mailbox thread (or drive()) runs, and whose
//     empty -> non-empty transition is the one wakeup a producer sends.
//
// Beyond raw transport the cluster supports the same experiment surface as
// sim::World, so the harness can drive either backend through one
// interface:
//   - post(at, pid, fn): timed closure steps (a timer thread moves due
//     closures into the target's cold lane),
//   - crash(pid) and held channels (hold/release buffers messages exactly
//     like the proofs' "messages remain in transit" tactic),
//   - run_quiescent(): blocks until no queued, buffered-timer, or in-flight
//     work remains (held-channel buffers do not count, mirroring World::run),
//   - NetStats accounting identical to the simulator's (same counting
//     visitor for bytes), plus optional codec round-tripping per delivery.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fault_plane.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "net/stats.hpp"

namespace rr::runtime {

struct ClusterOptions {
  std::uint64_t seed{1};
  /// Maximum artificial delivery jitter (microseconds, sampled uniformly;
  /// 0 disables). Applied by the receiving thread, so senders never block.
  std::uint32_t max_jitter_us{0};
  /// Round-trip every message through the binary codec before delivery.
  bool reserialize{false};
  /// Swap-drain batching (default). When false, every mailbox lock
  /// acquisition pops a single envelope -- the per-message reference path
  /// the batching-speedup bench ratio and the delivery-semantics parity
  /// tests compare against. Semantics are identical either way.
  bool batched_drain{true};
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers a process. Active processes get a thread at start().
  ProcessId add(std::unique_ptr<net::Process> p, bool active);

  void start();
  void stop();

  /// Runs `fn` as a step of passive process `pid` on the calling thread
  /// (e.g. to invoke an operation on a client automaton).
  void with_context(ProcessId pid, const std::function<void(net::Context&)>& fn);

  /// Drains `pid`'s mailbox on the calling thread until `done()` returns
  /// true. Returns false on timeout. Calls for the same passive pid must be
  /// externally serialized (they resume the slot's private drain buffer).
  bool drive(ProcessId pid, const std::function<bool()>& done,
             std::chrono::milliseconds timeout);

  /// Schedules `fn` to run as a step of process `pid` at time `at`
  /// (nanoseconds on the cluster clock; values in the past run immediately).
  /// Thread-safe; may be called before start(). Closures that fit
  /// net::PostFn's inline buffer are stored without heap allocation.
  void post(Time at, ProcessId pid, net::PostFn fn);

  /// Blocks until no work remains: empty mailboxes, no pending timers, no
  /// step in flight. Messages buffered on held channels do not count.
  /// Returns false on timeout.
  bool run_quiescent(std::chrono::milliseconds timeout);

  /// Crash: the process takes no further steps; queued and future messages
  /// to or from it are dropped, as are messages buffered on held channels
  /// adjacent to it (their buffer storage is freed; the channels stay held).
  void crash(ProcessId pid);
  [[nodiscard]] bool crashed(ProcessId pid) const;

  /// Holds a channel: messages sent from -> to are buffered, not delivered.
  void hold(ProcessId from, ProcessId to);
  /// Holds every channel adjacent to `pid` except the unused self-channel.
  /// One lock acquisition for all 2(n-1) channels.
  void hold_all(ProcessId pid);
  /// Releases a channel; buffered messages are enqueued in FIFO order.
  void release(ProcessId from, ProcessId to);
  /// Releases every channel adjacent to `pid` under one lock acquisition;
  /// each channel's backlog is re-injected in FIFO order.
  void release_all(ProcessId pid);
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const;

  /// Installs probabilistic link faults (loss / duplication / reorder),
  /// applied by net::FaultPlane as under sim::World. Must be called after
  /// the last add() and before start(): each slot gets its own
  /// fault-sampling RNG (route() for `from` only ever runs on the thread
  /// stepping `from`, so the per-sender stream needs no lock). Reordered
  /// messages are deferred through the timer by `lf.reorder_delay`
  /// wall-nanoseconds.
  void set_link_faults(const net::LinkFaults& lf);

  /// Marks `pid` gray (slow-but-alive): every step it takes -- message
  /// deliveries and posted closures alike -- is preceded by a
  /// `step_delay_ns` sleep on its stepping thread. 0 clears. The threaded
  /// twin of the DES's delay multiplier: the process answers everything,
  /// just late. Thread-safe; takes effect on the next step.
  void set_gray(ProcessId pid, std::uint64_t step_delay_ns);

  [[nodiscard]] net::Process& process(ProcessId pid);
  [[nodiscard]] int num_processes() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] Time now() const;
  /// Messages delivered so far: the sum of the per-slot counts. Safe to
  /// call while the cluster runs; exact once it has quiesced, where it
  /// equals stats().messages_delivered.
  [[nodiscard]] std::uint64_t messages_delivered() const;
  /// Aggregated traffic statistics. Counters live per slot and are written
  /// lock-free by their owning threads; call this only after the cluster
  /// has quiesced (run_quiescent) or stopped for exact numbers.
  [[nodiscard]] net::NetStats stats() const;

 private:
  friend class ClusterContext;

  struct Slot {
    std::unique_ptr<net::Process> proc;
    bool active{false};
    Rng rng{0};
    /// Link-fault sampling stream; touched only by the thread stepping
    /// this process (route() is sender-side), see set_link_faults.
    Rng link_rng{0};
    std::atomic<bool> crashed{false};
    /// Gray (slow-but-alive) injected per-step delay; 0 = healthy.
    std::atomic<std::uint64_t> gray_ns{0};
    /// Step-exclusivity token: held by whichever thread is currently
    /// running a step of this automaton -- its mailbox thread, a cluster
    /// thread delivering inline or draining for it, or a with_context /
    /// drive caller. It also guards the drain buffers. Every holder drains
    /// the hot lane before releasing (see drain_and_release).
    std::atomic<bool> stepping{false};
    /// Messages delivered to this process; written only by the token
    /// holder (relaxed load + store), summed by messages_delivered().
    std::atomic<std::uint64_t> delivered{0};

    // --- producer side: guarded by mu ---------------------------------
    std::mutex mu;
    std::condition_variable cv;
    /// Hot lane: protocol traffic only. Posted closures travel in the cold
    /// lane, so the hot lane never carries closure storage.
    std::vector<net::Envelope> inbox;
    std::vector<net::PostFn> cold_inbox; ///< cold lane: posted closures
    /// Consumed prefixes of the inbox lanes; advanced only by the
    /// per-message (unbatched) consumer, always 0 under swap-drain.
    std::size_t inbox_head{0};
    std::size_t cold_head{0};
    /// Hot-lane length, stored under mu with seq_cst so that a producer
    /// that finds the token busy and a holder releasing it cannot both
    /// miss each other (see enqueue_msg / drain_and_release).
    std::atomic<std::uint32_t> hot_queued{0};

    // --- consumer side: guarded by the stepping token (a passive slot's
    // --- by drive()'s external serialization) --------------------------
    /// Double buffers: swap-drain exchanges them with the inbox lanes
    /// under one lock acquisition; clearing keeps capacity, so the
    /// steady state allocates nothing.
    std::vector<net::Envelope> drain;
    std::vector<net::PostFn> cold_drain;
    /// Resume positions for incremental consumers (drive()).
    std::size_t drain_pos{0};
    std::size_t cold_pos{0};

    /// Per-slot traffic counters, lock-free by ownership: both sender- and
    /// delivery-side fields are written only by the thread currently
    /// holding this slot's stepping token, so the token's acquire/release
    /// ordering serializes them. stats() aggregates after quiescence.
    net::NetStats local_stats;

    /// Items queued and not yet handed to the consumer (mu held).
    [[nodiscard]] std::size_t queued_unlocked() const {
      return (inbox.size() - inbox_head) + (cold_inbox.size() - cold_head);
    }
  };

  struct TimedItem {
    Time at{};
    std::uint64_t seq{};
    ProcessId pid{kNoProcess};
    net::PostFn fn{};
  };

  /// Heap order for timer_heap_ (min-heap on (at, seq)); the single source
  /// of truth for both push_heap in post() and pop_heap in timer_main().
  [[nodiscard]] static bool timed_later(const TimedItem& a,
                                        const TimedItem& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  void route(ProcessId from, ProcessId to, wire::Message msg);
  /// One physical copy leaving `from`: applies the reorder rule (deferring
  /// the copy through the timer) or enqueues it normally.
  void send_copy(ProcessId from, ProcessId to, wire::Message msg);
  /// Enqueues released held-channel backlogs, in order (called outside
  /// chan_mu_: enqueue_msg takes slot locks, never nested under it).
  void reinject(std::vector<net::Released>& released);
  /// Hands one message to `pid`. On a cluster thread inside a counted step
  /// (see may_step_inline), an idle destination with an empty hot lane is
  /// stepped right here, uncounted; otherwise the message is queued and
  /// counted in pending_. A queued message wakes nobody while the token is
  /// busy (the holder drains it); with the token free, a cluster thread
  /// takes the token and drains, any other thread wakes the mailbox thread.
  void enqueue_msg(ProcessId pid, net::Envelope env);
  /// Queues a closure in `pid`'s cold lane (already counted in pending_ by
  /// post()); wakes the consumer on the lane's empty -> non-empty edge.
  void enqueue_fn(ProcessId pid, net::PostFn fn);
  void finish_work_items(std::int64_t n);
  /// True when the calling thread may step an active slot inline: it is
  /// one of this cluster's mailbox threads, inside a counted step, below
  /// the nesting cap.
  [[nodiscard]] bool may_step_inline() const;
  /// Spins (with yields) until `slot`'s stepping token is acquired,
  /// futex-waiting if the holder runs a long step.
  void acquire_token(Slot& slot);
  /// Release for holders that may not drain (with_context / drive callers,
  /// the unbatched path): wakes the mailbox thread of an active slot if a
  /// message landed while the token was held.
  void release_token(Slot& slot);
  class TokenGuard;  ///< RAII release_token (exception-safe), in the .cpp
  /// Runs every hot-lane message queued for `pid` (the caller holds its
  /// token), releases the token, and re-takes it to drain again if a
  /// message landed in the gap. Queued items are counted, so pending_ is
  /// settled once per swap.
  void drain_and_release(ProcessId pid, Slot& slot);

  /// Delivers one hot-lane envelope as a step of `pid` (crash checks,
  /// jitter, optional codec round-trip) and counts it in the slot's
  /// delivered counters. Does not touch pending_.
  void deliver_msg(net::Context& ctx, Slot& slot, net::Envelope env);
  /// Runs one cold-lane closure as a step of `pid` (skipped if crashed).
  void deliver_fn(net::Context& ctx, Slot& slot, net::PostFn fn);
  /// Swaps both inbox lanes into the drain buffers (mu held by caller).
  void swap_lanes(Slot& slot);

  void thread_main(ProcessId pid);
  void thread_main_unbatched(ProcessId pid);
  void timer_main();

  ClusterOptions opts_;
  Rng seeder_;
  /// Inline delivery and delegation (see enqueue_msg). Off when jitter is
  /// on (jitter must sleep on the receiving thread) and in the per-message
  /// reference mode; then every message is queued and its producer wakes
  /// the consumer on the empty -> non-empty edge. Passive slots are never
  /// inline targets: their steps must stay on the driving thread (drive()'s
  /// done() condition reads results without synchronization).
  bool direct_delivery_{true};
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::thread timer_thread_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
  std::chrono::steady_clock::time_point epoch_;

  // Timed closures, ordered by (at, seq).
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<TimedItem> timer_heap_;
  std::uint64_t timer_seq_{0};

  // Outstanding work: queued envelopes + pending timers + steps in flight.
  // Inline steps run inside a counted step and are not counted themselves.
  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  // Held channels (cold path: guarded by one mutex; the atomic flag keeps
  // the no-holds fast path lock-free).
  mutable std::mutex chan_mu_;
  net::HeldChannels held_;
  std::atomic<bool> any_held_{false};  ///< held_.any(), stored under chan_mu_

  /// Held-buffer messages discarded by crash(); kept apart from the
  /// per-slot counters because crash() may run on any thread.
  std::atomic<std::uint64_t> crash_dropped_{0};

  // Link faults (see set_link_faults); off by default, so the transport
  // fast path pays one branch.
  net::FaultPlane link_;
};

}  // namespace rr::runtime
