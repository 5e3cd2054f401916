#include "runtime/cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "wire/codec.hpp"

namespace rr::runtime {

namespace {

/// One iteration of acquire_token's spin: a CPU pause most of the time, a
/// scheduler yield every 8th iteration so a holder sharing the core can
/// make progress (on a single hardware thread a pure pause loop would just
/// burn the waiter's quantum).
inline void spin_pause(std::uint32_t i) {
  if ((i & 0x7) == 0x7) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Cap on the step frames one thread stacks: a mailbox thread's counted
/// step is frame 1, each inline delivery adds one.
constexpr int kMaxInlineDepth = 4;

/// The cluster whose counted step the calling thread is running (nullptr
/// outside one, and inside with_context / drive), and its step depth.
thread_local const void* tl_cluster = nullptr;
thread_local int tl_depth = 0;

/// Enters one step frame for the calling thread; restores on exit.
class StepScope {
 public:
  explicit StepScope(const void* cluster)
      : saved_cluster_(tl_cluster), saved_depth_(tl_depth) {
    tl_cluster = cluster;
    ++tl_depth;
  }
  ~StepScope() {
    tl_cluster = saved_cluster_;
    tl_depth = saved_depth_;
  }
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  const void* saved_cluster_;
  int saved_depth_;
};

}  // namespace

class ClusterContext final : public net::Context {
 public:
  ClusterContext(Cluster& cluster, ProcessId self)
      : cluster_(cluster), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] Time now() const override { return cluster_.now(); }
  void send(ProcessId to, wire::Message msg) override {
    cluster_.route(self_, to, std::move(msg));
  }
  [[nodiscard]] Rng& rng() override {
    return cluster_.slots_[static_cast<std::size_t>(self_)]->rng;
  }

 private:
  Cluster& cluster_;
  ProcessId self_;
};

Cluster::Cluster(ClusterOptions opts)
    : opts_(opts),
      seeder_(opts.seed),
      direct_delivery_(opts.batched_drain && opts.max_jitter_us == 0),
      epoch_(std::chrono::steady_clock::now()) {}

Cluster::~Cluster() { stop(); }

ProcessId Cluster::add(std::unique_ptr<net::Process> p, bool active) {
  RR_ASSERT(!started_);
  RR_ASSERT(p != nullptr);
  auto slot = std::make_unique<Slot>();
  slot->proc = std::move(p);
  slot->active = active;
  slot->rng = seeder_.fork();
  slots_.push_back(std::move(slot));
  return static_cast<ProcessId>(slots_.size() - 1);
}

void Cluster::set_link_faults(const net::LinkFaults& lf) {
  RR_ASSERT(!started_);
  link_.install(lf);
  Rng seeder = link_.sender_seeder();
  for (auto& slot : slots_) slot->link_rng = seeder.fork();
}

void Cluster::set_gray(ProcessId pid, std::uint64_t step_delay_ns) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  slots_[static_cast<std::size_t>(pid)]->gray_ns.store(
      step_delay_ns, std::memory_order_relaxed);
}

void Cluster::start() {
  RR_ASSERT(!started_);
  started_ = true;
  for (ProcessId pid = 0; pid < static_cast<ProcessId>(slots_.size());
       ++pid) {
    auto& slot = *slots_[static_cast<std::size_t>(pid)];
    if (slot.crashed.load(std::memory_order_relaxed)) continue;
    ClusterContext ctx(*this, pid);
    slot.proc->on_start(ctx);
  }
  for (ProcessId pid = 0; pid < static_cast<ProcessId>(slots_.size());
       ++pid) {
    if (slots_[static_cast<std::size_t>(pid)]->active) {
      threads_.emplace_back([this, pid] { thread_main(pid); });
    }
  }
  timer_thread_ = std::thread([this] { timer_main(); });
}

void Cluster::stop() {
  if (stopping_.exchange(true)) return;
  // Consumers wait with no timeout, so every sleeper must be notified.
  for (auto& slot : slots_) {
    std::lock_guard lock(slot->mu);
    slot->cv.notify_all();
  }
  {
    std::lock_guard lock(timer_mu_);
    timer_cv_.notify_all();
  }
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
  if (timer_thread_.joinable()) timer_thread_.join();
}

void Cluster::acquire_token(Slot& slot) {
  // A held token usually means a whole step is running (not a
  // few-instruction critical section), and on a saturated core every extra
  // yield here starves the very thread that must finish that step.
  constexpr std::uint32_t kTokenSpin = 32;
  for (std::uint32_t i = 0;
       slot.stepping.exchange(true, std::memory_order_acquire); ++i) {
    if (i < kTokenSpin) {
      spin_pause(i);
    } else {
      // A long-held token means a slow step (or a long drain) is running on
      // another thread; futex-wait instead of yield-cycling the core out
      // from under it.
      slot.stepping.wait(true, std::memory_order_relaxed);
    }
  }
}

void Cluster::release_token(Slot& slot) {
  slot.stepping.store(false, std::memory_order_seq_cst);
  slot.stepping.notify_one();
  // A producer that found the token busy queued without waking anyone, and
  // this holder may not drain: the mailbox thread must.
  if (direct_delivery_ && slot.active &&
      slot.hot_queued.load(std::memory_order_seq_cst) != 0) {
    slot.cv.notify_one();
  }
}

/// Releases a stepping token on scope exit, so an exception thrown by a
/// user callback or an automaton step cannot leak the token and wedge the
/// slot (every later acquire_token would futex-wait forever).
class Cluster::TokenGuard {
 public:
  TokenGuard(Cluster& c, Slot& slot) : c_(c), slot_(slot) {}
  ~TokenGuard() { c_.release_token(slot_); }
  TokenGuard(const TokenGuard&) = delete;
  TokenGuard& operator=(const TokenGuard&) = delete;

 private:
  Cluster& c_;
  Slot& slot_;
};

void Cluster::with_context(ProcessId pid,
                           const std::function<void(net::Context&)>& fn) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  acquire_token(slot);
  TokenGuard guard(*this, slot);
  // Not a counted step: its sends must be queued (and counted), never
  // stepped inline.
  StepScope scope(nullptr);
  fn(ctx);
}

bool Cluster::drive(ProcessId pid, const std::function<bool()>& done,
                    std::chrono::milliseconds timeout) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    // Resume the drain buffers from a previous partial drive; refill by
    // swapping both lanes only once they are exhausted.
    if (slot.cold_pos >= slot.cold_drain.size() &&
        slot.drain_pos >= slot.drain.size()) {
      slot.cold_drain.clear();
      slot.cold_pos = 0;
      slot.drain.clear();
      slot.drain_pos = 0;
      std::unique_lock lock(slot.mu);
      if (!slot.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return slot.queued_unlocked() != 0 ||
                   stopping_.load(std::memory_order_relaxed);
          })) {
        continue;  // timed out; re-check done() and the deadline
      }
      if (slot.queued_unlocked() == 0) continue;  // stopping
      swap_lanes(slot);
    }
    // done() is re-checked between items, so a partially consumed batch
    // legitimately outlives this call (mid-swap state). The token is
    // uncontended here (passive slots are never inline targets) but keeps
    // the step-exclusivity invariant uniform.
    {
      acquire_token(slot);
      TokenGuard guard(*this, slot);
      StepScope scope(nullptr);
      if (slot.cold_pos < slot.cold_drain.size()) {
        deliver_fn(ctx, slot, std::move(slot.cold_drain[slot.cold_pos++]));
      } else {
        deliver_msg(ctx, slot, std::move(slot.drain[slot.drain_pos++]));
      }
    }
    finish_work_items(1);
  }
  return true;
}

net::Process& Cluster::process(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  return *slots_[static_cast<std::size_t>(pid)]->proc;
}

Time Cluster::now() const {
  return static_cast<Time>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count());
}

std::uint64_t Cluster::messages_delivered() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->delivered.load(std::memory_order_relaxed);
  }
  return total;
}

net::NetStats Cluster::stats() const {
  net::NetStats total;
  for (const auto& slot : slots_) total += slot->local_stats;
  total.messages_dropped += crash_dropped_.load(std::memory_order_acquire);
  return total;
}

// ---------------------------------------------------------------------------
// Timed closures + quiescence
// ---------------------------------------------------------------------------

void Cluster::post(Time at, ProcessId pid, net::PostFn fn) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  pending_.fetch_add(1, std::memory_order_acq_rel);
  // Already-due closures skip the timer thread entirely: they go straight
  // into the target's cold lane, saving two context switches (post -> timer
  // wake -> enqueue) on the op-chaining hot path. This WEAKENS the old
  // ordering: a bypassing closure can overtake an earlier-scheduled,
  // already-due closure still sitting in the heap, which the single timer
  // thread (strict (at, seq) pops) could never produce. Legal under the
  // asynchronous model -- closure steps have no cross-process ordering
  // guarantee -- but do not rely on timed posts running in `at` order.
  if (at <= now()) {
    enqueue_fn(pid, std::move(fn));
    return;
  }
  {
    std::lock_guard lock(timer_mu_);
    timer_heap_.push_back(TimedItem{at, timer_seq_++, pid, std::move(fn)});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), &timed_later);
  }
  timer_cv_.notify_one();
}

void Cluster::timer_main() {
  std::unique_lock lock(timer_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const Time due = timer_heap_.front().at;
    if (due > now()) {
      timer_cv_.wait_until(lock,
                           epoch_ + std::chrono::nanoseconds(due));
      continue;  // re-evaluate: an earlier item or stop may have arrived
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), &timed_later);
    TimedItem item = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    lock.unlock();
    enqueue_fn(item.pid, std::move(item.fn));
    lock.lock();
  }
}

bool Cluster::may_step_inline() const {
  return tl_cluster == this && tl_depth < kMaxInlineDepth;
}

void Cluster::enqueue_msg(ProcessId pid, net::Envelope env) {
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  const bool delegate = direct_delivery_ && slot.active && may_step_inline();
  // Inline delivery: an idle destination's step runs right here, inside the
  // sender's counted step, so it touches neither pending_ nor a mailbox.
  // The empty-hot-lane gate keeps per-channel FIFO: an earlier message on
  // this channel is either still queued (hot_queued != 0) or in a drain
  // buffer, and then the token is held until it has been dispatched.
  if (delegate && slot.hot_queued.load(std::memory_order_acquire) == 0 &&
      !slot.stepping.exchange(true, std::memory_order_acquire)) {
    StepScope scope(this);
    ClusterContext ctx(*this, pid);
    deliver_msg(ctx, slot, std::move(env));
    drain_and_release(pid, slot);
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool was_empty;
  {
    std::lock_guard lock(slot.mu);
    was_empty = slot.queued_unlocked() == 0;
    slot.inbox.push_back(std::move(env));
    slot.hot_queued.store(
        static_cast<std::uint32_t>(slot.inbox.size() - slot.inbox_head),
        std::memory_order_seq_cst);
  }
  if (!direct_delivery_ || !slot.active) {
    // Only one consumer drains this slot, and it drains everything per
    // swap: only the empty -> non-empty edge can find it parked.
    if (was_empty) slot.cv.notify_one();
    return;
  }
  // A busy token's holder drains the hot lane before it releases, and
  // re-checks after (seq_cst on both sides: it or this load sees the
  // other), so the message needs no wakeup.
  if (slot.stepping.load(std::memory_order_seq_cst)) return;
  if (!delegate) {
    slot.cv.notify_one();
    return;
  }
  // Free token: take it and drain; if another thread took it first, that
  // holder drains.
  if (slot.stepping.exchange(true, std::memory_order_acquire)) return;
  StepScope scope(this);
  drain_and_release(pid, slot);
}

void Cluster::enqueue_fn(ProcessId pid, net::PostFn fn) {
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  bool was_empty;
  {
    std::lock_guard lock(slot.mu);
    was_empty = slot.cold_inbox.size() == slot.cold_head;
    slot.cold_inbox.push_back(std::move(fn));
  }
  // Closures run only on the owner's consumer, which takes the whole cold
  // lane per swap: only the lane's empty -> non-empty edge can find it
  // parked (its hot lane may be non-empty meanwhile, drained by others).
  if (was_empty) slot.cv.notify_one();
}

void Cluster::finish_work_items(std::int64_t n) {
  if (n == 0) return;
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

bool Cluster::run_quiescent(std::chrono::milliseconds timeout) {
  std::unique_lock lock(quiesce_mu_);
  return quiesce_cv_.wait_for(lock, timeout, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

// ---------------------------------------------------------------------------
// Crashes and held channels
// ---------------------------------------------------------------------------

void Cluster::crash(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  slots_[static_cast<std::size_t>(pid)]->crashed.store(
      true, std::memory_order_release);
  if (!any_held_.load(std::memory_order_acquire)) return;
  std::uint64_t dropped = 0;
  {
    std::lock_guard lock(chan_mu_);
    dropped = held_.crash(pid);
  }
  if (dropped > 0) {
    crash_dropped_.fetch_add(dropped, std::memory_order_acq_rel);
  }
}

bool Cluster::crashed(ProcessId pid) const {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  return slots_[static_cast<std::size_t>(pid)]->crashed.load(
      std::memory_order_acquire);
}

void Cluster::hold(ProcessId from, ProcessId to) {
  RR_ASSERT(from >= 0 && from < static_cast<ProcessId>(slots_.size()));
  RR_ASSERT(to >= 0 && to < static_cast<ProcessId>(slots_.size()));
  std::lock_guard lock(chan_mu_);
  held_.hold(from, to);
  any_held_.store(true, std::memory_order_release);
}

void Cluster::hold_all(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  std::lock_guard lock(chan_mu_);
  held_.hold_all(pid, num_processes());
  any_held_.store(held_.any(), std::memory_order_release);
}

bool Cluster::held(ProcessId from, ProcessId to) const {
  std::lock_guard lock(chan_mu_);
  return held_.held(from, to);
}

void Cluster::release(ProcessId from, ProcessId to) {
  std::vector<net::Released> released;
  {
    std::lock_guard lock(chan_mu_);
    held_.release(from, to, released);
    any_held_.store(held_.any(), std::memory_order_release);
  }
  reinject(released);
}

void Cluster::release_all(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(slots_.size()));
  std::vector<net::Released> released;
  {
    std::lock_guard lock(chan_mu_);
    held_.release_all(pid, released);
    any_held_.store(held_.any(), std::memory_order_release);
  }
  reinject(released);
}

void Cluster::reinject(std::vector<net::Released>& released) {
  // A concurrent send on a just-released channel may overtake its backlog,
  // which is legal under the asynchronous model (fresh delays on release,
  // as in the DES).
  for (auto& r : released) enqueue_msg(r.to, std::move(r.env));
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void Cluster::route(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(from >= 0 && from < static_cast<ProcessId>(slots_.size()));
  RR_ASSERT(to >= 0 && to < static_cast<ProcessId>(slots_.size()));
  // Sender-side accounting and fault sampling: only the thread currently
  // stepping `from` calls route() for it, so its slot counters and its
  // link_rng need no lock.
  Slot& sender = *slots_[static_cast<std::size_t>(from)];
  sender.local_stats.account_send(msg, wire::encoded_size(msg));
  if (crashed(from) || crashed(to)) {
    sender.local_stats.messages_dropped++;
    return;
  }
  const Time t = link_.enabled() ? now() : 0;
  const int copies =
      link_.admit(from, to, t, sender.link_rng, sender.local_stats);
  if (copies == 0) return;
  if (any_held_.load(std::memory_order_acquire)) {
    std::lock_guard lock(chan_mu_);
    if (held_.held(from, to)) {
      held_.push(from, to, std::move(msg), copies);
      return;
    }
  }
  for (int c = 1; c < copies; ++c) send_copy(from, to, msg);
  send_copy(from, to, std::move(msg));
}

void Cluster::send_copy(ProcessId from, ProcessId to, wire::Message msg) {
  if (link_.enabled()) {
    Slot& sender = *slots_[static_cast<std::size_t>(from)];
    const Time t = now();
    if (link_.reorder(from, to, t, sender.link_rng, sender.local_stats)) {
      // Defer the copy through the timer: it re-enters the destination
      // mailbox reorder_delay later, so fresher traffic on the same channel
      // overtakes it. post() counts the deferred copy as pending work, so
      // quiescence still waits for it.
      post(t + link_.reorder_delay(), to,
           net::PostFn(
               [this, from, m = std::move(msg)](net::Context& ctx) mutable {
                 auto& slot = *slots_[static_cast<std::size_t>(ctx.self())];
                 deliver_msg(ctx, slot, net::Envelope{from, std::move(m)});
               }));
      return;
    }
  }
  enqueue_msg(to, net::Envelope{from, std::move(msg)});
}

void Cluster::deliver_msg(net::Context& ctx, Slot& slot, net::Envelope env) {
  // Gray (slow-but-alive): the process takes this step late but correctly.
  const auto gray = slot.gray_ns.load(std::memory_order_relaxed);
  if (gray > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gray));
  if (opts_.max_jitter_us > 0) {
    const auto us = slot.rng.uniform(0, opts_.max_jitter_us);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  // Crash checks per envelope: a crash can land mid-batch, and everything
  // still undelivered at that point must be dropped (as under the DES).
  if (slot.crashed.load(std::memory_order_acquire)) {
    slot.local_stats.messages_dropped++;
    return;
  }
  if (crashed(env.from)) {
    // Mirror the DES: a crashed sender's in-flight messages are lost too
    // (legal in a partial run; keeps crash semantics identical across
    // backends).
    slot.local_stats.messages_dropped++;
    return;
  }
  slot.local_stats.messages_delivered++;
  slot.delivered.store(slot.delivered.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  if (opts_.reserialize) {
    auto round_tripped = wire::decode(wire::encode(env.msg));
    RR_ASSERT_MSG(round_tripped.has_value(), "codec must round-trip");
    slot.proc->on_message(ctx, env.from, *round_tripped);
  } else {
    slot.proc->on_message(ctx, env.from, env.msg);
  }
}

void Cluster::deliver_fn(net::Context& ctx, Slot& slot, net::PostFn fn) {
  const auto gray = slot.gray_ns.load(std::memory_order_relaxed);
  if (gray > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gray));
  if (opts_.max_jitter_us > 0) {
    const auto us = slot.rng.uniform(0, opts_.max_jitter_us);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  // Crashed processes take no steps; posted closures are skipped (as under
  // the DES).
  if (slot.crashed.load(std::memory_order_acquire)) return;
  fn(ctx);
}

void Cluster::swap_lanes(Slot& slot) {
  // Only the unbatched per-message consumer advances the heads, and it
  // never swaps; swap-drain consumers always see whole lanes.
  RR_ASSERT(slot.inbox_head == 0 && slot.cold_head == 0);
  slot.inbox.swap(slot.drain);
  slot.cold_inbox.swap(slot.cold_drain);
  slot.hot_queued.store(0, std::memory_order_relaxed);
}

void Cluster::drain_and_release(ProcessId pid, Slot& slot) {
  ClusterContext ctx(*this, pid);
  for (;;) {
    std::int64_t n = 0;
    while (slot.hot_queued.load(std::memory_order_acquire) != 0) {
      {
        std::lock_guard lock(slot.mu);
        RR_ASSERT(slot.inbox_head == 0);
        slot.inbox.swap(slot.drain);
        slot.hot_queued.store(0, std::memory_order_relaxed);
      }
      for (auto& env : slot.drain) deliver_msg(ctx, slot, std::move(env));
      n += static_cast<std::int64_t>(slot.drain.size());
      slot.drain.clear();
    }
    finish_work_items(n);
    slot.stepping.store(false, std::memory_order_seq_cst);
    slot.stepping.notify_one();
    // A producer that found the token busy queued without waking anyone:
    // take the token back and drain again, unless another thread already
    // holds it (that holder drains before it releases).
    if (slot.hot_queued.load(std::memory_order_seq_cst) == 0 ||
        slot.stepping.exchange(true, std::memory_order_acquire)) {
      return;
    }
  }
}

void Cluster::thread_main(ProcessId pid) {
  if (!opts_.batched_drain) {
    thread_main_unbatched(pid);
    return;
  }
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock lock(slot.mu);
      slot.cv.wait(lock, [&] {
        return slot.queued_unlocked() != 0 ||
               stopping_.load(std::memory_order_relaxed);
      });
      if (slot.queued_unlocked() == 0) return;  // stopping, nothing queued
    }
    // The token guards the drain buffers, which a delegating thread may be
    // using right now: take it before swapping.
    acquire_token(slot);
    {
      std::lock_guard lock(slot.mu);
      swap_lanes(slot);
    }
    StepScope scope(this);
    // Cold lane first: timer-driven closures (operation invocations, chaos
    // steps) run before this batch's messages. Cross-lane order is free
    // under the asynchronous model -- message delays are arbitrary -- and
    // each lane keeps its own FIFO.
    for (auto& fn : slot.cold_drain) deliver_fn(ctx, slot, std::move(fn));
    for (auto& env : slot.drain) deliver_msg(ctx, slot, std::move(env));
    finish_work_items(static_cast<std::int64_t>(slot.cold_drain.size() +
                                                slot.drain.size()));
    slot.cold_drain.clear();
    slot.drain.clear();
    drain_and_release(pid, slot);
  }
}

void Cluster::thread_main_unbatched(ProcessId pid) {
  // Reference path: one lock acquisition, one condvar round trip and one
  // pending_ update per envelope. Kept as the denominator of the bench's
  // batching-speedup ratio and for the delivery-semantics parity tests.
  auto& slot = *slots_[static_cast<std::size_t>(pid)];
  ClusterContext ctx(*this, pid);
  while (!stopping_.load(std::memory_order_relaxed)) {
    net::Envelope env;
    net::PostFn fn;
    bool is_fn = false;
    {
      std::unique_lock lock(slot.mu);
      slot.cv.wait(lock, [&] {
        return slot.queued_unlocked() != 0 ||
               stopping_.load(std::memory_order_relaxed);
      });
      if (slot.queued_unlocked() == 0) return;  // stopping, nothing queued
      if (slot.cold_head < slot.cold_inbox.size()) {
        fn = std::move(slot.cold_inbox[slot.cold_head++]);
        is_fn = true;
      } else {
        env = std::move(slot.inbox[slot.inbox_head++]);
      }
      if (slot.cold_head == slot.cold_inbox.size() &&
          slot.inbox_head == slot.inbox.size()) {
        slot.cold_inbox.clear();
        slot.cold_head = 0;
        slot.inbox.clear();
        slot.inbox_head = 0;
      } else {
        // Compact consumed prefixes even when the queue never fully
        // drains (a deque freed per pop; a vector behind an advancing
        // head would otherwise grow without bound under sustained load).
        // Amortized O(1): each erase halves at most, after >=256 pops.
        if (slot.inbox_head > 256 &&
            slot.inbox_head * 2 >= slot.inbox.size()) {
          slot.inbox.erase(
              slot.inbox.begin(),
              slot.inbox.begin() + static_cast<std::ptrdiff_t>(
                                       slot.inbox_head));
          slot.inbox_head = 0;
        }
        if (slot.cold_head > 256 &&
            slot.cold_head * 2 >= slot.cold_inbox.size()) {
          slot.cold_inbox.erase(
              slot.cold_inbox.begin(),
              slot.cold_inbox.begin() + static_cast<std::ptrdiff_t>(
                                            slot.cold_head));
          slot.cold_head = 0;
        }
      }
      slot.hot_queued.store(
          static_cast<std::uint32_t>(slot.inbox.size() - slot.inbox_head),
          std::memory_order_relaxed);
    }
    if (is_fn) {
      deliver_fn(ctx, slot, std::move(fn));
    } else {
      deliver_msg(ctx, slot, std::move(env));
    }
    finish_work_items(1);
  }
}

}  // namespace rr::runtime
