#include "sim/world.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "wire/codec.hpp"

namespace rr::sim {

/// The Context handed to a process while it takes a step under the DES.
class WorldContext final : public net::Context {
 public:
  WorldContext(World& world, ProcessId self) : world_(world), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] Time now() const override { return world_.local_now(self_); }

  void send(ProcessId to, wire::Message msg) override {
    world_.do_send(self_, to, std::move(msg));
  }

  [[nodiscard]] Rng& rng() override {
    return world_.procs_[static_cast<std::size_t>(self_)].rng;
  }

 private:
  World& world_;
  ProcessId self_;
};

World::World(Options opts)
    : opts_(opts),
      rng_(opts.seed),
      delay_(std::make_unique<UniformDelay>(1'000, 10'000)) {}

World::~World() = default;

ProcessId World::add_process(std::unique_ptr<net::Process> p) {
  RR_ASSERT(p != nullptr);
  const auto pid = static_cast<ProcessId>(procs_.size());
  procs_.push_back(ProcSlot{std::move(p), rng_.fork(), false});
  return pid;
}

void World::replace_process(ProcessId pid, std::unique_ptr<net::Process> p) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  RR_ASSERT(p != nullptr);
  procs_[static_cast<std::size_t>(pid)].proc = std::move(p);
}

void World::set_delay_model(std::unique_ptr<DelayModel> m) {
  RR_ASSERT(m != nullptr);
  delay_ = std::move(m);
}

void World::set_link_faults(const net::LinkFaults& lf) {
  link_.install(lf);
  link_rng_ = link_.shared_stream();
}

void World::set_gray(ProcessId pid, double factor) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  if (gray_.empty() && factor <= 1.0) return;
  if (gray_.size() < static_cast<std::size_t>(num_processes())) {
    gray_.resize(static_cast<std::size_t>(num_processes()), 1.0);
  }
  gray_[static_cast<std::size_t>(pid)] = factor > 1.0 ? factor : 1.0;
}

void World::set_clock_skew(ProcessId pid, std::int64_t offset) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  if (skew_.empty() && offset == 0) return;
  if (skew_.size() < static_cast<std::size_t>(num_processes())) {
    skew_.resize(static_cast<std::size_t>(num_processes()), 0);
  }
  skew_[static_cast<std::size_t>(pid)] = offset;
}

net::Process& World::process(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  return *procs_[static_cast<std::size_t>(pid)].proc;
}

void World::start() {
  for (ProcessId pid = 0; pid < num_processes(); ++pid) {
    auto& slot = procs_[static_cast<std::size_t>(pid)];
    if (slot.crashed) continue;
    WorldContext ctx(*this, pid);
    slot.proc->on_start(ctx);
  }
}

// ---------------------------------------------------------------------------
// Event slab (SoA) + 4-ary index heap
// ---------------------------------------------------------------------------

World::EventIndex World::alloc_event() {
  if (!free_.empty()) {
    const EventIndex idx = free_.back();
    free_.pop_back();
    return idx;
  }
  keys_.emplace_back();
  bodies_.emplace_back();
  return static_cast<EventIndex>(keys_.size() - 1);
}

void World::heap_push(EventIndex idx) {
  heap_.push_back(idx);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

World::EventIndex World::heap_pop() {
  const EventIndex top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(heap_[c], heap_[best])) best = c;
    }
    if (!event_before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

void World::post(Time at, ProcessId pid, net::PostFn fn) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  RR_ASSERT(at >= now_);
  const EventIndex idx = alloc_event();
  keys_[idx] = EventKey{at, next_seq_++, pid, /*is_delivery=*/false};
  EventBody& body = bodies_[idx];
  body.from = kNoProcess;
  body.fn = std::move(fn);
  heap_push(idx);
}

// ---------------------------------------------------------------------------
// Crashes and held channels
// ---------------------------------------------------------------------------

void World::crash(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  procs_[static_cast<std::size_t>(pid)].crashed = true;
  // Discard buffers held on channels adjacent to the crashed process: those
  // messages could only ever be dropped at delivery, so freeing them now
  // keeps long chaos runs from pinning dead history payloads.
  stats_.messages_dropped += held_.crash(pid);
}

bool World::crashed(ProcessId pid) const {
  RR_ASSERT(pid >= 0 && pid < static_cast<ProcessId>(procs_.size()));
  return procs_[static_cast<std::size_t>(pid)].crashed;
}

void World::hold(ProcessId from, ProcessId to) {
  RR_ASSERT(from >= 0 && from < num_processes());
  RR_ASSERT(to >= 0 && to < num_processes());
  held_.hold(from, to);
}

void World::hold_all(ProcessId pid) {
  RR_ASSERT(pid >= 0 && pid < num_processes());
  held_.hold_all(pid, num_processes());
}

bool World::held(ProcessId from, ProcessId to) const {
  return held_.held(from, to);
}

void World::release(ProcessId from, ProcessId to) {
  held_.release(from, to, released_);
  schedule_released();
}

void World::release_all(ProcessId pid) {
  held_.release_all(pid, released_);
  schedule_released();
}

void World::schedule_released() {
  // Fresh delays from `now`; the increasing sequence numbers keep each
  // channel's send order among equal delivery times.
  for (auto& r : released_) {
    const Time d = channel_delay(r.env.from, r.to);
    schedule_delivery(r.env.from, r.to, std::move(r.env.msg), now_ + d);
  }
  released_.clear();
}

// ---------------------------------------------------------------------------
// Send / deliver / step
// ---------------------------------------------------------------------------

void World::do_send(ProcessId from, ProcessId to, wire::Message msg) {
  RR_ASSERT(to >= 0 && to < num_processes());
  stats_.account_send(msg, wire::encoded_size(msg));
  // Link faults fire at send time, before hold buffering, so a held channel
  // still loses/duplicates traffic (see net/fault_plane.hpp for the order).
  const int copies = link_.admit(from, to, now_, link_rng_, stats_);
  if (copies == 0) return;
  if (held_.held(from, to)) {
    // A buffer on a channel adjacent to a crashed endpoint could only ever
    // be purged (crash() discards it; delivery would drop it), so don't
    // let post-crash sends refill it and pin memory until release.
    if (procs_[static_cast<std::size_t>(to)].crashed ||
        procs_[static_cast<std::size_t>(from)].crashed) {
      stats_.messages_dropped++;
      return;
    }
    held_.push(from, to, std::move(msg), copies);
    return;
  }
  for (int c = 1; c < copies; ++c) schedule_with_faults(from, to, msg);
  schedule_with_faults(from, to, std::move(msg));
}

Time World::channel_delay(ProcessId from, ProcessId to) {
  const Time d = delay_->sample(from, to, now_, rng_);
  if (gray_.empty()) return d;
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  double m = 1.0;
  if (f < gray_.size()) m = gray_[f];
  if (t < gray_.size() && gray_[t] > m) m = gray_[t];
  return scale_delay(d, m);
}

void World::schedule_with_faults(ProcessId from, ProcessId to,
                                 wire::Message msg) {
  Time d = channel_delay(from, to);
  if (link_.reorder(from, to, now_, link_rng_, stats_)) {
    d += link_.reorder_delay();
  }
  schedule_delivery(from, to, std::move(msg), now_ + d);
}

void World::schedule_delivery(ProcessId from, ProcessId to, wire::Message msg,
                              Time at) {
  const EventIndex idx = alloc_event();
  keys_[idx] = EventKey{at, next_seq_++, to, /*is_delivery=*/true};
  EventBody& body = bodies_[idx];
  body.from = from;
  body.msg = std::move(msg);
  heap_push(idx);
}

void World::deliver_one(net::Context& ctx, ProcSlot& slot, ProcessId from,
                        wire::Message& msg) {
  if (slot.crashed || crashed(from)) {
    // Crash-faulty endpoints: the message is lost. (For the paper's
    // purposes only the recipient matters, but a crashed sender's in-flight
    // messages disappearing is also legal in a partial run.)
    stats_.messages_dropped++;
    return;
  }
  stats_.messages_delivered++;
  if (opts_.reserialize) {
    auto round_tripped = wire::decode(wire::encode(msg));
    RR_ASSERT_MSG(round_tripped.has_value(), "codec must round-trip");
    slot.proc->on_message(ctx, from, *round_tripped);
  } else {
    slot.proc->on_message(ctx, from, msg);
  }
}

void World::fp_note(const EventKey& key, const EventBody& body) {
  // Everything that identifies the executed step: when, who stepped, what
  // kind of event, and for deliveries the sender and message type. The
  // slab index and seq are deliberately excluded -- they are allocation
  // details, not schedule semantics.
  const auto kind =
      key.is_delivery ? static_cast<std::uint64_t>(body.msg.index()) + 2 : 1;
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.dest))
       << 32) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(body.from + 1))
       << 8) |
      kind;
  fp_ = mix64(fp_ ^ key.at ^ packed);
}

bool World::step() {
  if (heap_.empty()) return false;
  RR_ASSERT_MSG(executed_ < opts_.max_events,
                "event budget exhausted: likely livelock in a protocol");
  const EventIndex idx = heap_pop();
  // Copy the key and move the body out of the slab, recycling the slot
  // *before* running the handler: handlers send messages, which may claim
  // the slot (and, on slab growth, invalidate references into the slab
  // arrays). The move steals the message payload -- no deep copy, no
  // allocation.
  const EventKey key = keys_[idx];
  EventBody body = std::move(bodies_[idx]);
  bodies_[idx].fn = nullptr;
  free_.push_back(idx);
  executed_++;
  RR_ASSERT(key.at >= now_);
  now_ = key.at;
  if (opts_.trace_fingerprint) fp_note(key, body);
  auto& slot = procs_[static_cast<std::size_t>(key.dest)];
  WorldContext ctx(*this, key.dest);
  if (key.is_delivery) {
    deliver_one(ctx, slot, body.from, body.msg);
  } else if (!slot.crashed) {
    body.fn(ctx);
  }
  return true;
}

std::uint64_t World::step_batch() {
  RR_ASSERT_MSG(executed_ < opts_.max_events,
                "event budget exhausted: likely livelock in a protocol");
  const EventIndex idx = heap_pop();
  const EventKey key = keys_[idx];
  EventBody body = std::move(bodies_[idx]);
  bodies_[idx].fn = nullptr;
  free_.push_back(idx);
  executed_++;
  RR_ASSERT(key.at >= now_);
  now_ = key.at;
  if (opts_.trace_fingerprint) fp_note(key, body);
  auto& slot = procs_[static_cast<std::size_t>(key.dest)];
  WorldContext ctx(*this, key.dest);
  if (!key.is_delivery) {
    if (!slot.crashed) body.fn(ctx);
    return 1;
  }
  deliver_one(ctx, slot, body.from, body.msg);
  // Drain the run of queued deliveries with the same (time, dest), reusing
  // the context and destination slot. Order is exactly what repeated step()
  // would produce: a run is a prefix of the (at, seq) sort, batched events
  // cannot change crash or hold state (handlers only send), and any event a
  // handler creates sorts after the whole run (larger seq, at >= now).
  std::uint64_t n = 1;
  while (!heap_.empty()) {
    const EventIndex top = heap_.front();
    const EventKey& tk = keys_[top];
    if (tk.at != now_ || tk.dest != key.dest || !tk.is_delivery) break;
    RR_ASSERT_MSG(executed_ < opts_.max_events,
                  "event budget exhausted: likely livelock in a protocol");
    (void)heap_pop();
    const EventKey bk = keys_[top];  // slab may grow during delivery
    EventBody b = std::move(bodies_[top]);
    free_.push_back(top);
    executed_++;
    ++n;
    if (opts_.trace_fingerprint) fp_note(bk, b);
    deliver_one(ctx, slot, b.from, b.msg);
  }
  return n;
}

std::uint64_t World::run() {
  std::uint64_t n = 0;
  while (!heap_.empty()) n += step_batch();
  return n;
}

std::uint64_t World::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!heap_.empty() && keys_[heap_.front()].at <= deadline) {
    n += step_batch();
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace rr::sim
