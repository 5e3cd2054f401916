// Event-pool regression tests for the zero-allocation simulator hot path.
//
// The golden fingerprints below were captured from the seed implementation
// (std::priority_queue<Event> with copy-from-top) before the slab/4-ary-heap
// refactor; the refactor must not change delivery order, virtual times, or
// NetStats for any seed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "net/fault_plane.hpp"
#include "net/process.hpp"
#include "sim/world.hpp"
#include "wire/codec.hpp"

// Global allocation counter: replaced operator new lets the steady-state
// test below assert that delivering events performs zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rr::sim {
namespace {

/// FNV-1a over a stream of u64s.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

class Recorder final : public net::Process {
 public:
  explicit Recorder(Fingerprint* fp) : fp_(fp) {}
  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override {
    fp_->mix(ctx.now());
    fp_->mix(static_cast<std::uint64_t>(from));
    fp_->mix(static_cast<std::uint64_t>(ctx.self()));
    fp_->mix(msg.index());
  }

 private:
  Fingerprint* fp_;
};

/// A mesh of processes ping-ponging a few message shapes through uniform
/// delays, with one channel held and released mid-run and one crash.
/// `single_step` drains the world through repeated step() instead of the
/// batched run() -- both must produce the identical execution.
std::uint64_t mesh_fingerprint(std::uint64_t seed, NetStats* stats_out,
                               bool single_step = false) {
  Fingerprint fp;
  WorldOptions opts;
  opts.seed = seed;
  World w(opts);
  const int n = 6;
  std::vector<ProcessId> pids;
  for (int i = 0; i < n; ++i) {
    pids.push_back(w.add_process(std::make_unique<Recorder>(&fp)));
  }
  w.hold(pids[0], pids[1]);
  for (int round = 0; round < 40; ++round) {
    const Time at = static_cast<Time>(round) * 100;
    w.post(at, pids[round % n], [&, round](net::Context& ctx) {
      const ProcessId to = pids[(round + 1) % n];
      ctx.send(to, wire::WAckMsg{static_cast<Ts>(round)});
      ctx.send(to, wire::ReadMsg{1, static_cast<ReaderTs>(round), 0});
      if (round % 3 == 0) {
        ctx.send(pids[(round + 2) % n],
                 wire::PwMsg{static_cast<Ts>(round), TsVal{1, "payload"},
                             initial_wtuple(4)});
      }
    });
  }
  w.post(1500, pids[2], [&](net::Context&) { w.release(pids[0], pids[1]); });
  w.post(2500, pids[3], [&](net::Context&) { w.crash(pids[5]); });
  if (single_step) {
    while (w.step()) {
    }
  } else {
    w.run();
  }
  fp.mix(w.now());
  if (stats_out != nullptr) *stats_out = w.stats();
  return fp.value();
}

// Captured from the seed implementation; see file header.
constexpr std::uint64_t kGoldenFingerprintSeed7 = 0x77ec912a0b593120ULL;
constexpr std::uint64_t kGoldenFingerprintSeed99 = 0xb8c91dd7dbfb4c22ULL;

TEST(EventPool, DeliveryOrderMatchesSeedImplementation) {
  NetStats stats;
  EXPECT_EQ(mesh_fingerprint(7, &stats), kGoldenFingerprintSeed7);
  EXPECT_EQ(stats.messages_sent, 90u);
  EXPECT_EQ(stats.messages_delivered, 64u);
  EXPECT_EQ(stats.messages_dropped, 26u);
  EXPECT_EQ(stats.bytes_sent, 1698u);
  EXPECT_EQ(mesh_fingerprint(99, nullptr), kGoldenFingerprintSeed99);
}

TEST(EventPool, BatchedRunMatchesSingleStepExecution) {
  // run() dispatches equal-(time, dest) delivery runs as one batch; the
  // execution (order, clock, stats) must be indistinguishable from
  // repeated step(), and both must still match the seed goldens.
  NetStats stepped;
  EXPECT_EQ(mesh_fingerprint(7, &stepped, /*single_step=*/true),
            kGoldenFingerprintSeed7);
  NetStats batched;
  EXPECT_EQ(mesh_fingerprint(7, &batched, /*single_step=*/false),
            kGoldenFingerprintSeed7);
  EXPECT_EQ(stepped.messages_delivered, batched.messages_delivered);
  EXPECT_EQ(stepped.messages_dropped, batched.messages_dropped);
  EXPECT_EQ(stepped.bytes_sent, batched.bytes_sent);
  EXPECT_EQ(mesh_fingerprint(99, nullptr, /*single_step=*/true),
            kGoldenFingerprintSeed99);
}

TEST(EventPool, BatchingPreservesOrderAcrossDestinations) {
  // With a fixed delay, alternating sends to two destinations all land at
  // the same virtual time: the per-destination batches must still execute
  // in global (time, seq) order, i.e. perfectly interleaved.
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  struct Collect final : net::Process {
    std::vector<std::pair<ProcessId, Ts>>* order{nullptr};
    void on_message(net::Context& ctx, ProcessId,
                    const wire::Message& msg) override {
      order->push_back({ctx.self(), std::get<wire::WAckMsg>(msg).ts});
    }
  };
  std::vector<std::pair<ProcessId, Ts>> order;
  auto mk = [&] {
    auto p = std::make_unique<Collect>();
    p->order = &order;
    return p;
  };
  const auto a = w.add_process(mk());
  const auto b = w.add_process(mk());
  const auto c = w.add_process(mk());
  // Runs of two per destination: exercises real multi-event batches (b,b),
  // (c,c) as well as the batch boundary between them.
  w.post(0, a, [b, c](net::Context& ctx) {
    for (Ts i = 0; i < 52; ++i) ctx.send(i % 4 < 2 ? b : c, wire::WAckMsg{i});
  });
  w.run();
  ASSERT_EQ(order.size(), 52u);
  for (Ts i = 0; i < 52; ++i) {
    EXPECT_EQ(order[i].second, i);
    EXPECT_EQ(order[i].first, i % 4 < 2 ? b : c);
  }
}

TEST(EventPool, SameSeedIdenticalStatsAndOrder) {
  NetStats a, b;
  EXPECT_EQ(mesh_fingerprint(1234, &a), mesh_fingerprint(1234, &b));
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

TEST(EventPool, FullDeploymentFingerprintStable) {
  // End-to-end determinism through the harness: a regular-storage deployment
  // must produce identical traffic stats run-to-run.
  auto run_once = [] {
    harness::DeploymentOptions opts;
    opts.protocol = harness::Protocol::RegularOptimized;
    opts.res = Resilience::optimal(2, 1, 2);
    opts.seed = 5;
    harness::Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 8;
    w.reads_per_reader = 4;
    harness::mixed_workload(d, w);
    d.run();
    return d.world().stats();
  };
  const NetStats a = run_once();
  const NetStats b = run_once();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_GT(a.messages_sent, 0u);
}

TEST(EventPool, ReleasePreservesFifoAcrossManyMessages) {
  // FIFO through hold/release with enough messages to force pool growth and
  // slot reuse inside the heap.
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  struct Collect final : net::Process {
    std::vector<Ts> seen;
    void on_message(net::Context&, ProcessId,
                    const wire::Message& msg) override {
      seen.push_back(std::get<wire::WAckMsg>(msg).ts);
    }
  };
  auto probe = std::make_unique<Collect>();
  auto* p = probe.get();
  const auto a = w.add_process(std::make_unique<Collect>());
  const auto b = w.add_process(std::move(probe));
  w.hold(a, b);
  w.post(0, a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 500; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  w.run();
  ASSERT_TRUE(p->seen.empty());
  w.release(a, b);
  w.run();
  ASSERT_EQ(p->seen.size(), 500u);
  for (Ts i = 0; i < 500; ++i) EXPECT_EQ(p->seen[i], i + 1);
}

TEST(EventPool, HoldAllCreatesNoSelfChannel) {
  World w;
  const auto a = w.add_process(std::make_unique<Recorder>(nullptr));
  const auto b = w.add_process(std::make_unique<Recorder>(nullptr));
  const auto c = w.add_process(std::make_unique<Recorder>(nullptr));
  w.hold_all(a);
  EXPECT_FALSE(w.held(a, a)) << "self-channel must not be held";
  EXPECT_TRUE(w.held(a, b));
  EXPECT_TRUE(w.held(b, a));
  EXPECT_TRUE(w.held(a, c));
  EXPECT_TRUE(w.held(c, a));
  EXPECT_FALSE(w.held(b, c));
  w.release_all(a);
  EXPECT_FALSE(w.held(a, b));
  EXPECT_FALSE(w.held(c, a));
}

TEST(EventPool, CrashDropsHeldBuffers) {
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  Fingerprint fp;
  auto probe = std::make_unique<Recorder>(&fp);
  const auto a = w.add_process(std::make_unique<Recorder>(&fp));
  const auto b = w.add_process(std::move(probe));
  w.hold(a, b);
  w.post(0, a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 5; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  w.run();
  EXPECT_EQ(w.stats().messages_dropped, 0u);
  w.crash(b);
  // The five buffered messages are discarded immediately (they could only
  // ever be dropped at delivery) and counted as dropped.
  EXPECT_EQ(w.stats().messages_dropped, 5u);
  // Post-crash sends on the still-held channel must not refill the buffer.
  w.post(w.now() + 1, a,
         [b](net::Context& ctx) { ctx.send(b, wire::WAckMsg{9}); });
  w.run();
  EXPECT_EQ(w.stats().messages_dropped, 6u);
  w.release(a, b);
  EXPECT_EQ(w.run(), 0u) << "no deliveries may be scheduled from the "
                            "discarded buffer";
  EXPECT_EQ(w.stats().messages_dropped, 6u);
  EXPECT_EQ(w.stats().messages_delivered, 0u);
}

TEST(EventPool, InterleavedHoldReleaseReusesSlots) {
  // Alternating bursts of scheduled and held traffic exercise free-list
  // reuse; delivery order must stay (time, seq)-sorted throughout.
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(50));
  struct Collect final : net::Process {
    std::vector<std::pair<Time, Ts>> seen;
    void on_message(net::Context& ctx, ProcessId,
                    const wire::Message& msg) override {
      seen.push_back({ctx.now(), std::get<wire::WAckMsg>(msg).ts});
    }
  };
  auto probe = std::make_unique<Collect>();
  auto* p = probe.get();
  const auto a = w.add_process(std::make_unique<Collect>());
  const auto b = w.add_process(std::move(probe));
  Ts next = 0;
  for (int burst = 0; burst < 20; ++burst) {
    w.hold(a, b);
    const Time at = static_cast<Time>(burst) * 1000;
    w.post(at, a, [&, b](net::Context& ctx) {
      for (int i = 0; i < 10; ++i) ctx.send(b, wire::WAckMsg{++next});
    });
    w.run_until(at + 10);
    w.release(a, b);
    w.run_until(at + 500);
  }
  w.run();
  ASSERT_EQ(p->seen.size(), 200u);
  for (std::size_t i = 0; i < p->seen.size(); ++i) {
    EXPECT_EQ(p->seen[i].second, static_cast<Ts>(i + 1));
    if (i > 0) {
      EXPECT_GE(p->seen[i].first, p->seen[i - 1].first);
    }
  }
}

TEST(EventPool, SteadyStateDeliveryIsAllocationFree) {
  // Acceptance criterion of the hot-path refactor: once the slab, heap and
  // free list have grown to working-set size, delivering events performs no
  // heap allocation -- events are moved out of recycled slots and byte
  // accounting uses the counting visitor.
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {}
  };
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  const auto a = w.add_process(std::make_unique<Sink>());
  const auto b = w.add_process(std::make_unique<Sink>());
  auto burst = [&](Time at) {
    w.post(at, a, [b](net::Context& ctx) {
      for (int i = 0; i < 1000; ++i) ctx.send(b, wire::WAckMsg{1});
    });
  };
  burst(0);
  w.run();  // warm-up: grows the slab, the heap array and the free list
  burst(w.now() + 100);
  ASSERT_TRUE(w.step());  // execute the posting closure (sends reuse slots)
  const std::uint64_t before = g_heap_allocs.load();
  const std::uint64_t delivered = w.run();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(delivered, 1000u);
  EXPECT_EQ(allocs, 0u)
      << "delivery hot path must not allocate at steady state";
}

TEST(EventPool, SteadyStateHoldReleaseWavesAreAllocationFree) {
  // Chaos-style waves: hold every channel of one process, buffer traffic in
  // both directions, release it all, deliver. Once the first wave has grown
  // the backlog storage, later waves recycle it and allocate nothing.
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {}
  };
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) {
    pids.push_back(w.add_process(std::make_unique<Sink>()));
  }
  const ProcessId hub = pids[0];
  std::uint64_t delivered = 0;
  auto wave = [&] {
    w.hold_all(hub);
    for (const ProcessId q : pids) {
      if (q == hub) continue;
      w.post(w.now() + 1, q, [hub](net::Context& ctx) {
        for (Ts i = 1; i <= 50; ++i) ctx.send(hub, wire::WAckMsg{i});
      });
      w.post(w.now() + 1, hub, [q](net::Context& ctx) {
        for (Ts i = 1; i <= 50; ++i) ctx.send(q, wire::WAckMsg{i});
      });
    }
    w.run();  // every message lands in a held backlog
    w.release_all(hub);
    delivered += w.run();
  };
  wave();
  wave();  // warm-up: backlogs, slab, heap and free list at working size
  const std::uint64_t before = g_heap_allocs.load();
  for (int i = 0; i < 10; ++i) wave();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(delivered, 12u * 300u);
  EXPECT_EQ(w.stats().messages_delivered, 12u * 300u);
  EXPECT_EQ(allocs, 0u)
      << "hold/release waves must reuse backlog storage at steady state";
}

TEST(EventPool, SteadyStatePostedClosuresAreAllocationFree) {
  // PostFn gives posted closures small-buffer storage: once the slab has
  // grown, posting a harness-sized capture (pointers, ints, a small array)
  // and executing it must not touch the heap.
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {}
  };
  World w;
  w.set_delay_model(std::make_unique<FixedDelay>(10));
  const auto a = w.add_process(std::make_unique<Sink>());
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 8> payload{};  // 64-byte capture by value
  auto make_post = [&](Time at) {
    w.post(at, a, [&sum, payload](net::Context& ctx) {
      for (const auto v : payload) sum += v + ctx.now();
    });
  };
  static_assert(net::PostFn::stored_inline<
                    decltype([](net::Context&) {})>(),
                "captureless closures must be inline");
  // Warm-up sized to the later burst so the slab, heap array and free list
  // never grow during the measured window.
  for (int i = 0; i < 1100; ++i) make_post(static_cast<Time>(i));
  w.run();
  const std::uint64_t before = g_heap_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    make_post(w.now() + 1 + static_cast<Time>(i));
  }
  w.run();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(allocs, 0u)
      << "posting and running small closures must not allocate at steady "
         "state";
  EXPECT_GT(sum, 0u);
}

// ---------------------------------------------------------------------------
// net::HeldChannels: the held-channel storage every backend shares.
// ---------------------------------------------------------------------------

/// (channel destination, sender, WAck timestamp) of each released message.
std::vector<std::array<std::int64_t, 3>> drain(
    const std::vector<net::Released>& out) {
  std::vector<std::array<std::int64_t, 3>> seen;
  for (const auto& r : out) {
    seen.push_back({r.to, r.env.from,
                    static_cast<std::int64_t>(
                        std::get<wire::WAckMsg>(r.env.msg).ts)});
  }
  return seen;
}

TEST(HeldChannels, HoldAllCreatesNoSelfChannel) {
  net::HeldChannels h;
  EXPECT_FALSE(h.any());
  h.hold_all(1, 3);
  EXPECT_TRUE(h.any());
  EXPECT_FALSE(h.held(1, 1)) << "self-channel must not be held";
  EXPECT_TRUE(h.held(1, 0));
  EXPECT_TRUE(h.held(0, 1));
  EXPECT_TRUE(h.held(1, 2));
  EXPECT_TRUE(h.held(2, 1));
  EXPECT_FALSE(h.held(0, 2));
  EXPECT_FALSE(h.held(2, 0));
  EXPECT_FALSE(h.held(7, 1)) << "beyond the covered processes";
}

TEST(HeldChannels, ReleaseAllIsFifoPerChannelInFixedChannelOrder) {
  net::HeldChannels h;
  h.hold_all(1, 3);
  h.push(2, 1, wire::WAckMsg{1}, 1);
  h.push(1, 0, wire::WAckMsg{2}, 1);
  h.push(0, 1, wire::WAckMsg{3}, 2);  // a duplicated send: two copies
  h.push(1, 2, wire::WAckMsg{4}, 1);
  h.push(1, 0, wire::WAckMsg{5}, 1);
  h.push(2, 1, wire::WAckMsg{6}, 1);
  std::vector<net::Released> out;
  h.release_all(1, out);
  // (1,q) then (q,1) for ascending q; each backlog in send order.
  const std::vector<std::array<std::int64_t, 3>> expected = {
      {0, 1, 2}, {0, 1, 5},             // 1 -> 0
      {1, 0, 3}, {1, 0, 3},             // 0 -> 1
      {2, 1, 4},                        // 1 -> 2
      {1, 2, 1}, {1, 2, 6},             // 2 -> 1
  };
  EXPECT_EQ(drain(out), expected);
  EXPECT_FALSE(h.any());
  EXPECT_FALSE(h.held(0, 1));
  out.clear();
  h.release(0, 1, out);  // releasing a free channel is a no-op
  EXPECT_TRUE(out.empty());
}

TEST(HeldChannels, CrashDiscardsOnlyAdjacentBacklogs) {
  net::HeldChannels h;
  h.hold(0, 1);
  // Buffered before the later holds grow the table: growth keeps it.
  for (Ts i = 1; i <= 3; ++i) h.push(0, 1, wire::WAckMsg{i}, 1);
  h.hold(1, 2);
  h.hold(2, 0);
  h.hold(2, 3);
  h.hold(3, 2);  // held, but never gets a backlog
  h.push(1, 2, wire::WAckMsg{10}, 2);
  h.push(2, 0, wire::WAckMsg{20}, 1);
  h.push(2, 3, wire::WAckMsg{30}, 1);
  EXPECT_EQ(h.crash(2), 4u) << "1->2 (two copies), 2->0 and 2->3";
  EXPECT_EQ(h.crash(2), 0u) << "nothing left to discard";
  EXPECT_TRUE(h.held(1, 2)) << "channels stay held after a crash";
  EXPECT_TRUE(h.held(3, 2));
  std::vector<net::Released> out;
  h.release(1, 2, out);
  EXPECT_TRUE(out.empty());
  h.release(0, 1, out);  // not adjacent to 2: its backlog survives
  const std::vector<std::array<std::int64_t, 3>> expected = {
      {1, 0, 1}, {1, 0, 2}, {1, 0, 3}};
  EXPECT_EQ(drain(out), expected);
}

}  // namespace
}  // namespace rr::sim
