// History garbage collection for regular objects (the extension the paper's
// Section 5 calls for: full histories "might raise issues of storage
// exhaustion and need careful garbage collection").
//
// Policy under test: keep the newest `history_limit` slots. Must bound
// memory, preserve regularity and wait-freedom (reads steer to newer values
// when old slots are denied), and compose with the Section 5.1 cached
// suffixes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>

#include "adversary/byzantine.hpp"
#include "adversary/capture.hpp"
#include "core/regular_reader.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "objects/regular_object.hpp"
#include "sim/delay.hpp"
#include "sim/world.hpp"

// Global allocation counter for the steady-state write-path test below
// (same pattern as test_world_pool.cpp): every heap allocation in this
// binary bumps the counter, so a measured window can assert zero.
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

namespace rr {
namespace {

using harness::Deployment;
using harness::DeploymentOptions;
using harness::Protocol;

DeploymentOptions gc_opts(int t, int b, std::size_t limit, std::uint64_t seed,
                          bool optimized = false) {
  DeploymentOptions opts;
  opts.protocol = optimized ? Protocol::RegularOptimized : Protocol::Regular;
  opts.res = Resilience::optimal(t, b, 2);
  opts.seed = seed;
  opts.history_limit = limit;
  return opts;
}

TEST(HistoryGc, MemoryIsBounded) {
  Deployment d(gc_opts(1, 1, 4, 1));
  harness::write_stream(d, 0, 1'000, 50);
  d.run();
  for (int i = 0; i < d.res().num_objects; ++i) {
    auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(i));
    EXPECT_LE(obj.history_size(), 4u) << "object " << i;
  }
}

TEST(HistoryGc, NewestSlotsSurvive) {
  Deployment d(gc_opts(1, 1, 3, 2));
  harness::write_stream(d, 0, 1'000, 30);
  d.run();
  auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(0));
  EXPECT_TRUE(obj.state().history.contains(30));
  EXPECT_TRUE(obj.state().history.contains(29));
  EXPECT_FALSE(obj.state().history.contains(1));
}

TEST(HistoryGc, ReadsRemainCorrectAfterPruning) {
  Deployment d(gc_opts(2, 2, 4, 3));
  harness::sequential_then_reads(d, 30, 8);
  d.run();
  const auto report = d.check();
  EXPECT_TRUE(report.ok()) << report.summary();
  // Every read must have returned the latest value.
  for (const auto& op : d.log().snapshot()) {
    if (op.kind == checker::OpRecord::Kind::Read) {
      EXPECT_EQ(op.ts, 30u);
    }
  }
}

class HistoryGcSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(HistoryGcSweep, RegularityUnderConcurrencyAndFaults) {
  const auto [limit, optimized] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto opts = gc_opts(2, 2, limit, seed * 37, optimized);
    opts.faults =
        harness::FaultPlan::mixed(2, adversary::StrategyKind::Random, 0);
    Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 20;
    w.reads_per_reader = 15;
    w.write_gap = 2'000;
    w.read_gap = 1'500;
    harness::mixed_workload(d, w);
    d.run();
    for (const auto& op : d.log().snapshot()) {
      ASSERT_TRUE(op.complete) << "limit " << limit << " seed " << seed;
    }
    const auto report = d.check();
    EXPECT_TRUE(report.ok())
        << "limit " << limit << " seed " << seed << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Limits, HistoryGcSweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8}, std::size_t{0}),
                       ::testing::Bool()),
    [](const auto& info) {
      const auto limit = std::get<0>(info.param);
      return (limit == 0 ? std::string("unlimited")
                         : "limit" + std::to_string(limit)) +
             (std::get<1>(info.param) ? "_opt" : "_full");
    });

TEST(HistoryGc, StaleCacheReaderStillTerminates) {
  // A reader whose cache points below the pruned horizon: objects ship only
  // the surviving suffix; the read must still terminate and return a value
  // no older than the cache (regularity of the optimized variant).
  Deployment d(gc_opts(1, 1, 2, 7, /*optimized=*/true));
  // Prime the cache at ts=1.
  d.logged_write(0, "old");
  d.logged_read(100'000, 0);
  // Push the history far past the horizon.
  harness::write_stream(d, 200'000, 1'000, 20);
  TsVal got;
  d.invoke_read(5'000'000, 0,
                [&](const core::ReadResult& r) { got = r.tsval; });
  d.run();
  EXPECT_EQ(got.ts, 21u) << "must return the newest value";
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

TEST(HistoryGc, RejectsUnusableLimit) {
  const Topology topo(1, 4);
  EXPECT_DEATH(objects::RegularObject(topo, 0, 1), "two live slots");
}

// ---------------------------------------------------------------------------
// Watermark bookkeeping (unit level, capturing context).
// ---------------------------------------------------------------------------

/// Minimal real context backing the capturing one.
class NullContext final : public net::Context {
 public:
  [[nodiscard]] ProcessId self() const override { return 99; }
  [[nodiscard]] Time now() const override { return 0; }
  void send(ProcessId, wire::Message) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{1};
};

TEST(HistoryGc, AckedWatermarksAreMonotone) {
  // A reader's acked watermark may only advance: a later request with a
  // *lower* floor (a reader that resynced and rebuilt a shorter mirror)
  // must not drag the GC horizon back down, and a stale-tsr replay must not
  // touch it at all.
  const Topology topo(2, 4);
  objects::RegularObject obj(topo, 0, /*history_limit=*/0,
                             /*history_gc=*/false);
  NullContext null;
  auto deliver = [&](ProcessId from, wire::Message m) {
    adversary::CapturingContext cap(null);
    obj.on_message(cap, from, std::move(m));
  };
  auto write = [&](Ts ts) {
    const WTuple prev{TsVal{ts - 1, "v"}, init_tsrarray(4)};
    deliver(topo.writer(), wire::PwMsg{ts, TsVal{ts, "v"}, prev});
    deliver(topo.writer(),
            wire::WMsg{ts, TsVal{ts, "v"}, WTuple{TsVal{ts, "v"}, {}}});
  };
  for (Ts ts = 1; ts <= 6; ++ts) write(ts);

  deliver(topo.reader(0), wire::HistReadMsg{1, 10, 0, 4});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Newer tsr, lower floor: the watermark holds.
  deliver(topo.reader(0), wire::HistReadMsg{2, 11, 0, 2});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Stale tsr replay: ignored entirely.
  deliver(topo.reader(0), wire::HistReadMsg{1, 10, 0, 6});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Genuine progress advances it; the other reader's watermark is untouched.
  deliver(topo.reader(0), wire::HistReadMsg{1, 12, 5, 6});
  EXPECT_EQ(obj.acked()[0], 6u);
  EXPECT_EQ(obj.acked()[1], 0u);
}

// ---------------------------------------------------------------------------
// GC soundness under link chaos, and the hard cap's flagged escape hatch.
// ---------------------------------------------------------------------------

TEST(HistoryGc, WatermarkGcNeverForcesResyncsUnderLinkChaos) {
  // With no hard cap the watermark rule alone decides eviction, and a
  // watermark is only raised by a floor the reader itself sent -- so GC can
  // never evict a slot a reader still needs, no matter how the network
  // mangles the request/reply stream. Lost, duplicated and reordered
  // deltas must therefore produce zero flagged resyncs and no safety
  // violation (loss is model-violating, so ops may stall; safety may not).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool optimized : {false, true}) {
      auto opts = gc_opts(1, 1, /*limit=*/0, seed * 101, optimized);
      opts.link_faults.loss = {0.03, 0, 0, {}};
      opts.link_faults.duplicate = {0.05, 0, 0, {}};
      opts.link_faults.reorder = {0.10, 0, 0, {}};
      opts.link_faults.seed = seed;
      Deployment d(opts);
      harness::MixedWorkloadOptions w;
      w.writes = 25;
      w.reads_per_reader = 12;
      w.write_gap = 2'000;
      w.read_gap = 3'000;
      harness::mixed_workload(d, w);
      d.run();
      const auto report = d.check();
      EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
      for (int i = 0; i < d.res().num_objects; ++i) {
        auto& obj =
            dynamic_cast<objects::RegularObject&>(d.object_process(i));
        EXPECT_EQ(obj.resyncs_served(), 0u) << "object " << i;
      }
      for (int j = 0; j < d.res().num_readers; ++j) {
        EXPECT_EQ(d.regular_reader(j).diag().resyncs, 0u) << "reader " << j;
      }
    }
  }
}

TEST(HistoryGc, HardCapEvictsPastACrashedReaderAndFlagsResyncs) {
  // Reader 1 never reads (a crashed reader never acks), so its watermark
  // pins the GC horizon at 0 and only the hard cap bounds memory. The cap
  // keeps evicting slots reader 0 has not acked yet (its reads are far
  // apart), which must surface as explicit flagged resyncs -- and the reads
  // must still return the newest value.
  auto opts = gc_opts(1, 1, /*limit=*/4, 13, /*optimized=*/true);
  Deployment d(opts);
  harness::write_stream(d, 0, 1'000, 40);
  harness::read_stream(d, /*reader=*/0, /*start=*/10'000, /*gap=*/12'000, 4);
  TsVal got;
  d.invoke_read(5'000'000, 0,
                [&](const core::ReadResult& r) { got = r.tsval; });
  d.run();
  std::uint64_t served = 0;
  for (int i = 0; i < d.res().num_objects; ++i) {
    auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(i));
    EXPECT_LE(obj.history_size(), 4u) << "object " << i;
    served += obj.resyncs_served();
  }
  EXPECT_GT(served, 0u) << "the cap must have outrun reader 0's watermark";
  EXPECT_GT(d.regular_reader(0).diag().resyncs, 0u);
  EXPECT_EQ(got.ts, 40u) << "resynced reads must still find the newest value";
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

// ---------------------------------------------------------------------------
// GC transparency: collecting the acked prefix may not change anything a
// client or the checker can observe -- same ops, same verdicts, and (since
// the shipped deltas start at the reader's floor either way) the very same
// DES schedule, message for message.
// ---------------------------------------------------------------------------

TEST(HistoryGc, VerdictsAndScheduleAreIdenticalWithGcOnAndOff) {
  for (const bool optimized : {false, true}) {
    std::uint64_t fp[2] = {0, 0};
    std::vector<checker::OpRecord> ops[2];
    bool ok[2] = {false, false};
    for (const int gc : {0, 1}) {
      auto opts = gc_opts(2, 1, /*limit=*/0, 99, optimized);
      opts.history_gc = gc != 0;
      opts.trace_fingerprint = true;
      Deployment d(opts);
      harness::MixedWorkloadOptions w;
      w.writes = 15;
      w.reads_per_reader = 10;
      harness::mixed_workload(d, w);
      d.run();
      fp[gc] = d.world().schedule_fingerprint();
      ops[gc] = d.log().snapshot();
      ok[gc] = d.check().ok();
      if (opts.history_gc) {
        // ...and GC actually collected something in the twin being compared.
        auto& obj =
            dynamic_cast<objects::RegularObject&>(d.object_process(0));
        EXPECT_LT(obj.history_size(), 16u);
      }
    }
    EXPECT_EQ(fp[0], fp[1]) << "GC changed the message schedule";
    EXPECT_TRUE(ok[0]);
    EXPECT_TRUE(ok[1]);
    ASSERT_EQ(ops[0].size(), ops[1].size());
    for (std::size_t i = 0; i < ops[0].size(); ++i) {
      EXPECT_EQ(ops[0][i].ts, ops[1][i].ts) << "op " << i;
      EXPECT_EQ(ops[0][i].value, ops[1][i].value) << "op " << i;
      EXPECT_EQ(ops[0][i].complete, ops[1][i].complete) << "op " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// A stale-replay replica does bounded work per read. It answers each reader's
// first read honestly and replays that snapshot forever after, so the
// reader's `have` for it never advances. Its embedded honest object must
// still GC and ship short (discarded) deltas, or every read copies a suffix
// as long as the run.
// ---------------------------------------------------------------------------

TEST(HistoryGc, StaleReplayReadCostDoesNotGrowWithHistory) {
  const Resilience res = Resilience::optimal(1, 1, 2);
  const Topology topo(2, res.num_objects);
  auto obj = adversary::make_byzantine(adversary::StrategyKind::StaleReplay,
                                       adversary::Flavor::Regular, topo, res,
                                       0);
  NullContext null;
  auto deliver = [&](ProcessId from, wire::Message m) {
    adversary::CapturingContext cap(null);
    obj->on_message(cap, from, std::move(m));
    return cap.take();
  };
  const auto s = static_cast<std::size_t>(res.num_objects);
  constexpr int kWrites = 2'000;
  Ts have[2] = {0, 0};  // each reader's mirror: only ever the snapshot
  std::vector<std::uint64_t> read_allocs;
  for (Ts ts = 1; ts <= kWrites; ++ts) {
    const WTuple prev{TsVal{ts - 1, "v"}, init_tsrarray(s)};
    deliver(topo.writer(), wire::PwMsg{ts, TsVal{ts, "v"}, prev});
    deliver(topo.writer(),
            wire::WMsg{ts, TsVal{ts, "v"}, WTuple{TsVal{ts, "v"}, {}}});
    const int j = static_cast<int>(ts % 2);
    const wire::HistReadMsg rd{1, static_cast<ReaderTs>(ts), 0, have[j]};
    const std::uint64_t before = g_heap_allocs.load();
    auto out = deliver(topo.reader(j), rd);
    read_allocs.push_back(g_heap_allocs.load() - before);
    ASSERT_EQ(out.size(), 1u);
    const auto& ack = std::get<wire::HistReadAckMsg>(out[0].msg);
    if (ts <= 2) {
      have[j] = ack.history.empty() ? 0 : std::prev(ack.history.end())->first;
    }
  }
  auto window = [&](std::size_t from) {
    std::uint64_t sum = 0;
    for (std::size_t i = from; i < from + 100; ++i) sum += read_allocs[i];
    return sum;
  };
  EXPECT_LE(window(read_allocs.size() - 100), window(100))
      << "replayed reads allocate more as the history grows";
}

// Golden schedule of a DES run with a stale-replay replica, captured before
// the replica's embedded object was fed a raised `have`: that change must
// not move one message or byte.
constexpr std::uint64_t kStaleReplayFingerprint = 0xb928104814d78fd1ULL;
constexpr std::uint64_t kStaleReplayBytesSent = 154215;
constexpr std::uint64_t kStaleReplayHistSlots = 886;

TEST(HistoryGc, StaleReplayScheduleIsPinned) {
  auto opts = gc_opts(1, 1, /*limit=*/0, 2024);
  opts.faults.byzantine[0] = adversary::StrategyKind::StaleReplay;
  opts.trace_fingerprint = true;
  Deployment d(opts);
  harness::MixedWorkloadOptions w;
  w.writes = 60;
  w.reads_per_reader = 40;
  harness::mixed_workload(d, w);
  d.run();
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
  const auto stats = d.stats();
  EXPECT_EQ(d.world().schedule_fingerprint(), kStaleReplayFingerprint);
  EXPECT_EQ(stats.bytes_sent, kStaleReplayBytesSent);
  EXPECT_EQ(stats.hist_slots_shipped, kStaleReplayHistSlots);
}

// ---------------------------------------------------------------------------
// The arena payoff: a garbage-collected object's write/ack path at steady
// state -- PW opens a slot, W completes it, the watermark rule collects the
// prefix, acks go out -- touches the heap zero times. Slots, parked
// payloads and event-pool entries are all recycled.
// ---------------------------------------------------------------------------

TEST(HistoryGc, SteadyStateWritePathIsAllocationFree) {
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {}
  };
  const Topology topo(0, 1);  // writer + one object, no readers
  sim::World w;
  w.set_delay_model(std::make_unique<sim::FixedDelay>(10));
  const auto writer = w.add_process(std::make_unique<Sink>());
  ASSERT_EQ(writer, topo.writer());
  auto obj = std::make_unique<objects::RegularObject>(topo, 0,
                                                      /*history_limit=*/4);
  auto* obj_raw = obj.get();
  const auto obj_pid = w.add_process(std::move(obj));
  ASSERT_EQ(obj_pid, topo.object(0));
  // Short values stay in the string's inline buffer; empty tsrarrays keep
  // the tuples heap-free. The write path itself must not allocate either
  // way once the arena is warm.
  auto burst = [&](Time at, Ts from, int count) {
    w.post(at, writer, [obj_pid, from, count](net::Context& ctx) {
      for (Ts ts = from; ts < from + static_cast<Ts>(count); ++ts) {
        const TsVal pw{ts, "v"};
        ctx.send(obj_pid, wire::PwMsg{ts, pw, WTuple{TsVal{ts - 1, "u"}, {}}});
        ctx.send(obj_pid, wire::WMsg{ts, pw, WTuple{pw, {}}});
      }
    });
  };
  burst(0, 1, 300);  // warm-up: slab, free lists, arena, parked payloads
  w.run();
  ASSERT_EQ(obj_raw->state().ts, 300u);
  burst(w.now() + 100, 301, 200);
  ASSERT_TRUE(w.step());  // execute the posting closure (sends reuse slots)
  const std::uint64_t before = g_heap_allocs.load();
  w.run();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(allocs, 0u)
      << "steady-state PW/W handling and acks must not allocate";
  EXPECT_EQ(obj_raw->state().ts, 500u);
  EXPECT_LE(obj_raw->history_size(), 4u);
}

}  // namespace
}  // namespace rr
