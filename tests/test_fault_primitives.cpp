// Gray-failure fault library: the new primitives -- seeded loss /
// duplication / reorder, asymmetric partitions, flapping channels,
// slow-but-alive gray processes, clock skew -- behave identically enough
// across all three backends to share one scenario format: same NetStats
// accounting, same Scenario encoding, same verdict logic. Clock skew is
// DES-only (wall clocks don't lie) and the Backend contract says so. The
// shared net::FaultPlane draws are unit-tested at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "harness/deployment.hpp"
#include "harness/protocol.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "net/fault_plane.hpp"

namespace rr::harness {
namespace {

Scenario base_scenario(BackendKind backend) {
  Scenario s;
  s.protocol = Protocol::Regular;
  s.backend = backend;
  s.tmpl = FaultTemplate::None;
  s.seed = 5;
  s.writes = 5;
  s.reads_per_reader = 4;
  s.name = "prim";  // library-style cell: run_seed derived, key scn:prim
  if (backend != BackendKind::Sim) {
    s.max_wall_ms = 10'000;  // stalls degrade to a verdict, never a hang
  }
  return s;
}

FaultEvent link_event(FaultEvent::Kind kind, double p) {
  FaultEvent ev;
  ev.kind = kind;
  ev.rate = p;
  return ev;
}

class FaultPrimitivesOnEveryBackend
    : public ::testing::TestWithParam<BackendKind> {};

// Loss: messages vanish at send time, are counted, and (since reliable
// channels are part of the liveness argument, not safety) any completed
// operations still check out.
TEST_P(FaultPrimitivesOnEveryBackend, LossIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  s.events.push_back(link_event(FaultEvent::Kind::Loss, 0.25));
  s.expect_ok = false;  // dropped requests may legitimately stall quorums
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_lost, 0u);
  EXPECT_EQ(v.violations, 0) << v.first_violation;  // safety holds regardless
}

TEST_P(FaultPrimitivesOnEveryBackend, DuplicationIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  s.events.push_back(link_event(FaultEvent::Kind::Duplicate, 0.4));
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_duplicated, 0u);
  EXPECT_TRUE(v.ok) << v.first_violation;  // idempotent acks: dup is benign
}

TEST_P(FaultPrimitivesOnEveryBackend, ReorderIsInjectedAndCounted) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev = link_event(FaultEvent::Kind::Reorder, 0.5);
  ev.period = 30'000;  // extra delay >> the base delay band
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_GT(v.net.messages_reordered, 0u);
  EXPECT_TRUE(v.ok) << v.first_violation;  // reorder is legal in the model
}

// Asymmetric partition: one direction of every channel into (or out of) an
// object is held for a window, then released; within the budget t the run
// must stay wait-free on every substrate.
TEST_P(FaultPrimitivesOnEveryBackend, AsymmetricPartitionWithinBudgetIsOk) {
  for (const auto kind :
       {FaultEvent::Kind::PartitionIn, FaultEvent::Kind::PartitionOut}) {
    Scenario s = base_scenario(GetParam());
    FaultEvent ev;
    ev.kind = kind;
    ev.held = {1};
    ev.at = 20'000;
    ev.duration = 60'000;
    s.events.push_back(ev);
    const CellVerdict v = SweepEngine::run_cell(s);
    EXPECT_TRUE(v.ok) << ev.describe() << ": " << v.first_violation;
  }
}

TEST_P(FaultPrimitivesOnEveryBackend, FlappingChannelWithinBudgetIsOk) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Flap;
  ev.held = {0};
  ev.at = 10'000;
  ev.duration = 150'000;
  ev.period = 25'000;
  ev.rate = 0.4;
  ev.jitter = 3'000;
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_TRUE(v.ok) << v.first_violation;
}

TEST_P(FaultPrimitivesOnEveryBackend, GrayProcessStaysCorrectJustSlow) {
  Scenario s = base_scenario(GetParam());
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Gray;
  ev.object = 2;
  ev.rate = 6.0;
  ev.at = 5'000;
  ev.duration = 200'000;
  s.events.push_back(ev);
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_TRUE(v.ok) << v.first_violation;
}

// The send path's order -- duplicate, then hold, then reorder only for
// copies actually scheduled -- is the same on every backend: with every
// rule certain to fire, a held channel buffers both copies of each send,
// and neither copy takes a reorder draw, now or on release.
TEST_P(FaultPrimitivesOnEveryBackend, HeldCopiesAreBufferedAndNeverReordered) {
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {
      received.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<int> received{0};
  };
  auto backend = make_backend(GetParam(), BackendConfig{});
  backend->add_process(std::make_unique<Sink>());
  auto sink = std::make_unique<Sink>();
  const Sink* to = sink.get();
  backend->add_process(std::move(sink));
  net::LinkFaults lf;
  lf.duplicate.p = 1.0;
  lf.reorder.p = 1.0;
  backend->set_link_faults(lf);
  backend->start();
  backend->hold(0, 1);
  backend->post(0, 0, [](net::Context& ctx) {
    for (Ts i = 1; i <= 5; ++i) ctx.send(1, wire::WAckMsg{i});
  });
  backend->run();
  EXPECT_EQ(to->received.load(), 0) << "held messages remain in transit";
  backend->release(0, 1);
  backend->run();
  EXPECT_EQ(to->received.load(), 10);
  const net::NetStats st = backend->stats();
  EXPECT_EQ(st.messages_sent, 5u);
  EXPECT_EQ(st.messages_duplicated, 5u);
  EXPECT_EQ(st.messages_reordered, 0u);
  EXPECT_EQ(st.messages_delivered, 10u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultPrimitivesOnEveryBackend,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads,
                                           BackendKind::Net),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// DES-only guarantees.
// ---------------------------------------------------------------------------

// Every new primitive composed at once stays bit-deterministic: same
// scenario, same fingerprint, across repeated runs -- and the schedule and
// the fault counts are pinned, so any change to the order in which the
// fault plane draws (loss, duplicate, hold, per-copy reorder) shows here.
TEST(FaultPrimitives, DesRunsWithAllPrimitivesAreBitDeterministic) {
  constexpr std::uint64_t kFingerprint = 0xdb335bc5642fea51ULL;
  constexpr std::uint64_t kLost = 13;
  constexpr std::uint64_t kDuplicated = 31;
  constexpr std::uint64_t kReordered = 77;
  constexpr std::uint64_t kDropped = 0;
  constexpr std::uint64_t kDelivered = 295;
  constexpr std::uint64_t kBytesSent = 19973;
  Scenario s = base_scenario(BackendKind::Sim);
  s.events.push_back(link_event(FaultEvent::Kind::Loss, 0.05));
  s.events.push_back(link_event(FaultEvent::Kind::Duplicate, 0.1));
  {
    FaultEvent ev = link_event(FaultEvent::Kind::Reorder, 0.3);
    ev.period = 15'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Gray;
    ev.object = 1;
    ev.rate = 3.0;
    ev.at = 10'000;
    ev.duration = 100'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Skew;
    ev.object = 3;
    ev.skew = -4'000;
    s.events.push_back(ev);
  }
  {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::Flap;
    ev.held = {0};
    ev.at = 30'000;
    ev.duration = 90'000;
    ev.period = 20'000;
    ev.rate = 0.5;
    ev.jitter = 1'000;
    s.events.push_back(ev);
  }
  s.expect_ok = false;  // loss may stall ops; determinism is what's pinned
  const CellVerdict a = SweepEngine::run_cell(s);
  const CellVerdict b = SweepEngine::run_cell(s);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, 0u);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.net.messages_lost, b.net.messages_lost);
  EXPECT_EQ(a.net.messages_duplicated, b.net.messages_duplicated);
  EXPECT_EQ(a.net.messages_reordered, b.net.messages_reordered);
  EXPECT_EQ(a.fingerprint, kFingerprint);
  EXPECT_EQ(a.net.messages_lost, kLost);
  EXPECT_EQ(a.net.messages_duplicated, kDuplicated);
  EXPECT_EQ(a.net.messages_reordered, kReordered);
  EXPECT_EQ(a.net.messages_dropped, kDropped);
  EXPECT_EQ(a.net.messages_delivered, kDelivered);
  EXPECT_EQ(a.net.bytes_sent, kBytesSent);
}

// Clock skew shifts a process's Context::now() on the DES -- the global
// event clock is untouched, only the local reading lies -- and the threads
// backend honestly refuses (wall clocks can't be skewed per thread).
TEST(FaultPrimitives, ClockSkewIsDesOnly) {
  DeploymentOptions opts;
  opts.protocol = Protocol::Regular;
  opts.backend = BackendKind::Sim;
  opts.res = protocol_traits(Protocol::Regular).resilience_for(2, 1, 2);
  opts.seed = 77;
  {
    Deployment d(opts);
    const ProcessId skewed = d.object_pid(0);
    const ProcessId honest = d.object_pid(1);
    EXPECT_TRUE(d.backend().set_clock_skew(skewed, 50'000));
    Time at_skewed = 0;
    Time at_honest = 0;
    d.backend().post(1'000, skewed,
                     [&at_skewed](net::Context& ctx) { at_skewed = ctx.now(); });
    d.backend().post(1'000, honest,
                     [&at_honest](net::Context& ctx) { at_honest = ctx.now(); });
    d.run();
    EXPECT_EQ(at_honest, 1'000u);
    EXPECT_EQ(at_skewed, 51'000u);  // same instant, lying local clock
  }
  opts.backend = BackendKind::Threads;
  {
    Deployment d(opts);
    EXPECT_FALSE(d.backend().set_clock_skew(d.object_pid(0), 9'000));
  }

  // A skew-bearing scenario is still a passing, deterministic cell.
  Scenario with_skew = base_scenario(BackendKind::Sim);
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Skew;
  ev.object = 0;
  ev.skew = 50'000;
  with_skew.events.push_back(ev);
  const CellVerdict a = SweepEngine::run_cell(with_skew);
  EXPECT_TRUE(a.ok) << a.first_violation;  // skew is legal: safety holds
  EXPECT_EQ(a.fingerprint, SweepEngine::run_cell(with_skew).fingerprint);
}

// A threads cell whose fault plan stalls its quorums degrades to a liveness
// verdict under a bounded deadline instead of aborting the process.
TEST(FaultPrimitives, ThreadsOverloadDegradesToLivenessVerdict) {
  const SweepEngine engine(SweepPlan::quick());
  Scenario s = engine.materialize(Protocol::Safe, BackendKind::Threads,
                                  FaultTemplate::Overload, 1);
  ASSERT_GT(s.max_wall_ms, 0u);
  s.max_wall_ms = 1'500;  // keep the test fast; the stall shows immediately
  const CellVerdict v = SweepEngine::run_cell(s);
  EXPECT_FALSE(v.ok);
  EXPECT_GT(v.ops_stuck, 0);
  EXPECT_NE(v.first_violation.find("liveness"), std::string::npos)
      << v.first_violation;
}

// ---------------------------------------------------------------------------
// net::FaultPlane: the one implementation of the draws every backend takes.
// Each test replays the expected draws on a twin of the caller's Rng, so
// the order (loss, then duplicate, then one reorder per scheduled copy) and
// the number of draws are both pinned.
// ---------------------------------------------------------------------------

net::LinkFaults all_rules(double loss, double dup, double reorder) {
  net::LinkFaults lf;
  lf.loss.p = loss;
  lf.duplicate.p = dup;
  lf.reorder.p = reorder;
  return lf;
}

TEST(FaultPlane, DrawsLossThenDuplicateThenOneReorderPerCopy) {
  net::FaultPlane plane;
  plane.install(all_rules(0.2, 0.3, 0.5));
  Rng rng(42);
  Rng twin(42);
  net::NetStats st;
  std::uint64_t lost = 0, duplicated = 0, reordered = 0;
  for (int i = 0; i < 2'000; ++i) {
    const int copies = plane.admit(0, 1, 100, rng, st);
    int expected = 1;
    if (twin.chance(0.2)) {
      expected = 0;
      ++lost;
    } else if (twin.chance(0.3)) {
      expected = 2;
      ++duplicated;
    }
    ASSERT_EQ(copies, expected) << "send " << i;
    for (int c = 0; c < copies; ++c) {
      const bool late = twin.chance(0.5);
      reordered += late;
      ASSERT_EQ(plane.reorder(0, 1, 100, rng, st), late) << "send " << i;
    }
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(st.messages_lost, lost);
  EXPECT_EQ(st.messages_duplicated, duplicated);
  EXPECT_EQ(st.messages_reordered, reordered);
  EXPECT_EQ(rng(), twin()) << "the streams must still be aligned";
}

TEST(FaultPlane, LostMessageTakesNoFurtherDraw) {
  net::FaultPlane plane;
  plane.install(all_rules(1.0, 1.0, 1.0));
  Rng rng(7);
  Rng twin(7);
  net::NetStats st;
  EXPECT_EQ(plane.admit(2, 3, 0, rng, st), 0);
  (void)twin.chance(1.0);  // the loss draw, and nothing else
  EXPECT_EQ(rng(), twin());
  EXPECT_EQ(st.messages_lost, 1u);
  EXPECT_EQ(st.messages_duplicated, 0u);
}

TEST(FaultPlane, RulesDrawOnlyInsideTheirWindowAndScope) {
  net::LinkFaults lf = all_rules(0.5, 0, 0);
  lf.loss.from = 100;
  lf.loss.until = 200;
  lf.loss.pids = {3};
  net::FaultPlane plane;
  plane.install(lf);
  net::NetStats st;
  // How many draws one admit() took from a fresh stream (each chance() is
  // one draw), found by realigning a twin stream.
  const auto draws = [&](ProcessId from, ProcessId to, Time now) {
    Rng rng(11);
    (void)plane.admit(from, to, now, rng, st);
    for (int k = 0; k <= 2; ++k) {
      Rng twin(11);
      for (int i = 0; i < k; ++i) (void)twin();
      if (Rng(rng)() == twin()) return k;
    }
    return -1;
  };
  EXPECT_EQ(draws(3, 1, 99), 0) << "before `from`";
  EXPECT_EQ(draws(3, 1, 100), 1) << "`from` is inclusive";
  EXPECT_EQ(draws(1, 3, 199), 1) << "either endpoint is in scope";
  EXPECT_EQ(draws(3, 1, 200), 0) << "`until` is exclusive";
  EXPECT_EQ(draws(0, 1, 150), 0) << "channel outside the pids scope";
  lf.loss.until = 0;  // no upper bound
  plane.install(lf);
  EXPECT_EQ(draws(3, 0, 1'000'000), 1);
}

TEST(FaultPlane, DisabledPlaneTakesNoDraws) {
  net::FaultPlane plane;
  Rng rng(3);
  Rng twin(3);
  net::NetStats st;
  EXPECT_FALSE(plane.enabled());
  EXPECT_EQ(plane.admit(0, 1, 5, rng, st), 1);
  EXPECT_FALSE(plane.reorder(0, 1, 5, rng, st));
  EXPECT_EQ(rng(), twin());
}

}  // namespace
}  // namespace rr::harness
