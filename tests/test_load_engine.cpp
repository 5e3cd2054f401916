// Open-loop load engine invariants:
//
//   - the steady-state client loop allocates nothing (counting global
//     operator new in this binary);
//   - open-loop DES cells are deterministic, independent of the checker
//     window, and keep checker residency O(window), also under chaos holds;
//   - the arrival shapes match their documented envelopes.
//
// The streaming checker's own tests live in test_checker.cpp.
#include "harness/workload.hpp"

#include <gtest/gtest.h>

#include "harness/sweep.hpp"

// Counts every heap allocation in this binary into g_heap_allocs.
#include "counting_alloc.hpp"

namespace rr::harness {
namespace {

// ---------------------------------------------------------------------------
// The steady-state client loop allocates nothing: arrival sampling, station
// FIFO traffic and latency recording -- the per-op bookkeeping the engine
// performs a million times -- must not touch the heap after construction.
// ---------------------------------------------------------------------------
TEST(LoadEngine, SteadyStateClientPathsDoNotAllocate) {
  OpenLoopOptions ol;
  ol.arrival = ArrivalKind::Bursty;
  ol.clients = 1'000'000;
  ol.mean_think = 1'000'000'000;
  ol.horizon = 10'000'000;
  ArrivalSampler sampler(ol, 42);
  StationRing ring(256);
  LatencyRecorder sojourn;
  // Warm-up: first touches may lazily allocate (none should, but the pin is
  // about the steady state).
  Time now = 0;
  now += sampler.next(now);
  (void)ring.push(now, 1);
  Time at = 0;
  std::uint32_t client = 0;
  ring.pop(at, client);
  sojourn.record(17);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) {
    now += sampler.next(now);
    (void)ring.push(now, static_cast<std::uint32_t>(i));
    if (ring.size() > 128) ring.pop(at, client);
    sojourn.record(now > at ? now - at : 1);
  }
  while (!ring.empty()) ring.pop(at, client);
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state loop";
}

// StationRing is a bounded FIFO: refuses pushes at capacity, preserves
// arrival order, never grows.
TEST(LoadEngine, StationRingIsABoundedFifo) {
  StationRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push(100 + i, i));
  }
  EXPECT_FALSE(ring.push(999, 99)) << "push past capacity must shed";
  EXPECT_EQ(ring.size(), 4u);
  Time at = 0;
  std::uint32_t client = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ring.pop(at, client);
    EXPECT_EQ(at, 100 + i);
    EXPECT_EQ(client, i);
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// Open-loop DES cells: bit-deterministic across runs, identical fingerprint
// at window 32 and window 0 (retain all), and checker residency O(window) -- the peak
// stays within window + in-flight slack while the retired count covers
// nearly the whole run.
// ---------------------------------------------------------------------------
TEST(LoadEngine, OpenLoopDesCellIsDeterministicAndBounded) {
  Scenario s;
  s.protocol = Protocol::Safe;
  s.backend = BackendKind::Sim;
  s.tmpl = FaultTemplate::None;
  s.seed = 7;
  s.shards = 2;
  s.arrival = ArrivalKind::Poisson;
  s.clients = 2'000;
  s.think = 10'000'000;
  s.horizon = 1'500'000;
  s.write_fraction = 0.2;
  s.checker_window = 32;
  const CellVerdict v1 = SweepEngine::run_cell(s);
  const CellVerdict v2 = SweepEngine::run_cell(s);
  EXPECT_TRUE(v1.ok) << v1.first_violation;
  EXPECT_EQ(v1.ops_stuck, 0);
  EXPECT_GT(v1.ops_complete, 100);
  EXPECT_EQ(v1.fingerprint, v2.fingerprint);
  EXPECT_NE(v1.fingerprint, 0u);
  EXPECT_GT(v1.hist_retired, 0u);
  EXPECT_LE(v1.hist_peak_live, 32u + 64u)
      << "checker residency must stay O(window)";

  Scenario retain_all = s;
  retain_all.checker_window = 0;
  const CellVerdict v0 = SweepEngine::run_cell(retain_all);
  EXPECT_EQ(v0.ok, v1.ok);
  EXPECT_EQ(v0.fingerprint, v1.fingerprint);
  EXPECT_EQ(v0.ops_complete, v1.ops_complete);
  EXPECT_EQ(v0.hist_retired, 0u);
  EXPECT_GT(v0.hist_peak_live, v1.hist_peak_live)
      << "window 0 must retain everything";
}

// The open-loop engine also runs under chaos faults with the windowed
// checker: holds stall ops mid-flight (pinning retirement), yet the final
// verdict stays clean and matches the window-0 twin.
TEST(LoadEngine, OpenLoopSurvivesChaosWithWindowedChecker) {
  Scenario s;
  s.protocol = Protocol::Regular;
  s.backend = BackendKind::Sim;
  s.tmpl = FaultTemplate::None;
  s.seed = 11;
  s.arrival = ArrivalKind::Bursty;
  s.clients = 1'000;
  s.think = 10'000'000;
  s.horizon = 1'000'000;
  s.checker_window = 24;
  FaultEvent hold;
  hold.kind = FaultEvent::Kind::Hold;
  hold.held = {0, 1};
  hold.at = 200'000;
  hold.duration = 150'000;
  s.events.push_back(hold);
  const CellVerdict vw = SweepEngine::run_cell(s);
  EXPECT_TRUE(vw.ok) << vw.first_violation;
  Scenario retain_all = s;
  retain_all.checker_window = 0;
  const CellVerdict vb = SweepEngine::run_cell(retain_all);
  EXPECT_EQ(vb.fingerprint, vw.fingerprint);
  EXPECT_EQ(vb.ok, vw.ok);
}

// ---------------------------------------------------------------------------
// Allocation budget of a fault-free gv06-regular open-loop DES run (S=4,
// R=2, 30% writes), setup included. Every PW/W fan-out, history reply slot
// and reader candidate copies a written tuple, so the per-op count follows
// what one tuple copy costs; at one allocation per tuple the run needs
// about 21 per op (20.96 measured), and a tuple copy costing one allocation
// per harvested row on top pushes it past 60. Completion callbacks are
// moved, not copied, through each wrapper layer, and the load engine's own
// callback fits std::function's inline storage; copying either again
// costs about one allocation per op.
// ---------------------------------------------------------------------------
TEST(LoadEngine, RegularOpenLoopDesRunStaysWithinAllocationBudget) {
  Scenario s;
  s.protocol = Protocol::Regular;
  s.backend = BackendKind::Sim;
  s.tmpl = FaultTemplate::None;
  s.seed = 1;
  s.t = 1;
  s.b = 1;
  s.readers = 2;
  s.arrival = ArrivalKind::Poisson;
  s.clients = 1'000;
  s.think = 33'333'333;
  s.horizon = 100'000'000;
  s.write_fraction = 0.3;
  s.checker_window = 1'024;
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const CellVerdict v = SweepEngine::run_cell(s);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(v.ok) << v.first_violation;
  ASSERT_EQ(v.ops_stuck, 0);
  ASSERT_GT(v.ops_complete, 2'000);
  const double per_op =
      static_cast<double>(allocs) / static_cast<double>(v.ops_complete);
  EXPECT_LE(per_op, 21.0) << allocs << " allocations over " << v.ops_complete
                          << " ops";
}

// ---------------------------------------------------------------------------
// Arrival shapes match their documented envelopes (docs/WORKLOADS.md).
// ---------------------------------------------------------------------------
TEST(LoadEngine, ArrivalShapesMatchTheirEnvelopes) {
  OpenLoopOptions ol;
  ol.clients = 2'000;
  ol.mean_think = 10'000'000;  // base rate 2e-4/ns -> mean gap 5000ns
  ol.horizon = 10'000'000;

  {  // Poisson: thinning accepts everything; empirical mean ~= think/clients.
    ol.arrival = ArrivalKind::Poisson;
    ArrivalSampler sampler(ol, 5);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(123), 1.0);
    Time now = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) now += sampler.next(now);
    const double mean = static_cast<double>(now) / n;
    EXPECT_NEAR(mean, 5'000.0, 5'000.0 * 0.15);
  }
  {  // Bursty: accept 1 inside the duty window, 1/boost outside.
    ol.arrival = ArrivalKind::Bursty;
    ol.burst_period = 100'000;
    ol.burst_duty = 0.25;
    ol.burst_boost = 4.0;
    ArrivalSampler sampler(ol, 5);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(1'000), 1.0);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(90'000), 0.25);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(101'000), 1.0);  // periodic
  }
  {  // Diurnal: triangle ramp, low at the horizon's ends, peak at its middle.
    ol.arrival = ArrivalKind::Diurnal;
    ArrivalSampler sampler(ol, 5);
    const double lo = sampler.accept_probability(0);
    const double mid = sampler.accept_probability(ol.horizon / 2);
    const double hi_end = sampler.accept_probability(ol.horizon);
    EXPECT_DOUBLE_EQ(lo, 0.1);
    EXPECT_DOUBLE_EQ(mid, 1.0);
    EXPECT_DOUBLE_EQ(hi_end, 0.1);
    EXPECT_DOUBLE_EQ(sampler.accept_probability(ol.horizon * 3), 0.1)
        << "past the horizon the tail stays at the floor";
  }
}

}  // namespace
}  // namespace rr::harness
