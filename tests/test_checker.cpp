// History-checker tests. HistoryLog::check() is the only production checker;
// reference_checker.hpp states the same definitions as direct scans, and
// every report the log produces must equal the oracle's byte for byte:
//
//   - hand-crafted histories: each property accepts its legal histories and
//     flags the canonical violations, through the oracle and replayed into
//     a HistoryLog at windows 0 (retain all) and 1 (retire at once);
//   - randomized adversarial histories at windows {0, 1, 2, 4, 8, 64}, for
//     safe, regular and atomic: whole reports and fingerprints;
//   - retirement never outruns verifiability: an incomplete op, or a read
//     naming a not-yet-invoked write, pins the window;
//   - every committed DES scenario gives the same verdict and fingerprint at
//     window 0 and window 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "checker/history.hpp"
#include "common/rng.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "reference_checker.hpp"

namespace rr::checker {
namespace {

using Kind = OpRecord::Kind;

OpRecord write_op(Ts ts, const Value& v, Time inv, Time resp) {
  OpRecord op;
  op.kind = Kind::Write;
  op.client = -1;
  op.invoked_at = inv;
  op.responded_at = resp;
  op.complete = true;
  op.ts = ts;
  op.value = v;
  return op;
}

OpRecord incomplete_write(const Value& v, Time inv) {
  OpRecord op;
  op.kind = Kind::Write;
  op.client = -1;
  op.invoked_at = inv;
  op.complete = false;
  op.value = v;
  return op;
}

OpRecord read_op(int client, Ts ts, const Value& v, Time inv, Time resp) {
  OpRecord op;
  op.kind = Kind::Read;
  op.client = client;
  op.invoked_at = inv;
  op.responded_at = resp;
  op.complete = true;
  op.ts = ts;
  op.value = v;
  return op;
}

/// Replays `ops` (a history in invocation order) into `log` as a timeline:
/// invocations in log order, each response at its own time, invocations
/// before responses at the same instant. Incomplete ops never respond.
void replay(const std::vector<OpRecord>& ops, HistoryLog& log) {
  ASSERT_TRUE(std::is_sorted(ops.begin(), ops.end(),
                             [](const OpRecord& a, const OpRecord& b) {
                               return a.invoked_at < b.invoked_at;
                             }));
  struct Event {
    Time at;
    bool is_response;
    std::size_t op;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    events.push_back({ops[i].invoked_at, false, i});
    if (ops[i].complete) events.push_back({ops[i].responded_at, true, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.is_response < b.is_response;
                   });
  std::vector<std::size_t> handles(ops.size());
  for (const auto& ev : events) {
    const OpRecord& op = ops[ev.op];
    if (!ev.is_response) {
      handles[ev.op] = log.record_invocation(
          op.kind, op.client, op.invoked_at,
          op.kind == Kind::Write ? op.value : Value{});
    } else if (op.kind == Kind::Write) {
      log.record_write_response(handles[ev.op], op.responded_at, op.ts,
                                op.value);
    } else {
      log.record_read_response(handles[ev.op], op.responded_at,
                               TsVal{op.ts, op.value});
    }
  }
}

void expect_same_report(const CheckReport& got, const CheckReport& want) {
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.reads_checked, want.reads_checked);
  EXPECT_EQ(got.writes_checked, want.writes_checked);
}

/// The oracle's report on `ops` for `p`, after checking that the shipping
/// checker reproduces it byte for byte at windows 0 and 1.
CheckReport checked(const std::vector<OpRecord>& ops, Property p) {
  const CheckReport want = reference::check(ops, p);
  for (const std::size_t window : {0u, 1u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    HistoryLog log(window, p);
    replay(ops, log);
    expect_same_report(log.check(p), want);
  }
  return want;
}

bool mentions(const CheckReport& report, const std::string& needle) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(SafetyChecker, AcceptsSequentialHistory) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      read_op(0, 1, "v1", 20, 30),
      write_op(2, "v2", 40, 50),
      read_op(0, 2, "v2", 60, 70),
  };
  EXPECT_TRUE(checked(ops, Property::Safe).ok());
}

TEST(SafetyChecker, AcceptsInitialValueBeforeAnyWrite) {
  const std::vector<OpRecord> ops = {
      read_op(0, 0, "", 0, 5),
      write_op(1, "v1", 10, 20),
  };
  EXPECT_TRUE(checked(ops, Property::Safe).ok());
}

TEST(SafetyChecker, FlagsStaleRead) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 30),
      read_op(0, 1, "v1", 40, 50),  // must return v2
  };
  const auto report = checked(ops, Property::Safe);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("safety"), std::string::npos);
}

TEST(SafetyChecker, FlagsNeverWrittenValue) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      read_op(0, 1, "FORGED", 20, 30),
  };
  EXPECT_FALSE(checked(ops, Property::Safe).ok());
}

TEST(SafetyChecker, IgnoresReadsConcurrentWithWrites) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 100),
      read_op(0, 99, "anything", 10, 20),  // concurrent: unconstrained
  };
  EXPECT_TRUE(checked(ops, Property::Safe).ok());
}

TEST(SafetyChecker, IncompleteWriteMakesLaterReadsConcurrent) {
  // A crashed writer's operation never responds; reads invoked after it are
  // concurrent with it forever, so safety does not constrain them.
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      incomplete_write("v2", 20),
      read_op(0, 1, "v1", 100, 110),   // still fine
      read_op(0, 2, "v2", 200, 210),   // also fine (concurrent)
  };
  EXPECT_TRUE(checked(ops, Property::Safe).ok());
}

TEST(RegularityChecker, AcceptsEitherOfConcurrentValues) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 100),
      read_op(0, 1, "v1", 30, 40),  // concurrent with wr2: v1 allowed
      read_op(1, 2, "v2", 30, 40),  // ... and v2 allowed
  };
  EXPECT_TRUE(checked(ops, Property::Regular).ok());
}

TEST(RegularityChecker, FlagsValueOlderThanPrecedingWrite) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 30),
      read_op(0, 1, "v1", 40, 50),
  };
  const auto report = checked(ops, Property::Regular);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("regularity(2)"), std::string::npos);
}

TEST(RegularityChecker, FlagsUnwrittenValue) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      read_op(0, 7, "v7", 20, 30),  // ts 7 was never even invoked
  };
  const auto report = checked(ops, Property::Regular);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("regularity(1)"), std::string::npos);
}

TEST(RegularityChecker, FlagsValueFromTheFuture) {
  // Read returns val_2 although WRITE(v2) is invoked only after the read
  // responded (condition 3).
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      read_op(0, 2, "v2", 20, 30),
      write_op(2, "v2", 40, 50),
  };
  const auto report = checked(ops, Property::Regular);
  EXPECT_TRUE(mentions(report, "regularity(3)")) << report.summary();
}

TEST(RegularityChecker, AcceptsValueOfIncompleteConcurrentWrite) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      incomplete_write("v2", 20),
      read_op(0, 2, "v2", 30, 40),  // concurrent with the incomplete wr2
  };
  EXPECT_TRUE(checked(ops, Property::Regular).ok());
}

// A stale read with a forged payload fails conditions (1) and (2). Condition
// (2) is checked first, so it is the one reported -- also at window 1, where
// the write the read names has dropped below the value floor and its
// payload is gone by the time the read is verified.
TEST(RegularityChecker, ForgedStaleReadBelowTheFloorIsRegularity2) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 30),
      read_op(0, 1, "FORGED", 40, 50),
      read_op(1, 2, "v2", 60, 70),  // advances the frontier past the forgery
  };
  const auto report = checked(ops, Property::Regular);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  EXPECT_EQ(report.violations[0],
            "regularity(2): read returned ts 1 although WRITE with ts 2 "
            "precedes it: " +
                describe_op(ops[2]));

  HistoryLog log(1, Property::Regular);
  replay(ops, log);
  EXPECT_GE(log.window_stats().retired, 3u)
      << "the forged read must be verified after the floor moved past ts 1";
}

TEST(AtomicityChecker, FlagsNewOldInversion) {
  // Both reads are legal under regularity (concurrent with wr2), but the
  // second read is ordered after the first and goes backwards.
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 200),
      read_op(0, 2, "v2", 30, 40),
      read_op(0, 1, "v1", 50, 60),
  };
  EXPECT_TRUE(checked(ops, Property::Regular).ok());
  EXPECT_TRUE(mentions(checked(ops, Property::Atomic), "new-old inversion"));
}

TEST(AtomicityChecker, AcceptsMonotoneReads) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 200),
      read_op(0, 1, "v1", 30, 40),
      read_op(0, 2, "v2", 50, 60),
      read_op(1, 2, "v2", 70, 80),
  };
  EXPECT_TRUE(checked(ops, Property::Atomic).ok());
}

// A late read inverting two earlier reads is one violation, named after its
// strongest predecessor: highest ts, then earliest response. Here both
// earlier reads returned ts 2 and the one invoked second responded first.
TEST(AtomicityChecker, LateReadIsReportedOnceAgainstItsStrongestPredecessor) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 500),
      read_op(0, 2, "v2", 30, 60),
      read_op(1, 2, "v2", 35, 45),
      read_op(2, 1, "v1", 100, 110),  // legal alone: wr2 is still running
  };
  EXPECT_TRUE(checked(ops, Property::Regular).ok());
  const auto report = checked(ops, Property::Atomic);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  EXPECT_EQ(report.violations[0], "atomicity: new-old inversion: " +
                                      describe_op(ops[3]) + " precedes " +
                                      describe_op(ops[4]));
}

TEST(WellFormedChecker, FlagsNonDenseTimestamps) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(3, "v3", 20, 30),  // skipped 2
  };
  EXPECT_FALSE(reference::check_well_formed(ops).ok());
  EXPECT_TRUE(mentions(checked(ops, Property::Regular), "not dense"));
}

TEST(WellFormedChecker, FlagsOverlappingClientOps) {
  const std::vector<OpRecord> ops = {
      read_op(0, 0, "", 0, 50),
      read_op(0, 0, "", 20, 70),  // same reader overlaps itself
  };
  EXPECT_FALSE(reference::check_well_formed(ops).ok());
  EXPECT_TRUE(mentions(checked(ops, Property::Regular), "client ops overlap"));
}

TEST(WellFormedChecker, AcceptsInterleavedDistinctClients) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 50),
      read_op(0, 0, "", 10, 20),
      read_op(1, 0, "", 15, 25),
  };
  EXPECT_TRUE(reference::check_well_formed(ops).ok());
  EXPECT_TRUE(checked(ops, Property::Regular).ok());
}

TEST(HistoryLogTest, RecordsInvocationAndResponse) {
  HistoryLog log;
  const auto w = log.record_invocation(Kind::Write, -1, 5, "vv");
  const auto r = log.record_invocation(Kind::Read, 0, 6);
  log.record_write_response(w, 15, 1, "vv");
  log.record_read_response(r, 16, TsVal{1, "vv"});
  const auto ops = log.snapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].complete);
  EXPECT_EQ(ops[0].ts, 1u);
  EXPECT_EQ(ops[1].value, "vv");
}

TEST(HistoryLogTest, IncompleteOpsStayIncomplete) {
  HistoryLog log;
  log.record_invocation(Kind::Write, -1, 5, "lost");
  const auto ops = log.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_FALSE(ops[0].complete);
  EXPECT_EQ(ops[0].value, "lost");
}

// Window 0 retains everything, so any property may be checked afterwards.
TEST(HistoryLogTest, WindowZeroNeverRetiresAndChecksAnyProperty) {
  const std::vector<OpRecord> ops = {
      write_op(1, "v1", 0, 10),
      write_op(2, "v2", 20, 200),
      read_op(0, 2, "v2", 30, 40),
      read_op(1, 1, "v1", 50, 60),
  };
  HistoryLog log;
  replay(ops, log);
  EXPECT_EQ(log.window_stats().retired, 0u);
  EXPECT_EQ(log.window_stats().peak_live, ops.size());
  EXPECT_TRUE(log.check(Property::Safe).ok());
  EXPECT_TRUE(log.check(Property::Regular).ok());
  EXPECT_FALSE(log.check(Property::Atomic).ok());
}

// ---------------------------------------------------------------------------
// Randomized adversarial histories: one sequential writer and three
// sequential readers, reads mostly plausible but occasionally stale,
// forged-future or with a corrupted payload, sometimes ending in a crashed
// (incomplete) write or read. Replayed at every window -- window 1 is
// maximal eviction pressure -- the whole report must equal the oracle's and
// the fingerprint must not depend on the window.
// ---------------------------------------------------------------------------
std::vector<OpRecord> random_history(std::uint64_t seed) {
  Rng rng(mix64(seed ^ 0xfeedULL));
  std::vector<OpRecord> ops;
  Ts next_ts = 0;
  Time writer_free = 0;
  Time reader_free[3] = {0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(0.3)) {
      const Time inv = writer_free + rng.uniform(0, 20);
      const Time rsp = inv + 1 + rng.uniform(0, 30);
      ++next_ts;
      ops.push_back(write_op(next_ts, harness::value_for(next_ts), inv, rsp));
      writer_free = rsp + 1;
    } else {
      const int c = static_cast<int>(rng.index(3));
      const Time inv = reader_free[c] + rng.uniform(0, 20);
      const Time rsp = inv + 1 + rng.uniform(0, 30);
      Ts ts = next_ts == 0 ? 0 : rng.uniform(0, next_ts);
      if (rng.chance(0.05)) ts = next_ts + 1 + rng.uniform(0, 2);
      Value val = ts == 0 ? Value{} : harness::value_for(ts);
      if (rng.chance(0.08)) val = "junk";
      ops.push_back(read_op(c, ts, val, inv, rsp));
      reader_free[c] = rsp + 1;
    }
  }
  if (rng.chance(0.25)) {
    ops.push_back(incomplete_write(harness::value_for(next_ts + 1),
                                   writer_free + rng.uniform(0, 20)));
  }
  if (rng.chance(0.25)) {
    const int c = static_cast<int>(rng.index(3));
    OpRecord rd = read_op(c, 0, {}, reader_free[c] + rng.uniform(0, 20), 0);
    rd.complete = false;
    ops.push_back(rd);
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpRecord& a, const OpRecord& b) {
                     return a.invoked_at < b.invoked_at;
                   });
  return ops;
}

TEST(WindowedChecker, RandomHistoriesMatchTheOracleByteForByte) {
  for (const Property p :
       {Property::Safe, Property::Regular, Property::Atomic}) {
    std::size_t violations = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const auto ops = random_history(seed);
      const CheckReport want = reference::check(ops, p);
      violations += want.violations.size();
      std::uint64_t fingerprint = 0;
      for (const std::size_t window : {0u, 1u, 2u, 4u, 8u, 64u}) {
        SCOPED_TRACE("property " + std::to_string(static_cast<int>(p)) +
                     " seed " + std::to_string(seed) + " window " +
                     std::to_string(window));
        HistoryLog log(window, p);
        replay(ops, log);
        expect_same_report(log.check(p), want);
        EXPECT_EQ(log.size(), ops.size());
        EXPECT_EQ(log.window_stats().retired > 0, window > 0);
        if (window == 0) fingerprint = log.history_fingerprint();
        EXPECT_EQ(log.history_fingerprint(), fingerprint);
      }
    }
    EXPECT_GT(violations, 0u) << "the generator must produce violations";
  }
}

// ---------------------------------------------------------------------------
// Retirement never outruns verifiability: an op that is still incomplete
// pins the frontier, so nothing invoked at-or-after it can retire, no matter
// how far past the window the residual grows.
// ---------------------------------------------------------------------------
TEST(WindowedChecker, IncompleteOpPinsRetirement) {
  HistoryLog log(4, Property::Regular);
  const auto w = log.record_invocation(Kind::Write, -1, 10, "v1");
  Time t = 20;
  for (int i = 0; i < 64; ++i) {
    const auto r = log.record_invocation(Kind::Read, 0, t);
    log.record_read_response(r, t + 5, TsVal{});  // initial value: legal
    t += 10;
  }
  auto ws = log.window_stats();
  EXPECT_EQ(ws.retired, 0u) << "retired past an incomplete op";
  EXPECT_EQ(ws.live, 65u);
  EXPECT_TRUE(log.check(Property::Regular).ok());

  // Completing the pinned write (plus one later event to advance the
  // frontier past its response) unblocks retirement.
  log.record_write_response(w, t, 1, "v1");
  const auto r = log.record_invocation(Kind::Read, 0, t + 1);
  log.record_read_response(r, t + 6, TsVal{1, "v1"});
  ws = log.window_stats();
  EXPECT_GT(ws.retired, 0u);
  EXPECT_TRUE(log.check(Property::Regular).ok());
}

// A read naming a write that has not been invoked yet (a Byzantine forgery)
// is unverifiable while the run lives -- the writer might still catch up --
// so it must stay resident, and the final pass must then convict it.
TEST(WindowedChecker, ForgedFutureReadIsHeldThenConvicted) {
  HistoryLog log(2, Property::Regular);
  const auto w = log.record_invocation(Kind::Write, -1, 10, "v1");
  log.record_write_response(w, 20, 1, "v1");
  const auto forged = log.record_invocation(Kind::Read, 0, 30);
  log.record_read_response(forged, 40, TsVal{3, "v3"});
  Time t = 50;
  for (int i = 0; i < 32; ++i) {
    const auto r = log.record_invocation(Kind::Read, 1, t);
    log.record_read_response(r, t + 5, TsVal{1, "v1"});
    t += 10;
  }
  const auto ws = log.window_stats();
  EXPECT_LE(ws.retired, 1u) << "retired an unverifiable forged read";
  EXPECT_GE(ws.live, 33u);
  const auto report = log.check(Property::Regular);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("regularity(1)"), std::string::npos)
      << report.violations[0];
}

}  // namespace
}  // namespace rr::checker

namespace rr::harness {
namespace {

std::vector<std::string> scn_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// The window is invisible. Every committed DES scenario -- library and
// shrinker fixtures, passing and expected-failing alike -- must produce the
// same verdict, the same first violation and the same fingerprint with the
// checker retiring ops online (window 8) as retaining everything (window
// 0), while actually retiring a nonzero prefix somewhere.
// ---------------------------------------------------------------------------
TEST(WindowedChecker, VerdictsAndFingerprintsMatchBatchOnCommittedScenarios) {
  std::vector<std::string> files =
      scn_files(std::string(RR_SOURCE_DIR) + "/scenarios");
  for (auto& f :
       scn_files(std::string(RR_SOURCE_DIR) + "/tests/fixtures/scenarios")) {
    files.push_back(std::move(f));
  }
  ASSERT_FALSE(files.empty());
  std::uint64_t total_retired = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto parsed = load_scenario_file(path);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    if (parsed.scenario.backend != BackendKind::Sim) continue;
    Scenario retain_all = parsed.scenario;
    retain_all.checker_window = 0;
    Scenario windowed = parsed.scenario;
    windowed.checker_window = 8;
    const CellVerdict v0 = SweepEngine::run_cell(retain_all);
    const CellVerdict vw = SweepEngine::run_cell(windowed);
    EXPECT_EQ(v0.ok, vw.ok);
    EXPECT_EQ(v0.violations, vw.violations);
    EXPECT_EQ(v0.first_violation, vw.first_violation);
    EXPECT_EQ(v0.fingerprint, vw.fingerprint);
    EXPECT_EQ(v0.ops_complete, vw.ops_complete);
    EXPECT_EQ(v0.ops_stuck, vw.ops_stuck);
    EXPECT_EQ(v0.hist_retired, 0u);
    total_retired += vw.hist_retired;
  }
  EXPECT_GT(total_retired, 0u);
}

}  // namespace
}  // namespace rr::harness
