// Deterministic multi-seed scenario sweep engine.
//
// A SweepPlan is a grid of {protocol x backend x fault-plan template x RNG
// seed}. The engine materializes one deterministic Scenario per cell -- a
// seeded chaos schedule of crashes, held-channel waves, Byzantine impostors
// (forged values), plus a seeded workload mix and shard count -- runs the
// cells concurrently on a thread pool (one private Deployment, hence one
// private sim::World, per cell: the DES is single-threaded-deterministic,
// so N worlds saturate N cores), and aggregates per-cell verdicts into a
// SweepReport (history-checker pass/fail, liveness, NetStats, latency p95,
// and on the DES a golden schedule fingerprint).
//
// Every cell is addressed by a canonical key, "protocol:backend:template:
// seed" (e.g. "safe:des:chaos:42"); materialization depends only on the key
// and the plan's budget/workload knobs, never on worker count or execution
// order, so any cell -- in particular any *failing* cell -- is replayable
// with one CLI flag (sweep_cli --replay KEY). DES cells replay bit-
// identically (same fingerprint); threads cells replay the same schedule
// under genuine wall-clock nondeterminism.
//
// When a cell fails, the engine re-runs it under a ddmin fault-plan
// shrinker (Zeller's delta debugging over the event list: try chunks, then
// chunk complements, refine granularity until 1-minimal). The result is a
// minimal failing schedule (removing any single remaining event makes the
// failure disappear) small enough to read, plus the seed to replay it.
//
// Beyond the grid, a plan carries a *library* of explicit Scenarios --
// typically parsed from scenario files (src/harness/scenario_dsl.hpp,
// docs/SCENARIO_DSL.md) -- that run as first-class cells after the grid.
// Library cells are keyed "scn:<name>" and carry an expected verdict
// (`expect_ok`), so a committed shrinker-emitted failure file counts as
// *passing* when it still fails the same way.
//
// The "overload" template deliberately exceeds the crash budget (t+1 timed
// crashes plus droppable hold-wave noise), so quorums become permanently
// unreachable and reads stall: a guaranteed liveness failure that exercises
// the failure-detection + shrinking + replay pipeline end-to-end. It is
// excluded from default_fault_templates() -- CI sweeps must be all green.
// On the threads backend the engine gives such cells a bounded wall-clock
// deadline (BackendConfig::max_wall_time_ms) so they degrade to a liveness
// verdict instead of aborting the process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/byzantine.hpp"
#include "harness/backend.hpp"
#include "harness/protocol.hpp"
#include "harness/workload.hpp"
#include "net/stats.hpp"

namespace rr::harness {

/// Fault-plan templates: the shapes of adversarial schedule a cell's seed
/// is expanded into (Section 2's fault model: up to t faulty objects, up to
/// b of them arbitrary, plus scheduler-controlled asynchrony).
enum class FaultTemplate {
  None,      ///< fault-free (pure workload + random delays)
  Crash,     ///< <= t timed crashes
  Byz,       ///< <= b Byzantine impostors, random strategies
  Mixed,     ///< Byzantine + crashes, within the (t, b) budget
  Chaos,     ///< held-channel waves ("messages remain in transit")
  ByzChaos,  ///< Byzantine + held-channel waves
  Overload,  ///< t+1 crashes: deliberate liveness violation (DES only)
};

[[nodiscard]] const char* to_string(FaultTemplate t);
[[nodiscard]] std::optional<FaultTemplate> fault_template_from_name(
    std::string_view name);
/// The templates a default sweep grid runs (everything except Overload).
[[nodiscard]] const std::vector<FaultTemplate>& default_fault_templates();

/// One discrete, independently droppable fault of a materialized schedule.
/// The shrinker works at this granularity. The gray-failure kinds (from
/// PartitionIn down) are never drawn by the grid templates -- they enter
/// scenarios through the DSL (docs/SCENARIO_DSL.md) -- so legacy cell
/// schedules stay bit-identical.
struct FaultEvent {
  enum class Kind {
    Byzantine,  ///< impostor object from construction time
    Crash,      ///< object crashes at `at`
    Hold,       ///< channels of `held` objects held during [at, at+duration)
    PartitionIn,   ///< only channels *into* `held` objects are held
    PartitionOut,  ///< only channels *out of* `held` objects are held
    Flap,       ///< `held` objects flap: period `period`, duty `rate`,
                ///< seeded edge jitter `jitter`, during [at, at+duration)
    Gray,       ///< object slow-but-alive by factor `rate` during the window
    Skew,       ///< object's local clock shifted by `skew` (DES only)
    Loss,       ///< seeded message loss, probability `rate` (scope `held`)
    Duplicate,  ///< seeded message duplication, probability `rate`
    Reorder,    ///< seeded reordering: +`period` delay with probability
                ///< `rate`
  };

  Kind kind{Kind::Crash};
  /// Gray/Skew may target a client role instead of a base object -- clients
  /// are the processes that read clocks, so they are the other half of the
  /// model's "no process may rely on local timing" clause. Role::Writer hits
  /// every shard's writer; Role::Reader hits reader `object` of every shard.
  /// All other kinds require the default Role::Object.
  Role role{Role::Object};
  int object{0};  ///< Byzantine/Crash/Gray/Skew: object index, or (for
                  ///< role=reader faults) the reader index
  adversary::StrategyKind strategy{adversary::StrategyKind::Silent};
  Time at{0};        ///< Crash: crash time; windowed kinds: window start
  Time duration{0};  ///< window length (0 = open-ended where legal)
  /// Hold/Partition*/Flap: object indices isolated together.
  /// Loss/Duplicate/Reorder: scope -- only channels adjacent to one of
  /// these objects are faulty (empty = every channel).
  std::vector<int> held;
  double rate{0};      ///< Loss/Duplicate/Reorder p; Gray factor; Flap duty
  Time period{0};      ///< Flap cycle length; Reorder extra delay
  Time jitter{0};      ///< Flap: max seeded forward shift per edge
  std::int64_t skew{0};  ///< Skew: signed clock offset

  [[nodiscard]] std::string describe() const;
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A fully materialized sweep cell: everything needed to run it, and
/// nothing that depends on where or when it runs.
struct Scenario {
  Protocol protocol{Protocol::Safe};
  BackendKind backend{BackendKind::Sim};
  FaultTemplate tmpl{FaultTemplate::None};
  std::uint64_t seed{1};

  int t{2};
  int b{1};
  int readers{2};
  int shards{1};
  int writes{6};
  int reads_per_reader{4};
  Time write_gap{5'000};
  Time read_gap{3'000};

  /// Check against these semantics instead of the protocol's promise. A
  /// *stronger* override (e.g. Atomic on a safe protocol) is the other
  /// supported way to deliberately inject checker violations.
  std::optional<Semantics> check_override{};

  std::vector<FaultEvent> events;

  /// Library scenarios (parsed from .scn files) carry a name; their cell
  /// key becomes "scn:<name>" instead of the grid coordinates.
  std::string name;
  /// The verdict this scenario is expected to produce. Committed shrinker
  /// fixtures set false: the cell *passes* when the failure reproduces.
  bool expect_ok{true};
  /// Threads cells: bounded run deadline in wall-clock ms (0 = none). With
  /// a deadline, non-quiescence becomes a liveness verdict, not an abort.
  std::uint64_t max_wall_ms{0};
  /// The deployment RNG seed. 0 = derive from the cell coordinates (the
  /// legacy rule); materialize() pins the derived value so an emitted
  /// scenario file replays bit-identically to its grid twin.
  std::uint64_t run_seed{0};
  /// Regular-object history retention (Regular / RegularOptimized only):
  /// hard cap on retained slots (0 = unlimited) and the ack-driven
  /// watermark GC toggle. See DeploymentOptions::history_limit/history_gc.
  std::size_t history_limit{0};
  bool history_gc{true};
  /// Open-loop workload (docs/WORKLOADS.md): any arrival other than Closed
  /// replaces the chained mixed workload with the open-loop engine -- the
  /// fields below size its population and horizon. Closed (the default)
  /// keeps the legacy writes/reads_per_reader/gap workload, so every
  /// committed scenario and grid cell is untouched.
  ArrivalKind arrival{ArrivalKind::Closed};
  std::uint64_t clients{256};
  Time think{50'000};        ///< mean per-client think time (clock units)
  Time horizon{100'000};     ///< arrival-generation window length
  double write_fraction{0.1};
  /// Streaming checker window (0 = retain every op until the final check).
  /// Nonzero turns on online verify-and-retire with O(window) checker
  /// memory; verdicts and fingerprints do not depend on the window.
  std::size_t checker_window{0};

  /// Canonical cell address: "protocol:backend:template:seed", or
  /// "scn:<name>" when named.
  [[nodiscard]] std::string key() const;
  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Per-cell outcome. A cell is OK iff the history checker passes AND every
/// invoked operation completed (wait-freedom within the budget).
struct CellVerdict {
  std::string key;
  Protocol protocol{Protocol::Safe};
  BackendKind backend{BackendKind::Sim};
  FaultTemplate tmpl{FaultTemplate::None};
  std::uint64_t seed{1};

  bool ok{false};
  /// The scenario's expected verdict; a cell counts as failed when
  /// ok != expect_ok (grid cells always expect true).
  bool expect_ok{true};
  int violations{0};
  std::string first_violation;  ///< empty when the checker passed
  int ops_complete{0};
  int ops_stuck{0};
  std::uint64_t events{0};  ///< DES events / threads messages delivered
  net::NetStats net{};
  Time write_p95{0};  ///< backend clock units (virtual ns on the DES)
  Time read_p95{0};
  /// DES cells: hash of (schedule fingerprint, per-shard histories,
  /// NetStats). Bit-identical across runs and worker counts for the same
  /// key + plan knobs. 0 on the threads backend (nondeterministic).
  std::uint64_t fingerprint{0};
  /// Checker residency: peak resident (unretired) ops of the largest shard
  /// and total ops retired online. Batch cells: peak is the largest shard
  /// history, retired is 0. Not folded into the fingerprint (observability,
  /// not semantics).
  std::uint64_t hist_peak_live{0};
  std::uint64_t hist_retired{0};
  double wall_ms{0};
};

/// The sweep grid plus the budget/workload knobs every cell inherits.
struct SweepPlan {
  std::vector<Protocol> protocols;
  std::vector<BackendKind> backends{BackendKind::Sim,
                                    BackendKind::Threads};
  std::vector<FaultTemplate> templates{default_fault_templates()};
  /// Seed axis: cells use seeds base_seed .. base_seed + seeds - 1.
  int seeds{16};
  std::uint64_t base_seed{1};

  int t{2};
  int b{1};
  int readers{2};
  /// Workload scale: per-cell values are drawn from the cell seed in
  /// [ceil(x/2), x] so the mix varies across cells.
  int writes{6};
  int reads_per_reader{4};
  std::optional<Semantics> check_override{};
  /// Failing DES cells shrunk per run (threads failures are reported
  /// unshrunk: their schedules do not replay deterministically).
  int max_shrinks{4};
  /// Explicit scenarios (e.g. a scenarios/ directory parsed through the
  /// DSL) run as cells after the grid, honoring each one's own budget,
  /// workload, events and expected verdict.
  std::vector<Scenario> library;

  [[nodiscard]] std::size_t num_cells() const {
    return protocols.size() * backends.size() * templates.size() *
               static_cast<std::size_t>(seeds) +
           library.size();
  }
  /// Grid cells only (num_cells() minus the library).
  [[nodiscard]] std::size_t num_grid_cells() const {
    return protocols.size() * backends.size() * templates.size() *
           static_cast<std::size_t>(seeds);
  }

  /// The CI quick grid: 3 protocols x both backends x the 6 default
  /// templates x 28 seeds = 1008 cells, small per-cell workloads.
  [[nodiscard]] static SweepPlan quick();
};

/// Outcome of ddmin-shrinking one failing cell.
struct ShrinkResult {
  std::string key;          ///< the failing cell's address
  std::uint64_t seed{0};
  int original_events{0};   ///< fault events before shrinking
  int reruns{0};            ///< scenario re-executions the shrinker spent
  Scenario minimal;         ///< minimal failing schedule (same cell, fewer events)
  std::string first_violation;  ///< of the minimal schedule's run
};

struct SweepReport {
  std::vector<CellVerdict> cells;  ///< grid order (protocol-major)
  std::vector<ShrinkResult> shrinks;
  int failed{0};
  int workers{0};
  double wall_ms{0};

  [[nodiscard]] bool all_ok() const { return failed == 0; }
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepPlan plan);

  [[nodiscard]] const SweepPlan& plan() const { return plan_; }

  /// Materializes cell `index`: grid cells first (seed-major within
  /// template within backend within protocol), then the plan's library
  /// scenarios verbatim.
  [[nodiscard]] Scenario materialize(std::size_t index) const;
  /// Materializes the cell at explicit grid coordinates.
  [[nodiscard]] Scenario materialize(Protocol p, BackendKind backend,
                                     FaultTemplate tmpl,
                                     std::uint64_t seed) const;
  /// Parses a canonical cell key and materializes it (plan knobs apply;
  /// the key's coordinates need not lie on the plan's grid axes). A
  /// "scn:<name>" key resolves against the plan's library.
  [[nodiscard]] std::optional<Scenario> materialize_key(
      std::string_view key) const;

  /// Runs one scenario to completion in the calling thread.
  [[nodiscard]] static CellVerdict run_cell(const Scenario& s);

  /// ddmin fault-plan shrinker. Requires run_cell(s) to fail; returns a
  /// 1-minimal failing schedule (dropping any single remaining event makes
  /// the failure disappear).
  [[nodiscard]] static ShrinkResult shrink(const Scenario& s);

  /// Runs the whole grid on `workers` threads (0 = hardware concurrency),
  /// then shrinks up to plan.max_shrinks failing DES cells. DES cell
  /// verdicts are bit-identical across runs and worker counts; threads
  /// cells are genuine wall-clock runs whose timing-derived fields
  /// (events, NetStats, p95, wall_ms) vary between executions.
  [[nodiscard]] SweepReport run(int workers = 0) const;

  /// Writes BENCH_scenario_sweep-style JSON. Returns false on I/O error.
  static bool write_json(const SweepReport& report, const SweepPlan& plan,
                         const std::string& path);

 private:
  SweepPlan plan_;
};

}  // namespace rr::harness
