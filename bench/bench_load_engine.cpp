// Million-client open-loop soak: the load engine (harness/workload.hpp)
// drives a sharded deployment with a 1.2M-client population whose arrivals
// decouple from completions, while every shard's HistoryLog runs the
// windowed streaming checker -- ops are verified and retired online, so
// checker memory stays O(window) no matter how long the soak runs.
//
// Three DES rows (bit-deterministic sojourn quantiles and checker
// residency; wall-clock ops/s) plus one genuine-threads row (reported, not
// gated). Emits BENCH_load_engine.json for the CI perf-regression gate;
// --quick shrinks the horizon for CI smoke mode. Exits nonzero when any
// row's checker fails or an operation never completes -- a soak that
// corrupts a register must fail the lane, not just a number.
//
// Shape notes. Offered load is sized to ~80% of aggregate station capacity
// (16 stations x ~11us/op), so poisson rows are busy-but-stable while the
// bursty row's 4x duty-cycle bursts transiently exceed capacity: its queues
// grow and drain each period, which is exactly the behavior a closed loop
// can never exhibit (docs/WORKLOADS.md walks the arithmetic).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"

namespace {

using namespace rr;

struct LoadRow {
  const char* name;
  const char* protocol;
  const char* backend;
  const char* arrival;
  std::uint64_t clients{0};
  std::uint64_t arrivals{0};
  std::uint64_t distinct{0};
  std::uint64_t completed{0};
  std::uint64_t shed{0};
  std::uint64_t max_queue{0};
  double ops_per_s{0};
  Time p50{0};
  Time p999{0};
  std::size_t window{0};
  std::uint64_t peak_live{0};
  std::uint64_t retired{0};
  int violations{0};
  bool ok{false};
};

struct RowCfg {
  const char* name;
  harness::Protocol protocol;
  harness::BackendKind backend;
  harness::ArrivalKind arrival;
  /// Mean per-client think time (backend clock units). With the 1.2M
  /// population this fixes the offered rate: clients / think.
  Time think;
  /// Arrival-generation window (virtual ns on the DES, wall ns on
  /// threads); quick mode shrinks it.
  Time horizon_full;
  Time horizon_quick;
};

constexpr std::uint64_t kClients = 1'200'000;
constexpr int kShards = 4;
constexpr std::size_t kWindow = 4'096;

LoadRow run_load(const RowCfg& cfg, bool quick) {
  harness::DeploymentOptions opts;
  opts.protocol = cfg.protocol;
  opts.backend = cfg.backend;
  opts.res = harness::protocol_traits(cfg.protocol).resilience_for(1, 1, 3);
  opts.shards = kShards;
  opts.seed = 0xb10bULL;
  opts.checker_window = kWindow;
  harness::Deployment d(opts);

  harness::OpenLoopOptions ol;
  ol.arrival = cfg.arrival;
  ol.clients = kClients;
  ol.mean_think = cfg.think;
  ol.horizon = quick ? cfg.horizon_quick : cfg.horizon_full;
  ol.write_fraction = 0.15;
  ol.seed = 0x10adULL;
  harness::OpenLoopEngine engine(d, ol);
  engine.launch();

  const auto t0 = std::chrono::steady_clock::now();
  d.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const auto& st = engine.stats();
  const auto report = d.check();
  const auto wstats = d.checker_stats();
  std::uint64_t recorded = 0;
  std::uint64_t completed_ops = 0;
  for (int s = 0; s < d.shards(); ++s) {
    recorded += d.log(s).recorded_total();
    completed_ops += d.log(s).completed_total();
  }

  LoadRow row;
  row.name = cfg.name;
  row.protocol = harness::protocol_traits(cfg.protocol).cli_name;
  row.backend = cfg.backend == harness::BackendKind::Sim ? "des" : "threads";
  row.arrival = harness::to_string(cfg.arrival);
  row.clients = kClients;
  row.arrivals = st.arrivals;
  row.distinct = st.distinct_clients;
  row.completed = st.completed;
  row.shed = st.shed;
  row.max_queue = st.max_queue_depth;
  row.ops_per_s = wall_s > 0 ? static_cast<double>(st.completed) / wall_s : 0;
  row.p50 = st.sojourn.p50();
  row.p999 = st.sojourn.quantile(0.999);
  row.window = kWindow;
  row.peak_live = wstats.peak_live;
  row.retired = wstats.retired;
  row.violations = static_cast<int>(report.violations.size());
  row.ok = report.ok() && recorded == completed_ops &&
           st.completed == st.arrivals - st.shed;
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", cfg.name,
                 report.violations[0].c_str());
  }
  return row;
}

int run_suite(bool quick) {
  const RowCfg rows_cfg[] = {
      // 1.2M clients thinking ~1.2 virtual seconds each: ~1M offered op/s.
      {"des_safe_poisson", harness::Protocol::Safe, harness::BackendKind::Sim,
       harness::ArrivalKind::Poisson, 1'200'000'000, 1'200'000'000,
       40'000'000},
      // The bursty shape's duty-cycle boost raises the *mean* rate too
      // (see workload.hpp), so halve the base rate to keep the row in the
      // bursts-overload-then-drain regime instead of saturating outright.
      {"des_safe_bursty", harness::Protocol::Safe, harness::BackendKind::Sim,
       harness::ArrivalKind::Bursty, 2'400'000'000, 1'200'000'000,
       40'000'000},
      // The regular protocol's reads cost more rounds: halve the offered
      // rate so the row stays in the stable regime.
      {"des_regular_poisson", harness::Protocol::Regular,
       harness::BackendKind::Sim, harness::ArrivalKind::Poisson,
       2'400'000'000, 1'200'000'000, 40'000'000},
      // Genuine threads, wall-clock horizon: reported for cross-substrate
      // sanity, not gated (nondeterministic).
      {"threads_safe_poisson", harness::Protocol::Safe,
       harness::BackendKind::Threads, harness::ArrivalKind::Poisson,
       60'000'000'000, 1'000'000'000, 100'000'000},
  };

  std::printf(
      "\n=== open-loop load engine: %llu-client population, %d shards, "
      "checker window %zu (%s mode) ===\n",
      static_cast<unsigned long long>(kClients), kShards, kWindow,
      quick ? "quick" : "full");
  harness::Table table({"row", "arrivals", "clients seen", "completed",
                        "shed", "max queue", "ops/s (wall)", "sojourn p50",
                        "p99.9", "peak live", "retired", "ok"});
  std::vector<LoadRow> rows;
  for (const auto& cfg : rows_cfg) {
    rows.push_back(run_load(cfg, quick));
    const auto& r = rows.back();
    table.add_row(r.name, r.arrivals, r.distinct, r.completed, r.shed,
                  r.max_queue, static_cast<std::uint64_t>(r.ops_per_s),
                  r.p50, r.p999, r.peak_live, r.retired,
                  r.ok ? "yes" : "NO");
  }
  table.print();
  std::printf(
      "\nsojourn = arrival -> completion (queueing included), backend clock "
      "units.\nThe retired column is what a window-0 (retain-all) checker "
      "would have had to keep\nresident; peak live is what the windowed "
      "checker actually kept.\n\n");

  FILE* out = std::fopen("BENCH_load_engine.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_load_engine.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"load_engine\",\n");
  std::fprintf(out, "  \"quick\": %s,\n  \"clients\": %llu,\n"
               "  \"shards\": %d,\n  \"rows\": [\n",
               quick ? "true" : "false",
               static_cast<unsigned long long>(kClients), kShards);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"protocol\": \"%s\", \"backend\": \"%s\", "
        "\"arrival\": \"%s\", \"clients\": %llu, \"arrivals\": %llu, "
        "\"distinct_clients\": %llu, \"completed\": %llu, \"shed\": %llu, "
        "\"max_queue_depth\": %llu, \"ops_per_s\": %.1f, "
        "\"sojourn_p50_ns\": %llu, \"sojourn_p999_ns\": %llu, "
        "\"checker_window\": %zu, \"checker_peak_live\": %llu, "
        "\"checker_retired\": %llu, \"violations\": %d, \"check_ok\": %s}%s\n",
        r.name, r.protocol, r.backend, r.arrival,
        static_cast<unsigned long long>(r.clients),
        static_cast<unsigned long long>(r.arrivals),
        static_cast<unsigned long long>(r.distinct),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.max_queue), r.ops_per_s,
        static_cast<unsigned long long>(r.p50),
        static_cast<unsigned long long>(r.p999), r.window,
        static_cast<unsigned long long>(r.peak_live),
        static_cast<unsigned long long>(r.retired), r.violations,
        r.ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_load_engine.json\n\n");

  int bad = 0;
  for (const auto& r : rows) bad += r.ok ? 0 : 1;
  if (bad != 0) {
    std::fprintf(stderr, "%d load-engine row(s) failed their checks\n", bad);
  }
  return bad == 0 ? 0 : 1;
}

/// Microbenchmark: the arrival sampler's draw rate (the only per-arrival
/// work besides the posted step itself).
void BM_ArrivalSampler(benchmark::State& state) {
  harness::OpenLoopOptions ol;
  ol.arrival = static_cast<harness::ArrivalKind>(state.range(0));
  ol.clients = kClients;
  ol.mean_think = 1'200'000'000;
  ol.horizon = 1'200'000'000;
  ol.seed = 7;
  harness::ArrivalSampler sampler(ol, 7);
  Time now = 0;
  for (auto _ : state) {
    now += sampler.next(now);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_ArrivalSampler)
    ->Arg(static_cast<int>(harness::ArrivalKind::Poisson))
    ->Arg(static_cast<int>(harness::ArrivalKind::Bursty))
    ->Arg(static_cast<int>(harness::ArrivalKind::Diurnal));

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool run_benchmarks = true;
  // Strip our flags before google-benchmark sees the command line.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-benchmarks") == 0) {
      run_benchmarks = false;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const int rc = run_suite(quick);
  if (run_benchmarks) {
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
