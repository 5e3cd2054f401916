// E7 -- Section 6, the server-centric model: reads are a single client
// message followed by server pushes; gossip replaces writer retries. The
// table reports push traffic and read latency, and re-confirms that the
// Proposition 1 lower bound survives the model change.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "baselines/polling.hpp"
#include "checker/history.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "lowerbound/figure_one.hpp"
#include "servercentric/server.hpp"
#include "sim/world.hpp"

namespace {

using namespace rr;

struct ScStats {
  harness::OpStats reads;
  std::uint64_t pushes{0};
  std::uint64_t gossip_msgs{0};
  int violations{0};
};

ScStats run_sc(int t, int b, int readers, int ops, std::uint64_t seed) {
  const Resilience res = Resilience::optimal(t, b, readers);
  const Topology topo(readers, res.num_objects);
  sim::World world(sim::WorldOptions{seed, false, 50'000'000});
  auto writer = std::make_unique<baselines::PollingWriter>(res, topo);
  auto* writer_ptr = writer.get();
  world.add_process(std::move(writer));
  std::vector<servercentric::Reader*> rds;
  for (int j = 0; j < readers; ++j) {
    auto r = std::make_unique<servercentric::Reader>(res, topo, j);
    rds.push_back(r.get());
    world.add_process(std::move(r));
  }
  std::vector<servercentric::Server*> servers;
  for (int i = 0; i < res.num_objects; ++i) {
    auto s = std::make_unique<servercentric::Server>(topo, i);
    servers.push_back(s.get());
    world.add_process(std::move(s));
  }
  world.start();

  checker::HistoryLog log;
  ScStats stats;
  for (int k = 0; k < ops; ++k) {
    const Time base = static_cast<Time>(k) * 60'000;
    world.post(base, topo.writer(), [&, k](net::Context& ctx) {
      const auto h = log.record_invocation(checker::OpRecord::Kind::Write, -1,
                                           ctx.now(), "v" + std::to_string(k + 1));
      writer_ptr->write(ctx, "v" + std::to_string(k + 1),
                        [&log, h, k](const core::WriteResult& r) {
                          log.record_write_response(h, r.completed_at, r.ts,
                                                    "v" + std::to_string(k + 1));
                        });
    });
    for (int j = 0; j < readers; ++j) {
      world.post(base + 20'000 + static_cast<Time>(j) * 5'000, topo.reader(j),
                 [&, j](net::Context& ctx) {
                   const auto h = log.record_invocation(
                       checker::OpRecord::Kind::Read, j, ctx.now());
                   rds[static_cast<std::size_t>(j)]->read(
                       ctx, [&log, &stats, h](const core::ReadResult& r) {
                         log.record_read_response(h, r.completed_at, r.tsval);
                         stats.reads.add(r.latency(), r.rounds);
                       });
                 });
    }
  }
  world.run();
  for (const auto* s : servers) stats.pushes += s->pushes_sent();
  constexpr std::size_t kGossipIndex = 23;
  static_assert(std::is_same_v<
                std::variant_alternative_t<kGossipIndex, wire::Message>,
                wire::ScGossipMsg>);
  stats.gossip_msgs = world.stats().messages_by_type[kGossipIndex];
  stats.violations = static_cast<int>(
      checker::check_safety(log.snapshot()).violations.size());
  return stats;
}

void print_sc_table() {
  std::printf(
      "\n=== E7: server-centric (push) model, Section 6 -- one client "
      "message per read ===\n");
  harness::Table table({"t", "b", "readers", "reads", "client rounds",
                        "read p50 us", "pushes total", "gossip msgs",
                        "violations"});
  for (const auto& [t, b] : {std::pair{1, 1}, {2, 1}, {2, 2}, {3, 3}}) {
    for (const int readers : {1, 3}) {
      const auto s = run_sc(t, b, readers, 12, 17 + static_cast<std::uint64_t>(
                                                     t * 10 + b));
      table.add_row(t, b, readers, s.reads.count(), s.reads.rounds_max(),
                    s.reads.latency_p50() / 1000.0, s.pushes, s.gossip_msgs,
                    s.violations);
    }
  }
  table.print();

  std::printf(
      "\n--- lower bound migrates (Section 6): Figure 1 vs push-style fast "
      "reads at S = 2t+2b ---\n");
  harness::Table lb({"t", "b", "S", "views identical", "safety violated"});
  for (const auto& [t, b] : {std::pair{1, 1}, {2, 2}, {4, 3}}) {
    Resilience res;
    res.t = t;
    res.b = b;
    res.num_objects = 2 * t + 2 * b;
    const auto report = lowerbound::run_figure_one(
        [&] { return lowerbound::make_strawman(res, true); }, res, "v1");
    lb.add_row(t, b, res.num_objects, report.views_identical ? "yes" : "NO",
               report.safety_violated() ? "yes" : "NO");
  }
  lb.print();
  std::printf(
      "\nExpected shape (paper, Section 6): reads complete with ONE client "
      "round in the\npush model, yet the 2t+2b impossibility persists -- "
      "extra server power does not\nbeat the bound.\n\n");
}

void BM_ServerCentricRead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sc(2, 2, 1, 5, 3));
  }
}
BENCHMARK(BM_ServerCentricRead);

}  // namespace

int main(int argc, char** argv) {
  print_sc_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
