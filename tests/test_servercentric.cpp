// Server-centric model (Section 6): push-based reads complete with a single
// client message; gossip propagates writes between servers; the Proposition
// 1 lower bound still applies (the Figure 1 orchestration is re-run under
// the push-model reading discipline).
#include <gtest/gtest.h>

#include "baselines/polling.hpp"
#include "checker/history.hpp"
#include "lowerbound/figure_one.hpp"
#include "servercentric/server.hpp"
#include "sim/world.hpp"

namespace rr::servercentric {
namespace {

struct ScWorld {
  Resilience res;
  Topology topo;
  sim::World world;
  baselines::PollingWriter* writer{nullptr};
  std::vector<Reader*> readers;
  std::vector<Server*> servers;
  checker::HistoryLog log;

  explicit ScWorld(int t, int b, int num_readers, std::uint64_t seed)
      : res(Resilience::optimal(t, b, num_readers)),
        topo(num_readers, res.num_objects),
        world(sim::WorldOptions{seed, false, 50'000'000}) {
    auto w = std::make_unique<baselines::PollingWriter>(res, topo);
    writer = w.get();
    world.add_process(std::move(w));
    for (int j = 0; j < num_readers; ++j) {
      auto r = std::make_unique<Reader>(res, topo, j);
      readers.push_back(r.get());
      world.add_process(std::move(r));
    }
    for (int i = 0; i < res.num_objects; ++i) {
      auto s = std::make_unique<Server>(topo, i);
      servers.push_back(s.get());
      world.add_process(std::move(s));
    }
    world.start();
  }

  void logged_write(Time at, Value v) {
    world.post(at, topo.writer(), [this, v](net::Context& ctx) {
      const auto h = log.record_invocation(checker::OpRecord::Kind::Write, -1,
                                           ctx.now(), v);
      writer->write(ctx, v, [this, h, v](const core::WriteResult& r) {
        log.record_write_response(h, r.completed_at, r.ts, v);
      });
    });
  }

  void logged_read(Time at, int j,
                   core::ReadCallback extra = nullptr) {
    world.post(at, topo.reader(j), [this, j, extra](net::Context& ctx) {
      const auto h =
          log.record_invocation(checker::OpRecord::Kind::Read, j, ctx.now());
      readers[static_cast<std::size_t>(j)]->read(
          ctx, [this, h, extra](const core::ReadResult& r) {
            log.record_read_response(h, r.completed_at, r.tsval);
            if (extra) extra(r);
          });
    });
  }
};

TEST(ServerCentric, ReadAfterWriteReturnsValue) {
  ScWorld sc(2, 1, 1, 1);
  TsVal got;
  sc.logged_write(0, "pushed");
  sc.logged_read(500'000, 0,
                 [&](const core::ReadResult& r) { got = r.tsval; });
  sc.world.run();
  EXPECT_EQ(got, (TsVal{1, "pushed"}));
  EXPECT_TRUE(checker::check_safety(sc.log.snapshot()).ok());
}

TEST(ServerCentric, ReadsUseOneClientMessageRound) {
  ScWorld sc(2, 2, 2, 3);
  std::vector<int> rounds;
  sc.logged_write(0, "a");
  for (int k = 0; k < 5; ++k) {
    sc.logged_read(300'000 + static_cast<Time>(k) * 100'000, 0,
                   [&](const core::ReadResult& r) { rounds.push_back(r.rounds); });
  }
  sc.world.run();
  ASSERT_EQ(rounds.size(), 5u);
  for (const int r : rounds) EXPECT_EQ(r, 1);
}

TEST(ServerCentric, GossipLetsSlowServersCatchUp) {
  // Hold the writer's channel to server 0: it must still learn the value
  // through peer gossip and eventually push it.
  ScWorld sc(1, 1, 1, 5);
  sc.world.hold(sc.topo.writer(), sc.topo.object(0));
  sc.logged_write(0, "gossiped");
  sc.world.run();
  EXPECT_EQ(sc.servers[0]->state().w, (TsVal{1, "gossiped"}));
}

TEST(ServerCentric, PushOnLateWriteCompletesPendingRead) {
  // The read starts when no quorum has the value; a concurrent write's
  // pushes complete it without any further client message.
  ScWorld sc(2, 1, 1, 7);
  TsVal got;
  sc.logged_read(0, 0, [&](const core::ReadResult& r) { got = r.tsval; });
  sc.logged_write(5'000, "late");
  sc.world.run();
  // Either the initial value (decided before the write propagated) or the
  // written one -- both are legal for a concurrent read; safety is what the
  // checker verifies.
  EXPECT_TRUE(checker::check_safety(sc.log.snapshot()).ok());
  EXPECT_TRUE(got.is_bottom() || got == (TsVal{1, "late"}));
}

TEST(ServerCentric, ConcurrentWorkloadStaysSafe) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    ScWorld sc(2, 2, 2, seed);
    for (int k = 0; k < 10; ++k) {
      sc.logged_write(static_cast<Time>(k) * 40'000, "v" + std::to_string(k + 1));
      sc.logged_read(static_cast<Time>(k) * 40'000 + 13'000, 0);
      sc.logged_read(static_cast<Time>(k) * 40'000 + 27'000, 1);
    }
    sc.world.run();
    for (const auto& op : sc.log.snapshot()) {
      ASSERT_TRUE(op.complete) << "seed " << seed;
    }
    const auto report = checker::check_safety(sc.log.snapshot());
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
  }
}

TEST(ServerCentric, CancelStopsPushes) {
  ScWorld sc(1, 1, 1, 9);
  sc.logged_read(0, 0);
  sc.world.run();
  const auto pushes_after_read = sc.servers[0]->pushes_sent();
  // Subsequent writes must not push to the completed (cancelled) read.
  sc.logged_write(sc.world.now() + 1'000, "post");
  sc.world.run();
  EXPECT_EQ(sc.servers[0]->pushes_sent(), pushes_after_read);
}

TEST(ServerCentric, LowerBoundStillHoldsInPushModel) {
  // Section 6: the Figure 1 argument migrates -- a fast read in the push
  // model is "one client message, servers reply immediately". That is
  // exactly the discipline the orchestrator drives, so the same
  // construction defeats the strawman here too.
  Resilience res;
  res.t = 2;
  res.b = 2;
  res.num_objects = 2 * res.t + 2 * res.b;
  for (const bool aggressive : {true, false}) {
    const auto report = lowerbound::run_figure_one(
        [&] { return lowerbound::make_strawman(res, aggressive); }, res,
        "v1");
    EXPECT_TRUE(report.views_identical);
    EXPECT_TRUE(report.safety_violated()) << report.summary();
  }
}

}  // namespace
}  // namespace rr::servercentric
