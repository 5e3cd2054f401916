// Swap-drain mailbox regression tests for the threaded runtime hot path.
//
// Mirrors tests/test_world_pool.cpp for runtime::Cluster: steady-state
// delivery must not allocate (double-buffered lanes reuse their capacity),
// batched swap-drain and per-message delivery must be semantically
// indistinguishable, and hold/release/crash must interact correctly with a
// partially consumed (mid-swap) batch. The delegation tests pin what a
// message stepped on another thread's stack must keep: per-sender FIFO,
// exactly-once delivery, quiescence and the delivered count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "net/faults.hpp"
#include "net/process.hpp"
#include "runtime/cluster.hpp"

// Counts every heap allocation in this binary into g_heap_allocs.
#include "counting_alloc.hpp"

namespace rr::runtime {
namespace {

using namespace std::chrono_literals;

struct Collect final : net::Process {
  int count{0};
  int target{0};
  std::vector<std::pair<ProcessId, Ts>> seen;
  void on_message(net::Context&, ProcessId from,
                  const wire::Message& msg) override {
    ++count;
    seen.push_back({from, std::get<wire::WAckMsg>(msg).ts});
  }
};

/// Lightweight sink for the allocation test: no bookkeeping vector, so the
/// measured window touches nothing but the mailbox itself.
struct CountOnly final : net::Process {
  int count{0};
  int target{0};
  void on_message(net::Context&, ProcessId, const wire::Message&) override {
    ++count;
  }
};

TEST(ClusterMailbox, SteadyStateDeliveryIsAllocationFree) {
  // Acceptance criterion of the swap-drain refactor: once both lanes of
  // the double buffer have grown to working-set size, a send -> swap ->
  // dispatch cycle performs no heap allocation. Both endpoints are passive
  // and driven from this thread, so the measurement is deterministic.
  constexpr int kBurst = 512;
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  auto* sink = static_cast<CountOnly*>(&c.process(b));
  c.start();
  auto burst = [&] {
    c.with_context(a, [b](net::Context& ctx) {
      for (int i = 0; i < kBurst; ++i) {
        ctx.send(b, wire::WAckMsg{static_cast<Ts>(i)});
      }
    });
  };
  auto drain = [&] {
    sink->target += kBurst;
    ASSERT_TRUE(c.drive(
        b, [sink] { return sink->count >= sink->target; }, 5s));
  };
  // Two warmup cycles: the first grows one lane of the double buffer, the
  // swap exposes the other (still empty) lane, and the second grows that.
  burst();
  drain();
  burst();
  drain();
  const std::uint64_t before = g_heap_allocs.load();
  burst();
  drain();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(allocs, 0u)
      << "mailbox delivery hot path must not allocate at steady state";
  EXPECT_EQ(c.stats().messages_delivered, 3u * kBurst);
}

/// Runs the same three-sender interleaving under batched or per-message
/// delivery and returns the collector's observations.
std::vector<std::pair<ProcessId, Ts>> interleaved_run(bool batched,
                                                      net::NetStats* stats) {
  ClusterOptions opts;
  opts.batched_drain = batched;
  Cluster c(opts);
  std::vector<ProcessId> senders;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(c.add(std::make_unique<CountOnly>(), /*active=*/false));
  }
  const auto sink = c.add(std::make_unique<Collect>(), /*active=*/true);
  c.start();
  for (Ts round = 1; round <= 40; ++round) {
    for (const auto s : senders) {
      c.with_context(s, [sink, round](net::Context& ctx) {
        ctx.send(sink, wire::WAckMsg{round});
      });
    }
  }
  EXPECT_TRUE(c.run_quiescent(10s));
  if (stats != nullptr) *stats = c.stats();
  auto seen = static_cast<Collect*>(&c.process(sink))->seen;
  c.stop();
  return seen;
}

TEST(ClusterMailbox, BatchedMatchesPerMessageDeliverySemantics) {
  net::NetStats batched_stats, unbatched_stats;
  const auto batched = interleaved_run(/*batched=*/true, &batched_stats);
  const auto unbatched = interleaved_run(/*batched=*/false, &unbatched_stats);
  ASSERT_EQ(batched.size(), 120u);
  ASSERT_EQ(unbatched.size(), 120u);
  EXPECT_EQ(batched_stats.messages_sent, unbatched_stats.messages_sent);
  EXPECT_EQ(batched_stats.messages_delivered,
            unbatched_stats.messages_delivered);
  EXPECT_EQ(batched_stats.bytes_sent, unbatched_stats.bytes_sent);
  EXPECT_EQ(batched_stats.messages_dropped, 0u);
  EXPECT_EQ(unbatched_stats.messages_dropped, 0u);
  // Per-sender FIFO must hold in both modes (cross-sender order is free
  // under the asynchronous model).
  for (const auto& seen : {batched, unbatched}) {
    std::vector<Ts> last(3, 0);
    for (const auto& [from, ts] : seen) {
      ASSERT_GE(from, 0);
      ASSERT_LT(from, 3);
      EXPECT_GT(ts, last[static_cast<std::size_t>(from)])
          << "per-channel FIFO violated";
      last[static_cast<std::size_t>(from)] = ts;
    }
  }
}

TEST(ClusterMailbox, DeploymentParityBatchedVsUnbatched) {
  // End-to-end: the same gv06-safe workload on the threads backend must
  // produce an identical, checker-clean traffic pattern whether delivery
  // is swap-drain batched or per-message (fixed 2-round protocol => the
  // message count is a pure function of the op mix).
  auto run = [](bool batched) {
    harness::DeploymentOptions opts;
    opts.protocol = harness::Protocol::Safe;
    opts.backend = harness::BackendKind::Threads;
    opts.res = Resilience::optimal(2, 2, 2);
    opts.seed = 7;
    opts.thread_batched_drain = batched;
    harness::Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 10;
    w.reads_per_reader = 10;
    harness::mixed_workload(d, w);
    d.run();
    EXPECT_TRUE(d.check().ok()) << "batched=" << batched;
    return d.stats();
  };
  const auto batched = run(true);
  const auto unbatched = run(false);
  EXPECT_GT(batched.messages_sent, 0u);
  EXPECT_EQ(batched.messages_sent, unbatched.messages_sent);
  EXPECT_EQ(batched.messages_delivered, unbatched.messages_delivered);
  // Byte totals are NOT compared: ack payload sizes depend on which write's
  // value a read observes, which is interleaving-dependent on real threads.
  EXPECT_GT(batched.bytes_sent, 0u);
  EXPECT_EQ(batched.messages_dropped, 0u);
  EXPECT_EQ(unbatched.messages_dropped, 0u);
}

TEST(ClusterMailbox, CrashDropsTheUnconsumedTailOfAMidSwapBatch) {
  // A crash landing while a swapped-out batch is partially consumed must
  // drop the tail of that batch (exactly like queued messages), and the
  // drops must be visible in NetStats so sent == delivered + dropped.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/false);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 10; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  // Consume 4 of the 10: the first drive refill swaps the whole inbox, so
  // the remaining 6 sit in the slot's private drain buffer (mid-swap).
  ASSERT_TRUE(c.drive(b, [sink] { return sink->count >= 4; }, 5s));
  EXPECT_EQ(sink->count, 4);
  c.crash(b);
  // The tail must be consumed as drops, and quiescence must still be
  // reachable (the 6 tail messages are outstanding work items until then).
  ASSERT_TRUE(c.drive(
      b, [&c] { return c.stats().messages_dropped >= 6; }, 5s));
  ASSERT_TRUE(c.run_quiescent(5s));
  const auto stats = c.stats();
  EXPECT_EQ(stats.messages_sent, 10u);
  EXPECT_EQ(stats.messages_delivered, 4u);
  EXPECT_EQ(stats.messages_dropped, 6u);
  EXPECT_EQ(sink->count, 4) << "no delivery after crash";
}

TEST(ClusterMailbox, CrashDiscardsHeldBuffersAndReleaseCannotResurrect) {
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/false);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.hold(a, b);
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 5; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  // Held-channel buffers do not count as pending work.
  EXPECT_TRUE(c.run_quiescent(100ms));
  EXPECT_EQ(c.stats().messages_dropped, 0u);
  c.crash(b);
  // The five buffered messages are discarded immediately (they could only
  // ever be dropped at delivery) and counted as dropped; the channel
  // itself stays held.
  EXPECT_EQ(c.stats().messages_dropped, 5u);
  EXPECT_TRUE(c.held(a, b));
  c.release(a, b);
  EXPECT_FALSE(c.held(a, b));
  EXPECT_TRUE(c.run_quiescent(1s))
      << "no deliveries may be scheduled from the discarded buffer";
  EXPECT_EQ(sink->count, 0);
  EXPECT_EQ(c.stats().messages_delivered, 0u);
  EXPECT_EQ(c.stats().messages_dropped, 5u);
}

TEST(ClusterMailbox, ReleasePreservesFifoThroughActiveConsumer) {
  // FIFO through hold/release with an active (threaded) consumer: the
  // single-lock release_all re-injection must keep per-channel order.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/true);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.hold_all(b);
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 200; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  EXPECT_TRUE(c.run_quiescent(100ms));
  EXPECT_EQ(sink->count, 0);
  c.release_all(b);
  ASSERT_TRUE(c.run_quiescent(10s));
  c.stop();
  ASSERT_EQ(sink->seen.size(), 200u);
  for (Ts i = 0; i < 200; ++i) {
    EXPECT_EQ(sink->seen[static_cast<std::size_t>(i)].second, i + 1);
  }
}

TEST(ClusterMailbox, HoldAllBatchesUnderOneLockAndSkipsSelfChannel) {
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto d = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  c.start();
  c.hold_all(a);
  EXPECT_FALSE(c.held(a, a)) << "self-channel must not be held";
  EXPECT_TRUE(c.held(a, b));
  EXPECT_TRUE(c.held(b, a));
  EXPECT_TRUE(c.held(a, d));
  EXPECT_TRUE(c.held(d, a));
  EXPECT_FALSE(c.held(b, d));
  c.release_all(a);
  EXPECT_FALSE(c.held(a, b));
  EXPECT_FALSE(c.held(d, a));
}

TEST(ClusterMailbox, ColdLaneClosuresRunAsExclusiveSteps) {
  // Posted closures travel in the cold lane but must still run as steps of
  // the target process (exclusive with message deliveries) and count
  // toward quiescence. Past-due posts take the direct path; future posts
  // go through the timer thread.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/true);
  c.start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    c.post(0, a, [&ran](net::Context&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  c.post(c.now() + 2'000'000, a, [&ran](net::Context&) {
    ran.fetch_add(100, std::memory_order_relaxed);
  });
  ASSERT_TRUE(c.run_quiescent(10s));
  EXPECT_EQ(ran.load(), 150);
}

// ---------------------------------------------------------------------------
// Delegation: a message is stepped by whichever cluster thread holds, or can
// take, its destination's token.
// ---------------------------------------------------------------------------

/// Receiver that records every delivery with the thread that stepped it.
/// Touched only by the holder of its token; read after quiescence.
struct Recorder final : net::Process {
  struct Seen {
    ProcessId from;
    Ts ts;
    std::thread::id thread;
  };
  std::vector<Seen> seen;
  std::atomic<int> steps{0};
  void on_message(net::Context&, ProcessId from,
                  const wire::Message& msg) override {
    seen.push_back({from, std::get<wire::WAckMsg>(msg).ts,
                    std::this_thread::get_id()});
    steps.fetch_add(1, std::memory_order_release);
  }
};

/// Posts `bursts` closures to active sender `s`, one after another (each
/// re-posts the next from inside its own step), every burst sending the next
/// `per_burst` sequence numbers to `dst`. Records the sender's thread.
void post_bursts(Cluster& c, ProcessId s, ProcessId dst, int bursts,
                 int per_burst, Ts* next, std::thread::id* thread) {
  c.post(0, s,
         [&c, s, dst, bursts, per_burst, next, thread](net::Context& ctx) {
           *thread = std::this_thread::get_id();
           for (int i = 0; i < per_burst; ++i) {
             ctx.send(dst, wire::WAckMsg{++*next});
           }
           if (bursts > 1) {
             post_bursts(c, s, dst, bursts - 1, per_burst, next, thread);
           }
         });
}

TEST(ClusterMailbox, ConcurrentSendersKeepPerSenderFifoIntoABusyReceiver) {
  // Three active senders hammer one receiver whose every step sleeps
  // (gray), so its token is busy most of the time: senders that find it
  // busy only enqueue, and the holder -- another sender's thread -- drains
  // their messages. Each message must arrive exactly once and in per-sender
  // order.
  constexpr int kSenders = 3;
  constexpr int kBursts = 20;
  constexpr int kPerBurst = 10;
  Cluster c;
  std::vector<ProcessId> senders;
  for (int i = 0; i < kSenders; ++i) {
    senders.push_back(c.add(std::make_unique<CountOnly>(), /*active=*/true));
  }
  const auto r = c.add(std::make_unique<Recorder>(), /*active=*/true);
  auto* rec = static_cast<Recorder*>(&c.process(r));
  c.set_gray(r, 20'000);
  std::vector<Ts> next(kSenders, 0);
  std::vector<std::thread::id> sender_thread(kSenders);
  c.start();
  for (int i = 0; i < kSenders; ++i) {
    post_bursts(c, senders[static_cast<std::size_t>(i)], r, kBursts,
                kPerBurst, &next[static_cast<std::size_t>(i)],
                &sender_thread[static_cast<std::size_t>(i)]);
  }
  ASSERT_TRUE(c.run_quiescent(30s));
  constexpr auto kPerSender = static_cast<Ts>(kBursts * kPerBurst);
  ASSERT_EQ(rec->seen.size(), static_cast<std::size_t>(kSenders) * kPerSender);
  std::vector<Ts> last(kSenders, 0);
  int stepped_by_other_thread = 0;
  for (const auto& seen : rec->seen) {
    ASSERT_GE(seen.from, senders.front());
    ASSERT_LE(seen.from, senders.back());
    const auto i = static_cast<std::size_t>(seen.from - senders.front());
    EXPECT_EQ(seen.ts, last[i] + 1) << "per-sender FIFO or exactly-once broken";
    last[i] = seen.ts;
    if (seen.thread != sender_thread[i]) ++stepped_by_other_thread;
  }
  for (const Ts l : last) EXPECT_EQ(l, kPerSender);
  EXPECT_GT(stepped_by_other_thread, 0)
      << "no message was drained by a thread other than its sender's";
  EXPECT_EQ(c.messages_delivered(), c.stats().messages_delivered);
  EXPECT_EQ(c.stats().messages_delivered,
            static_cast<std::uint64_t>(kSenders) * kPerSender);
  c.stop();
}

TEST(ClusterMailbox, QuiescenceWaitsForInlineStepsAndWithContextNeverInlines) {
  // A message an active client sends to an idle active object is stepped
  // inline on the client's thread and counted nowhere: run_quiescent must
  // still wait for it, because it runs inside the client's counted step.
  // The gray delay keeps that inline step running long after the send.
  Cluster c;
  const auto client = c.add(std::make_unique<CountOnly>(), /*active=*/true);
  const auto driver = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto obj = c.add(std::make_unique<Recorder>(), /*active=*/true);
  auto* rec = static_cast<Recorder*>(&c.process(obj));
  c.set_gray(obj, 30'000'000);
  c.start();
  std::thread::id client_thread;
  c.post(0, client, [obj, &client_thread](net::Context& ctx) {
    client_thread = std::this_thread::get_id();
    ctx.send(obj, wire::WAckMsg{1});
  });
  ASSERT_TRUE(c.run_quiescent(10s));
  ASSERT_EQ(rec->steps.load(std::memory_order_acquire), 1)
      << "run_quiescent returned while an inline step was running";
  ASSERT_EQ(rec->seen.size(), 1u);
  EXPECT_EQ(rec->seen[0].thread, client_thread)
      << "an idle destination is stepped inline on the sender's thread";
  // A with_context caller is not inside a counted step: its send must be
  // queued and counted, and stepped by a cluster thread, never inline here.
  c.with_context(driver, [obj](net::Context& ctx) {
    ctx.send(obj, wire::WAckMsg{2});
  });
  ASSERT_TRUE(c.run_quiescent(10s));
  ASSERT_EQ(rec->steps.load(std::memory_order_acquire), 2);
  EXPECT_NE(rec->seen[1].thread, std::this_thread::get_id());
  EXPECT_EQ(c.messages_delivered(), 2u);
  EXPECT_EQ(c.stats().messages_delivered, 2u);
  c.stop();
}

TEST(ClusterMailbox, MessagesDeliveredMatchesNetStatsOnDeployments) {
  // A fault-free run, and a run with a crashed object whose traffic is
  // dropped: after quiescence the per-slot delivered counts add up to the
  // NetStats figure.
  for (const bool with_crash : {false, true}) {
    harness::DeploymentOptions opts;
    opts.protocol = harness::Protocol::Safe;
    opts.backend = harness::BackendKind::Threads;
    opts.res = Resilience::optimal(1, 1, 2);
    opts.seed = 3;
    if (with_crash) opts.faults.crashed = {0};
    harness::Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 10;
    w.reads_per_reader = 10;
    harness::mixed_workload(d, w);
    // Work starts when mixed_workload posts it, before run() is called;
    // run() still reports every message delivered since the last run.
    const std::uint64_t run_delivered = d.run();
    EXPECT_TRUE(d.check().ok()) << "with_crash=" << with_crash;
    const auto stats = d.stats();
    EXPECT_GT(stats.messages_delivered, 0u);
    EXPECT_EQ(run_delivered, stats.messages_delivered);
    EXPECT_EQ(d.backend().cluster()->messages_delivered(),
              stats.messages_delivered)
        << "with_crash=" << with_crash;
    EXPECT_EQ(stats.messages_dropped > 0, with_crash);
  }
}

TEST(ClusterMailbox, MessagesDeliveredMatchesNetStatsAcrossAMidRunCrash) {
  // The receiver crashes while senders are still bursting into it: queued
  // messages are dropped at delivery, later ones at send.
  Cluster c;
  std::vector<ProcessId> senders;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(c.add(std::make_unique<CountOnly>(), /*active=*/true));
  }
  const auto r = c.add(std::make_unique<Recorder>(), /*active=*/true);
  auto* rec = static_cast<Recorder*>(&c.process(r));
  c.set_gray(r, 50'000);
  std::vector<Ts> next(3, 0);
  std::vector<std::thread::id> thread(3);
  c.start();
  for (std::size_t i = 0; i < 3; ++i) {
    post_bursts(c, senders[i], r, 20, 10, &next[i], &thread[i]);
  }
  while (rec->steps.load(std::memory_order_acquire) < 20) {
    std::this_thread::sleep_for(100us);
  }
  c.crash(r);
  ASSERT_TRUE(c.run_quiescent(30s));
  const auto stats = c.stats();
  EXPECT_EQ(stats.messages_sent, 600u);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_EQ(stats.messages_delivered + stats.messages_dropped,
            stats.messages_sent);
  EXPECT_EQ(c.messages_delivered(), stats.messages_delivered);
  EXPECT_EQ(c.messages_delivered(), rec->seen.size());
  c.stop();
}

TEST(ClusterMailbox, MessagesDeliveredCountsDriveAndReorderDeferral) {
  {
    // drive(): a passive sink consumed on this thread.
    Cluster c;
    const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
    const auto b = c.add(std::make_unique<CountOnly>(), /*active=*/false);
    auto* sink = static_cast<CountOnly*>(&c.process(b));
    c.start();
    c.with_context(a, [b](net::Context& ctx) {
      for (Ts i = 1; i <= 25; ++i) ctx.send(b, wire::WAckMsg{i});
    });
    ASSERT_TRUE(c.drive(b, [sink] { return sink->count >= 25; }, 5s));
    ASSERT_TRUE(c.run_quiescent(5s));
    EXPECT_EQ(c.messages_delivered(), 25u);
    EXPECT_EQ(c.stats().messages_delivered, 25u);
  }
  {
    // Reorder deferral: every copy is re-posted through the timer and
    // delivered from a closure step of the receiver.
    Cluster c;
    const auto s = c.add(std::make_unique<CountOnly>(), /*active=*/true);
    const auto r = c.add(std::make_unique<Recorder>(), /*active=*/true);
    auto* rec = static_cast<Recorder*>(&c.process(r));
    net::LinkFaults lf;
    lf.reorder.p = 1.0;
    lf.reorder_delay = 200'000;
    c.set_link_faults(lf);
    Ts next = 0;
    std::thread::id thread;
    c.start();
    post_bursts(c, s, r, 3, 10, &next, &thread);
    ASSERT_TRUE(c.run_quiescent(10s));
    const auto stats = c.stats();
    EXPECT_EQ(rec->seen.size(), 30u);
    EXPECT_EQ(stats.messages_delivered, 30u);
    EXPECT_EQ(c.messages_delivered(), stats.messages_delivered);
    c.stop();
  }
}

}  // namespace
}  // namespace rr::runtime
