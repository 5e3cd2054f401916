// Unit tests for common/: core types, resilience arithmetic, topology
// mapping, and the deterministic RNG.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"

// Counts every heap allocation in this binary into g_heap_allocs.
#include "counting_alloc.hpp"

namespace rr {
namespace {

TEST(TsValTest, BottomIsTimestampZero) {
  EXPECT_TRUE(TsVal::bottom().is_bottom());
  EXPECT_EQ(TsVal::bottom().ts, 0u);
  EXPECT_FALSE((TsVal{1, "x"}).is_bottom());
}

TEST(TsValTest, OrderingIsByTimestampFirst) {
  EXPECT_LT((TsVal{1, "z"}), (TsVal{2, "a"}));
  EXPECT_LT((TsVal{1, "a"}), (TsVal{1, "b"}));
  EXPECT_EQ((TsVal{3, "v"}), (TsVal{3, "v"}));
}

TEST(WTupleTest, EqualityIncludesTsrArray) {
  WTuple a{TsVal{1, "v"}, init_tsrarray(3)};
  WTuple b = a;
  EXPECT_EQ(a, b);
  b.tsrarray.set_row(0, TsrRow{7});
  EXPECT_NE(a, b);
}

TEST(WTupleTest, CopyingAWrittenTupleAllocatesOnce) {
  // The honest writer's shape at S=4, R=2: S - t = 3 harvested rows, one
  // nil row, and a value short enough for the string's inline buffer. The
  // tsrarray's cells are one contiguous block, so the copy is one
  // allocation whatever the row count.
  TsrArray arr;
  arr.push_back(TsrRow{1, 2});
  arr.push_back(TsrRow{3, 4});
  arr.push_back(std::nullopt);
  arr.push_back(TsrRow{5, 6});
  const WTuple w{TsVal{7, "v7"}, arr};
  const std::uint64_t before = g_heap_allocs.load();
  const WTuple copy = w;
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(copy, w);
  EXPECT_EQ(allocs, 1u);
}

TEST(TsrArrayTest, CellsOutsideEngagedRowsReadAsZero) {
  TsrArray arr(4);
  arr.set_row(1, TsrRow{5, 6});
  arr.set_row(3, TsrRow{7, 8});
  EXPECT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr.readers(), 2u);
  EXPECT_EQ(arr.engaged(), 2);
  EXPECT_TRUE(arr.has_row(1));
  EXPECT_FALSE(arr.has_row(0));
  EXPECT_FALSE(arr.has_row(64)) << "past S is nil, not undefined";
  EXPECT_EQ(arr.at(1, 1), 6u);
  EXPECT_EQ(arr.at(0, 1), 0u) << "nil row";
  EXPECT_EQ(arr.at(3, 2), 0u) << "past R";
  EXPECT_EQ(arr.at(9, 0), 0u) << "past S";
  const auto row = arr.row(2);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0] + row[1], 0u);
}

TEST(TsrArrayTest, SetRowTruncatesOrPadsToTheGivenWidth) {
  TsrArray arr(3);
  arr.set_row(0, TsrRow{1, 2, 3, 4}, 2);
  arr.set_row(2, TsrRow{9}, 2);
  EXPECT_EQ(arr.readers(), 2u);
  EXPECT_EQ(arr.at(0, 1), 2u);
  EXPECT_EQ(arr.at(2, 0), 9u);
  EXPECT_EQ(arr.at(2, 1), 0u);
}

TEST(TsrArrayTest, EqualityTellsANilRowFromAZeroRow) {
  TsrArray nil(2);
  nil.set_row(0, TsrRow{1, 1});
  TsrArray zero = nil;
  zero.set_row(1, TsrRow{0, 0});
  EXPECT_NE(nil, zero) << "same cells, different presence";
  EXPECT_EQ(TsrArray(3), init_tsrarray(3));
  EXPECT_NE(TsrArray(3), TsrArray(4));
}

TEST(TsrArrayTest, PushBackBuildsTheSameArrayAsSetRow) {
  TsrArray pushed;
  pushed.push_back(std::nullopt);
  pushed.push_back(TsrRow{3, 4});
  pushed.push_back(std::nullopt);
  TsrArray set(3);
  set.set_row(1, TsrRow{3, 4});
  EXPECT_EQ(pushed, set);
}

TEST(TsrArrayTest, RefillAfterResetDoesNotAllocate) {
  TsrArray arr(4);
  for (std::size_t i = 0; i < 3; ++i) arr.set_row(i, TsrRow{1, 2}, 2);
  const TsrRow row{5, 6};
  const std::uint64_t before = g_heap_allocs.load();
  arr.reset(4);
  for (std::size_t i = 1; i < 4; ++i) arr.set_row(i, row, 2);
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  EXPECT_FALSE(arr.has_row(0));
  EXPECT_EQ(arr.at(3, 1), 6u);
}

TEST(TsrArrayDeathTest, RowsOfDifferentWidthsAbort) {
  TsrArray arr(2);
  arr.set_row(0, TsrRow{1, 2});
  EXPECT_DEATH(arr.set_row(1, TsrRow{3}), "one width");
  EXPECT_DEATH(TsrArray(65), "at most 64 rows");
}

TEST(InitialWTupleTest, HasBottomAndAllNilRows) {
  const WTuple w0 = initial_wtuple(4);
  EXPECT_TRUE(w0.tsval.is_bottom());
  ASSERT_EQ(w0.tsrarray.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(w0.tsrarray.has_row(i));
  EXPECT_EQ(w0.tsrarray.readers(), 0u);
}

TEST(ResilienceTest, OptimalMatchesPaperBound) {
  // S = 2t + b + 1 (Martin-Alvisi-Dahlin optimal resilience).
  const auto r = Resilience::optimal(3, 2, 5);
  EXPECT_EQ(r.num_objects, 9);
  EXPECT_EQ(r.t, 3);
  EXPECT_EQ(r.b, 2);
  EXPECT_EQ(r.num_readers, 5);
  EXPECT_TRUE(r.valid());
  EXPECT_TRUE(r.feasible());
}

TEST(ResilienceTest, QuorumIsSMinusT) {
  const auto r = Resilience::optimal(3, 2);
  EXPECT_EQ(r.quorum(), 9 - 3);
  // The quorum always equals t + b + 1 at optimal resilience.
  EXPECT_EQ(r.quorum(), r.t + r.b + 1);
}

TEST(ResilienceTest, InfeasibleBelowLowerBound) {
  Resilience r;
  r.num_objects = 5;  // one short of 2t+b+1 = 6 with t=2, b=1
  r.t = 2;
  r.b = 1;
  EXPECT_FALSE(r.feasible());
  r.num_objects = 6;
  EXPECT_TRUE(r.feasible());
}

TEST(ResilienceTest, ValidityRejectsNonsense) {
  Resilience r = Resilience::optimal(2, 1);
  r.b = 3;  // b > t
  EXPECT_FALSE(r.valid());
  r = Resilience::optimal(2, 1);
  r.num_readers = 0;
  EXPECT_FALSE(r.valid());
}

TEST(TopologyTest, RoundTripsRolesAndIndices) {
  const Topology topo(/*num_readers=*/3, /*num_objects=*/7);
  EXPECT_EQ(topo.num_processes(), 1 + 3 + 7);
  EXPECT_EQ(topo.role_of(topo.writer()), Role::Writer);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(topo.role_of(topo.reader(j)), Role::Reader);
    EXPECT_EQ(topo.reader_index(topo.reader(j)), j);
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(topo.role_of(topo.object(i)), Role::Object);
    EXPECT_EQ(topo.object_index(topo.object(i)), i);
    EXPECT_TRUE(topo.is_object(topo.object(i)));
  }
  EXPECT_FALSE(topo.is_object(topo.writer()));
  EXPECT_FALSE(topo.is_object(topo.reader(2)));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(5);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, IndexWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(13), 13u);
  }
}

}  // namespace
}  // namespace rr
