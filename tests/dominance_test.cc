// Tests for the dominance utility (paper Definition 3.1 and the
// incomplete-data variant of section 3).
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "skyline/reference.h"

namespace sparkline {
namespace skyline {
namespace {

Row R(std::vector<double> vals) {
  Row row;
  for (double v : vals) row.push_back(Value::Double(v));
  return row;
}

/// Row with optional values; nullopt means NULL (the paper's "*").
Row RN(std::vector<std::optional<double>> vals) {
  Row row;
  for (const auto& v : vals) {
    row.push_back(v.has_value() ? Value::Double(*v)
                                : Value::Null(DataType::Double()));
  }
  return row;
}

std::vector<BoundDimension> MinDims(size_t n) {
  std::vector<BoundDimension> dims;
  for (size_t i = 0; i < n; ++i) dims.push_back({i, SkylineGoal::kMin});
  return dims;
}

TEST(DominanceTest, MinDimension) {
  auto dims = MinDims(2);
  EXPECT_EQ(CompareRows(R({1, 1}), R({2, 2}), dims, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(CompareRows(R({2, 2}), R({1, 1}), dims, NullSemantics::kComplete),
            Dominance::kRightDominates);
}

TEST(DominanceTest, MaxDimension) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMax}};
  EXPECT_EQ(CompareRows(R({5}), R({3}), dims, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

TEST(DominanceTest, MixedGoals) {
  // price MIN, rating MAX.
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax}};
  EXPECT_EQ(CompareRows(R({100, 4.5}), R({120, 4.0}), dims,
                        NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(CompareRows(R({100, 4.0}), R({120, 4.5}), dims,
                        NullSemantics::kComplete),
            Dominance::kIncomparable);
}

TEST(DominanceTest, EqualTuples) {
  EXPECT_EQ(CompareRows(R({1, 2}), R({1, 2}), MinDims(2),
                        NullSemantics::kComplete),
            Dominance::kEqual);
}

TEST(DominanceTest, EqualOnSomeStrictOnOne) {
  // "at least as good everywhere, strictly better somewhere".
  EXPECT_EQ(CompareRows(R({1, 2}), R({1, 3}), MinDims(2),
                        NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

TEST(DominanceTest, DiffDimensionPartitions) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kDiff},
                                   {1, SkylineGoal::kMin}};
  // Different DIFF value: incomparable even though dim 1 is better.
  EXPECT_EQ(CompareRows(R({1, 0}), R({2, 5}), dims, NullSemantics::kComplete),
            Dominance::kIncomparable);
  // Same DIFF value: normal dominance.
  EXPECT_EQ(CompareRows(R({1, 0}), R({1, 5}), dims, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

TEST(DominanceTest, IncompleteRestrictsToCommonDims) {
  auto dims = MinDims(2);
  // (1, NULL) vs (2, 5): only dim 0 compared -> left dominates.
  EXPECT_EQ(CompareRows(RN({1, std::nullopt}), RN({2, 5}), dims,
                        NullSemantics::kIncomplete),
            Dominance::kLeftDominates);
  // No common non-null dimension: incomparable (trivially "equal" on the
  // empty set of common dims -> kEqual by the definition's conjunctions).
  EXPECT_EQ(CompareRows(RN({1, std::nullopt}), RN({std::nullopt, 5}), dims,
                        NullSemantics::kIncomplete),
            Dominance::kEqual);
}

TEST(DominanceTest, PaperCyclicExample) {
  // Paper section 3: a = (1,*,10), b = (3,2,*), c = (*,5,3), all MIN.
  auto dims = MinDims(3);
  const Row a = RN({1, std::nullopt, 10});
  const Row b = RN({3, 2, std::nullopt});
  const Row c = RN({std::nullopt, 5, 3});
  EXPECT_EQ(CompareRows(a, b, dims, NullSemantics::kIncomplete),
            Dominance::kLeftDominates);  // a < b on dim 0
  EXPECT_EQ(CompareRows(b, c, dims, NullSemantics::kIncomplete),
            Dominance::kLeftDominates);  // b < c on dim 1
  EXPECT_EQ(CompareRows(c, a, dims, NullSemantics::kIncomplete),
            Dominance::kLeftDominates);  // c < a on dim 2 -- a cycle!
}

TEST(DominanceTest, AntisymmetryHoldsOnRandomCompleteData) {
  Rng rng(99);
  auto dims = MinDims(3);
  for (int i = 0; i < 500; ++i) {
    Row a = R({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
    Row b = R({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
    auto ab = CompareRows(a, b, dims, NullSemantics::kComplete);
    auto ba = CompareRows(b, a, dims, NullSemantics::kComplete);
    if (ab == Dominance::kLeftDominates) {
      EXPECT_EQ(ba, Dominance::kRightDominates);
    }
    if (ab == Dominance::kIncomparable) {
      EXPECT_EQ(ba, Dominance::kIncomparable);
    }
    if (ab == Dominance::kEqual) {
      EXPECT_EQ(ba, Dominance::kEqual);
    }
  }
}

TEST(DominanceTest, TransitivityHoldsOnRandomCompleteData) {
  Rng rng(123);
  // Low-cardinality values make dominance chains likely.
  auto dims = MinDims(3);
  auto rand_row = [&] {
    return R({static_cast<double>(rng.UniformInt(0, 3)),
              static_cast<double>(rng.UniformInt(0, 3)),
              static_cast<double>(rng.UniformInt(0, 3))});
  };
  for (int i = 0; i < 2000; ++i) {
    Row a = rand_row(), b = rand_row(), c = rand_row();
    if (CompareRows(a, b, dims, NullSemantics::kComplete) ==
            Dominance::kLeftDominates &&
        CompareRows(b, c, dims, NullSemantics::kComplete) ==
            Dominance::kLeftDominates) {
      EXPECT_EQ(CompareRows(a, c, dims, NullSemantics::kComplete),
                Dominance::kLeftDominates)
          << RowToString(a) << " " << RowToString(b) << " " << RowToString(c);
    }
  }
}

TEST(DominanceTest, MixedIntAndDoubleColumns) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin}};
  Row a{Value::Int64(1)};
  Row b{Value::Double(1.5)};
  EXPECT_EQ(CompareRows(a, b, dims, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

TEST(NullBitmapTest, BitsFollowDimensionOrder) {
  auto dims = MinDims(3);
  EXPECT_EQ(NullBitmap(RN({1, 2, 3}), dims), 0u);
  EXPECT_EQ(NullBitmap(RN({std::nullopt, 2, 3}), dims), 1u);
  EXPECT_EQ(NullBitmap(RN({1, std::nullopt, std::nullopt}), dims), 6u);
}

TEST(NullBitmapTest, IgnoresNonDimensionColumns) {
  std::vector<BoundDimension> dims{{2, SkylineGoal::kMin}};
  EXPECT_EQ(NullBitmap(RN({std::nullopt, std::nullopt, 3}), dims), 0u);
}

TEST(DominanceCounterTest, CountsThroughOptions) {
  DominanceCounter counter;
  EXPECT_EQ(counter.tests.load(), 0);
  counter.tests.fetch_add(5);
  EXPECT_EQ(counter.tests.load(), 5);
}

}  // namespace
}  // namespace skyline
}  // namespace sparkline
