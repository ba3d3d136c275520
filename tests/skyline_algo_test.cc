// Tests for the skyline kernels (skyline/columnar.h) through their row-level
// entry points, including property sweeps against the brute-force oracle
// (skyline/reference.h) and the executable Appendix-A counterexample.
#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "skyline/columnar.h"
#include "skyline/reference.h"

namespace sparkline {
namespace skyline {
namespace {

Row R(std::vector<double> vals) {
  Row row;
  for (double v : vals) row.push_back(Value::Double(v));
  return row;
}

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

std::vector<std::string> Sorted(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const auto& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

constexpr ColumnarKernel kAllKernels[] = {ColumnarKernel::kBlockNestedLoop,
                                          ColumnarKernel::kSortFilterSkyline,
                                          ColumnarKernel::kGridFilter};

const char* KernelName(ColumnarKernel kernel) {
  switch (kernel) {
    case ColumnarKernel::kSortFilterSkyline:
      return "sfs";
    case ColumnarKernel::kGridFilter:
      return "grid";
    case ColumnarKernel::kBlockNestedLoop:
      break;
  }
  return "bnl";
}

Result<std::vector<Row>> Bnl(const std::vector<Row>& rows,
                             const std::vector<BoundDimension>& dims,
                             const SkylineOptions& options) {
  return ColumnarSkyline(ColumnarKernel::kBlockNestedLoop, rows, dims, options);
}

std::vector<Row> RandomRows(size_t n, size_t dims, double null_rate,
                            int cardinality, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t d = 0; d < dims; ++d) {
      if (null_rate > 0 && rng.Bernoulli(null_rate)) {
        row.push_back(Value::Null(DataType::Double()));
      } else {
        row.push_back(
            Value::Double(static_cast<double>(rng.UniformInt(0, cardinality))));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(KernelTest, EmptyInput) {
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result = ColumnarSkyline(kernel, {}, MinDims(2), {});
    ASSERT_TRUE(result.ok()) << KernelName(kernel);
    EXPECT_TRUE(result->empty()) << KernelName(kernel);
  }
}

TEST(KernelTest, SingleTupleIsItsOwnSkyline) {
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result = ColumnarSkyline(kernel, {R({1, 2})}, MinDims(2), {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 1u) << KernelName(kernel);
  }
}

TEST(KernelTest, DominatedTupleRemoved) {
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result = ColumnarSkyline(kernel, {R({2, 2}), R({1, 1}), R({3, 0})},
                                  MinDims(2), {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(*result), Sorted({R({1, 1}), R({3, 0})}))
        << KernelName(kernel);
  }
}

TEST(KernelTest, DuplicatesKeptWithoutDistinct) {
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result =
        ColumnarSkyline(kernel, {R({1, 1}), R({1, 1})}, MinDims(2), {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 2u) << KernelName(kernel);
  }
}

TEST(KernelTest, DuplicatesCollapsedWithDistinct) {
  SkylineOptions opts;
  opts.distinct = true;
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result =
        ColumnarSkyline(kernel, {R({1, 1}), R({1, 1})}, MinDims(2), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 1u) << KernelName(kernel);
  }
}

TEST(KernelTest, CountsDominanceTests) {
  for (const ColumnarKernel kernel : kAllKernels) {
    DominanceCounter counter;
    SkylineOptions opts;
    opts.counter = &counter;
    auto result = ColumnarSkyline(kernel, {R({1, 1}), R({2, 2}), R({3, 3})},
                                  MinDims(2), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(counter.tests.load(), 0) << KernelName(kernel);
  }
}

TEST(KernelTest, DeadlineProducesTimeout) {
  auto rows = RandomRows(20000, 4, 0, 1000000, 3);
  SkylineOptions opts;
  opts.deadline_nanos = StopWatch::NowNanos();  // already expired
  for (const ColumnarKernel kernel : kAllKernels) {
    auto result = ColumnarSkyline(kernel, rows, MinDims(4), opts);
    ASSERT_FALSE(result.ok()) << KernelName(kernel);
    EXPECT_TRUE(result.status().IsTimeout()) << KernelName(kernel);
  }
}

// Every kernel polls the cancellation token at the DeadlineChecker cadence;
// with a pre-cancelled token each must return Status::Cancelled (never a
// crash, a hang, or a partial result passed off as complete).
TEST(CancellationTest, EveryKernelHonorsCancelledToken) {
  const std::vector<Row> rows = RandomRows(20000, 4, 0, 1000000, 17);
  const std::vector<BoundDimension> dims = MinDims(4);
  CancellationToken token;
  token.Cancel();

  auto expect_cancelled = [](const Status& s, const std::string& kernel) {
    EXPECT_EQ(s.code(), StatusCode::kCancelled) << kernel << ": "
                                                << s.ToString();
  };

  SkylineOptions opts;
  opts.cancel = &token;
  for (const ColumnarKernel kernel : kAllKernels) {
    for (const SfsSortKey key : {SfsSortKey::kSum, SfsSortKey::kMinMax}) {
      for (const bool early_stop : {false, true}) {
        SkylineOptions kopts = opts;
        kopts.sfs_sort_key = key;
        kopts.sfs_early_stop = early_stop;
        expect_cancelled(ColumnarSkyline(kernel, rows, dims, kopts).status(),
                         StrCat(KernelName(kernel), " key=",
                                static_cast<int>(key), " stop=", early_stop));
      }
    }
  }

  // Incomplete-data kernels (the quadratic scans are the ones that need
  // interruption most).
  const std::vector<Row> sparse = RandomRows(4000, 3, 0.3, 50, 21);
  const DominanceMatrix matrix = DominanceMatrix::Build(sparse, MinDims(3));
  const std::vector<uint32_t> all = AllIndices(matrix);
  const std::vector<uint32_t> first_half(all.begin(),
                                         all.begin() + all.size() / 2);
  const std::vector<uint32_t> second_half(all.begin() + all.size() / 2,
                                          all.end());
  SkylineOptions iopts;
  iopts.nulls = NullSemantics::kIncomplete;
  iopts.cancel = &token;
  expect_cancelled(ColumnarAllPairsSkyline(sparse, MinDims(3), iopts).status(),
                   "all_pairs");
  expect_cancelled(
      ColumnarIncompleteCandidateScan(matrix, all, iopts).status(),
      "candidate_scan");
  SkylineOptions vopts = iopts;
  vopts.cancel = nullptr;
  auto candidates = ColumnarIncompleteCandidateScan(matrix, first_half, vopts);
  ASSERT_TRUE(candidates.ok());
  expect_cancelled(
      ColumnarValidateAgainstChunk(matrix, *candidates, second_half, iopts)
          .status(),
      "validate");
}

TEST(AllPairsTest, MatchesOracleOnCyclicData) {
  // The paper's 3-tuple cycle: correct skyline is empty.
  std::vector<Row> rows = {RN({1, std::nullopt, 10}), RN({3, 2, std::nullopt}),
                           RN({std::nullopt, 5, 3})};
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto result = ColumnarAllPairsSkyline(rows, MinDims(3), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(FlawedGulzarTest, AppendixACounterexample) {
  // The eager-deletion algorithm of [20] returns {c} where the correct
  // answer is the empty skyline (paper Appendix A).
  std::vector<Row> rows = {RN({1, std::nullopt, 10}), RN({3, 2, std::nullopt}),
                           RN({std::nullopt, 5, 3})};
  auto flawed = FlawedGulzarGlobal(rows, MinDims(3));
  EXPECT_EQ(flawed.size(), 1u);  // the bug: one tuple survives

  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto correct = ColumnarAllPairsSkyline(rows, MinDims(3), opts);
  ASSERT_TRUE(correct.ok());
  EXPECT_TRUE(correct->empty());
}

TEST(PartitionTest, GroupsByNullBitmap) {
  std::vector<Row> rows = {RN({1, 2}), RN({std::nullopt, 2}), RN({3, 4}),
                           RN({std::nullopt, 7})};
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(2));
  auto parts = PartitionIndicesByNullBitmap(matrix, AllIndices(matrix));
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].size() + parts[1].size(), 4u);
  for (const auto& part : parts) {
    const uint32_t bitmap = NullBitmap(rows[part[0]], MinDims(2));
    for (const uint32_t r : part) {
      EXPECT_EQ(NullBitmap(rows[r], MinDims(2)), bitmap);
      EXPECT_EQ(matrix.null_bitmap(r), bitmap);
    }
  }
}

TEST(Lemma51Test, LocalSkylineUnionPreservesGlobalSkyline) {
  // Paper Lemma 5.1: for every tuple not in the global skyline, either it is
  // gone from the union of local skylines or some local-skyline tuple still
  // dominates it. Equivalently: the global skyline of the local-union equals
  // the global skyline of the full input.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto rows = RandomRows(400, 3, 0.3, 6, seed);
    auto dims = MinDims(3);
    SkylineOptions opts;
    opts.nulls = NullSemantics::kIncomplete;

    // Under incomplete semantics the local entry runs one BNL per
    // bitmap-uniform group — the local stage of section 5.7.
    auto local_union = Bnl(rows, dims, opts);
    ASSERT_TRUE(local_union.ok());
    auto from_union = ColumnarAllPairsSkyline(*local_union, dims, opts);
    ASSERT_TRUE(from_union.ok());
    auto oracle = BruteForceSkyline(rows, dims, opts);
    EXPECT_EQ(Sorted(*from_union), Sorted(oracle)) << "seed " << seed;
  }
}

TEST(SfsTest, MatchesBnlOnCompleteData) {
  for (uint64_t seed : {10u, 11u, 12u}) {
    auto rows = RandomRows(500, 3, 0, 50, seed);
    auto bnl = Bnl(rows, MinDims(3), {});
    auto sfs = ColumnarSkyline(ColumnarKernel::kSortFilterSkyline, rows,
                               MinDims(3), {});
    ASSERT_TRUE(bnl.ok());
    ASSERT_TRUE(sfs.ok());
    EXPECT_EQ(Sorted(*bnl), Sorted(*sfs));
  }
}

// --- property sweeps vs. the brute-force oracle -------------------------------

struct SweepParam {
  size_t n;
  size_t dims;
  double null_rate;
  int cardinality;
  uint64_t seed;
};

class SkylineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SkylineSweep, KernelsMatchOracleOnCompleteData) {
  const auto& p = GetParam();
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  const auto oracle = Sorted(BruteForceSkyline(rows, MinDims(p.dims), {}));
  for (const ColumnarKernel kernel : kAllKernels) {
    auto got = ColumnarSkyline(kernel, rows, MinDims(p.dims), {});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Sorted(*got), oracle) << KernelName(kernel);
  }
}

TEST_P(SkylineSweep, AllPairsMatchesOracleOnIncompleteData) {
  const auto& p = GetParam();
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto rows = RandomRows(p.n, p.dims, p.null_rate, p.cardinality, p.seed);
  auto got = ColumnarAllPairsSkyline(rows, MinDims(p.dims), opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got),
            Sorted(BruteForceSkyline(rows, MinDims(p.dims), opts)));
}

TEST_P(SkylineSweep, GridFilterMatchesOracleOnMixedGoals) {
  const auto& p = GetParam();
  std::vector<BoundDimension> dims;
  for (size_t d = 0; d < p.dims; ++d) {
    dims.push_back({d, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed + 100);
  auto got = ColumnarSkyline(ColumnarKernel::kGridFilter, rows, dims, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), Sorted(BruteForceSkyline(rows, dims, {})));
}

TEST(GridFilterTest, FallsBackOnIncompleteData) {
  auto rows = RandomRows(200, 2, 0.3, 5, 55);
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  // Must still be correct (it delegates to BNL, which requires
  // bitmap-uniform input; here we only check it does not crash and matches
  // BNL's own behaviour on the same input).
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(2));
  auto grid = ColumnarGridFilterSkyline(matrix, AllIndices(matrix), opts);
  auto bnl = ColumnarBlockNestedLoop(matrix, AllIndices(matrix), opts);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(bnl.ok());
  EXPECT_EQ(*grid, *bnl);
}

TEST(GridFilterTest, PrunesCellsOnLargeUniformData) {
  // On big uniform data the cell pass must eliminate most tuples before
  // the BNL, i.e. use far fewer dominance tests than plain BNL.
  auto rows = RandomRows(4000, 2, 0.0, 1000000, 77);
  DominanceCounter grid_counter, bnl_counter;
  SkylineOptions grid_opts;
  grid_opts.counter = &grid_counter;
  SkylineOptions bnl_opts;
  bnl_opts.counter = &bnl_counter;
  auto grid = ColumnarSkyline(ColumnarKernel::kGridFilter, rows, MinDims(2),
                              grid_opts);
  auto bnl = Bnl(rows, MinDims(2), bnl_opts);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(bnl.ok());
  EXPECT_EQ(Sorted(*grid), Sorted(*bnl));
  EXPECT_LT(grid_counter.tests.load(), bnl_counter.tests.load() / 2);
}

TEST_P(SkylineSweep, MixedGoalsMatchOracle) {
  const auto& p = GetParam();
  std::vector<BoundDimension> dims;
  for (size_t d = 0; d < p.dims; ++d) {
    dims.push_back({d, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  const auto oracle = Sorted(BruteForceSkyline(rows, dims, {}));
  for (const ColumnarKernel kernel : kAllKernels) {
    auto got = ColumnarSkyline(kernel, rows, dims, {});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Sorted(*got), oracle) << KernelName(kernel);
  }
}

TEST_P(SkylineSweep, DiffGoalMatchesOracle) {
  const auto& p = GetParam();
  if (p.dims < 2) GTEST_SKIP();
  std::vector<BoundDimension> dims;
  dims.push_back({0, SkylineGoal::kDiff});
  for (size_t d = 1; d < p.dims; ++d) dims.push_back({d, SkylineGoal::kMin});
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  const auto oracle = Sorted(BruteForceSkyline(rows, dims, {}));
  for (const ColumnarKernel kernel : kAllKernels) {
    auto got = ColumnarSkyline(kernel, rows, dims, {});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Sorted(*got), oracle) << KernelName(kernel);
  }
}

TEST_P(SkylineSweep, DistinctMatchesOracle) {
  const auto& p = GetParam();
  SkylineOptions opts;
  opts.distinct = true;
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  // DISTINCT keeps one representative per duplicate group; sizes must match
  // the oracle's.
  const size_t expected = BruteForceSkyline(rows, MinDims(p.dims), opts).size();
  for (const ColumnarKernel kernel : kAllKernels) {
    auto got = ColumnarSkyline(kernel, rows, MinDims(p.dims), opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), expected) << KernelName(kernel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SkylineSweep,
    ::testing::Values(
        SweepParam{50, 1, 0.3, 4, 1}, SweepParam{100, 2, 0.2, 5, 2},
        SweepParam{200, 2, 0.4, 3, 3}, SweepParam{150, 3, 0.25, 6, 4},
        SweepParam{300, 3, 0.1, 10, 5}, SweepParam{100, 4, 0.3, 4, 6},
        SweepParam{250, 4, 0.15, 8, 7}, SweepParam{80, 5, 0.2, 3, 8},
        SweepParam{200, 5, 0.05, 12, 9}, SweepParam{120, 6, 0.25, 5, 10}));

}  // namespace
}  // namespace skyline
}  // namespace sparkline
