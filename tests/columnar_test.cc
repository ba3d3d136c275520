// Tests for the columnar dominance subsystem (skyline/columnar.h): the
// DominanceMatrix projection and its exactness on every shape (rank-encoded
// huge BIGINTs, NaN, VARCHAR), the index-based kernels' equivalence with the
// brute-force oracle, and the guards that keep them sound (>32 dimensions,
// >16-dimension grid cell keys).
#include <cmath>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
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

/// Correlated rows: a per-row base level plus small per-dimension noise, so
/// good tuples are good everywhere — the workload where SaLSa stop points
/// terminate scans early.
std::vector<Row> CorrelatedRows(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double base = rng.Uniform(0.0, 100.0);
    Row row;
    for (size_t d = 0; d < dims; ++d) {
      row.push_back(Value::Double(base + rng.Uniform(0.0, 5.0)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Anti-correlated rows: points near a constant-sum plane, the
/// skyline-heavy workload where stop points rarely fire.
std::vector<Row> AntiCorrelatedRows(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    double sum = 0;
    for (size_t d = 0; d + 1 < dims; ++d) {
      const double v = rng.Uniform(0.0, 100.0 - sum / static_cast<double>(dims));
      row.push_back(Value::Double(v));
      sum += v;
    }
    row.push_back(Value::Double(std::max(0.0, 100.0 - sum)));
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- DominanceMatrix --------------------------------------------------------

TEST(DominanceMatrixTest, CompareMatchesCompareRows) {
  Rng rng(11);
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kDiff}};
  std::vector<Row> rows = RandomRows(80, 3, /*null_rate=*/0.0, 5, 21);
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);
  EXPECT_FALSE(matrix.has_nulls());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(matrix.Compare(i, j, NullSemantics::kComplete),
                CompareRows(rows[i], rows[j], dims, NullSemantics::kComplete))
          << "rows " << i << " vs " << j;
    }
  }
}

TEST(DominanceMatrixTest, IncompleteCompareMatchesCompareRows) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kMin}};
  std::vector<Row> rows = RandomRows(80, 3, /*null_rate=*/0.3, 4, 22);
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(matrix.null_bitmap(i), NullBitmap(rows[i], dims));
    for (uint32_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(matrix.Compare(i, j, NullSemantics::kIncomplete),
                CompareRows(rows[i], rows[j], dims, NullSemantics::kIncomplete));
    }
  }
}

TEST(DominanceMatrixTest, VarcharDiffUsesDictionaryCodes) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kDiff}};
  std::vector<Row> rows;
  rows.push_back({Value::Double(1), Value::String("red")});
  rows.push_back({Value::Double(2), Value::String("red")});
  rows.push_back({Value::Double(0.5), Value::String("blue")});
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);
  // Same color: plain MIN dominance; different color: incomparable.
  EXPECT_EQ(matrix.Compare(0, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix.Compare(0, 2, NullSemantics::kComplete),
            Dominance::kIncomparable);
}

/// Every ordered pair of rows compares in the matrix exactly as the
/// reference CompareRows says, under both semantics.
void ExpectCompareMatchesRows(const std::vector<Row>& rows,
                              const std::vector<BoundDimension>& dims) {
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < rows.size(); ++j) {
      for (const NullSemantics nulls :
           {NullSemantics::kComplete, NullSemantics::kIncomplete}) {
        if (nulls == NullSemantics::kComplete &&
            (matrix.null_bitmap(i) | matrix.null_bitmap(j)) != 0) {
          continue;
        }
        EXPECT_EQ(matrix.Compare(i, j, nulls),
                  CompareRows(rows[i], rows[j], dims, nulls))
            << RowToString(rows[i]) << " vs " << RowToString(rows[j]);
      }
    }
  }
}

TEST(DominanceMatrixTest, HugeBigintsAreRankEncodedExactly) {
  constexpr int64_t k53 = int64_t{1} << 53;
  std::vector<Row> rows;
  for (const int64_t v : {k53 + 1, k53, k53 - 1, -k53 - 1, -k53,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min(), int64_t{0},
                          k53 + 1}) {
    rows.push_back({Value::Int64(v), Value::Int64(v)});
  }
  // 2^53 + 1 and 2^53 collapse as doubles; ranks keep them apart.
  const std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                         {1, SkylineGoal::kMax}};
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(1));
  EXPECT_TRUE(matrix.rank_encoded(0));
  EXPECT_FALSE(matrix.all_numeric_minmax());
  EXPECT_EQ(matrix.Compare(1, 0, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix.Compare(0, 8, NullSemantics::kComplete), Dominance::kEqual);
  ExpectCompareMatchesRows(rows, dims);
  ExpectCompareMatchesRows(rows, {{0, SkylineGoal::kDiff}});
}

TEST(DominanceMatrixTest, NaNIsTheGreatestDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Row> rows{R({1.0}),  R({std::nan("")}), R({inf}),  R({-inf}),
                        R({-0.0}), R({0.0}),          R({-std::nan("")})};
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(1));
  EXPECT_TRUE(matrix.rank_encoded(0));
  // MIN: +inf beats NaN, NaN ties NaN (any payload), -0.0 ties 0.0.
  EXPECT_EQ(matrix.Compare(2, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix.Compare(1, 6, NullSemantics::kComplete), Dominance::kEqual);
  EXPECT_EQ(matrix.Compare(4, 5, NullSemantics::kComplete), Dominance::kEqual);
  ExpectCompareMatchesRows(rows, MinDims(1));
  ExpectCompareMatchesRows(rows, {{0, SkylineGoal::kMax}});
  ExpectCompareMatchesRows(rows, {{0, SkylineGoal::kDiff}});
}

TEST(DominanceMatrixTest, VarcharMinMaxIsRankEncoded) {
  std::vector<Row> rows{{Value::String("pear"), Value::Double(1)},
                        {Value::String("apple"), Value::Double(2)},
                        {Value::String("fig"), Value::Null(DataType::Double())},
                        {Value::String("apple"), Value::Double(0)}};
  ExpectCompareMatchesRows(
      rows, {{0, SkylineGoal::kMin}, {1, SkylineGoal::kMax}});
  ExpectCompareMatchesRows(
      rows, {{0, SkylineGoal::kMax}, {1, SkylineGoal::kMin}});
}

TEST(DominanceMatrixTest, RawColumnsStayRaw) {
  // Only columns without an exact double key pay for ranks.
  std::vector<Row> rows{{Value::Int64(int64_t{1} << 53), Value::Double(-0.5)},
                        {Value::Int64(-(int64_t{1} << 53)), Value::Double(7)}};
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(2));
  EXPECT_FALSE(matrix.rank_encoded(0));
  EXPECT_FALSE(matrix.rank_encoded(1));
  EXPECT_TRUE(matrix.all_numeric_minmax());
}

TEST(DominanceMatrixTest, SmallBigintsAreExact) {
  std::vector<Row> rows;
  rows.push_back({Value::Int64(3), Value::Int64(7)});
  rows.push_back({Value::Int64(3), Value::Int64(9)});
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, MinDims(2));
  EXPECT_EQ(matrix.Compare(0, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

// --- kernel equivalence -----------------------------------------------------

struct KernelCase {
  ColumnarKernel kernel;
  const char* name;
};

class ColumnarKernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ColumnarKernelEquivalence, MatchesBruteForceComplete) {
  const auto& param = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<Row> rows = RandomRows(300, 3, /*null_rate=*/0.0, 8, seed);
    auto dims = MinDims(3);
    dims[1].goal = SkylineGoal::kMax;
    SkylineOptions options;
    auto columnar = ColumnarSkyline(param.kernel, rows, dims, options);
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_EQ(Sorted(*columnar),
              Sorted(BruteForceSkyline(rows, dims, options)))
        << param.name << " seed=" << seed;
  }
}

TEST_P(ColumnarKernelEquivalence, MatchesRowKernelWithDistinct) {
  const auto& param = GetParam();
  // Low cardinality forces duplicate tuples, exercising DISTINCT.
  std::vector<Row> rows = RandomRows(200, 2, /*null_rate=*/0.0, 3, 77);
  auto dims = MinDims(2);
  SkylineOptions options;
  options.distinct = true;
  auto columnar = ColumnarSkyline(param.kernel, rows, dims, options);
  ASSERT_TRUE(columnar.ok());
  EXPECT_EQ(Sorted(*columnar), Sorted(BruteForceSkyline(rows, dims, options)));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ColumnarKernelEquivalence,
    ::testing::Values(
        KernelCase{ColumnarKernel::kBlockNestedLoop, "bnl"},
        KernelCase{ColumnarKernel::kSortFilterSkyline, "sfs"},
        KernelCase{ColumnarKernel::kGridFilter, "grid"}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return info.param.name;
    });

TEST(ColumnarKernelTest, IncompletePipelineMatchesOracle) {
  std::vector<Row> rows = RandomRows(300, 3, /*null_rate=*/0.25, 5, 31);
  auto dims = MinDims(3);
  SkylineOptions options;
  options.nulls = NullSemantics::kIncomplete;

  // Local stage: bitmap-grouped BNL; global stage: all-pairs with deferred
  // deletion over the local union (paper Lemma 5.1).
  auto local =
      ColumnarSkyline(ColumnarKernel::kBlockNestedLoop, rows, dims, options);
  ASSERT_TRUE(local.ok());
  auto global = ColumnarAllPairsSkyline(*local, dims, options);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(Sorted(*global), Sorted(BruteForceSkyline(rows, dims, options)));
}

// Every columnar kernel — including the SFS early-stop scan, whose loop has
// its own termination logic — polls the cancellation token and returns
// Status::Cancelled under a pre-cancelled token instead of finishing the
// scan or crashing.
TEST(ColumnarKernelTest, EveryKernelHonorsCancelledToken) {
  const std::vector<Row> rows = AntiCorrelatedRows(20000, 4, 19);
  const auto dims = MinDims(4);
  CancellationToken token;
  token.Cancel();

  for (const ColumnarKernel kernel :
       {ColumnarKernel::kBlockNestedLoop, ColumnarKernel::kSortFilterSkyline,
        ColumnarKernel::kGridFilter}) {
    SkylineOptions opts;
    opts.cancel = &token;
    auto r = ColumnarSkyline(kernel, rows, dims, opts);
    ASSERT_FALSE(r.ok()) << "kernel " << static_cast<int>(kernel);
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << "kernel " << static_cast<int>(kernel);
  }

  // The early-stop SFS pass on correlated data (where the stop normally
  // fires) still honors cancellation before reaching its stop point.
  for (const SfsSortKey key : {SfsSortKey::kSum, SfsSortKey::kMinMax}) {
    SkylineOptions opts;
    opts.cancel = &token;
    opts.sfs_early_stop = true;
    opts.sfs_sort_key = key;
    auto r = ColumnarSkyline(ColumnarKernel::kSortFilterSkyline,
                             CorrelatedRows(20000, 4, 23), dims, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }

  // Incomplete-data columnar path (all-pairs + candidate/validate rounds).
  SkylineOptions iopts;
  iopts.nulls = NullSemantics::kIncomplete;
  iopts.cancel = &token;
  auto incomplete = ColumnarAllPairsSkyline(
      RandomRows(4000, 3, /*null_rate=*/0.3, 50, 29), MinDims(3), iopts);
  ASSERT_FALSE(incomplete.ok());
  EXPECT_EQ(incomplete.status().code(), StatusCode::kCancelled);
}

// --- regression: grid cell-key overflow past 16 dimensions -----------------

TEST(GridOverflowRegression, ColumnarGridFallsBackBeyond16Dims) {
  // 17 dimensions * 4 bits = 68 bits: the cell key would silently wrap and
  // merge unrelated cells. The guard must fall back to BNL and keep the
  // result identical to brute force.
  std::vector<Row> rows = RandomRows(128, 17, /*null_rate=*/0.0, 2, 98);
  auto dims = MinDims(17);
  SkylineOptions options;
  auto grid = ColumnarSkyline(ColumnarKernel::kGridFilter, rows, dims, options);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(Sorted(*grid), Sorted(BruteForceSkyline(rows, dims, options)));
}

// --- regression: 32-dimension limit is a checked Status --------------------

TEST(DimensionLimitTest, RowEntriesReturnStatusBeyond32Dims) {
  std::vector<Row> rows{R(std::vector<double>(33, 1.0))};
  auto dims = MinDims(33);
  for (const ColumnarKernel kernel :
       {ColumnarKernel::kBlockNestedLoop, ColumnarKernel::kSortFilterSkyline,
        ColumnarKernel::kGridFilter}) {
    EXPECT_EQ(ColumnarSkyline(kernel, rows, dims, {}).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ColumnarAllPairsSkyline(rows, dims, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DimensionLimitTest, Exactly32DimsStillWorks) {
  std::vector<Row> rows{R(std::vector<double>(32, 1.0)),
                        R(std::vector<double>(32, 2.0))};
  auto result =
      ColumnarSkyline(ColumnarKernel::kBlockNestedLoop, rows, MinDims(32), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

// --- SIMD dispatch ----------------------------------------------------------

// The dispatching compare must agree with the scalar reference on every
// dimensionality (covering the AVX2 main loop, its scalar tail, and the
// below-4-dims scalar shortcut) for every dominance outcome.
TEST(SimdCompareTest, DispatchMatchesScalar) {
  Rng rng(41);
  for (size_t d = 1; d <= 9; ++d) {
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<double> left(d), right(d);
      for (size_t i = 0; i < d; ++i) {
        // Small cardinality forces frequent equals/dominates outcomes.
        left[i] = static_cast<double>(rng.UniformInt(0, 3));
        right[i] = static_cast<double>(rng.UniformInt(0, 3));
      }
      EXPECT_EQ(CompareKeySpansComplete(left.data(), right.data(), d),
                CompareKeySpansCompleteScalar(left.data(), right.data(), d))
          << "d=" << d << " trial=" << trial;
    }
  }
}

#if SPARKLINE_HAVE_AVX2_COMPARE
TEST(SimdCompareTest, Avx2MatchesScalarWhenAvailable) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  Rng rng(43);
  for (size_t d = 4; d <= 12; ++d) {
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<double> left(d), right(d);
      for (size_t i = 0; i < d; ++i) {
        left[i] = rng.Bernoulli(0.3) ? 1.0 : rng.Uniform(0, 1);
        right[i] = rng.Bernoulli(0.3) ? 1.0 : rng.Uniform(0, 1);
      }
      EXPECT_EQ(simd::CompareKeySpansCompleteAvx2(left.data(), right.data(), d),
                CompareKeySpansCompleteScalar(left.data(), right.data(), d))
          << "d=" << d << " trial=" << trial;
    }
  }
}
#endif

// --- ColumnarBatch: slice / concat / append round-trips ---------------------

std::shared_ptr<std::vector<Row>> SharedRows(std::vector<Row> rows) {
  return std::make_shared<std::vector<Row>>(std::move(rows));
}

TEST(ColumnarBatchTest, ProjectSelectSliceDecodeRoundTrip) {
  auto rows = SharedRows(RandomRows(100, 3, /*null_rate=*/0.0, 8, 7));
  ColumnarBatch batch = ColumnarBatch::Project(rows, MinDims(3));
  EXPECT_EQ(batch.num_rows(), 100u);

  // A survivor view decodes to exactly the selected backing rows, in order.
  std::vector<uint32_t> selection = {5, 17, 3, 99, 17};
  ColumnarBatch view = batch.WithSelection(selection, /*score_sorted=*/false);
  std::vector<Row> decoded = view.Decode();
  ASSERT_EQ(decoded.size(), selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    EXPECT_EQ(RowToString(decoded[i]), RowToString((*rows)[selection[i]]));
  }

  // A contiguous slice of the view is the corresponding sub-range.
  ColumnarBatch slice = view.Slice(1, 4);
  std::vector<Row> sliced = slice.Decode();
  ASSERT_EQ(sliced.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(RowToString(sliced[i]), RowToString(decoded[i + 1]));
  }
}

TEST(ColumnarBatchTest, ConcatMatchesRowGatherAndReprojection) {
  // Three independently projected partitions (with nulls) concatenated must
  // behave exactly like one matrix projected from the gathered rows: same
  // pairwise dominance everywhere, same decode.
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kMin}};
  std::vector<ColumnarBatch> parts;
  std::vector<Row> gathered;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto rows = SharedRows(RandomRows(40, 3, /*null_rate=*/0.2, 5, seed));
    for (const auto& r : *rows) gathered.push_back(r);
    ColumnarBatch batch = ColumnarBatch::Project(rows, dims);
    parts.push_back(std::move(batch));
  }
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);
  ASSERT_EQ(merged.num_rows(), gathered.size());

  const DominanceMatrix reference = DominanceMatrix::Build(gathered, dims);
  for (uint32_t i = 0; i < gathered.size(); ++i) {
    for (uint32_t j = 0; j < gathered.size(); ++j) {
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kIncomplete),
                reference.Compare(i, j, NullSemantics::kIncomplete))
          << i << " vs " << j;
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kComplete),
                reference.Compare(i, j, NullSemantics::kComplete));
    }
  }
  const std::vector<Row> decoded = merged.Decode();
  for (size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(RowToString(decoded[i]), RowToString(gathered[i]));
  }
}

TEST(ColumnarBatchTest, ConcatRemapsVarcharRanks) {
  // The same string gets different ranks in independently built matrices;
  // concat must unify them so cross-partition DIFF equality still holds.
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kDiff}};
  auto part1 = SharedRows({{Value::Double(1), Value::String("red")},
                           {Value::Double(2), Value::String("blue")}});
  auto part2 = SharedRows({{Value::Double(3), Value::String("blue")},
                           {Value::Double(0.5), Value::String("red")}});
  std::vector<ColumnarBatch> parts;
  parts.push_back(ColumnarBatch::Project(part1, dims));
  parts.push_back(ColumnarBatch::Project(part2, dims));
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);

  // Rows 0 ("red",1) vs 3 ("red",0.5): same color across partitions.
  EXPECT_EQ(merged.matrix().Compare(3, 0, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  // Rows 0 ("red") vs 2 ("blue"): different colors stay incomparable.
  EXPECT_EQ(merged.matrix().Compare(0, 2, NullSemantics::kComplete),
            Dominance::kIncomparable);
}

TEST(ColumnarBatchTest, ConcatInheritsSfsOrderAcrossParts) {
  // Score-sorted parts merge into one score-sorted view, and the presorted
  // SFS pass over it matches the sorting SFS run over the gathered rows.
  auto dims = MinDims(3);
  SkylineOptions options;
  std::vector<ColumnarBatch> parts;
  std::vector<Row> gathered;
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    auto rows = SharedRows(RandomRows(60, 3, /*null_rate=*/0.0, 9, seed));
    for (const auto& r : *rows) gathered.push_back(r);
    ColumnarBatch batch = ColumnarBatch::Project(rows, dims);
    auto sorted =
        ColumnarSortFilterSkyline(batch.matrix(), batch.indices(), options);
    ASSERT_TRUE(sorted.ok());
    parts.push_back(batch.WithSelection(*sorted, /*score_sorted=*/true));
  }
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);
  ASSERT_TRUE(merged.score_sorted());
  const auto& view = merged.indices();
  for (size_t i = 1; i < view.size(); ++i) {
    EXPECT_LE(merged.matrix().Score(view[i - 1]),
              merged.matrix().Score(view[i]))
        << "merged view must be score-ascending";
  }

  auto presorted =
      ColumnarSortFilterSkylinePresorted(merged.matrix(), view, options);
  ASSERT_TRUE(presorted.ok());
  EXPECT_EQ(Sorted(merged.WithSelection(*presorted, true).Decode()),
            Sorted(BruteForceSkyline(gathered, dims, options)));
}

TEST(ColumnarBatchTest, ConcatReRanksMixedEncodings) {
  // Partition 1 holds small BIGINTs (raw keys), partition 2 values beyond
  // 2^53 and partition 3 another disjoint set of them (each rank-encoded
  // on its own), with NULLs: the gather must re-rank every part into one
  // order and behave exactly like one matrix over the gathered rows.
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                         {1, SkylineGoal::kMax},
                                         {2, SkylineGoal::kDiff}};
  const std::vector<std::vector<int64_t>> values = {
      {3, -7, 3, k53, -k53},
      {k53 + 1, k53 + 3, -k53 - 1, std::numeric_limits<int64_t>::max(), 3},
      {k53 + 2, std::numeric_limits<int64_t>::min(), k53 + 2, -k53 - 2, 0}};
  std::vector<ColumnarBatch> parts;
  std::vector<Row> gathered;
  for (size_t p = 0; p < values.size(); ++p) {
    std::vector<Row> rows;
    for (size_t i = 0; i < values[p].size(); ++i) {
      const int64_t v = values[p][i];
      const int64_t w = values[p][(i + 1) % values[p].size()];
      rows.push_back({Value::Int64(v),
                      i == 2 ? Value::Null(DataType::Int64()) : Value::Int64(w),
                      Value::Int64(v % 2)});
    }
    gathered.insert(gathered.end(), rows.begin(), rows.end());
    ColumnarBatch batch = ColumnarBatch::Project(SharedRows(rows), dims);
    // A view that skips a row: only selected values enter the new ranks.
    std::vector<uint32_t> view = {0, 1, 2, 4};
    parts.push_back(batch.WithSelection(view, /*score_sorted=*/false));
    gathered.erase(gathered.end() - 2);
  }
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);
  ASSERT_EQ(merged.num_rows(), gathered.size());
  EXPECT_TRUE(merged.matrix().rank_encoded(0));
  EXPECT_FALSE(merged.score_sorted());
  EXPECT_TRUE(std::isinf(merged.stop_bound()));
  for (uint32_t i = 0; i < gathered.size(); ++i) {
    for (uint32_t j = 0; j < gathered.size(); ++j) {
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kIncomplete),
                CompareRows(gathered[i], gathered[j], dims,
                            NullSemantics::kIncomplete))
          << RowToString(gathered[i]) << " vs " << RowToString(gathered[j]);
    }
  }
}

TEST(ColumnarBatchTest, MatrixMemoryChargedForBatchLifetime) {
  MemoryTracker tracker;
  auto rows = SharedRows(RandomRows(200, 4, /*null_rate=*/0.1, 6, 17));
  {
    ColumnarBatch batch = ColumnarBatch::Project(rows, MinDims(4), &tracker);
    EXPECT_GT(batch.matrix().MemoryBytes(), 0);
    EXPECT_GE(tracker.current_bytes(), batch.matrix().MemoryBytes());
    // Views share the reservation: copying them must not double-charge.
    ColumnarBatch view = batch.WithSelection({1, 2, 3}, false);
    EXPECT_EQ(tracker.current_bytes(), batch.matrix().MemoryBytes());
  }
  EXPECT_EQ(tracker.current_bytes(), 0) << "reservation must die with the batch";
}

// --- SaLSa-style early termination ------------------------------------------

std::vector<Row> SfsWith(const std::vector<Row>& rows,
                         const std::vector<BoundDimension>& dims,
                         bool early_stop, SfsSortKey key, bool distinct,
                         EarlyStopStats* stats = nullptr) {
  SkylineOptions options;
  options.sfs_early_stop = early_stop;
  options.sfs_sort_key = key;
  options.distinct = distinct;
  options.early_stop = stats;
  auto result = ColumnarSkyline(ColumnarKernel::kSortFilterSkyline, rows, dims,
                                options);
  SL_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

TEST(SfsEarlyStop, ResultIdenticalToFullScanAcrossKeysAndDistributions) {
  struct Workload {
    const char* name;
    std::vector<Row> rows;
  };
  const std::vector<Workload> workloads = {
      {"correlated", CorrelatedRows(800, 4, 7)},
      {"anticorrelated", AntiCorrelatedRows(800, 4, 7)},
      {"duplicates", RandomRows(400, 3, /*null_rate=*/0.0, 3, 7)},
  };
  for (const auto& w : workloads) {
    const size_t num_dims = w.rows[0].size();
    auto dims = MinDims(num_dims);
    dims[1].goal = SkylineGoal::kMax;  // exercise the negated-key path
    for (const SfsSortKey key : {SfsSortKey::kSum, SfsSortKey::kMinMax}) {
      for (const bool distinct : {false, true}) {
        const std::vector<Row> full =
            SfsWith(w.rows, dims, /*early_stop=*/false, key, distinct);
        const std::vector<Row> stopped =
            SfsWith(w.rows, dims, /*early_stop=*/true, key, distinct);
        // SFS output order is the sort order, so the full sequence (not
        // just the set) must match.
        ASSERT_EQ(full.size(), stopped.size())
            << w.name << " key=" << static_cast<int>(key)
            << " distinct=" << distinct;
        for (size_t i = 0; i < full.size(); ++i) {
          EXPECT_EQ(RowToString(full[i]), RowToString(stopped[i]));
        }
        SkylineOptions oracle_options;
        oracle_options.distinct = distinct;
        EXPECT_EQ(Sorted(stopped),
                  Sorted(BruteForceSkyline(w.rows, dims, oracle_options)));
      }
    }
  }
}

TEST(SfsEarlyStop, SkipsMostRowsOnCorrelatedData) {
  const std::vector<Row> rows = CorrelatedRows(2000, 4, 11);
  const auto dims = MinDims(4);
  EarlyStopStats stats;
  SfsWith(rows, dims, /*early_stop=*/true, SfsSortKey::kMinMax, false, &stats);
  EXPECT_GE(stats.stops.load(), 1);
  EXPECT_GT(stats.rows_skipped.load(), static_cast<int64_t>(rows.size()) / 3)
      << "the minC stop point must skip >1/3 of a correlated input";
}

TEST(SfsEarlyStop, AutoDisabledOnNullBitmaps) {
  // NULL key slots hold placeholders, so coordinate bounds are unsound;
  // the stop must silently disable itself (stats stay zero) while the SFS
  // fast path itself keeps running.
  std::vector<Row> rows = CorrelatedRows(500, 3, 31);
  rows[497][1] = Value::Null(DataType::Double());
  const auto dims = MinDims(3);
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.has_nulls());
  EarlyStopStats stats;
  SkylineOptions options;
  options.sfs_early_stop = true;
  options.sfs_sort_key = SfsSortKey::kMinMax;
  options.early_stop = &stats;
  auto result =
      ColumnarSortFilterSkyline(matrix, AllIndices(matrix), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.stops.load(), 0);
  EXPECT_EQ(stats.rows_skipped.load(), 0);
}

TEST(SfsEarlyStop, PresortedPassInheritsStopBound) {
  const std::vector<Row> rows = CorrelatedRows(1200, 4, 43);
  const auto dims = MinDims(4);
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);

  SkylineOptions options;
  options.sfs_sort_key = SfsSortKey::kMinMax;
  auto baseline =
      ColumnarSortFilterSkyline(matrix, AllIndices(matrix), options);
  ASSERT_TRUE(baseline.ok());
  const double bound = ComputeStopBound(matrix, *baseline);
  ASSERT_TRUE(std::isfinite(bound));

  // Presort by (MinKey, Score) — the kMinMax order the presorted pass
  // expects — then run it with the inherited bound: the result must be
  // identical and the bound must skip rows before the pass's own window
  // could have tightened minC.
  std::vector<uint32_t> ordered = AllIndices(matrix);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](uint32_t a, uint32_t b) {
                     const double ma = matrix.MinKey(a);
                     const double mb = matrix.MinKey(b);
                     if (ma != mb) return ma < mb;
                     return matrix.Score(a) < matrix.Score(b);
                   });
  EarlyStopStats stats;
  SkylineOptions inherited = options;
  inherited.sfs_stop_bound = bound;
  inherited.early_stop = &stats;
  auto presorted =
      ColumnarSortFilterSkylinePresorted(matrix, ordered, inherited);
  ASSERT_TRUE(presorted.ok());
  EXPECT_EQ(Sorted(MaterializeRows(rows, *baseline)),
            Sorted(MaterializeRows(rows, *presorted)));
  EXPECT_GT(stats.rows_skipped.load(), 0);
}

TEST(SfsEarlyStop, StopBoundSurvivesConcat) {
  // Two parts with different bounds: the concatenated batch must carry the
  // tighter one (its witness row ships with its part).
  auto part_rows_a = SharedRows(CorrelatedRows(300, 3, 51));
  auto part_rows_b = SharedRows(CorrelatedRows(300, 3, 52));
  const auto dims = MinDims(3);
  SkylineOptions options;
  std::vector<ColumnarBatch> parts;
  std::vector<double> bounds;
  for (const auto& rows : {part_rows_a, part_rows_b}) {
    ColumnarBatch batch = ColumnarBatch::Project(rows, dims);
    auto survivors = ColumnarSortFilterSkyline(batch.matrix(),
                                               batch.indices(), options);
    ASSERT_TRUE(survivors.ok());
    const double bound = ComputeStopBound(batch.matrix(), *survivors);
    bounds.push_back(bound);
    parts.push_back(batch.WithSelection(std::move(*survivors), true,
                                         SfsSortKey::kSum, bound));
  }
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);
  EXPECT_TRUE(merged.score_sorted());
  EXPECT_EQ(merged.stop_bound(), std::min(bounds[0], bounds[1]));
}

// --- MergeByScore tie-break determinism --------------------------------------

TEST(MergeByScoreTest, EqualKeysReproduceGlobalStableSortOrder) {
  // Low-cardinality rows produce many equal scores (and equal min keys)
  // across runs; the cascade of stable merges must order them exactly like
  // one global stable sort over the concatenated input.
  std::vector<Row> rows = RandomRows(240, 2, /*null_rate=*/0.0, 3, 91);
  const auto dims = MinDims(2);
  const DominanceMatrix matrix = DominanceMatrix::Build(rows, dims);

  for (const SfsSortKey key : {SfsSortKey::kSum, SfsSortKey::kMinMax}) {
    auto key_less = [&](uint32_t a, uint32_t b) {
      if (key == SfsSortKey::kMinMax) {
        const double ma = matrix.MinKey(a);
        const double mb = matrix.MinKey(b);
        if (ma != mb) return ma < mb;
      }
      return matrix.Score(a) < matrix.Score(b);
    };
    // Three contiguous runs in input order, each sorted by the key.
    std::vector<std::vector<uint32_t>> runs;
    for (uint32_t begin = 0; begin < 240; begin += 80) {
      std::vector<uint32_t> run;
      for (uint32_t i = begin; i < begin + 80; ++i) run.push_back(i);
      std::stable_sort(run.begin(), run.end(), key_less);
      runs.push_back(std::move(run));
    }
    const std::vector<uint32_t> merged = MergeByScore(matrix, runs, key);

    std::vector<uint32_t> global = AllIndices(matrix);
    std::stable_sort(global.begin(), global.end(), key_less);
    EXPECT_EQ(merged, global)
        << "ties must keep input (run) order, key=" << static_cast<int>(key);
  }
}

// --- deadline coverage: every kernel must return Timeout ---------------------

class ColumnarKernelDeadline : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = AntiCorrelatedRows(600, 4, 3);
    matrix_ = DominanceMatrix::Build(rows_, MinDims(4));
    // A deadline in the past: the kernels' batched checker trips on its
    // first clock read (after at most 1024 ticks).
    expired_.deadline_nanos = 1;
  }

  std::vector<Row> rows_;
  std::optional<DominanceMatrix> matrix_;
  SkylineOptions expired_;
};

#define EXPECT_TIMES_OUT(expr)                                     \
  do {                                                             \
    auto _result = (expr);                                         \
    ASSERT_FALSE(_result.ok()) << "kernel ignored the deadline";   \
    EXPECT_EQ(_result.status().code(), StatusCode::kTimeout);      \
  } while (0)

TEST_F(ColumnarKernelDeadline, BlockNestedLoop) {
  EXPECT_TIMES_OUT(
      ColumnarBlockNestedLoop(*matrix_, AllIndices(*matrix_), expired_));
}

TEST_F(ColumnarKernelDeadline, SortFilterSkyline) {
  EXPECT_TIMES_OUT(
      ColumnarSortFilterSkyline(*matrix_, AllIndices(*matrix_), expired_));
}

TEST_F(ColumnarKernelDeadline, SortFilterSkylineEarlyStopLoop) {
  // Early stop enabled with the kMinMax key on anti-correlated data: the
  // stop never fires (the pass runs its early-stop bookkeeping for every
  // tuple), and the loop must still observe the deadline. (On data where
  // the stop fires before the checker's first clock read, finishing OK is
  // the correct outcome — fast passes need no timeout.)
  SkylineOptions options = expired_;
  options.sfs_sort_key = SfsSortKey::kMinMax;
  EXPECT_TIMES_OUT(
      ColumnarSortFilterSkyline(*matrix_, AllIndices(*matrix_), options));
}

TEST_F(ColumnarKernelDeadline, SortFilterSkylinePresorted) {
  std::vector<uint32_t> ordered = AllIndices(*matrix_);
  std::stable_sort(ordered.begin(), ordered.end(), [&](uint32_t a, uint32_t b) {
    return matrix_->Score(a) < matrix_->Score(b);
  });
  EXPECT_TIMES_OUT(
      ColumnarSortFilterSkylinePresorted(*matrix_, ordered, expired_));
}

TEST_F(ColumnarKernelDeadline, GridFilter) {
  EXPECT_TIMES_OUT(
      ColumnarGridFilterSkyline(*matrix_, AllIndices(*matrix_), expired_));
}

TEST_F(ColumnarKernelDeadline, AllPairsIncomplete) {
  SkylineOptions options = expired_;
  options.nulls = NullSemantics::kIncomplete;
  EXPECT_TIMES_OUT(
      ColumnarAllPairsIncomplete(*matrix_, AllIndices(*matrix_), options));
}

TEST_F(ColumnarKernelDeadline, IncompleteCandidateScan) {
  SkylineOptions options = expired_;
  options.nulls = NullSemantics::kIncomplete;
  EXPECT_TIMES_OUT(
      ColumnarIncompleteCandidateScan(*matrix_, AllIndices(*matrix_), options));
}

TEST_F(ColumnarKernelDeadline, ValidateAgainstChunk) {
  SkylineOptions options = expired_;
  options.nulls = NullSemantics::kIncomplete;
  const std::vector<uint32_t> all = AllIndices(*matrix_);
  EXPECT_TIMES_OUT(ColumnarValidateAgainstChunk(*matrix_, all, all, options));
}

#undef EXPECT_TIMES_OUT

}  // namespace
}  // namespace skyline
}  // namespace sparkline
