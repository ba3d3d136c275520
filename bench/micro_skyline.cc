// Micro benchmarks (google-benchmark) for the skyline kernels of paper
// sections 5.5-5.7: dominance tests, Block-Nested-Loop, Sort-Filter-Skyline
// (the paper's future-work presorting family), grid filtering, the
// all-pairs incomplete algorithm, and null-bitmap partitioning — across the
// classic correlated / independent / anti-correlated workloads. The
// dominance-test-throughput counters report tests per second.
#include <benchmark/benchmark.h>

#include "datagen/datagen.h"
#include "skyline/columnar.h"
#include "skyline/reference.h"

namespace sparkline {
namespace {

using datagen::PointDistribution;

std::vector<Row> MakeRows(size_t n, size_t dims, PointDistribution dist,
                          double null_rate = 0.0) {
  auto table = datagen::GeneratePoints("b", n, dims, dist, /*seed=*/42,
                                       null_rate);
  std::vector<Row> rows;
  rows.reserve(n);
  for (const auto& r : table->rows()) {
    rows.emplace_back(r.begin() + 1, r.end());  // drop the id column
  }
  return rows;
}

std::vector<skyline::BoundDimension> MinDims(size_t n) {
  std::vector<skyline::BoundDimension> dims;
  for (size_t i = 0; i < n; ++i) dims.push_back({i, SkylineGoal::kMin});
  return dims;
}

PointDistribution DistFromArg(int64_t arg) {
  switch (arg) {
    case 0:
      return PointDistribution::kCorrelated;
    case 1:
      return PointDistribution::kIndependent;
    default:
      return PointDistribution::kAntiCorrelated;
  }
}

// --- scalar vs. explicit-AVX2 compare ablation (ROADMAP: SIMD-accelerate
// CompareKeySpansComplete). A rotating buffer of key pairs defeats the
// branch predictor memorizing one outcome.
std::vector<double> MakeKeyBuffer(size_t pairs, size_t dims) {
  auto rows = MakeRows(2 * pairs, dims, PointDistribution::kAntiCorrelated);
  auto bound = MinDims(dims);
  const auto matrix = skyline::DominanceMatrix::Build(rows, bound);
  std::vector<double> keys;
  keys.reserve(2 * pairs * dims);
  for (uint32_t r = 0; r < 2 * pairs; ++r) {
    const double* k = matrix.row_keys(r);
    keys.insert(keys.end(), k, k + dims);
  }
  return keys;
}

void BM_CompareKeySpansScalar(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::CompareKeySpansCompleteScalar(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansScalar)->Arg(4)->Arg(6)->Arg(8)->Arg(16);

#if SPARKLINE_HAVE_AVX2_COMPARE
void BM_CompareKeySpansAvx2(benchmark::State& state) {
  if (!skyline::simd::Avx2Available()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::simd::CompareKeySpansCompleteAvx2(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansAvx2)->Arg(4)->Arg(6)->Arg(8)->Arg(16);
#endif

void BM_CompareKeySpansDispatch(benchmark::State& state) {
  // The production entry point: runtime dispatch included.
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::CompareKeySpansComplete(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansDispatch)->Arg(4)->Arg(6)->Arg(8)->Arg(16);

void BM_ColumnarDominanceTest(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2, dims, PointDistribution::kIndependent);
  auto bound = MinDims(dims);
  const auto matrix = skyline::DominanceMatrix::Build(rows, bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matrix.Compare(0, 1, skyline::NullSemantics::kComplete));
  }
}
BENCHMARK(BM_ColumnarDominanceTest)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

/// The six store_sales skyline dimensions of paper Table 2 (ordinals into
/// the generated table's rows).
std::vector<skyline::BoundDimension> StoreSalesDims() {
  return {{2, SkylineGoal::kMax}, {3, SkylineGoal::kMin},
          {4, SkylineGoal::kMin}, {5, SkylineGoal::kMin},
          {6, SkylineGoal::kMax}, {7, SkylineGoal::kMin}};
}

std::vector<Row> MakeStoreSales(size_t n) {
  datagen::StoreSalesOptions opts;
  opts.num_rows = n;
  auto table = datagen::GenerateStoreSales(opts);
  return table->rows();
}

/// Reports dominance tests per second — "the main cost factor of skyline
/// computation" (paper section 2) — alongside wall time.
void SetThroughput(benchmark::State& state, const skyline::DominanceCounter& c,
                   int64_t rows) {
  state.counters["dom_tests/s"] = benchmark::Counter(
      static_cast<double>(c.tests.load()), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_ColumnarBnlStoreSales(benchmark::State& state) {
  auto rows = MakeStoreSales(static_cast<size_t>(state.range(0)));
  auto dims = StoreSalesDims();
  skyline::DominanceCounter counter;
  skyline::SkylineOptions opts;
  opts.counter = &counter;
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::ColumnarKernel::kBlockNestedLoop, rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  SetThroughput(state, counter, state.range(0));
}
BENCHMARK(BM_ColumnarBnlStoreSales)->Arg(5000)->Arg(20000);

void BM_ColumnarBlockNestedLoop(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       DistFromArg(state.range(1)));
  auto dims = MinDims(4);
  skyline::DominanceCounter counter;
  skyline::SkylineOptions opts;
  opts.counter = &counter;
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::ColumnarKernel::kBlockNestedLoop, rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  SetThroughput(state, counter, state.range(0));
}
BENCHMARK(BM_ColumnarBlockNestedLoop)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_ColumnarAllPairsIncomplete(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent, 0.25);
  auto dims = MinDims(4);
  skyline::SkylineOptions opts;
  opts.nulls = skyline::NullSemantics::kIncomplete;
  for (auto _ : state) {
    auto result = skyline::ColumnarAllPairsSkyline(rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarAllPairsIncomplete)->Arg(500)->Arg(1000)->Arg(2000);

void BM_SortFilterSkyline(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       DistFromArg(state.range(1)));
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::ColumnarKernel::kSortFilterSkyline, rows, dims, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortFilterSkyline)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_GridFilterSkyline(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       DistFromArg(state.range(1)));
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::ColumnarKernel::kGridFilter, rows, dims, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridFilterSkyline)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_NullBitmapPartitioning(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 6,
                       PointDistribution::kIndependent, 0.2);
  const auto matrix = skyline::DominanceMatrix::Build(rows, MinDims(6));
  const std::vector<uint32_t> all = skyline::AllIndices(matrix);
  for (auto _ : state) {
    auto parts = skyline::PartitionIndicesByNullBitmap(matrix, all);
    benchmark::DoNotOptimize(parts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NullBitmapPartitioning)->Arg(10000);

void BM_IncompletePipeline(benchmark::State& state) {
  // The full partition -> local BNL -> all-pairs pipeline of section 5.7.
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent, 0.25);
  auto dims = MinDims(4);
  skyline::SkylineOptions opts;
  opts.nulls = skyline::NullSemantics::kIncomplete;
  for (auto _ : state) {
    auto local = skyline::ColumnarSkyline(
        skyline::ColumnarKernel::kBlockNestedLoop, rows, dims, opts);
    auto result = skyline::ColumnarAllPairsSkyline(*local, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncompletePipeline)->Arg(1000)->Arg(4000);

void BM_BruteForce(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent);
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto result = skyline::BruteForceSkyline(rows, dims, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BruteForce)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace sparkline

BENCHMARK_MAIN();
