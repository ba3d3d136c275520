// The configuration matrix test: every combination of execution strategy,
// kernel, partitioning scheme, pruning phase and executor count must produce
// the identical skyline — and that skyline must equal the brute-force oracle
// computed directly from the table. This is the strongest single
// correctness statement the engine makes — no physical-plan knob may change
// results.
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "skyline/reference.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;
using ::sparkline::testing::RowStrings;

struct MatrixCase {
  const char* dataset;  // complete | incomplete
  size_t dims;
  bool distinct;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, AllConfigurationsAgreeWithBruteForce) {
  const auto& param = GetParam();
  const bool incomplete = std::string(param.dataset) == "incomplete";

  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", 400, param.dims, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/1234, incomplete ? 0.2 : 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  std::vector<std::string> items;
  for (size_t d = 0; d < param.dims; ++d) {
    items.push_back(StrCat("d", d, d % 2 == 0 ? " MIN" : " MAX"));
  }
  const std::string query =
      StrCat("SELECT * FROM pts SKYLINE OF ", param.distinct ? "DISTINCT " : "",
             JoinStrings(items, ", "));

  // Brute-force oracle straight from the table (column 0 is the id).
  std::vector<skyline::BoundDimension> oracle_dims;
  for (size_t d = 0; d < param.dims; ++d) {
    oracle_dims.push_back(skyline::BoundDimension{
        d + 1, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  skyline::SkylineOptions oracle_options;
  oracle_options.distinct = param.distinct;
  oracle_options.nulls = incomplete ? skyline::NullSemantics::kIncomplete
                                    : skyline::NullSemantics::kComplete;
  const std::vector<std::string> expected = RowStrings(
      skyline::BruteForceSkyline(table->rows(), oracle_dims, oracle_options));
  ASSERT_FALSE(expected.empty());

  // The kernel axis crosses SFS with its early-stop and sort-key knobs
  // (which only the SFS family consults); BNL and grid run once each.
  struct KernelConfig {
    const char* kernel;
    const char* early_stop;
    const char* sort_key;
  };
  const std::vector<KernelConfig> kernels = {
      {"bnl", "true", "sum"},          {"grid", "true", "sum"},
      {"sfs", "true", "sum"},          {"sfs", "true", "minmax"},
      {"sfs", "false", "sum"},         {"sfs", "false", "minmax"},
  };

  int combinations = 0;
  // The Listing-4 rewrite (strategy=reference) keeps the native node for
  // DISTINCT, so it only joins the incomplete sweep where it really runs.
  std::vector<const char*> strategies =
      incomplete ? std::vector<const char*>{"auto", "incomplete"}
                 : std::vector<const char*>{"auto", "distributed",
                                            "non_distributed", "incomplete",
                                            "reference"};
  if (incomplete && !param.distinct) strategies.push_back("reference");
  for (const char* strategy : strategies) {
    for (const KernelConfig& kernel : kernels) {
      for (const char* partitioning : {"asis", "roundrobin", "angle"}) {
        for (const char* executors : {"1", "3", "8"}) {
          // Two-phase pruning axes (broadcast filter × zone maps): both
          // phases claim bit-identical results, so they join the full
          // cross rather than getting their own narrower sweep.
          const std::pair<const char*, const char*> pruning_axis[] = {
              {"true", "true"},
              {"true", "false"},
              {"false", "true"},
              {"false", "false"}};
          for (const auto& pruning : pruning_axis) {
            ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
            ASSERT_OK(
                session.SetConf("sparkline.skyline.kernel", kernel.kernel));
            ASSERT_OK(session.SetConf("sparkline.skyline.sfs.early_stop",
                                      kernel.early_stop));
            ASSERT_OK(session.SetConf("sparkline.skyline.sfs.sort_key",
                                      kernel.sort_key));
            ASSERT_OK(session.SetConf("sparkline.skyline.partitioning",
                                      partitioning));
            ASSERT_OK(session.SetConf("sparkline.executors", executors));
            ASSERT_OK(session.SetConf("sparkline.skyline.broadcast_filter",
                                      pruning.first));
            ASSERT_OK(
                session.SetConf("sparkline.scan.zone_maps", pruning.second));
            auto rows = RowStrings(Rows(&session, query));
            ASSERT_EQ(expected, rows)
                << "strategy=" << strategy << " kernel=" << kernel.kernel
                << " early_stop=" << kernel.early_stop
                << " sort_key=" << kernel.sort_key
                << " partitioning=" << partitioning
                << " executors=" << executors
                << " broadcast_filter=" << pruning.first
                << " zone_maps=" << pruning.second;
            ++combinations;
          }
        }
      }
    }
  }
  // strategies × kernels × partitionings × executor counts × pruning.
  EXPECT_GE(combinations, 2 * 6 * 3 * 3 * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrix,
    ::testing::Values(MatrixCase{"complete", 2, false},
                      MatrixCase{"complete", 4, false},
                      MatrixCase{"complete", 3, true},
                      MatrixCase{"incomplete", 3, false},
                      MatrixCase{"incomplete", 3, true}));

// The round-based parallel incomplete global stage: sweeping the executor
// count (including one chunk per tuple) on NULL-heavy data must always
// reproduce the brute-force oracle — the rotation rounds may not change
// results under non-transitive dominance.
struct IncompleteParallelCase {
  size_t rows;
  size_t dims;
  bool distinct;
  double null_probability;
};

class IncompleteParallel
    : public ::testing::TestWithParam<IncompleteParallelCase> {};

TEST_P(IncompleteParallel, MatchesBruteForceOracle) {
  const auto& param = GetParam();
  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", param.rows, param.dims, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/99, param.null_probability);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  std::vector<std::string> items;
  std::vector<skyline::BoundDimension> oracle_dims;
  for (size_t d = 0; d < param.dims; ++d) {
    items.push_back(StrCat("d", d, d % 2 == 0 ? " MIN" : " MAX"));
    oracle_dims.push_back(skyline::BoundDimension{
        d + 1, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  const std::string query =
      StrCat("SELECT * FROM pts SKYLINE OF ", param.distinct ? "DISTINCT " : "",
             JoinStrings(items, ", "));

  skyline::SkylineOptions oracle_options;
  oracle_options.distinct = param.distinct;
  oracle_options.nulls = skyline::NullSemantics::kIncomplete;
  const std::vector<std::string> expected = RowStrings(
      skyline::BruteForceSkyline(table->rows(), oracle_dims, oracle_options));
  ASSERT_FALSE(expected.empty());

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  // The executor sweep includes param.rows, which makes the global stage
  // split into one chunk per tuple (every candidate scan is a singleton and
  // all work happens in the validation rounds).
  const std::vector<std::string> executor_counts = {
      "1", "2", "3", "8", std::to_string(param.rows)};
  for (const std::string& executors : executor_counts) {
    // The two-phase pruning flags must be inert here: zone-map skipping and
    // the broadcast filter are complete-dominance-only optimizations and
    // auto-disable under incomplete semantics.
    const std::pair<const char*, const char*> pruning_axis[] = {
        {"true", "true"}, {"false", "false"}};
    for (const auto& pruning : pruning_axis) {
      ASSERT_OK(session.SetConf("sparkline.executors", executors));
      ASSERT_OK(
          session.SetConf("sparkline.skyline.broadcast_filter", pruning.first));
      ASSERT_OK(session.SetConf("sparkline.scan.zone_maps", pruning.second));
      ASSERT_EQ(expected, RowStrings(Rows(&session, query)))
          << "executors=" << executors
          << " broadcast_filter=" << pruning.first
          << " zone_maps=" << pruning.second;
    }
  }
}

// Zone-map partition skipping is a complete-dominance optimization: under
// incomplete semantics (non-transitive dominance, NULL coordinates outside
// the min/max summary) it must auto-disable even with both pruning flags
// on. Pinned through QueryMetrics: no partition is ever skipped and no
// broadcast filter point is nominated, while the same flags on complete
// data do fire (guarding against the pin passing vacuously).
TEST(TwoPhasePruning, AutoDisablesUnderIncompleteDominance) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts_null", 1200, 3, datagen::PointDistribution::kCorrelated, 7,
      /*null_probability=*/0.4)));
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts_full", 1200, 3, datagen::PointDistribution::kCorrelated, 7,
      /*null_probability=*/0.0)));
  ASSERT_OK(session.SetConf("sparkline.executors", "8"));
  ASSERT_OK(session.SetConf("sparkline.skyline.broadcast_filter", "true"));
  ASSERT_OK(session.SetConf("sparkline.scan.zone_maps", "true"));

  auto metrics_for = [&](const char* strategy, const char* table) {
    SL_CHECK_OK(session.SetConf("sparkline.skyline.strategy", strategy));
    auto df = session.Sql(StrCat("SELECT * FROM ", table,
                                 " SKYLINE OF d0 MIN, d1 MIN, d2 MIN"));
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  };

  const QueryMetrics incomplete = metrics_for("incomplete", "pts_null");
  EXPECT_EQ(incomplete.partitions_skipped, 0);
  EXPECT_EQ(incomplete.broadcast_filter_points, 0);
  EXPECT_EQ(incomplete.rows_pruned_pre_gather, 0);

  // Control: the same flags on complete correlated data fire both phases
  // (correlated clusters give partitions strictly dominating corners).
  const QueryMetrics complete = metrics_for("distributed", "pts_full");
  EXPECT_GT(complete.broadcast_filter_points, 0);
}

INSTANTIATE_TEST_SUITE_P(
    NullHeavy, IncompleteParallel,
    ::testing::Values(IncompleteParallelCase{64, 3, false, 0.5},
                      IncompleteParallelCase{64, 3, true, 0.5},
                      IncompleteParallelCase{200, 4, false, 0.35},
                      IncompleteParallelCase{200, 2, true, 0.6}));

// The incomplete global stage must split into the round-based stages for
// multi-executor configs (visible as [candidates]/[validate]/[finalize]
// entries in operator_ms) and stay a single task with one executor.
TEST(ParallelIncompleteGlobal, StageSplitsForMultipleExecutors) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 1500, 3, datagen::PointDistribution::kAntiCorrelated, 11,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  auto metrics_for = [&](const char* execs) {
    SL_CHECK_OK(session.SetConf("sparkline.executors", execs));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  };

  const QueryMetrics multi = metrics_for("4");
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete]"), 0u)
      << "incomplete global stage still runs as a single task with 4 executors";
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [candidates]"),
            1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [validate]"),
            1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [finalize]"),
            1u);

  const QueryMetrics single = metrics_for("1");
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [incomplete]"), 1u);
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [incomplete] [candidates]"),
            0u);
}

// The parallel partial-merge global stage (the tentpole of the columnar
// PR): with multiple executors the complete global skyline must run as a
// parallel partial stage plus a single-task merge — not as one single task.
TEST(ParallelGlobalMerge, GlobalStageSplitsForMultipleExecutors) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 2000, 3, datagen::PointDistribution::kAntiCorrelated, 7)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  auto metrics_for = [&](const char* execs) {
    SL_CHECK_OK(session.SetConf("sparkline.executors", execs));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  };

  const QueryMetrics multi = metrics_for("4");
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete]"), 0u)
      << "global stage still runs as a single task with 4 executors";
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete] [partial]"), 1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete] [merge]"), 1u);

  const QueryMetrics single = metrics_for("1");
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [complete]"), 1u);
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [complete] [partial]"), 0u);
}

// --- columnar exchange: build-once accounting -------------------------------

int64_t BuildsMatching(const QueryMetrics& m, const std::string& needle) {
  int64_t total = 0;
  for (const auto& [label, n] : m.matrix_builds) {
    if (label.find(needle) != std::string::npos) total += n;
  }
  return total;
}

QueryMetrics RunWithExecutors(Session* session, const std::string& query,
                              const char* executors) {
  SL_CHECK_OK(session->SetConf("sparkline.executors", executors));
  auto df = session->Sql(query);
  SL_CHECK(df.ok());
  auto r = df->Collect();
  SL_CHECK(r.ok()) << r.status().ToString();
  return r->metrics;
}

// The columnar exchange's invariant: a multi-executor complete plan projects
// each partition's DominanceMatrix exactly once (at the local stage) and no
// global stage — in particular "[merge]" — ever rebuilds.
TEST(ColumnarExchange, CompletePlanBuildsEachPartitionOnce) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 2000, 3, datagen::PointDistribution::kAntiCorrelated, 21)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  const QueryMetrics on = RunWithExecutors(&session, query, "4");
  EXPECT_EQ(BuildsMatching(on, "LocalSkyline"), 4)
      << "each of the 4 scan partitions must be projected exactly once";
  EXPECT_EQ(BuildsMatching(on, "GlobalSkyline"), 0)
      << "no global stage may re-project with the exchange on";
  EXPECT_EQ(on.matrix_builds.count("GlobalSkyline [complete] [merge]"), 0u)
      << "[merge] must report zero matrix rebuilds";
  EXPECT_GE(on.matrix_reuses.count("GlobalSkyline [complete]"), 1u)
      << "the global stage must record that it reused the shuffled matrix";
  EXPECT_GE(on.matrix_reuses.count("Exchange [AllTuples]"), 1u)
      << "the gather must record a block concat instead of a re-projection";
  EXPECT_GT(on.projection_ms, 0.0);
}

// Same invariant for the incomplete pipeline: the round-based global stage
// (candidates/validate/finalize) runs entirely on the matrix shipped by the
// exchange.
TEST(ColumnarExchange, IncompletePlanReusesShuffledMatrix) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 1200, 3, datagen::PointDistribution::kAntiCorrelated, 31,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  const QueryMetrics on = RunWithExecutors(&session, query, "4");
  EXPECT_GT(BuildsMatching(on, "LocalSkyline"), 0);
  EXPECT_EQ(BuildsMatching(on, "GlobalSkyline"), 0)
      << "the incomplete global stages must reuse the shuffled matrix";
  EXPECT_GE(on.matrix_reuses.count("GlobalSkyline [incomplete]"), 1u);
}

// A nested skyline under the non-distributed strategy feeds the inner
// skyline's single-partition output (a batch projected for the *inner*
// dimensions) directly into the outer global operator — which must detect
// the dimension mismatch and re-project instead of reusing a matrix that
// encodes the wrong columns.
TEST(ColumnarExchange, NestedSkylineWithDifferentDimsReprojects) {
  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", 600, 3, datagen::PointDistribution::kAntiCorrelated, 17);
  ASSERT_OK(session.catalog()->RegisterTable(table));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  const std::string nested =
      "SELECT * FROM (SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX) t "
      "SKYLINE OF d2 MIN, d1 MIN";
  // Column 0 is the id; d0..d2 are ordinals 1..3.
  const std::vector<Row> inner = skyline::BruteForceSkyline(
      table->rows(), {{1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}}, {});
  const std::vector<std::string> expected =
      RowStrings(skyline::BruteForceSkyline(
          inner, {{3, SkylineGoal::kMin}, {2, SkylineGoal::kMin}}, {}));

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  auto df = session.Sql(nested);
  ASSERT_TRUE(df.ok());
  auto result = df->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(expected, RowStrings(result->rows()));
  EXPECT_EQ(
      result->metrics.matrix_builds.at("GlobalSkyline [complete] [project]"), 2)
      << "the inner stage projects the scan's rows and the outer stage must "
         "re-project the inner skyline's";

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, nested)));
}

// The root decode is the only row materialization on the exchange path: a
// plain skyline query must report decode time and serve exactly the same
// rows, and a query whose skyline feeds a row-consuming operator (ORDER BY)
// must fall back transparently.
TEST(ColumnarExchange, RootDecodeAndRowFallback) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 800, 2, datagen::PointDistribution::kAntiCorrelated, 5)));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));

  const std::string plain = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX";
  const std::vector<std::string> expected = RowStrings(Rows(&session, plain));
  auto df = session.Sql(plain);
  ASSERT_TRUE(df.ok());
  auto result = df->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.decode_ms, 0.0)
      << "a batched plan must decode (and time it) at the root";

  const std::string sorted =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX ORDER BY id";
  const std::vector<std::string> through_sort =
      RowStrings(Rows(&session, sorted));
  EXPECT_EQ(expected, through_sort)
      << "a row-consuming parent must see identical rows via the fallback";
}

// --- SFS order determinism across the exchange --------------------------------

std::vector<std::string> OrderedRowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(RowToString(r));
  return out;
}

// MergeByScore tie-break determinism, end to end: SFS output order is the
// global stable sort order, so equal-key rows coming from different
// partitions must reproduce the single-partition sequence exactly — the
// result must be bit-identical (order included) across executor counts,
// sort keys and early-stop settings. Low-cardinality values force many
// equal scores, equal min-keys and exact duplicate tuples.
TEST(SfsOrderDeterminism, ExchangeMergeReproducesSinglePartitionOrder) {
  std::vector<std::array<double, 3>> pts;
  for (int i = 0; i < 240; ++i) {
    pts.push_back({static_cast<double>(i), static_cast<double>((i * 7) % 5),
                   static_cast<double>((i * 11) % 5)});
  }
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(
      ::sparkline::testing::MakePointsTable("pts", pts)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));

  for (const char* query :
       {"SELECT x, y FROM pts SKYLINE OF x MIN, y MIN",
        "SELECT x, y FROM pts SKYLINE OF DISTINCT x MIN, y MIN"}) {
    for (const char* sort_key : {"sum", "minmax"}) {
      for (const char* early_stop : {"true", "false"}) {
        ASSERT_OK(session.SetConf("sparkline.skyline.sfs.sort_key", sort_key));
        ASSERT_OK(
            session.SetConf("sparkline.skyline.sfs.early_stop", early_stop));
        ASSERT_OK(session.SetConf("sparkline.executors", "1"));
        const std::vector<std::string> reference =
            OrderedRowStrings(Rows(&session, query));
        ASSERT_FALSE(reference.empty());
        for (const char* executors : {"2", "4", "8"}) {
          ASSERT_OK(session.SetConf("sparkline.executors", executors));
          EXPECT_EQ(reference, OrderedRowStrings(Rows(&session, query)))
              << query << " sort_key=" << sort_key
              << " early_stop=" << early_stop << " executors=" << executors;
        }
      }
    }
  }
}

// --- SFS early termination: metrics and auto-disable --------------------------

// On correlated data the minC stop point must skip a large fraction of the
// input (acceptance bar: >30% of the table rows), visible through the
// sfs_rows_skipped / sfs_early_stops counters, without changing the result.
TEST(SfsEarlyStopEndToEnd, CorrelatedSkylineSkipsAndMatches) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 4000, 3, datagen::PointDistribution::kCorrelated, 77)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.skyline.sfs.sort_key", "minmax"));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN";

  auto run = [&](const char* early_stop) {
    SL_CHECK_OK(
        session.SetConf("sparkline.skyline.sfs.early_stop", early_stop));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return *std::move(r);
  };

  const QueryResult off = run("false");
  EXPECT_EQ(off.metrics.sfs_rows_skipped, 0);
  EXPECT_EQ(off.metrics.sfs_early_stops, 0);

  const QueryResult on = run("true");
  EXPECT_GE(on.metrics.sfs_early_stops, 1);
  EXPECT_GT(on.metrics.sfs_rows_skipped, 4000 * 3 / 10)
      << "the stop point must skip >30% of a correlated table";
  EXPECT_LT(on.metrics.dominance_tests, off.metrics.dominance_tests)
      << "skipped rows must translate into fewer dominance tests";
  EXPECT_EQ(RowStrings(off.rows()), RowStrings(on.rows()));
}

// With NULLs in the skyline dimensions the stop is unsound and must
// auto-disable: the counters stay zero and results still match the oracle
// (the incomplete pipeline never runs SFS, and the columnar SFS pass
// refuses the stop whenever the matrix carries null bitmaps).
TEST(SfsEarlyStopEndToEnd, AutoDisabledOnIncompleteData) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 800, 3, datagen::PointDistribution::kCorrelated, 78,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.skyline.sfs.early_stop", "true"));
  ASSERT_OK(session.SetConf("sparkline.skyline.sfs.sort_key", "minmax"));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));

  auto df = session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN");
  ASSERT_TRUE(df.ok());
  auto result = df->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.sfs_rows_skipped, 0);
  EXPECT_EQ(result->metrics.sfs_early_stops, 0);

  std::vector<skyline::BoundDimension> oracle_dims{
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMin}};
  skyline::SkylineOptions oracle_options;
  oracle_options.nulls = skyline::NullSemantics::kIncomplete;
  EXPECT_EQ(RowStrings(result->rows()),
            RowStrings(skyline::BruteForceSkyline(
                ::sparkline::testing::Rows(&session, "SELECT * FROM pts"),
                oracle_dims, oracle_options)));
}

}  // namespace
}  // namespace sparkline
