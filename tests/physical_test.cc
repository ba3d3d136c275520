// Tests for the physical operators and the distributed execution engine:
// partitioning, exchanges, joins, aggregation phases, skyline operators,
// metrics and timeouts.
#include <cmath>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "exec/planner.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::MakePointsTable;
using ::sparkline::testing::Rows;

class PhysicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>();
    ASSERT_OK(session_->SetConf("sparkline.executors", "3"));
    ASSERT_OK(session_->catalog()->RegisterTable(MakePointsTable(
        "pts",
        {{1, 1, 5}, {2, 2, 4}, {3, 3, 3}, {4, 4, 2}, {5, 5, 1}, {6, 2, 2}})));
    Schema kv({Field{"k", DataType::Int64(), false},
               Field{"v", DataType::Double(), true}});
    auto kvt = std::make_shared<Table>("kv", kv);
    ASSERT_OK(kvt->AppendRow({Value::Int64(1), Value::Double(10)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(1), Value::Double(20)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(2), Value::Double(30)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(3), Value::Null(DataType::Double())}));
    ASSERT_OK(session_->catalog()->RegisterTable(kvt));
  }

  PhysicalPlanPtr Physical(const std::string& sql) {
    auto plan = ParseSql(sql);
    SL_CHECK(plan.ok());
    auto analyzed = session_->Analyze(*plan);
    SL_CHECK(analyzed.ok()) << analyzed.status().ToString();
    auto optimized = session_->Optimize(*analyzed);
    SL_CHECK(optimized.ok());
    auto physical = session_->PlanPhysical(*optimized);
    SL_CHECK(physical.ok()) << physical.status().ToString();
    return *physical;
  }

  QueryMetrics Metrics(const std::string& sql) {
    auto df = session_->Sql(sql);
    SL_CHECK(df.ok()) << df.status().ToString();
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  }

  std::unique_ptr<Session> session_;
};

TEST_F(PhysicalTest, ScanSplitsIntoExecutorPartitions) {
  auto physical = Physical("SELECT id, x, y FROM pts");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->partitions.size(), 3u);
  EXPECT_EQ(rel->TotalRows(), 6u);
}

TEST_F(PhysicalTest, FilterAndProject) {
  auto rows = Rows(session_.get(), "SELECT id * 10 AS i FROM pts WHERE x <= 2");
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(PhysicalTest, SortOrdersAndNullPlacement) {
  auto rows = Rows(session_.get(), "SELECT v FROM kv ORDER BY v DESC");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0][0].double_value(), 30);
  EXPECT_TRUE(rows[3][0].is_null());  // DESC defaults to NULLS LAST
  auto rows2 =
      Rows(session_.get(), "SELECT v FROM kv ORDER BY v ASC NULLS FIRST");
  EXPECT_TRUE(rows2[0][0].is_null());
}

TEST_F(PhysicalTest, Limit) {
  auto rows = Rows(session_.get(), "SELECT id FROM pts ORDER BY id LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, GlobalAggregates) {
  auto rows = Rows(session_.get(),
                   "SELECT count(*), count(v), sum(v), min(v), max(v), avg(v) "
                   "FROM kv");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 4);
  EXPECT_EQ(rows[0][1].int64_value(), 3);  // count skips NULL
  EXPECT_DOUBLE_EQ(rows[0][2].double_value(), 60);
  EXPECT_DOUBLE_EQ(rows[0][3].double_value(), 10);
  EXPECT_DOUBLE_EQ(rows[0][4].double_value(), 30);
  EXPECT_DOUBLE_EQ(rows[0][5].double_value(), 20);
}

TEST_F(PhysicalTest, GlobalAggregateOnEmptyInput) {
  auto rows = Rows(session_.get(),
                   "SELECT count(*), sum(v) FROM kv WHERE k > 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(PhysicalTest, GroupedAggregates) {
  auto rows =
      Rows(session_.get(), "SELECT k, sum(v) FROM kv GROUP BY k ORDER BY k");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), 30);  // k=1
  EXPECT_DOUBLE_EQ(rows[1][1].double_value(), 30);  // k=2
  EXPECT_TRUE(rows[2][1].is_null());                // k=3: only NULL input
}

TEST_F(PhysicalTest, CountDistinct) {
  auto rows = Rows(session_.get(), "SELECT count(DISTINCT k) FROM kv");
  EXPECT_EQ(rows[0][0].int64_value(), 3);
}

TEST_F(PhysicalTest, TwoPhaseMatchesSinglePartition) {
  // The same aggregation with 1 executor (single partition, partial==final
  // trivial) and 3 executors (real partial/final merge) must agree.
  auto multi =
      Rows(session_.get(), "SELECT k, avg(v), count(*) FROM kv GROUP BY k");
  ASSERT_OK(session_->SetConf("sparkline.executors", "1"));
  auto single =
      Rows(session_.get(), "SELECT k, avg(v), count(*) FROM kv GROUP BY k");
  EXPECT_SAME_ROWS(multi, single);
}

TEST_F(PhysicalTest, HashJoinInnerAndLeftOuter) {
  auto inner = Rows(session_.get(),
                    "SELECT p.id, kv.v FROM pts p JOIN kv ON p.id = kv.k");
  EXPECT_EQ(inner.size(), 4u);  // ids 1 (x2), 2, 3
  auto left = Rows(
      session_.get(),
      "SELECT p.id, kv.v FROM pts p LEFT OUTER JOIN kv ON p.id = kv.k "
      "ORDER BY p.id");
  EXPECT_EQ(left.size(), 7u);  // 6 pts + one duplicate for id=1
  // ids 4..6 have no partner -> NULL v.
  EXPECT_TRUE(left.back()[1].is_null());
}

TEST_F(PhysicalTest, NullKeysNeverMatch) {
  Schema s({Field{"k", DataType::Int64(), true}});
  auto t = std::make_shared<Table>("nullkeys", s);
  ASSERT_OK(t->AppendRow({Value::Null(DataType::Int64())}));
  ASSERT_OK(t->AppendRow({Value::Int64(1)}));
  ASSERT_OK(session_->catalog()->RegisterTable(t));
  auto rows = Rows(session_.get(),
                   "SELECT a.k FROM nullkeys a JOIN nullkeys b ON a.k = b.k");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(PhysicalTest, NestedLoopSemiAndAntiJoin) {
  auto semi = Rows(session_.get(),
                   "SELECT id FROM pts o WHERE EXISTS("
                   "SELECT * FROM pts i WHERE i.x < o.x)");
  EXPECT_EQ(semi.size(), 5u);  // all but the x-minimum
  auto anti = Rows(session_.get(),
                   "SELECT id FROM pts o WHERE NOT EXISTS("
                   "SELECT * FROM pts i WHERE i.x < o.x)");
  EXPECT_EQ(anti.size(), 1u);
  EXPECT_EQ(anti[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, CrossJoinCounts) {
  auto rows = Rows(session_.get(),
                   "SELECT p.id FROM pts p CROSS JOIN kv");
  EXPECT_EQ(rows.size(), 24u);  // 6 * 4
}

TEST_F(PhysicalTest, SkylinePhysicalPlanShape) {
  auto physical = Physical(
      "SELECT x, y FROM pts SKYLINE OF x MIN, y MIN");
  const std::string tree = physical->TreeString();
  EXPECT_NE(tree.find("LocalSkyline"), std::string::npos);
  EXPECT_NE(tree.find("GlobalSkyline [complete]"), std::string::npos);
  EXPECT_NE(tree.find("Exchange [AllTuples]"), std::string::npos);
}

TEST_F(PhysicalTest, SkylineStrategiesAgreeOnCompleteData) {
  const std::string q = "SELECT x, y FROM pts SKYLINE OF x MIN, y MIN";
  auto auto_rows = Rows(session_.get(), q);
  for (const char* strategy : {"distributed", "non_distributed", "incomplete",
                               "reference"}) {
    ASSERT_OK(session_->SetConf("sparkline.skyline.strategy", strategy));
    auto rows = Rows(session_.get(), q);
    EXPECT_SAME_ROWS(auto_rows, rows) << "strategy " << strategy;
  }
  ASSERT_OK(session_->SetConf("sparkline.skyline.strategy", "auto"));
  // {1,5},{2,4},{3,3},{4,2},{5,1},{2,2}: (2,2) dominates (2,4), (3,3) and
  // (4,2), leaving {(1,5), (2,2), (5,1)}.
  EXPECT_EQ(auto_rows.size(), 3u);
}

TEST_F(PhysicalTest, IncompleteStrategySelectedForNullableDims) {
  auto physical = Physical("SELECT k, v FROM kv SKYLINE OF v MIN, k MIN");
  const std::string tree = physical->TreeString();
  EXPECT_NE(tree.find("GlobalSkyline [incomplete]"), std::string::npos);
  EXPECT_NE(tree.find("Exchange [NullBitmapHash]"), std::string::npos);
}

TEST_F(PhysicalTest, CompleteKeywordForcesCompleteAlgorithm) {
  auto physical =
      Physical("SELECT k, v FROM kv SKYLINE OF COMPLETE v MIN, k MIN");
  EXPECT_NE(physical->TreeString().find("GlobalSkyline [complete]"),
            std::string::npos);
}

TEST_F(PhysicalTest, SkylineOverComputedDimension) {
  auto rows = Rows(session_.get(),
                   "SELECT id, x, y FROM pts SKYLINE OF x + y MIN");
  // x+y minimum is 4 (2,2).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 6);
}

TEST_F(PhysicalTest, MetricsPopulated) {
  auto m = Metrics("SELECT x, y FROM pts SKYLINE OF x MIN, y MIN");
  EXPECT_GT(m.wall_ms, 0.0);
  EXPECT_GT(m.simulated_ms, 0.0);
  EXPECT_GT(m.dominance_tests, 0);
  EXPECT_GT(m.peak_memory_bytes,
            3 * session_->config().cluster.executor_overhead_bytes - 1);
  EXPECT_FALSE(m.operator_ms.empty());
}

TEST_F(PhysicalTest, RowsShuffledCountsExchanges) {
  auto m = Metrics("SELECT x FROM pts ORDER BY x");
  EXPECT_EQ(m.rows_shuffled, 6);
}

TEST_F(PhysicalTest, TimeoutProducesTimeoutStatus) {
  // A cross-join explosion with a 1 ms budget must time out, not hang.
  ASSERT_OK(session_->SetConf("sparkline.timeout_ms", "1"));
  auto big = datagen::GeneratePoints("big", 20000, 2,
                                     datagen::PointDistribution::kIndependent,
                                     5);
  ASSERT_OK(session_->catalog()->RegisterTable(big));
  auto df = session_->Sql(
      "SELECT count(*) FROM big a CROSS JOIN big b WHERE a.d0 < b.d0");
  ASSERT_TRUE(df.ok());
  auto r = df->Collect();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  ASSERT_OK(session_->SetConf("sparkline.timeout_ms", "0"));
}

TEST_F(PhysicalTest, ExecutorCountChangesPartitioning) {
  ASSERT_OK(session_->SetConf("sparkline.executors", "5"));
  auto physical = Physical("SELECT id FROM pts");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->partitions.size(), 5u);
}

TEST_F(PhysicalTest, ScalarSubqueryExecution) {
  auto rows = Rows(session_.get(),
                   "SELECT id FROM pts WHERE x = (SELECT min(x) FROM pts)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, EmptyScalarSubqueryYieldsNull) {
  auto rows = Rows(session_.get(),
                   "SELECT id FROM pts WHERE x = "
                   "(SELECT min(x) FROM pts WHERE x > 100)");
  EXPECT_TRUE(rows.empty());  // NULL comparison filters everything
}

// --- angle partitioning: normalized-key regression ----------------------------

// Rays from the origin: every ray holds a dominance chain (its innermost
// point dominates the rest), so a direction-aware partitioning puts whole
// chains together and local skylines collapse to one point per ray. The
// dimensions are phrased as mixed-scale MAX goals (value = C - coordinate,
// dim 1 scaled by 1000): the pre-fix assignment bucketed raw |value|+1
// magnitudes, so the scaled dimension swamped the angle and every row
// landed in the last bucket.
std::vector<Row> RayRows(size_t rays, size_t per_ray) {
  std::vector<Row> rows;
  constexpr double kPi = 3.141592653589793;
  for (size_t ray = 0; ray < rays; ++ray) {
    const double theta =
        (static_cast<double>(ray) + 0.5) / static_cast<double>(rays) * kPi / 2;
    for (size_t k = 1; k <= per_ray; ++k) {
      const double r = static_cast<double>(k);
      const double x = r * std::cos(theta);
      const double y = r * std::sin(theta);
      // MAX goals: larger stored value = better = smaller underlying
      // coordinate. Dimension 1 uses a 1000x scale.
      rows.push_back(Row{Value::Double(100.0 - x),
                         Value::Double(1000.0 * (100.0 - y))});
    }
  }
  return rows;
}

TEST(AnglePartitionTest, NormalizedKeysSpreadMaxGoalMixedScaleData) {
  const std::vector<Row> rows = RayRows(16, 8);
  const std::vector<skyline::BoundDimension> dims{{0, SkylineGoal::kMax},
                                                  {1, SkylineGoal::kMax}};
  const size_t n = 4;
  const auto bounds = exchange_internal::ComputeAngleBounds({rows}, dims);

  std::vector<std::vector<Row>> angle_parts(n), round_robin(n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t bucket =
        exchange_internal::AnglePartition(rows[i], dims, n, bounds);
    ASSERT_LT(bucket, n);
    angle_parts[bucket].push_back(rows[i]);
    round_robin[i % n].push_back(rows[i]);
  }

  // The pre-fix magnitudes collapsed MAX-goal/mixed-scale data into one
  // bucket; normalized keys must spread it.
  size_t non_empty = 0;
  for (const auto& p : angle_parts) non_empty += p.empty() ? 0 : 1;
  EXPECT_EQ(non_empty, n) << "angle buckets degenerate despite spread data";

  // Pruning power: direction-aligned partitions keep whole dominance
  // chains together, so the shuffled survivor count (the global stage's
  // input) must be strictly smaller than under direction-blind round-robin.
  auto local_survivors = [&](const std::vector<std::vector<Row>>& parts) {
    size_t total = 0;
    for (const auto& part : parts) {
      auto local = skyline::ColumnarSkyline(
          skyline::ColumnarKernel::kBlockNestedLoop, part, dims, {});
      SL_CHECK(local.ok());
      total += local->size();
    }
    return total;
  };
  const size_t angle_total = local_survivors(angle_parts);
  const size_t rr_total = local_survivors(round_robin);
  EXPECT_EQ(angle_total, 16u)
      << "each ray's chain must collapse to its innermost point";
  EXPECT_LT(angle_total, rr_total);
}

}  // namespace
}  // namespace sparkline
