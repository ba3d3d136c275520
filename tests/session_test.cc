// Tests for the Session facade: configuration keys, catalog management,
// result rendering, explain output and error paths.
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "test_util.h"

namespace sparkline {
namespace {

TEST(SessionConfigTest, ExecutorsBounds) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.executors", "8"));
  EXPECT_EQ(session.config().cluster.num_executors, 8);
  EXPECT_FALSE(session.SetConf("sparkline.executors", "0").ok());
  EXPECT_FALSE(session.SetConf("sparkline.executors", "99999").ok());
  EXPECT_FALSE(session.SetConf("sparkline.executors", "many").ok());
}

TEST(SessionConfigTest, StrategyValues) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  EXPECT_EQ(session.config().skyline_strategy,
            SkylineStrategy::kNonDistributedComplete);
  EXPECT_FALSE(session.config().skyline_reference);
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  EXPECT_TRUE(session.config().skyline_reference);
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
  EXPECT_FALSE(session.config().skyline_reference);
  EXPECT_FALSE(session.SetConf("sparkline.skyline.strategy", "quantum").ok());
}

TEST(SessionConfigTest, BooleanParsing) {
  Session session;
  for (const char* v : {"true", "1", "on"}) {
    EXPECT_OK(session.SetConf("sparkline.optimizer.filterPushdown", v));
    EXPECT_TRUE(session.config().optimizer.filter_pushdown);
  }
  for (const char* v : {"false", "0", "off"}) {
    EXPECT_OK(session.SetConf("sparkline.optimizer.filterPushdown", v));
    EXPECT_FALSE(session.config().optimizer.filter_pushdown);
  }
  EXPECT_FALSE(
      session.SetConf("sparkline.optimizer.filterPushdown", "maybe").ok());
}

TEST(SessionConfigTest, UnknownKeyRejected) {
  Session session;
  auto s = session.SetConf("sparkline.nope", "1");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sparkline.nope"), std::string::npos);
}

// Keys of removed options are rejected as unknown, not silently ignored.
TEST(SessionConfigTest, RetiredAblationKeysAreUnknown) {
  Session session;
  for (const char* key :
       {"sparkline.skyline.columnar", "sparkline.skyline.exchange.columnar",
        "sparkline.skyline.incomplete.parallel"}) {
    for (const char* value : {"true", "false"}) {
      auto s = session.SetConf(key, value);
      ASSERT_FALSE(s.ok()) << key;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key;
      EXPECT_EQ(s.message(), StrCat("unknown configuration key '", key, "'"));
    }
  }
}

TEST(SessionConfigTest, MemoryOverheadInMb) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.memory.executorOverheadMb", "128"));
  EXPECT_EQ(session.config().cluster.executor_overhead_bytes, 128ll << 20);
}

TEST(SessionCatalogTest, RegisterAndDrop) {
  Session session;
  Schema s({Field{"x", DataType::Int64(), false}});
  ASSERT_OK(session.catalog()->RegisterTable(std::make_shared<Table>("t", s)));
  EXPECT_FALSE(
      session.catalog()->RegisterTable(std::make_shared<Table>("T", s)).ok());
  EXPECT_TRUE(session.catalog()->HasTable("t"));
  EXPECT_EQ(session.catalog()->ListTables().size(), 1u);
  EXPECT_OK(session.catalog()->DropTable("T"));  // case-insensitive
  EXPECT_FALSE(session.catalog()->HasTable("t"));
  EXPECT_FALSE(session.catalog()->DropTable("t").ok());
}

TEST(SessionTest, SqlParseErrorsSurface) {
  Session session;
  auto r = session.Sql("SELEC 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(SessionTest, AnalysisErrorsSurface) {
  Session session;
  auto r = session.Sql("SELECT x FROM missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAnalysisError);
}

TEST(QueryResultTest, ToStringRendersTable) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 3, 1, datagen::PointDistribution::kIndependent, 1)));
  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Table("p"));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  const std::string rendered = r.ToString();
  EXPECT_NE(rendered.find("| id"), std::string::npos);
  EXPECT_NE(rendered.find("+"), std::string::npos);
  // Truncation notice.
  const std::string truncated = r.ToString(1);
  EXPECT_NE(truncated.find("showing 1 of 3"), std::string::npos);
}

TEST(QueryResultTest, SchemaMatchesAttrs) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 2, 2, datagen::PointDistribution::kIndependent, 1)));
  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Table("p"));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_EQ(r.schema().num_fields(), 3u);
  EXPECT_EQ(r.schema().field(1).name, "d0");
}

TEST(QueryResultTest, MetricsToStringMentionsEverything) {
  QueryMetrics m;
  m.wall_ms = 12.5;
  m.simulated_ms = 7.25;
  m.peak_memory_bytes = 5 << 20;
  m.dominance_tests = 42;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("wall="), std::string::npos);
  EXPECT_NE(s.find("simulated="), std::string::npos);
  EXPECT_NE(s.find("dominance_tests=42"), std::string::npos);
}

TEST(SessionTest, ExplainListsAllPipelineStages) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 10, 2, datagen::PointDistribution::kIndependent, 1)));
  auto df = session.Sql("SELECT * FROM p SKYLINE OF d0 MIN, d1 MIN");
  ASSERT_TRUE(df.ok());
  ASSERT_OK_AND_ASSIGN(ExplainInfo info, df->Explain());
  EXPECT_NE(info.analyzed.find("Skyline"), std::string::npos);
  EXPECT_NE(info.optimized.find("Skyline"), std::string::npos);
  EXPECT_NE(info.physical.find("GlobalSkyline"), std::string::npos);
  const std::string all = info.ToString();
  EXPECT_NE(all.find("Analyzed Logical Plan"), std::string::npos);
  EXPECT_NE(all.find("Optimized Logical Plan"), std::string::npos);
  EXPECT_NE(all.find("Physical Plan"), std::string::npos);
}

TEST(SessionTest, IndependentSessionsDoNotShareCatalogs) {
  Session a, b;
  Schema s({Field{"x", DataType::Int64(), false}});
  ASSERT_OK(a.catalog()->RegisterTable(std::make_shared<Table>("t", s)));
  EXPECT_FALSE(b.catalog()->HasTable("t"));
}

TEST(SessionTest, ConfigChangesAffectNextQueryOnly) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 100, 2, datagen::PointDistribution::kIndependent, 2)));
  ASSERT_OK(session.SetConf("sparkline.executors", "2"));
  auto df = session.Sql("SELECT * FROM p");
  ASSERT_TRUE(df.ok());
  ASSERT_OK_AND_ASSIGN(QueryResult r1, df->Collect());
  ASSERT_OK(session.SetConf("sparkline.executors", "7"));
  // The DataFrame is lazily executed, so the new executor count applies.
  ASSERT_OK_AND_ASSIGN(QueryResult r2, df->Collect());
  EXPECT_EQ(r1.num_rows(), r2.num_rows());
  EXPECT_GT(r2.metrics.peak_memory_bytes, r1.metrics.peak_memory_bytes);
}

}  // namespace
}  // namespace sparkline
