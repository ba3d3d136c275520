// End-to-end SQL tests, centered on the paper's correctness verification
// (section 5.9): the integrated SKYLINE OF result must equal the equivalent
// plain-SQL NOT EXISTS query, for every algorithm, across dimension counts
// and data distributions.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "skyline/reference.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;

/// Builds the Listing-4 rewriting for the first `dims` d0..d{n-1} MIN
/// dimensions of a GeneratePoints table.
std::string ReferenceSql(const std::string& table, size_t dims) {
  std::vector<std::string> cols, nonstrict, strict;
  for (size_t d = 0; d < dims; ++d) {
    const std::string c = StrCat("d", d);
    cols.push_back(c);
    nonstrict.push_back(StrCat("i.", c, " <= o.", c));
    strict.push_back(StrCat("i.", c, " < o.", c));
  }
  return StrCat("SELECT id, ", JoinStrings(cols, ", "), " FROM ", table,
                " AS o WHERE NOT EXISTS(SELECT * FROM ", table, " AS i WHERE ",
                JoinStrings(nonstrict, " AND "), " AND (",
                JoinStrings(strict, " OR "), "))");
}

std::string SkylineSql(const std::string& table, size_t dims, bool complete) {
  std::vector<std::string> cols, items;
  for (size_t d = 0; d < dims; ++d) {
    cols.push_back(StrCat("d", d));
    items.push_back(StrCat("d", d, " MIN"));
  }
  return StrCat("SELECT id, ", JoinStrings(cols, ", "), " FROM ", table,
                " SKYLINE OF ", complete ? "COMPLETE " : "",
                JoinStrings(items, ", "));
}

struct E2eParam {
  size_t dims;
  datagen::PointDistribution dist;
  size_t rows;
  uint64_t seed;
};

class SkylineVsReference : public ::testing::TestWithParam<E2eParam> {};

TEST_P(SkylineVsReference, AllStrategiesMatchThePlainSqlRewriting) {
  const auto& p = GetParam();
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  ASSERT_OK(session.catalog()->RegisterTable(
      datagen::GeneratePoints("pts", p.rows, p.dims, p.dist, p.seed)));

  auto reference = Rows(&session, ReferenceSql("pts", p.dims));
  for (const char* strategy :
       {"auto", "distributed", "non_distributed", "incomplete"}) {
    ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
    auto rows = Rows(&session, SkylineSql("pts", p.dims, false));
    EXPECT_SAME_ROWS(reference, rows) << "strategy " << strategy;
  }
  // The mechanized reference rewriting must agree too.
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  auto rewritten = Rows(&session, SkylineSql("pts", p.dims, false));
  EXPECT_SAME_ROWS(reference, rewritten);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SkylineVsReference,
    ::testing::Values(
        E2eParam{1, datagen::PointDistribution::kIndependent, 300, 1},
        E2eParam{2, datagen::PointDistribution::kIndependent, 400, 2},
        E2eParam{2, datagen::PointDistribution::kCorrelated, 400, 3},
        E2eParam{2, datagen::PointDistribution::kAntiCorrelated, 200, 4},
        E2eParam{3, datagen::PointDistribution::kIndependent, 300, 5},
        E2eParam{3, datagen::PointDistribution::kAntiCorrelated, 150, 6},
        E2eParam{4, datagen::PointDistribution::kCorrelated, 300, 7},
        E2eParam{5, datagen::PointDistribution::kIndependent, 200, 8}));

class IncompleteOracle : public ::testing::TestWithParam<E2eParam> {};

TEST_P(IncompleteOracle, AutoStrategyMatchesBruteForceOnIncompleteData) {
  // On incomplete data the plain-SQL rewriting computes *different*
  // semantics (NULL comparisons are UNKNOWN, so null-restricted dominance
  // never fires); the integrated algorithm must instead match the paper's
  // Definition via the brute-force oracle.
  const auto& p = GetParam();
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  auto table = datagen::GeneratePoints("pts", p.rows, p.dims, p.dist, p.seed,
                                       /*null_rate=*/0.25);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  auto rows = Rows(&session, SkylineSql("pts", p.dims, false));

  std::vector<skyline::BoundDimension> dims;
  for (size_t d = 0; d < p.dims; ++d) {
    dims.push_back({d + 1, SkylineGoal::kMin});  // column 0 is the id
  }
  skyline::SkylineOptions opts;
  opts.nulls = skyline::NullSemantics::kIncomplete;
  auto oracle = skyline::BruteForceSkyline(table->rows(), dims, opts);
  EXPECT_SAME_ROWS(rows, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, IncompleteOracle,
    ::testing::Values(
        E2eParam{2, datagen::PointDistribution::kIndependent, 300, 11},
        E2eParam{3, datagen::PointDistribution::kIndependent, 250, 12},
        E2eParam{3, datagen::PointDistribution::kAntiCorrelated, 150, 13},
        E2eParam{4, datagen::PointDistribution::kIndependent, 200, 14}));

TEST(SqlE2eTest, SkylineDistinctCollapsesDuplicates) {
  Session session;
  Schema s({Field{"a", DataType::Int64(), false},
            Field{"b", DataType::Int64(), false}});
  auto t = std::make_shared<Table>("dup", s);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(t->AppendRow({Value::Int64(1), Value::Int64(1)}));
  }
  ASSERT_OK(t->AppendRow({Value::Int64(0), Value::Int64(2)}));
  ASSERT_OK(session.catalog()->RegisterTable(t));
  auto plain = Rows(&session, "SELECT * FROM dup SKYLINE OF a MIN, b MIN");
  EXPECT_EQ(plain.size(), 4u);  // duplicates are all in the skyline
  auto distinct =
      Rows(&session, "SELECT * FROM dup SKYLINE OF DISTINCT a MIN, b MIN");
  EXPECT_EQ(distinct.size(), 2u);
}

TEST(SqlE2eTest, SkylineOverFilteredInput) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 500, 2, datagen::PointDistribution::kIndependent, 21)));
  auto rows = Rows(&session,
                   "SELECT id, d0, d1 FROM pts WHERE d0 > 0.5 "
                   "SKYLINE OF d0 MIN, d1 MIN");
  for (const auto& r : rows) EXPECT_GT(r[1].double_value(), 0.5);
  // Skyline of the filtered set computed independently.
  auto all = Rows(&session, "SELECT id, d0, d1 FROM pts WHERE d0 > 0.5");
  std::vector<skyline::BoundDimension> dims{{1, SkylineGoal::kMin},
                                            {2, SkylineGoal::kMin}};
  auto oracle = skyline::BruteForceSkyline(all, dims, {});
  EXPECT_SAME_ROWS(rows, oracle);
}

TEST(SqlE2eTest, SkylineWithMaxAndMinGoals) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(
      datagen::GeneratePoints("pts", 400, 2,
                              datagen::PointDistribution::kIndependent, 31)));
  auto rows = Rows(&session,
                   "SELECT id, d0, d1 FROM pts SKYLINE OF d0 MIN, d1 MAX");
  auto all = Rows(&session, "SELECT id, d0, d1 FROM pts");
  std::vector<skyline::BoundDimension> dims{{1, SkylineGoal::kMin},
                                            {2, SkylineGoal::kMax}};
  EXPECT_SAME_ROWS(rows, skyline::BruteForceSkyline(all, dims, {}));
}

TEST(SqlE2eTest, SkylineWithDiffGoal) {
  Session session;
  Schema s({Field{"grp", DataType::Int64(), false},
            Field{"x", DataType::Double(), false}});
  auto t = std::make_shared<Table>("g", s);
  for (int grp = 0; grp < 3; ++grp) {
    for (int x = 0; x < 4; ++x) {
      ASSERT_OK(t->AppendRow({Value::Int64(grp), Value::Double(x)}));
    }
  }
  ASSERT_OK(session.catalog()->RegisterTable(t));
  auto rows = Rows(&session, "SELECT * FROM g SKYLINE OF grp DIFF, x MIN");
  // One minimum per DIFF group.
  EXPECT_EQ(rows.size(), 3u);
  for (const auto& r : rows) EXPECT_DOUBLE_EQ(r[1].double_value(), 0.0);
}

TEST(SqlE2eTest, SkylineOnAggregatedData) {
  Session session;
  Schema s({Field{"city", DataType::String(), false},
            Field{"price", DataType::Double(), false},
            Field{"rating", DataType::Double(), false}});
  auto t = std::make_shared<Table>("hotels", s);
  const std::vector<std::tuple<const char*, double, double>> data = {
      {"a", 100, 4.0}, {"a", 200, 5.0}, {"b", 50, 3.0},
      {"b", 150, 4.5}, {"c", 300, 4.8}, {"c", 100, 3.5}};
  for (auto& [c, p, r] : data) {
    ASSERT_OK(t->AppendRow(
        {Value::String(c), Value::Double(p), Value::Double(r)}));
  }
  ASSERT_OK(session.catalog()->RegisterTable(t));
  // Skyline over per-city aggregates: min price MIN, avg rating MAX.
  auto rows = Rows(&session,
                   "SELECT city, min(price) AS cheapest FROM hotels "
                   "GROUP BY city "
                   "SKYLINE OF cheapest MIN, avg(rating) MAX ORDER BY city");
  // a: (100, 4.5), b: (50, 3.75), c: (100, 4.15).
  // b dominates nothing (higher avg loses); a vs c: equal price, a has the
  // better average -> c is dominated.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].string_value(), "a");
  EXPECT_EQ(rows[1][0].string_value(), "b");
}

TEST(SqlE2eTest, OrderByAfterSkylineSortsResult) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 200, 2, datagen::PointDistribution::kAntiCorrelated, 41)));
  auto rows = Rows(&session,
                   "SELECT id, d0, d1 FROM pts SKYLINE OF d0 MIN, d1 MIN "
                   "ORDER BY d0");
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][1].double_value(), rows[i][1].double_value());
  }
}

TEST(SqlE2eTest, LimitAfterSkyline) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 200, 2, datagen::PointDistribution::kAntiCorrelated, 51)));
  auto rows = Rows(&session,
                   "SELECT id FROM pts SKYLINE OF d0 MIN, d1 MIN "
                   "ORDER BY d0 LIMIT 3");
  EXPECT_LE(rows.size(), 3u);
}

TEST(SqlE2eTest, EquivalenceOnAirbnbShapedData) {
  // The paper's section 5.9 check on realistic data: 4 dimensions of the
  // Airbnb schema, integrated vs. rewritten.
  Session session;
  datagen::AirbnbOptions opts;
  opts.num_rows = 800;
  opts.table_name = "listings";
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GenerateAirbnb(opts)));
  auto native = Rows(&session,
                     "SELECT id, price, accommodates FROM listings "
                     "SKYLINE OF price MIN, accommodates MAX");
  auto reference = Rows(
      &session,
      "SELECT id, price, accommodates FROM listings o WHERE NOT EXISTS("
      "SELECT * FROM listings i WHERE i.price <= o.price AND "
      "i.accommodates >= o.accommodates AND "
      "(i.price < o.price OR i.accommodates > o.accommodates))");
  EXPECT_SAME_ROWS(native, reference);
}

TEST(SqlE2eTest, SingleDimRewritePreservesSemantics) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 500, 1, datagen::PointDistribution::kIndependent, 61)));
  auto with = Rows(&session, "SELECT id, d0 FROM pts SKYLINE OF d0 MIN");
  ASSERT_OK(session.SetConf("sparkline.optimizer.singleDimRewrite", "false"));
  auto without = Rows(&session, "SELECT id, d0 FROM pts SKYLINE OF d0 MIN");
  EXPECT_SAME_ROWS(with, without);
}

TEST(SqlE2eTest, JoinPushdownPreservesSemantics) {
  Session session;
  // listings -> hosts FK so the pushdown can fire.
  Schema hosts_schema({Field{"id", DataType::Int64(), false},
                       Field{"since", DataType::Int64(), false}});
  auto hosts = std::make_shared<Table>("hosts", hosts_schema);
  hosts->constraints().primary_key = {"id"};
  for (int i = 1; i <= 20; ++i) {
    ASSERT_OK(hosts->AppendRow({Value::Int64(i), Value::Int64(2000 + i)}));
  }
  ASSERT_OK(session.catalog()->RegisterTable(hosts));

  Schema ls({Field{"id", DataType::Int64(), false},
             Field{"price", DataType::Double(), false},
             Field{"rating", DataType::Double(), false},
             Field{"host", DataType::Int64(), false}});
  auto listings = std::make_shared<Table>("listings", ls);
  listings->constraints().foreign_keys.push_back(TableConstraints::ForeignKey{
      {"host"}, "hosts", {"id"}, true});
  Rng rng(71);
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(listings->AppendRow(
        {Value::Int64(i), Value::Double(rng.Uniform(10, 500)),
         Value::Double(rng.Uniform(1, 5)), Value::Int64(rng.UniformInt(1, 20))}));
  }
  ASSERT_OK(session.catalog()->RegisterTable(listings));

  const std::string q =
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id "
      "SKYLINE OF l.price MIN, l.rating MAX";
  auto with = Rows(&session, q);
  ASSERT_OK(
      session.SetConf("sparkline.optimizer.skylineJoinPushdown", "false"));
  auto without = Rows(&session, q);
  EXPECT_SAME_ROWS(with, without);
}

TEST(SqlE2eTest, ListingOneHotelQueryVerbatim) {
  // Listing 1 of the paper, byte-for-byte modulo whitespace.
  Session session;
  Schema s({Field{"price", DataType::Double(), false},
            Field{"user_rating", DataType::Double(), false}});
  auto t = std::make_shared<Table>("hotels", s);
  ASSERT_OK(t->AppendRow({Value::Double(100), Value::Double(4.0)}));
  ASSERT_OK(t->AppendRow({Value::Double(80), Value::Double(4.5)}));
  ASSERT_OK(t->AppendRow({Value::Double(120), Value::Double(3.0)}));
  ASSERT_OK(session.catalog()->RegisterTable(t));
  auto rows = Rows(&session,
                   "SELECT price, user_rating FROM hotels AS o WHERE "
                   "NOT EXISTS( SELECT * FROM hotels AS i WHERE "
                   "i.price <= o.price AND i.user_rating >= o.user_rating "
                   "AND ( i.price < o.price OR i.user_rating > o.user_rating "
                   ") )");
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].double_value(), 80);
}

TEST(SqlE2eTest, ExplainAnalyzeRendersAnnotatedPlan) {
  Session session;
  TablePtr table = datagen::GeneratePoints(
      "eapts", 300, 3, datagen::PointDistribution::kIndependent, 11);
  ASSERT_OK(session.catalog()->RegisterTable(table));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));

  auto df = session.Sql(
      "EXPLAIN ANALYZE SELECT id, d0, d1, d2 FROM eapts "
      "SKYLINE OF d0 MIN, d1 MIN, d2 MIN");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  auto result = df->Collect();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One row, one "plan" string column.
  ASSERT_EQ(result->attrs.size(), 1u);
  EXPECT_EQ(result->attrs[0].name, "plan");
  ASSERT_EQ(result->rows().size(), 1u);
  const std::string text = result->rows()[0][0].ToString();
  EXPECT_NE(text.find("== Physical Plan (analyzed) =="), std::string::npos);
  EXPECT_NE(text.find("== Stage breakdown =="), std::string::npos);
  EXPECT_NE(text.find("== Query metrics =="), std::string::npos);
  EXPECT_NE(text.find("Skyline"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan eapts"), std::string::npos) << text;

  // The per-stage latencies must sum (exactly: both sides are written by
  // AddStageTime) to the simulated critical-path total.
  double stage_sum = 0;
  for (const auto& [label, ms] : result->metrics.operator_ms) stage_sum += ms;
  EXPECT_NEAR(stage_sum, result->metrics.simulated_ms, 1e-6);
}

TEST(SqlE2eTest, ExplainAnalyzeBypassesTheResultCache) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "eacache", 100, 2, datagen::PointDistribution::kIndependent, 3)));
  const std::string q =
      "EXPLAIN ANALYZE SELECT id, d0, d1 FROM eacache SKYLINE OF d0 MIN, "
      "d1 MIN";
  for (int i = 0; i < 2; ++i) {
    auto df = session.Sql(q);
    ASSERT_TRUE(df.ok()) << df.status().ToString();
    auto result = df->Collect();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Always re-executed: the annotations ARE the point of the statement.
    EXPECT_FALSE(result->metrics.cache_hit) << "iteration " << i;
    EXPECT_GT(result->metrics.simulated_ms, 0.0);
  }
}

}  // namespace
}  // namespace sparkline
