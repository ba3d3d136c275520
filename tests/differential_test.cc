// Differential tests for the value shapes a double projection cannot
// represent: BIGINT beyond ±2^53, INT64_MIN/MAX, NaN, ±inf, ±0.0, NULLs and
// exact duplicates. Every configuration the SQL surface offers must agree
// with the brute-force oracle (skyline/reference.h) under one value order —
// Spark's: NaN equals NaN and is greater than every other double, -0.0
// equals 0.0 — and WHERE, ORDER BY, MIN/MAX, DISTINCT and GROUP BY must use
// that same order.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "skyline/reference.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;

constexpr int64_t k53 = int64_t{1} << 53;
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

/// Sorted row strings with every zero printed as +0.0 and every NaN alike:
/// the order treats -0.0/0.0 (and NaN payloads) as one value, so which
/// representative a DISTINCT skyline keeps is unspecified.
std::vector<std::string> Canonical(std::vector<Row> rows) {
  for (Row& row : rows) {
    for (Value& v : row) {
      if (v.is_null() || v.type() != DataType::Double()) continue;
      const double d = v.double_value();
      if (d == 0) v = Value::Double(0.0);
      if (std::isnan(d)) v = Value::Double(kNaN);
    }
  }
  return ::sparkline::testing::RowStrings(rows);
}

/// id, z (BIGINT), y (DOUBLE), b (BIGINT NULL), x (DOUBLE NULL). The rows
/// come in eight contiguous blocks; each block draws its huge BIGINTs from
/// its own disjoint range, so whichever executor count splits the scan, the
/// partitions rank-encode different value sets and the gather must re-rank.
TablePtr MakeExtremeTable(uint64_t seed) {
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"z", DataType::Int64(), false},
                 Field{"y", DataType::Double(), false},
                 Field{"b", DataType::Int64(), true},
                 Field{"x", DataType::Double(), true}});
  auto table = std::make_shared<Table>("ex", schema);
  Rng rng(seed);
  const double specials[] = {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0};
  auto pick_double = [&]() {
    if (rng.Bernoulli(0.4)) {
      return specials[rng.UniformInt(0, 5)];
    }
    return static_cast<double>(rng.UniformInt(0, 3));
  };
  auto pick_bigint = [&](int64_t block) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return k53 + 1 + block * 8 + rng.UniformInt(0, 3);
      case 1:
        return -(k53 + 1 + block * 8 + rng.UniformInt(0, 3));
      case 2:
        return rng.Bernoulli(0.5) ? k53 - 1 : -(k53 - 1);
      case 3:
        if (block == 0) return std::numeric_limits<int64_t>::max();
        if (block == 7) return std::numeric_limits<int64_t>::min();
        return block;
      default:
        return rng.UniformInt(0, 3);
    }
  };
  int64_t id = 0;
  for (int64_t block = 0; block < 8; ++block) {
    for (int r = 0; r < 12; ++r) {
      Row row{Value::Int64(id++), Value::Int64(pick_bigint(block)),
              Value::Double(pick_double()),
              rng.Bernoulli(0.25) ? Value::Null(DataType::Int64())
                                  : Value::Int64(pick_bigint(block)),
              rng.Bernoulli(0.2) ? Value::Null(DataType::Double())
                                 : Value::Double(pick_double())};
      if (rng.Bernoulli(0.15)) {
        SL_CHECK_OK(table->AppendRow(row));  // an exact duplicate
      }
      SL_CHECK_OK(table->AppendRow(std::move(row)));
    }
  }
  return table;
}

struct DiffQuery {
  std::vector<const char*> columns;  // skyline dimension columns
  std::vector<SkylineGoal> goals;
  bool incomplete;  // nullable dimensions: the planner picks incomplete
};

std::string GoalName(SkylineGoal goal) {
  switch (goal) {
    case SkylineGoal::kMin:
      return "MIN";
    case SkylineGoal::kMax:
      return "MAX";
    case SkylineGoal::kDiff:
      break;
  }
  return "DIFF";
}

TEST(ExtremeValueDifferential, EveryConfigurationMatchesOracle) {
  const TablePtr table = MakeExtremeTable(2024);
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<std::string> names = {"id", "z", "y", "b", "x"};

  const std::vector<DiffQuery> queries = {
      {{"z", "y"}, {SkylineGoal::kMin, SkylineGoal::kMax}, false},
      {{"y", "z"}, {SkylineGoal::kMin, SkylineGoal::kDiff}, false},
      {{"b", "x", "y"},
       {SkylineGoal::kMin, SkylineGoal::kMax, SkylineGoal::kMin},
       true},
  };
  int runs = 0;
  for (const DiffQuery& q : queries) {
    std::vector<std::string> items;
    std::vector<skyline::BoundDimension> dims;
    for (size_t d = 0; d < q.columns.size(); ++d) {
      items.push_back(StrCat(q.columns[d], " ", GoalName(q.goals[d])));
      const auto it = std::find(names.begin(), names.end(), q.columns[d]);
      dims.push_back({static_cast<size_t>(it - names.begin()), q.goals[d]});
    }
    const std::vector<const char*> strategies =
        q.incomplete ? std::vector<const char*>{"auto", "incomplete",
                                                "reference"}
                     : std::vector<const char*>{"auto", "distributed",
                                                "non_distributed",
                                                "incomplete", "reference"};
    for (const bool distinct : {false, true}) {
      // DISTINCT keeps one row per dimension-equal group, and which one is
      // unspecified: select only the dimensions so every representative
      // prints alike.
      const std::string select =
          distinct ? JoinStrings(std::vector<std::string>(q.columns.begin(),
                                                          q.columns.end()),
                                 ", ")
                   : "*";
      const std::string sql =
          StrCat("SELECT ", select, " FROM ex SKYLINE OF ",
                 distinct ? "DISTINCT " : "", JoinStrings(items, ", "));
      skyline::SkylineOptions oracle_options;
      oracle_options.distinct = distinct;
      oracle_options.nulls = q.incomplete ? skyline::NullSemantics::kIncomplete
                                          : skyline::NullSemantics::kComplete;
      std::vector<Row> oracle =
          skyline::BruteForceSkyline(table->rows(), dims, oracle_options);
      if (distinct) {
        for (Row& row : oracle) {
          Row projected;
          for (const auto& d : dims) projected.push_back(row[d.ordinal]);
          row = std::move(projected);
        }
      }
      const std::vector<std::string> expected = Canonical(oracle);
      ASSERT_FALSE(expected.empty()) << sql;

      for (const char* strategy : strategies) {
        for (const char* kernel : {"bnl", "sfs", "grid"}) {
          for (const char* partitioning : {"asis", "roundrobin", "angle"}) {
            for (const char* executors : {"1", "3", "8"}) {
              ASSERT_OK(
                  session.SetConf("sparkline.skyline.strategy", strategy));
              ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
              ASSERT_OK(session.SetConf("sparkline.skyline.partitioning",
                                        partitioning));
              ASSERT_OK(session.SetConf("sparkline.executors", executors));
              ASSERT_EQ(expected, Canonical(Rows(&session, sql)))
                  << sql << " strategy=" << strategy << " kernel=" << kernel
                  << " partitioning=" << partitioning
                  << " executors=" << executors;
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 2 * (2 * 5 + 3) * 27);
}

// The NaN probe: before NaN had one order, the skyline of a table with a
// few NaNs in one dimension changed with executor count, kernel and
// strategy. Every configuration must now return the oracle's one answer.
TEST(ExtremeValueDifferential, NaNProbeHasOneAnswer) {
  Session session;
  const std::string sql = "SELECT * FROM probe SKYLINE OF a MIN, b MIN, c MAX";
  const std::vector<skyline::BoundDimension> dims{
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMax}};
  Rng rng(146);
  for (int t = 0; t < 200; ++t) {
    Schema schema({Field{"id", DataType::Int64(), false},
                   Field{"a", DataType::Double(), false},
                   Field{"b", DataType::Double(), false},
                   Field{"c", DataType::Double(), false}});
    auto table = std::make_shared<Table>("probe", schema);
    for (int64_t i = 0; i < 40; ++i) {
      const double a = rng.Bernoulli(0.1) ? kNaN : rng.Uniform(0, 10);
      SL_CHECK_OK(table->AppendRow({Value::Int64(i), Value::Double(a),
                                    Value::Double(rng.Uniform(0, 10)),
                                    Value::Double(rng.Uniform(0, 10))}));
    }
    session.catalog()->RegisterOrReplaceTable(table);
    const std::vector<std::string> expected =
        Canonical(skyline::BruteForceSkyline(table->rows(), dims, {}));
    for (const char* strategy :
         {"distributed", "non_distributed", "incomplete", "reference"}) {
      for (const char* kernel : {"bnl", "sfs", "grid"}) {
        for (const char* executors : {"1", "3", "8"}) {
          ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
          ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
          ASSERT_OK(session.SetConf("sparkline.executors", executors));
          ASSERT_EQ(expected, Canonical(Rows(&session, sql)))
              << "table " << t << " strategy=" << strategy
              << " kernel=" << kernel << " executors=" << executors;
        }
      }
    }
  }
}

class DoubleOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({Field{"id", DataType::Int64(), false},
                   Field{"v", DataType::Double(), false}});
    auto table = std::make_shared<Table>("d", schema);
    const double values[] = {1.0, kNaN, kInf, -kInf, -0.0, 0.0, -kNaN};
    int64_t id = 0;
    for (const double v : values) {
      SL_CHECK_OK(table->AppendRow({Value::Int64(id++), Value::Double(v)}));
    }
    SL_CHECK_OK(session_.catalog()->RegisterTable(table));
  }

  std::vector<Row> Query(const std::string& sql) {
    return Rows(&session_, sql);
  }

  Session session_;
};

TEST_F(DoubleOrderTest, OrderByPutsNaNGreatest) {
  const std::vector<Row> asc = Query("SELECT v FROM d ORDER BY v");
  ASSERT_EQ(asc.size(), 7u);
  EXPECT_EQ(asc[0][0].double_value(), -kInf);
  EXPECT_EQ(asc[4][0].double_value(), kInf);
  EXPECT_TRUE(std::isnan(asc[5][0].double_value()));
  EXPECT_TRUE(std::isnan(asc[6][0].double_value()));

  const std::vector<Row> desc = Query("SELECT v FROM d ORDER BY v DESC");
  EXPECT_TRUE(std::isnan(desc[0][0].double_value()));
  EXPECT_TRUE(std::isnan(desc[1][0].double_value()));
  EXPECT_EQ(desc[2][0].double_value(), kInf);
}

TEST_F(DoubleOrderTest, MinMaxAndComparisonsPutNaNGreatest) {
  const std::vector<Row> agg = Query("SELECT MIN(v), MAX(v) FROM d");
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0][0].double_value(), -kInf);
  EXPECT_TRUE(std::isnan(agg[0][1].double_value()));

  // inf and both NaNs are greater than 1; NaN equals itself.
  EXPECT_EQ(Query("SELECT id FROM d WHERE v > 1").size(), 3u);
  EXPECT_EQ(Query("SELECT id FROM d WHERE v = v").size(), 7u);
  EXPECT_EQ(Query("SELECT id FROM d WHERE v = 0").size(), 2u);
}

TEST_F(DoubleOrderTest, DistinctAndGroupByCollapseNaNs) {
  // -inf, 0 (both zeros), 1, inf, NaN (both payloads).
  EXPECT_EQ(Query("SELECT DISTINCT v FROM d").size(), 5u);
  const std::vector<Row> groups =
      Query("SELECT v, COUNT(*) FROM d GROUP BY v");
  ASSERT_EQ(groups.size(), 5u);
  for (const Row& g : groups) {
    const double v = g[0].double_value();
    const int64_t expected = (std::isnan(v) || v == 0) ? 2 : 1;
    EXPECT_EQ(g[1].int64_value(), expected) << g[0].ToString();
  }
}

// Regression: the Listing-4 rewrite compared NULLs with plain <=, so a
// NULL made the non-strict part unknown and no tuple ever dominated across
// a NULL. On the cycle a < b < c < a every tuple is dominated (paper
// section 3), so the incomplete skyline is empty under every strategy.
TEST(ReferenceRewrite, NullCycleIsEmptyUnderEveryStrategy) {
  Schema schema({Field{"a", DataType::Int64(), true},
                 Field{"b", DataType::Int64(), true},
                 Field{"c", DataType::Int64(), true}});
  auto table = std::make_shared<Table>("cyc", schema);
  const Value null = Value::Null(DataType::Int64());
  SL_CHECK_OK(table->AppendRow({Value::Int64(1), null, Value::Int64(3)}));
  SL_CHECK_OK(table->AppendRow({Value::Int64(2), Value::Int64(1), null}));
  SL_CHECK_OK(table->AppendRow({null, Value::Int64(2), Value::Int64(1)}));
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  for (const char* strategy : {"auto", "incomplete", "reference"}) {
    for (const char* executors : {"1", "3"}) {
      ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
      ASSERT_OK(session.SetConf("sparkline.executors", executors));
      EXPECT_TRUE(
          Rows(&session, "SELECT * FROM cyc SKYLINE OF a MIN, b MIN, c MIN")
              .empty())
          << "strategy=" << strategy << " executors=" << executors;
    }
  }
  // A dominance that only holds across a NULL: (1, NULL) dominates (2, 5)
  // on the one dimension both have.
  auto pair = std::make_shared<Table>(
      "pair", Schema({Field{"a", DataType::Int64(), true},
                      Field{"b", DataType::Int64(), true}}));
  SL_CHECK_OK(pair->AppendRow({Value::Int64(1), null}));
  SL_CHECK_OK(pair->AppendRow({Value::Int64(2), Value::Int64(5)}));
  ASSERT_OK(session.catalog()->RegisterTable(pair));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  const std::vector<Row> rows =
      Rows(&session, "SELECT * FROM pair SKYLINE OF a MIN, b MIN");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

}  // namespace
}  // namespace sparkline
