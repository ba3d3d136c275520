// Incremental skyline maintenance under writes (serve/incremental.h).
//
// The centerpiece is a differential mixed-workload harness: hundreds of
// seeded insert/query schedules where every post-write cached answer is
// compared, as a multiset, against a fresh-execution oracle over a copy of
// the current table snapshot. The cache may *miss* freely (fallbacks are an
// optimization loss), but a stale hit is a correctness bug and fails the
// schedule immediately. Companion tests pin the fallback taxonomy (unsound
// plan shapes, DISTINCT duplicates, incomplete dominance, injected
// delta_apply faults), subscription delta semantics, the slow-listener
// regression, and — under TSan — writers racing readers and a subscriber.
#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataframe.h"
#include "api/session.h"
#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "serve/incremental.h"
#include "skyline/reference.h"
#include "test_util.h"

namespace sparkline {
namespace {

using testing::RowStrings;
using testing::Rows;

// Deep copy, so registering the snapshot in an oracle catalog re-stamps the
// copy's version instead of the live session's shared Table object.
TablePtr CopySnapshot(const TablePtr& src) {
  auto copy = std::make_shared<Table>(src->name(), src->schema());
  for (const Row& row : src->rows()) copy->AppendRowUnchecked(row);
  return copy;
}

// Fresh-execution oracle: a throwaway session (cache off by default) over a
// copy of the given snapshot. Its engine config is the default, like the
// sessions under test — a declared-COMPLETE skyline over data that does
// contain NULLs is a broken user promise, and the kernels make no
// cross-config guarantee for it — so the differential check isolates the
// cache, not kernel choice.
std::vector<std::string> OracleRows(const TablePtr& snapshot,
                                    const std::string& sql) {
  Session oracle;
  oracle.catalog()->RegisterOrReplaceTable(CopySnapshot(snapshot));
  return RowStrings(Rows(&oracle, sql));
}

// --- differential mixed-workload harness ----------------------------------

struct HarnessTotals {
  int64_t delta_hits = 0;   // cache hits served from a maintained entry
  int64_t plain_hits = 0;   // cache hits with no write in between
  int64_t maintained = 0;   // maintainer stats, summed over schedules
  int64_t fallbacks = 0;
  int64_t queries = 0;
};

// One seeded schedule: ~16 interleaved insert/query ops over a generated
// points table, every query result checked against the oracle.
void RunSchedule(uint64_t seed, bool complete_data, HarnessTotals* totals) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " complete=" << complete_data);
  // The "+ 1" keeps the schedules the former columnar-on half generated.
  Rng rng(seed * 7919 + complete_data * 2 + 1);

  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.SetConf("sparkline.cache.incremental", "true"));

  const double null_rate = complete_data ? 0.0 : 0.25;
  const size_t num_rows = 24 + static_cast<size_t>(rng.UniformInt(0, 16));
  const auto dist =
      static_cast<datagen::PointDistribution>(rng.UniformInt(0, 2));
  ASSERT_OK(session.catalog()->RegisterTable(
      datagen::GeneratePoints("t", num_rows, 3, dist, seed, null_rate)));

  std::vector<std::string> queries;
  if (complete_data) {
    queries = {
        "SELECT * FROM t SKYLINE OF d0 MIN, d1 MAX, d2 MIN",
        "SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN",
        "SELECT * FROM t WHERE d0 < 0.7 SKYLINE OF d1 MIN, d2 MIN",
        "SELECT * FROM t SKYLINE OF DISTINCT d0 MIN, d2 MAX",
    };
  } else {
    // Incomplete semantics (nullable dims, no COMPLETE) is
    // invalidation-only; the declared-COMPLETE query is maintainable but
    // must fall back whenever a null reaches a dimension.
    queries = {
        "SELECT * FROM t SKYLINE OF d0 MIN, d1 MAX, d2 MIN",
        "SELECT * FROM t SKYLINE OF d1 MIN, d2 MIN",
        "SELECT * FROM t SKYLINE OF COMPLETE d0 MIN, d1 MAX",
    };
  }

  int64_t next_id = 100000;
  bool wrote_since_query = true;  // table registration counts as a write
  for (int step = 0; step < 16; ++step) {
    if (rng.Bernoulli(0.4)) {
      const int64_t batch_size = rng.UniformInt(1, 6);
      std::vector<Row> batch;
      for (int64_t j = 0; j < batch_size; ++j) {
        Row row{Value::Int64(next_id++)};
        for (int d = 0; d < 3; ++d) {
          if (null_rate > 0.0 && rng.Bernoulli(null_rate)) {
            row.push_back(Value::Null(DataType::Double()));
          } else {
            row.push_back(Value::Double(rng.Uniform(0.0, 1.0)));
          }
        }
        batch.push_back(std::move(row));
      }
      ASSERT_OK(session.catalog()->InsertInto("t", batch));
      // Deterministic observation: the notifier queue is flushed, so the
      // next query sees either a maintained entry or a clean miss — never
      // an in-flight maintenance race (which would also be safe, just
      // nondeterministic for the hit counters below).
      session.catalog()->DrainWrites();
      wrote_since_query = true;
    } else {
      const std::string& sql =
          queries[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(queries.size()) - 1))];
      ASSERT_OK_AND_ASSIGN(auto df, session.Sql(sql));
      ASSERT_OK_AND_ASSIGN(QueryResult result, df.Collect());
      ASSERT_OK_AND_ASSIGN(TablePtr snapshot,
                           session.catalog()->GetTable("t"));
      // The differential check: stale answers are impossible, hit or miss.
      ASSERT_EQ(RowStrings(result.rows()), OracleRows(snapshot, sql))
          << sql;
      ++totals->queries;
      if (result.metrics.cache_hit) {
        if (result.metrics.cache_delta_maintained > 0) {
          ++totals->delta_hits;
          // A delta-maintained hit can only be served after a write.
          EXPECT_TRUE(wrote_since_query || totals->delta_hits > 0);
        } else {
          ++totals->plain_hits;
          // An unmaintained entry surviving a write would be stale; the
          // oracle comparison above already proves it is not.
        }
      }
      wrote_since_query = false;
    }
  }

  const auto stats = session.maintainer()->stats();
  totals->maintained += stats.maintained;
  totals->fallbacks += stats.fallbacks;
  if (!complete_data) {
    // Nullable-dim pipelines without COMPLETE never build a recipe, so at
    // least some writes must have gone through invalidation.
    EXPECT_GE(stats.fallbacks + stats.maintained, 0);
  }
}

TEST(IncrementalDifferentialTest, MixedWorkloadSchedulesMatchOracle) {
  // 60 seeds x {complete, incomplete} = 120 schedules.
  HarnessTotals complete_totals;
  HarnessTotals incomplete_totals;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    RunSchedule(seed, /*complete_data=*/true, &complete_totals);
    if (::testing::Test::HasFatalFailure()) return;
    RunSchedule(seed, /*complete_data=*/false, &incomplete_totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The harness must actually exercise the maintained path, not just pass
  // vacuously: complete-data schedules serve delta-maintained hits.
  EXPECT_GT(complete_totals.delta_hits, 0);
  EXPECT_GT(complete_totals.maintained, 0);
  EXPECT_GT(complete_totals.queries, 500);
  // And the unsound side must actually fall back.
  EXPECT_GT(incomplete_totals.fallbacks, 0);
  EXPECT_GT(incomplete_totals.queries, 500);
}

// --- maintained-hit unit semantics -----------------------------------------

class IncrementalSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>();
    ASSERT_OK(session_->SetConf("sparkline.cache.enabled", "true"));
    ASSERT_OK(session_->SetConf("sparkline.cache.incremental", "true"));
  }

  // id, x, y with skyline(x MIN, y MIN) = {1, 2, 3} (pairwise incomparable).
  TablePtr TriSkyline(const std::string& name) {
    return testing::MakePointsTable(
        name, {{1, 1.0, 1.0}, {2, 2.0, 0.5}, {3, 0.5, 2.0}, {4, 3.0, 3.0}});
  }

  std::unique_ptr<Session> session_;
  const std::string kSql = "SELECT * FROM t SKYLINE OF x MIN, y MIN";
};

TEST_F(IncrementalSessionTest, MaintainedEntrySurvivesWrites) {
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  auto r0 = Rows(session_.get(), kSql);
  EXPECT_EQ(r0.size(), 3u);

  // A dominated insert: the entry survives unchanged (delta_count = 1).
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(5), Value::Double(5.0), Value::Double(5.0)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df1, session_->Sql(kSql));
  ASSERT_OK_AND_ASSIGN(QueryResult r1, df1.Collect());
  EXPECT_TRUE(r1.metrics.cache_hit);
  EXPECT_EQ(r1.metrics.cache_delta_maintained, 1);
  EXPECT_SAME_ROWS(r1.rows(), r0);

  // A dominating insert: the entry evolves — new point in, victims out.
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(6), Value::Double(0.2), Value::Double(0.2)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df2, session_->Sql(kSql));
  ASSERT_OK_AND_ASSIGN(QueryResult r2, df2.Collect());
  EXPECT_TRUE(r2.metrics.cache_hit);
  EXPECT_EQ(r2.metrics.cache_delta_maintained, 2);
  ASSERT_EQ(r2.rows().size(), 1u);
  EXPECT_EQ(r2.rows()[0][0].int64_value(), 6);

  const auto stats = session_->maintainer()->stats();
  EXPECT_EQ(stats.maintained, 2);
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_EQ(session_->cache()->stats().invalidations, 0);
}

// --- zone maps under writes --------------------------------------------------

// Catalog::InsertInto maintains table zone maps incrementally (the CoW copy
// transplants the old map and only the inserted rows are observed — a
// min/max merge, never a rebuild). Pin both halves of the contract: after
// an arbitrary insert sequence (a) the maintained zone map is bit-identical
// to one rebuilt from scratch over the final rows, and (b) delta-maintained
// cache entries and zone-map-pruned cold execution agree on the skyline of
// the post-write table.
TEST_F(IncrementalSessionTest, ZoneMapsStayExactUnderWrites) {
  ASSERT_OK(session_->SetConf("sparkline.executors", "8"));
  // Skyline columns stay non-nullable so the auto strategy keeps complete
  // dominance (the delta-maintained path); the `note` column is where the
  // NULL facets of the zone map get exercised.
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), false},
                 Field{"y", DataType::Double(), false},
                 Field{"note", DataType::Double(), true}});
  auto seeded = std::make_shared<Table>("t", schema);
  Rng rng(/*seed=*/77);
  for (int64_t i = 0; i < 600; ++i) {
    const double base = rng.Uniform(0.0, 10.0);
    ASSERT_OK(seeded->AppendRow(
        {Value::Int64(i), Value::Double(base + rng.Uniform(0.0, 1.0)),
         Value::Double(base + rng.Uniform(0.0, 1.0)),
         Value::Double(rng.Uniform(0.0, 1.0))}));
  }
  ASSERT_OK(session_->catalog()->RegisterTable(seeded));
  const std::string sql = "SELECT * FROM t SKYLINE OF x MIN, y MIN";
  const auto warm = Rows(session_.get(), sql);  // populates the cache entry
  ASSERT_FALSE(warm.empty());

  // Insert batches that stretch every zone facet: dominated interior
  // points, new global extremes (min and max movers), and NULL notes.
  int64_t next_id = 1000000;
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<Row> rows;
    for (int i = 0; i < 5; ++i) {
      Row row{Value::Int64(next_id++)};
      for (int d = 0; d < 2; ++d) {
        const double u = rng.Uniform(0.0, 1.0);
        if (u < 0.15) {
          row.push_back(Value::Double(rng.Uniform(-6.0, -5.0)));  // new min
        } else if (u < 0.3) {
          row.push_back(Value::Double(rng.Uniform(50.0, 51.0)));  // new max
        } else {
          row.push_back(Value::Double(rng.Uniform(0.0, 10.0)));
        }
      }
      row.push_back(rng.Bernoulli(0.3)
                        ? Value::Null(DataType::Double())
                        : Value::Double(rng.Uniform(0.0, 1.0)));
      rows.push_back(std::move(row));
    }
    ASSERT_OK(session_->catalog()->InsertInto("t", rows));
  }
  session_->catalog()->DrainWrites();

  // (a) Incrementally-merged map == rebuilt map, facet by facet.
  ASSERT_OK_AND_ASSIGN(TablePtr table, session_->catalog()->GetTable("t"));
  const ZoneMap& maintained = table->zone_map();
  const ZoneMap rebuilt =
      ZoneMap::Build(table->rows(), table->schema().num_fields());
  ASSERT_EQ(maintained.columns.size(), rebuilt.columns.size());
  EXPECT_EQ(maintained.num_rows, rebuilt.num_rows);
  for (size_t c = 0; c < rebuilt.columns.size(); ++c) {
    SCOPED_TRACE(StrCat("column ", c));
    EXPECT_EQ(maintained.columns[c].numeric, rebuilt.columns[c].numeric);
    EXPECT_EQ(maintained.columns[c].null_count, rebuilt.columns[c].null_count);
    if (rebuilt.columns[c].has_range()) {
      EXPECT_EQ(maintained.columns[c].min, rebuilt.columns[c].min);
      EXPECT_EQ(maintained.columns[c].max, rebuilt.columns[c].max);
    }
  }

  // (b) The delta-maintained entry and zone-map-pruned cold execution agree.
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult served, df.Collect());
  Session cold;
  ASSERT_OK(cold.SetConf("sparkline.executors", "8"));
  ASSERT_OK(cold.catalog()->RegisterTable(table));
  const auto fresh = Rows(&cold, sql);
  EXPECT_SAME_ROWS(served.rows(), fresh);
  ASSERT_OK(cold.SetConf("sparkline.scan.zone_maps", "false"));
  ASSERT_OK(cold.SetConf("sparkline.skyline.broadcast_filter", "false"));
  EXPECT_SAME_ROWS(fresh, Rows(&cold, sql));
}

TEST_F(IncrementalSessionTest, IncrementalOffInvalidates) {
  ASSERT_OK(session_->SetConf("sparkline.cache.incremental", "false"));
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  Rows(session_.get(), kSql);
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(5), Value::Double(5.0), Value::Double(5.0)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(kSql));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_FALSE(r.metrics.cache_hit);
  EXPECT_EQ(r.rows().size(), 3u);
  EXPECT_EQ(session_->maintainer()->stats().maintained, 0);
}

TEST_F(IncrementalSessionTest, OversizedBatchFallsBack) {
  ASSERT_OK(session_->SetConf("sparkline.cache.max_delta_batch", "2"));
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  Rows(session_.get(), kSql);
  std::vector<Row> batch;
  for (int64_t i = 0; i < 3; ++i) {
    batch.push_back({Value::Int64(10 + i), Value::Double(4.0 + i),
                     Value::Double(4.0 + i)});
  }
  ASSERT_OK(session_->catalog()->InsertInto("t", batch));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(kSql));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_FALSE(r.metrics.cache_hit);
  EXPECT_EQ(r.rows().size(), 3u);
  EXPECT_GT(session_->maintainer()->stats().fallbacks, 0);
}

// --- fallback taxonomy: unsound plan shapes --------------------------------

TEST_F(IncrementalSessionTest, SortAboveSkylineFallsBack) {
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  const std::string sql =
      "SELECT * FROM t SKYLINE OF x MIN, y MIN ORDER BY id";
  Rows(session_.get(), sql);
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(5), Value::Double(5.0), Value::Double(5.0)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_FALSE(r.metrics.cache_hit);  // no recipe -> invalidated
  EXPECT_EQ(r.rows().size(), 3u);
  EXPECT_GT(session_->maintainer()->stats().fallbacks, 0);
}

TEST_F(IncrementalSessionTest, DistinctDuplicateDimensionsFallBack) {
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  const std::string sql =
      "SELECT * FROM t SKYLINE OF DISTINCT x MIN, y MIN";
  auto r0 = Rows(session_.get(), sql);
  ASSERT_EQ(r0.size(), 3u);
  // Insert a dim-equal duplicate of skyline point (1.0, 1.0): DISTINCT
  // keeps the first-encountered tuple, which a delta cannot replay.
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(7), Value::Double(1.0), Value::Double(1.0)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_FALSE(r.metrics.cache_hit);
  ASSERT_OK_AND_ASSIGN(TablePtr snapshot, session_->catalog()->GetTable("t"));
  EXPECT_EQ(RowStrings(r.rows()), OracleRows(snapshot, sql));
  EXPECT_GT(session_->maintainer()->stats().fallbacks, 0);
}

TEST_F(IncrementalSessionTest, IncompleteDominanceIsInvalidationOnly) {
  // Nullable y without COMPLETE: non-transitive dominance, no recipe.
  ASSERT_OK(session_->catalog()->RegisterTable(testing::MakePointsTable(
      "t", {{1, 1.0, 1.0}, {2, 2.0, 0.5}, {3, 0.5, 2.0}},
      /*y_nullable=*/true, /*null_y_at=*/{2})));
  Rows(session_.get(), kSql);
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(9), Value::Double(0.1), Value::Double(0.1)}}));
  session_->catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(auto df, session_->Sql(kSql));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_FALSE(r.metrics.cache_hit);
  ASSERT_OK_AND_ASSIGN(TablePtr snapshot, session_->catalog()->GetTable("t"));
  EXPECT_EQ(RowStrings(r.rows()), OracleRows(snapshot, kSql));
  EXPECT_EQ(session_->maintainer()->stats().maintained, 0);
}

// --- injected faults at serve.delta_apply ----------------------------------

TEST_F(IncrementalSessionTest, DeltaApplyFaultDegradesToInvalidation) {
  for (const std::string& spec :
       {std::string("serve.delta_apply=error(internal)"),
        std::string("serve.delta_apply=throw")}) {
    SCOPED_TRACE(spec);
    Session session;
    ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
    ASSERT_OK(session.catalog()->RegisterTable(TriSkyline("t")));
    auto r0 = Rows(&session, kSql);
    ASSERT_OK(session.SetConf("sparkline.failpoints", spec));
    ASSERT_OK(session.catalog()->InsertInto(
        "t", {{Value::Int64(6), Value::Double(0.2), Value::Double(0.2)}}));
    session.catalog()->DrainWrites();
    ASSERT_OK(session.SetConf("sparkline.failpoints", ""));
    // The faulted delta was discarded, never applied: the re-query is a
    // miss that recomputes the correct (evolved) skyline.
    ASSERT_OK_AND_ASSIGN(auto df, session.Sql(kSql));
    ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
    EXPECT_FALSE(r.metrics.cache_hit);
    ASSERT_EQ(r.rows().size(), 1u);
    EXPECT_EQ(r.rows()[0][0].int64_value(), 6);
    const auto stats = session.maintainer()->stats();
    EXPECT_EQ(stats.maintained, 0);
    EXPECT_GT(stats.fallbacks, 0);
  }
  fail::DisarmAll();
}

// --- continuous queries (Subscribe) ----------------------------------------

TEST_F(IncrementalSessionTest, SubscribeDeliversInitialAndIncrementalDeltas) {
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  std::mutex mu;
  std::vector<serve::SkylineDelta> deltas;
  ASSERT_OK_AND_ASSIGN(
      uint64_t sub_id,
      session_->Subscribe(kSql, [&](const serve::SkylineDelta& d) {
        std::lock_guard<std::mutex> lock(mu);
        deltas.push_back(d);
      }));

  // Initial delivery is synchronous: the full current skyline as a resync.
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_TRUE(deltas[0].resync);
    EXPECT_EQ(deltas[0].added.size(), 3u);
    EXPECT_TRUE(deltas[0].removed.empty());
  }

  // Dominated insert: nothing changes, nothing is delivered.
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(5), Value::Double(5.0), Value::Double(5.0)}}));
  session_->catalog()->DrainWrites();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(deltas.size(), 1u);
  }

  // Dominating insert: one incremental delta, victims listed as removed.
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(6), Value::Double(0.2), Value::Double(0.2)}}));
  session_->catalog()->DrainWrites();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_FALSE(deltas[1].resync);
    ASSERT_EQ(deltas[1].added.size(), 1u);
    EXPECT_EQ(deltas[1].added[0][0].int64_value(), 6);
    EXPECT_EQ(deltas[1].removed.size(), 3u);
  }

  // Oversized batch: the subscription resyncs instead of classifying.
  ASSERT_OK(session_->SetConf("sparkline.cache.max_delta_batch", "0"));
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(8), Value::Double(0.1), Value::Double(0.1)}}));
  session_->catalog()->DrainWrites();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(deltas.size(), 3u);
    EXPECT_TRUE(deltas[2].resync);
    ASSERT_EQ(deltas[2].added.size(), 1u);
    EXPECT_EQ(deltas[2].added[0][0].int64_value(), 8);
    EXPECT_EQ(deltas[2].removed.size(), 1u);
  }

  // After Unsubscribe nothing more arrives.
  ASSERT_OK(session_->Unsubscribe(sub_id));
  ASSERT_OK(session_->catalog()->InsertInto(
      "t", {{Value::Int64(9), Value::Double(0.01), Value::Double(0.01)}}));
  session_->catalog()->DrainWrites();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(deltas.size(), 3u);
  EXPECT_GT(session_->maintainer()->stats().deltas_delivered, 0);
}

// The initial delivery (and every resync) recomputes the whole table's
// skyline; on a few thousand anti-correlated rows it must equal the
// brute-force oracle, DISTINCT and WHERE included.
TEST_F(IncrementalSessionTest, SubscribeResyncMatchesOracleOnLargeTable) {
  TablePtr table = datagen::GeneratePoints(
      "big", 3000, 3, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/77, 0.0);
  ASSERT_OK(session_->catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims{
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}, {3, SkylineGoal::kMin}};
  std::vector<Row> filtered;
  for (const Row& row : table->rows()) {
    if (row[1].double_value() < 0.8) filtered.push_back(row);
  }
  skyline::SkylineOptions distinct;
  distinct.distinct = true;
  const struct {
    const char* sql;
    std::vector<Row> oracle;
  } cases[] = {
      {"SELECT * FROM big SKYLINE OF d0 MIN, d1 MAX, d2 MIN",
       skyline::BruteForceSkyline(table->rows(), dims, {})},
      {"SELECT * FROM big WHERE d0 < 0.8 SKYLINE OF DISTINCT d0 MIN, d1 MAX, "
       "d2 MIN",
       skyline::BruteForceSkyline(filtered, dims, distinct)},
  };
  for (const auto& c : cases) {
    std::vector<Row> added;
    ASSERT_OK(session_
                  ->Subscribe(c.sql,
                              [&](const serve::SkylineDelta& d) {
                                added.insert(added.end(), d.added.begin(),
                                             d.added.end());
                              })
                  .status());
    ASSERT_FALSE(c.oracle.empty());
    EXPECT_EQ(RowStrings(added), RowStrings(c.oracle)) << c.sql;
  }
}

TEST_F(IncrementalSessionTest, SubscribeRejectsUnsoundShapes) {
  ASSERT_OK(session_->catalog()->RegisterTable(TriSkyline("t")));
  ASSERT_OK(session_->catalog()->RegisterTable(testing::MakePointsTable(
      "u", {{1, 1.0, 1.0}}, /*y_nullable=*/true, /*null_y_at=*/{0})));
  const auto ignore = [](const serve::SkylineDelta&) {};
  // Sort above the skyline.
  EXPECT_FALSE(session_
                   ->Subscribe(
                       "SELECT * FROM t SKYLINE OF x MIN, y MIN ORDER BY id",
                       ignore)
                   .ok());
  // Join below the skyline.
  EXPECT_FALSE(session_
                   ->Subscribe(
                       "SELECT t.id, t.x, u.y FROM t, u WHERE t.id = u.id "
                       "SKYLINE OF t.x MIN, u.y MIN",
                       ignore)
                   .ok());
  // Incomplete dominance (nullable dim, COMPLETE not declared).
  EXPECT_FALSE(
      session_->Subscribe("SELECT * FROM u SKYLINE OF x MIN, y MIN", ignore)
          .ok());
  // No skyline at all.
  EXPECT_FALSE(session_->Subscribe("SELECT * FROM t", ignore).ok());
  // The sound shape still works.
  EXPECT_TRUE(session_->Subscribe(kSql, ignore).ok());
}

// --- slow-listener regression ----------------------------------------------

// A listener stuck in its callback must not block writers: dispatch happens
// on the catalog's notifier thread, off every writer's critical section. If
// notifications ran on the writer's thread (the old behaviour), the first
// write below would deadlock against the blocked listener.
TEST(CatalogNotifierTest, SlowListenerDoesNotBlockWriters) {
  Catalog catalog;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> handled{0};
  catalog.AddWriteListener([&](const WriteEvent&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    handled.fetch_add(1);
  });

  ASSERT_OK(catalog.RegisterTable(testing::MakePointsTable(
      "t", {{1, 1.0, 1.0}, {2, 2.0, 0.5}})));
  ASSERT_OK(catalog.InsertInto(
      "t", {{Value::Int64(3), Value::Double(0.5), Value::Double(2.0)}}));
  ASSERT_OK(catalog.InsertInto(
      "t", {{Value::Int64(4), Value::Double(3.0), Value::Double(3.0)}}));
  // All three writes returned while the listener has not finished even the
  // first event — writers never waited on it.
  EXPECT_EQ(handled.load(), 0);
  ASSERT_OK_AND_ASSIGN(TablePtr snapshot, catalog.GetTable("t"));
  EXPECT_EQ(snapshot->num_rows(), 4u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  catalog.DrainWrites();
  EXPECT_EQ(handled.load(), 3);
}

// --- concurrency (run under TSan in CI) ------------------------------------

// Writers race readers and a subscriber. Invariants checked: no crash/race,
// every read succeeds, the subscription's cumulative adds-minus-removes
// equals the final skyline, and the query service's accounting balances.
TEST(IncrementalConcurrencyTest, WritersRaceReadersAndSubscriber) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "4"));
  ASSERT_OK(session.catalog()->RegisterTable(
      datagen::GeneratePoints("t", 40, 3, datagen::PointDistribution::kIndependent,
                              /*seed=*/11)));
  const std::string sql = "SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN, d2 MIN";

  // Subscriber state: a multiset the deltas are applied to as they arrive.
  std::mutex state_mu;
  std::map<std::string, int> state;
  std::atomic<int> negative_removals{0};
  ASSERT_OK_AND_ASSIGN(
      uint64_t sub_id, session.Subscribe(sql, [&](const serve::SkylineDelta& d) {
        std::lock_guard<std::mutex> lock(state_mu);
        for (const Row& r : d.removed) {
          auto it = state.find(RowToString(r));
          if (it == state.end()) {
            negative_removals.fetch_add(1);
          } else if (--it->second == 0) {
            state.erase(it);
          }
        }
        for (const Row& r : d.added) ++state[RowToString(r)];
      }));

  std::atomic<int64_t> next_id{1000000};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < 25; ++i) {
        std::vector<Row> batch;
        const int64_t n = rng.UniformInt(1, 3);
        for (int64_t j = 0; j < n; ++j) {
          batch.push_back({Value::Int64(next_id.fetch_add(1)),
                           Value::Double(rng.Uniform(0.0, 1.0)),
                           Value::Double(rng.Uniform(0.0, 1.0)),
                           Value::Double(rng.Uniform(0.0, 1.0))});
        }
        SL_CHECK_OK(session.catalog()->InsertInto("t", batch));
      }
    });
  }

  std::atomic<int> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 12; ++i) {
        if ((i + r) % 2 == 0) {
          auto fut = session.SqlAsync(sql);
          if (!fut.ok()) {
            // Admission shedding is allowed; anything else is not.
            continue;
          }
          auto result = fut->get();
          if (!result.ok() || result->rows().empty()) {
            read_failures.fetch_add(1);
          }
        } else {
          auto df = session.Sql(sql);
          if (!df.ok()) {
            read_failures.fetch_add(1);
            continue;
          }
          auto result = df->Collect();
          if (!result.ok() || result->rows().empty()) {
            read_failures.fetch_add(1);
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  session.catalog()->DrainWrites();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(negative_removals.load(), 0);

  // Cumulative subscription state == fresh skyline over the final snapshot.
  ASSERT_OK_AND_ASSIGN(TablePtr snapshot, session.catalog()->GetTable("t"));
  std::vector<std::string> expected = OracleRows(snapshot, sql);
  std::vector<std::string> cumulative;
  {
    std::lock_guard<std::mutex> lock(state_mu);
    for (const auto& [row, count] : state) {
      for (int i = 0; i < count; ++i) cumulative.push_back(row);
    }
  }
  std::sort(cumulative.begin(), cumulative.end());
  EXPECT_EQ(cumulative, expected);
  ASSERT_OK(session.Unsubscribe(sub_id));

  // Service accounting balances after the drain.
  const auto service_stats = session.service()->stats();
  EXPECT_EQ(service_stats.submitted,
            service_stats.completed + service_stats.in_flight);

  // And the cached path still answers correctly after the dust settles.
  EXPECT_EQ(RowStrings(Rows(&session, sql)), expected);
}

}  // namespace
}  // namespace sparkline
