// Serve-layer tests: plan fingerprinting, the sharded LRU result cache,
// catalog versioning/invalidation, the async QueryService, and an N-thread
// hammer of mixed cached/uncached skyline queries checked against the
// brute-force oracle. A cache hit must be *bit-identical* to uncached
// execution — same rows, same order, in fact the same shared snapshot.
#include <future>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "serve/fingerprint.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "skyline/reference.h"
#include "test_util.h"

namespace sparkline {
namespace {

using serve::FingerprintPlan;
using serve::PlanFingerprint;
using serve::ResultCache;
using ::sparkline::testing::MakePointsTable;
using ::sparkline::testing::RowStrings;

// Fingerprints a SQL string post-analysis.
PlanFingerprint Fingerprint(Session* session, const std::string& sql) {
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << sql << " -> " << df.status().ToString();
  return FingerprintPlan(df->plan());
}

TablePtr SmallPoints(const std::string& name = "pts") {
  return MakePointsTable(name, {{1, 1.0, 9.0},
                                {2, 2.0, 8.0},
                                {3, 3.0, 7.0},
                                {4, 4.0, 6.0},
                                {5, 2.5, 9.5},
                                {6, 0.5, 10.0}});
}

// --- fingerprinting ---------------------------------------------------------

TEST(FingerprintTest, StableAcrossParsesWhitespaceAndAlias) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));

  const std::string base = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";
  PlanFingerprint a = Fingerprint(&session, base);
  EXPECT_TRUE(a.cacheable);
  EXPECT_EQ(a.tables, std::vector<std::string>{"pts"});

  // A second parse mints fresh ExprIds; the canonical form must not care.
  PlanFingerprint b = Fingerprint(&session, base);
  EXPECT_EQ(a.Key(), b.Key());
  EXPECT_EQ(a.canonical, b.canonical);

  // Whitespace / keyword case.
  PlanFingerprint c = Fingerprint(
      &session, "select  *\n  from PTS\n  skyline of x min,   y max");
  EXPECT_EQ(a.Key(), c.Key());

  // Table alias (and qualified references through it).
  PlanFingerprint d = Fingerprint(
      &session, "SELECT * FROM pts AS p SKYLINE OF p.x MIN, p.y MAX");
  EXPECT_EQ(a.Key(), d.Key());
}

TEST(FingerprintTest, DistinguishesQuerySemantics) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints("other")));

  const PlanFingerprint base =
      Fingerprint(&session, "SELECT * FROM pts SKYLINE OF x MIN, y MAX");
  // Different goal on a dimension.
  EXPECT_NE(base.Key(),
            Fingerprint(&session, "SELECT * FROM pts SKYLINE OF x MIN, y MIN")
                .Key());
  // DIFF dimension.
  EXPECT_NE(base.Key(),
            Fingerprint(&session,
                        "SELECT * FROM pts SKYLINE OF x MIN, y MAX, id DIFF")
                .Key());
  // Fewer dimensions.
  EXPECT_NE(base.Key(),
            Fingerprint(&session, "SELECT * FROM pts SKYLINE OF x MIN").Key());
  // DISTINCT / COMPLETE flags.
  EXPECT_NE(
      base.Key(),
      Fingerprint(&session, "SELECT * FROM pts SKYLINE OF DISTINCT x MIN, y MAX")
          .Key());
  EXPECT_NE(
      base.Key(),
      Fingerprint(&session, "SELECT * FROM pts SKYLINE OF COMPLETE x MIN, y MAX")
          .Key());
  // Different literal in a filter.
  const PlanFingerprint f10 = Fingerprint(
      &session, "SELECT * FROM pts WHERE x < 10 SKYLINE OF x MIN, y MAX");
  const PlanFingerprint f20 = Fingerprint(
      &session, "SELECT * FROM pts WHERE x < 20 SKYLINE OF x MIN, y MAX");
  EXPECT_NE(f10.Key(), f20.Key());
  // Different table.
  EXPECT_NE(base.Key(),
            Fingerprint(&session, "SELECT * FROM other SKYLINE OF x MIN, y MAX")
                .Key());
  // Projection list and column aliases are part of the result header.
  EXPECT_NE(
      Fingerprint(&session, "SELECT x FROM pts").Key(),
      Fingerprint(&session, "SELECT x AS price FROM pts").Key());
}

TEST(FingerprintTest, TableVersionShiftsKey) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string sql = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";

  const PlanFingerprint before = Fingerprint(&session, sql);
  ASSERT_OK(session.catalog()->InsertInto(
      "pts", {Row{Value::Int64(7), Value::Double(0.1), Value::Double(12.0)}}));
  const PlanFingerprint after = Fingerprint(&session, sql);
  EXPECT_NE(before.Key(), after.Key());

  // Drop + recreate must never reuse a version either.
  ASSERT_OK(session.catalog()->DropTable("pts"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const PlanFingerprint recreated = Fingerprint(&session, sql);
  EXPECT_NE(before.Key(), recreated.Key());
  EXPECT_NE(after.Key(), recreated.Key());
}

TEST(FingerprintTest, LocalRelationIsNotCacheable) {
  Session session;
  Schema schema({Field{"x", DataType::Double(), false}});
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session.CreateDataFrame(schema, {Row{Value::Double(1.0)}}));
  const PlanFingerprint fp = FingerprintPlan(df.plan());
  EXPECT_FALSE(fp.cacheable);
}

TEST(FingerprintTest, OutputHeaderCaseIsPartOfTheKey) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  EXPECT_NE(Fingerprint(&session, "SELECT x AS price FROM pts").Key(),
            Fingerprint(&session, "SELECT x AS Price FROM pts").Key());
}

// --- catalog versioning / thread safety -------------------------------------

TEST(CatalogVersionTest, MonotonicPerTableVersions) {
  Catalog catalog;
  EXPECT_EQ(catalog.TableVersion("pts"), 0u);
  ASSERT_OK(catalog.RegisterTable(SmallPoints()));
  const uint64_t v1 = catalog.TableVersion("pts");
  EXPECT_GT(v1, 0u);

  ASSERT_OK(catalog.InsertInto(
      "pts", {Row{Value::Int64(9), Value::Double(5.0), Value::Double(5.0)}}));
  const uint64_t v2 = catalog.TableVersion("PTS");  // case-insensitive
  EXPECT_GT(v2, v1);

  ASSERT_OK(catalog.DropTable("pts"));
  EXPECT_GT(catalog.TableVersion("pts"), v2);

  // Copy-on-write: a snapshot taken before the insert is unchanged.
  ASSERT_OK(catalog.RegisterTable(SmallPoints()));
  ASSERT_OK_AND_ASSIGN(TablePtr snapshot, catalog.GetTable("pts"));
  const size_t rows_before = snapshot->num_rows();
  ASSERT_OK(catalog.InsertInto(
      "pts", {Row{Value::Int64(10), Value::Double(1.0), Value::Double(1.0)}}));
  EXPECT_EQ(snapshot->num_rows(), rows_before);
  ASSERT_OK_AND_ASSIGN(TablePtr current, catalog.GetTable("pts"));
  EXPECT_EQ(current->num_rows(), rows_before + 1);
}

TEST(CatalogVersionTest, WriteListenerObservesOrderedEventsWithPayload) {
  Catalog catalog;
  // The listener runs on the notifier thread; DrainWrites makes the
  // post-write state observable deterministically.
  std::mutex mu;
  std::vector<WriteEvent> events;
  catalog.AddWriteListener([&](const WriteEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(event);
  });
  ASSERT_OK(catalog.RegisterTable(SmallPoints("MixedCase")));
  ASSERT_OK(catalog.InsertInto(
      "mixedcase",
      {Row{Value::Int64(11), Value::Double(2.0), Value::Double(2.0)}}));
  ASSERT_OK(catalog.DropTable("MIXEDCASE"));
  catalog.DrainWrites();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, WriteEvent::Kind::kRegister);
  EXPECT_EQ(events[1].kind, WriteEvent::Kind::kInsert);
  EXPECT_EQ(events[2].kind, WriteEvent::Kind::kDrop);
  for (const WriteEvent& event : events) {
    EXPECT_EQ(event.table, "mixedcase");  // lower-cased catalog key
    EXPECT_GT(event.new_version, event.old_version);
  }
  // Events arrive in version order; an insert carries the inserted rows,
  // the other kinds carry none.
  EXPECT_EQ(events[0].new_version, events[1].old_version);
  EXPECT_EQ(events[1].new_version, events[2].old_version);
  EXPECT_EQ(events[0].rows, nullptr);
  ASSERT_NE(events[1].rows, nullptr);
  ASSERT_EQ(events[1].rows->size(), 1u);
  EXPECT_EQ((*events[1].rows)[0][0].int64_value(), 11);
  EXPECT_EQ(events[2].rows, nullptr);
}

// --- result cache mechanics -------------------------------------------------

PlanFingerprint SyntheticFp(uint64_t id, std::vector<std::string> tables) {
  PlanFingerprint fp;
  fp.cacheable = true;
  fp.hash_hi = id * 7919;
  fp.hash_lo = id;
  fp.tables = std::move(tables);
  return fp;
}

std::shared_ptr<const serve::CachedResult> SyntheticEntry(int64_t bytes) {
  auto entry = std::make_shared<serve::CachedResult>();
  entry->rows = std::make_shared<const std::vector<Row>>();
  entry->bytes = bytes;
  return entry;
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  ResultCache::Options options;
  options.capacity_bytes = 300;
  options.ttl_ms = 0;
  options.num_shards = 1;  // deterministic eviction order
  ResultCache cache(options);

  const PlanFingerprint a = SyntheticFp(1, {"t"});
  const PlanFingerprint b = SyntheticFp(2, {"t"});
  const PlanFingerprint c = SyntheticFp(3, {"t"});
  ASSERT_OK(cache.Insert(a, SyntheticEntry(100)));
  ASSERT_OK(cache.Insert(b, SyntheticEntry(100)));
  EXPECT_NE(cache.Lookup(a), nullptr);  // refresh A: B is now the LRU entry
  ASSERT_OK(cache.Insert(c, SyntheticEntry(150)));

  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);  // evicted over budget
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().resident_bytes, 300);

  // Entries larger than the budget are not admitted at all.
  const PlanFingerprint d = SyntheticFp(4, {"t"});
  ASSERT_OK(cache.Insert(d, SyntheticEntry(1000)));
  EXPECT_EQ(cache.Lookup(d), nullptr);
}

TEST(ResultCacheTest, InvalidateTableDropsExactlyDependents) {
  ResultCache::Options options;
  options.num_shards = 4;
  ResultCache cache(options);

  ASSERT_OK(cache.Insert(SyntheticFp(1, {"a"}), SyntheticEntry(10)));
  ASSERT_OK(cache.Insert(SyntheticFp(2, {"a", "b"}), SyntheticEntry(10)));
  ASSERT_OK(cache.Insert(SyntheticFp(3, {"b"}), SyntheticEntry(10)));
  ASSERT_OK(cache.Insert(SyntheticFp(4, {"c"}), SyntheticEntry(10)));

  cache.InvalidateTable("a");
  EXPECT_EQ(cache.Lookup(SyntheticFp(1, {"a"})), nullptr);
  EXPECT_EQ(cache.Lookup(SyntheticFp(2, {"a", "b"})), nullptr);
  EXPECT_NE(cache.Lookup(SyntheticFp(3, {"b"})), nullptr);
  EXPECT_NE(cache.Lookup(SyntheticFp(4, {"c"})), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2);
}

TEST(ResultCacheTest, TtlExpiry) {
  ResultCache::Options options;
  options.ttl_ms = 5;
  options.num_shards = 1;
  ResultCache cache(options);

  const PlanFingerprint a = SyntheticFp(1, {"t"});
  ASSERT_OK(cache.Insert(a, SyntheticEntry(10)));
  EXPECT_NE(cache.Lookup(a), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().expirations, 1);
  EXPECT_EQ(cache.stats().evictions, 0)
      << "TTL drops must not be counted as budget evictions";
}

// Regression: expired entries that are never probed again must not keep
// charging the byte budget or linger in the per-table reverse index until
// LRU pressure evicts them — any lookup sweeps the expired LRU tail, and
// PurgeExpired() reclaims everything.
TEST(ResultCacheTest, ExpiredEntriesReleaseBudgetWithoutReprobe) {
  ResultCache::Options options;
  options.ttl_ms = 5;
  options.num_shards = 1;
  ResultCache cache(options);

  ASSERT_OK(cache.Insert(SyntheticFp(1, {"t"}), SyntheticEntry(100)));
  ASSERT_OK(cache.Insert(SyntheticFp(2, {"t"}), SyntheticEntry(100)));
  ASSERT_EQ(cache.stats().resident_bytes, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  // A lookup of an *unrelated* key must still release the expired entries
  // (the tail sweep) — neither expired fingerprint is probed.
  EXPECT_EQ(cache.Lookup(SyntheticFp(3, {"u"})), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().expirations, 2);

  // The reverse index is released too: a table write after expiry finds
  // nothing left to invalidate.
  cache.InvalidateTable("t");
  EXPECT_EQ(cache.stats().invalidations, 0);

  // The full purge reclaims expired entries with no lookup or insert
  // traffic at all.
  ASSERT_OK(cache.Insert(SyntheticFp(4, {"t"}), SyntheticEntry(50)));
  ASSERT_OK(cache.Insert(SyntheticFp(5, {"t"}), SyntheticEntry(50)));
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  cache.PurgeExpired();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().expirations, 4);
}

// --- cached execution through the session ------------------------------------

TEST(CachedExecutionTest, HitIsBitIdenticalAndMetricsDistinguish) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string sql = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";

  ASSERT_OK_AND_ASSIGN(DataFrame df1, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult first, df1.Collect());
  EXPECT_FALSE(first.metrics.cache_hit);
  EXPECT_EQ(first.metrics.operator_ms.count("[cache-hit]"), 0u);
  EXPECT_EQ(first.metrics.rows_served,
            static_cast<int64_t>(first.num_rows()));
  EXPECT_GT(first.metrics.bytes_served, 0);

  // Lexically different, semantically identical query -> same entry.
  ASSERT_OK_AND_ASSIGN(DataFrame df2,
                       session.Sql("select * from pts as p skyline of p.x "
                                   "min, p.y max"));
  ASSERT_OK_AND_ASSIGN(QueryResult second, df2.Collect());
  EXPECT_TRUE(second.metrics.cache_hit);
  EXPECT_EQ(second.metrics.operator_ms.count("[cache-hit]"), 1u);
  EXPECT_GE(second.metrics.cache_lookup_ms, 0.0);
  EXPECT_EQ(second.metrics.rows_served, first.metrics.rows_served);
  EXPECT_EQ(second.metrics.bytes_served, first.metrics.bytes_served);

  // Bit-identical: the hit aliases the very snapshot the miss produced.
  EXPECT_EQ(second.shared_rows().get(), first.shared_rows().get());
  ASSERT_EQ(second.num_rows(), first.num_rows());
  for (size_t i = 0; i < first.num_rows(); ++i) {
    EXPECT_EQ(RowToString(first.rows()[i]), RowToString(second.rows()[i]));
  }
  ASSERT_EQ(second.attrs.size(), first.attrs.size());
  for (size_t i = 0; i < first.attrs.size(); ++i) {
    EXPECT_EQ(second.attrs[i].name, first.attrs[i].name);
  }

  const ResultCache::Stats stats = session.cache()->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(CachedExecutionTest, InsertAndDropInvalidate) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  // Incremental maintenance off: this test pins the classic
  // write-invalidates behaviour (the maintained path is covered by
  // incremental_test.cc).
  ASSERT_OK(session.SetConf("sparkline.cache.incremental", "false"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string sql = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";

  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r1, df.Collect());
  EXPECT_FALSE(r1.metrics.cache_hit);

  // The new point dominates everything: the cached result must not be
  // served after the insert. Invalidation runs on the notifier thread.
  ASSERT_OK(session.catalog()->InsertInto(
      "pts", {Row{Value::Int64(7), Value::Double(0.0), Value::Double(99.0)}}));
  session.catalog()->DrainWrites();
  EXPECT_GE(session.cache()->stats().invalidations, 1);

  ASSERT_OK_AND_ASSIGN(DataFrame df2, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r2, df2.Collect());
  EXPECT_FALSE(r2.metrics.cache_hit);
  EXPECT_EQ(r2.num_rows(), 1u);
  EXPECT_EQ(r2.rows()[0][0].int64_value(), 7);

  // Drop + recreate: stale entries must not resurface either.
  ASSERT_OK(session.catalog()->DropTable("pts"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  session.catalog()->DrainWrites();
  ASSERT_OK_AND_ASSIGN(DataFrame df3, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r3, df3.Collect());
  EXPECT_FALSE(r3.metrics.cache_hit);
  EXPECT_EQ(RowStrings(r3.rows()), RowStrings(r1.rows()));
}

// Regression: a write landing between Sql() (analysis, which pins the
// table snapshot) and Collect() must not poison the cache. The executed
// rows come from the pre-write snapshot, so they must be keyed under the
// pre-write version — a fresh query must miss and see the new data, never
// hit the stale entry.
TEST(CachedExecutionTest, WriteBetweenAnalysisAndExecutionCannotPoison) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string sql = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";

  ASSERT_OK_AND_ASSIGN(DataFrame stale_df, session.Sql(sql));
  // Dominates every existing point; bumps the version after analysis.
  ASSERT_OK(session.catalog()->InsertInto(
      "pts", {Row{Value::Int64(7), Value::Double(0.0), Value::Double(99.0)}}));
  // Executes the pre-insert snapshot (whose skyline is point 6) and caches
  // it under the old version.
  ASSERT_OK_AND_ASSIGN(QueryResult stale, stale_df.Collect());
  EXPECT_FALSE(stale.metrics.cache_hit);
  ASSERT_EQ(stale.num_rows(), 1u);
  EXPECT_EQ(stale.rows()[0][0].int64_value(), 6);

  // A fresh query resolves the post-insert snapshot: must MISS the stale
  // entry and return the dominating point only.
  ASSERT_OK_AND_ASSIGN(DataFrame fresh_df, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult fresh, fresh_df.Collect());
  EXPECT_FALSE(fresh.metrics.cache_hit);
  ASSERT_EQ(fresh.num_rows(), 1u);
  EXPECT_EQ(fresh.rows()[0][0].int64_value(), 7);

  // And the fresh result is the one that stays cached.
  ASSERT_OK_AND_ASSIGN(DataFrame again_df, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult again, again_df.Collect());
  EXPECT_TRUE(again.metrics.cache_hit);
  EXPECT_EQ(again.num_rows(), 1u);
}

TEST(CachedExecutionTest, TtlExpiryEndToEnd) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.SetConf("sparkline.cache.ttl_ms", "5"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string sql = "SELECT * FROM pts SKYLINE OF x MIN, y MAX";

  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r1, df.Collect());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_OK_AND_ASSIGN(DataFrame df2, session.Sql(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult r2, df2.Collect());
  EXPECT_FALSE(r2.metrics.cache_hit);
  EXPECT_EQ(RowStrings(r2.rows()), RowStrings(r1.rows()));
}

// --- query service -----------------------------------------------------------

TEST(QueryServiceTest, AsyncExecutionAndAdmissionCap) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "1"));
  TablePtr big = datagen::GeneratePoints(
      "big", 4000, 4, datagen::PointDistribution::kAntiCorrelated, 99, 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(big));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));

  serve::QueryService::Options options;
  options.max_concurrent = 1;
  options.max_pending = 2;
  serve::QueryService service(&session, options);

  // The single service thread chews on the heavy query; the second slot
  // fills the admission window, the third submit must be rejected.
  ASSERT_OK_AND_ASSIGN(
      auto heavy,
      service.Submit(
          "SELECT * FROM big SKYLINE OF d0 MIN, d1 MAX, d2 MIN, d3 MAX"));
  ASSERT_OK_AND_ASSIGN(
      auto queued, service.Submit("SELECT * FROM pts SKYLINE OF x MIN"));
  auto rejected = service.Submit("SELECT * FROM pts SKYLINE OF y MAX");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  ASSERT_OK_AND_ASSIGN(QueryResult heavy_result, heavy.future.get());
  ASSERT_OK_AND_ASSIGN(QueryResult queued_result, queued.future.get());
  EXPECT_GT(heavy_result.num_rows(), 0u);
  EXPECT_GT(queued_result.num_rows(), 0u);

  const serve::QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.in_flight, 0);

  // Errors travel through the future, not the submit call.
  ASSERT_OK_AND_ASSIGN(auto bad, service.Submit("SELECT * FROM nope"));
  EXPECT_FALSE(bad.future.get().ok());
}

TEST(QueryServiceTest, SessionSqlAsyncWiring) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));

  ASSERT_OK_AND_ASSIGN(
      auto f1, session.SqlAsync("SELECT * FROM pts SKYLINE OF x MIN, y MAX"));
  ASSERT_OK_AND_ASSIGN(QueryResult r1, f1.get());
  ASSERT_OK_AND_ASSIGN(
      auto f2, session.SqlAsync("SELECT * FROM pts SKYLINE OF x MIN, y MAX"));
  ASSERT_OK_AND_ASSIGN(QueryResult r2, f2.get());
  EXPECT_FALSE(r1.metrics.cache_hit);
  EXPECT_TRUE(r2.metrics.cache_hit);
  EXPECT_EQ(RowStrings(r1.rows()), RowStrings(r2.rows()));

  // max_concurrent is frozen once the service exists.
  EXPECT_FALSE(session.SetConf("sparkline.serve.max_concurrent", "8").ok());
}

TEST(QueryServiceTest, CancelRunningQuery) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "1"));
  TablePtr big = datagen::GeneratePoints(
      "big", 20000, 6, datagen::PointDistribution::kAntiCorrelated, 7, 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(big));

  ASSERT_OK_AND_ASSIGN(
      serve::QueryHandle handle,
      session.SqlSubmit("SELECT * FROM big SKYLINE OF d0 MIN, d1 MAX, d2 MIN, "
                        "d3 MAX, d4 MIN, d5 MAX"));
  handle.Cancel();
  Result<QueryResult> result = handle.future.get();
  // Cancellation raced the query; it either lost cleanly (full result) or
  // won (Status::Cancelled) — never a crash or a hang.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
  }
}

TEST(QueryServiceTest, CancelShedsQueuedQuery) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "1"));
  TablePtr big = datagen::GeneratePoints(
      "big", 8000, 5, datagen::PointDistribution::kAntiCorrelated, 11, 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(big));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));

  // The heavy query occupies the single service thread; the second query is
  // still queued when we cancel it, so it must be shed without executing.
  ASSERT_OK_AND_ASSIGN(
      serve::QueryHandle heavy,
      session.SqlSubmit(
          "SELECT * FROM big SKYLINE OF d0 MIN, d1 MAX, d2 MIN, d3 MAX"));
  ASSERT_OK_AND_ASSIGN(serve::QueryHandle queued,
                       session.SqlSubmit("SELECT * FROM pts SKYLINE OF x MIN"));
  queued.Cancel();

  Result<QueryResult> queued_result = queued.future.get();
  if (!queued_result.ok()) {
    EXPECT_EQ(queued_result.status().code(), StatusCode::kCancelled);
  }
  ASSERT_OK_AND_ASSIGN(QueryResult heavy_result, heavy.future.get());
  EXPECT_GT(heavy_result.num_rows(), 0u);

  session.service()->Drain();
  const serve::QueryService::Stats stats = session.service()->stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.in_flight, 0);
}

// stats() must return a *consistent* snapshot while submissions race: the
// previous independent atomics allowed submitted/completed/in_flight to be
// observed mid-update.
TEST(QueryServiceTest, StatsSnapshotIsConsistentUnderConcurrency) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "2"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  serve::QueryService* service = session.service();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const serve::QueryService::Stats s = service->stats();
      // Invariant of the lifecycle: every submitted query is either still
      // in flight or completed — in *every* snapshot, not just at rest.
      if (s.submitted != s.completed + s.in_flight) violations.fetch_add(1);
      if (s.in_flight < 0 || s.completed < 0) violations.fetch_add(1);
    }
  });

  constexpr int kSubmitters = 4;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto handle = service->Submit("SELECT * FROM pts SKYLINE OF x MIN");
        if (handle.ok()) {
          EXPECT_TRUE(handle->future.get().ok());
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  const serve::QueryService::Stats s = service->stats();
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_EQ(s.in_flight, 0);
}

// A queued query whose per-query deadline already passed is shed before
// execution instead of burning a service thread.
TEST(QueryServiceTest, ExpiredDeadlineQueriesAreShedFromQueue) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.serve.max_concurrent", "1"));
  ASSERT_OK(session.SetConf("sparkline.timeout_ms", "30"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  serve::QueryService* service = session.service();

  // Park the single service thread until well past the queued query's
  // deadline, using a delay failpoint on the scan of the first query.
  ASSERT_OK(session.SetConf("sparkline.failpoints", "exec.scan=delay:120*1"));
  ASSERT_OK_AND_ASSIGN(serve::QueryHandle slow,
                       service->Submit("SELECT * FROM pts SKYLINE OF x MIN"));
  ASSERT_OK_AND_ASSIGN(
      serve::QueryHandle late,
      service->Submit("SELECT * FROM pts SKYLINE OF y MAX"));

  Result<QueryResult> late_result = late.future.get();
  ASSERT_FALSE(late_result.ok());
  EXPECT_EQ(late_result.status().code(), StatusCode::kTimeout);
  (void)slow.future.get();  // outcome irrelevant; just settle it
  ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

  const serve::QueryService::Stats stats = service->stats();
  EXPECT_EQ(stats.shed, 1);
}

// --- the hammer: concurrent mixed workload vs. the brute-force oracle --------

TEST(ServeHammerTest, ConcurrentMixedWorkloadMatchesOracle) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 24;
  constexpr size_t kDims = 3;

  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.SetConf("sparkline.executors", "2"));
  TablePtr table = datagen::GeneratePoints(
      "pts", 600, kDims, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/4321, 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  // The repeatable (cacheable) query set, oracled by brute force.
  struct Query {
    std::string sql;
    std::vector<std::string> expected;
  };
  std::vector<Query> queries;
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<std::string> items;
    std::vector<skyline::BoundDimension> dims;
    for (size_t d = 0; d < kDims; ++d) {
      const bool flip = ((variant >> d) & 1) != 0;
      items.push_back(StrCat("d", d, flip ? " MAX" : " MIN"));
      dims.push_back(skyline::BoundDimension{
          d + 1, flip ? SkylineGoal::kMax : SkylineGoal::kMin});
    }
    Query q;
    q.sql = StrCat("SELECT * FROM pts SKYLINE OF ", JoinStrings(items, ", "));
    q.expected = RowStrings(skyline::BruteForceSkyline(
        table->rows(), dims, skyline::SkylineOptions{}));
    queries.push_back(std::move(q));
  }
  // Per-thread unique filters (never cached twice) against one oracle run
  // of the same shape.
  auto filtered_sql = [](int threshold) {
    return StrCat("SELECT * FROM pts WHERE d0 < ", threshold,
                  " SKYLINE OF d0 MIN, d1 MIN, d2 MIN");
  };

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        const Query& q = queries[(t + i) % queries.size()];
        auto df = session.Sql(q.sql);
        if (!df.ok()) {
          failures[t] = df.status().ToString();
          return;
        }
        auto result = df->Collect();
        if (!result.ok()) {
          failures[t] = result.status().ToString();
          return;
        }
        if (RowStrings(result->rows()) != q.expected) {
          failures[t] = StrCat("result mismatch on ", q.sql);
          return;
        }
        // Interleave an uncached unique-literal query on some iterations.
        if (i % 5 == 0) {
          const int threshold = 500 + t * kItersPerThread + i;
          auto udf = session.Sql(filtered_sql(threshold));
          if (!udf.ok()) {
            failures[t] = udf.status().ToString();
            return;
          }
          auto uresult = udf->Collect();
          if (!uresult.ok()) {
            failures[t] = uresult.status().ToString();
            return;
          }
          if (uresult->metrics.cache_hit) {
            failures[t] = "unique-literal query reported a cache hit";
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }

  const ResultCache::Stats stats = session.cache()->stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
}

}  // namespace
}  // namespace sparkline
