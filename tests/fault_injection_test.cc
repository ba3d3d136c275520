// The chaos suite: sweeps every registered failpoint across kernel and
// exchange configurations and asserts the fault-tolerance contract — under
// any injected fault a query either succeeds with results bit-identical to
// the no-fault oracle (after retries) or returns a clean error Status.
// Never a crash, never a hang, and never a leaked memory reservation: the
// query's MemoryTracker must read zero once its relations are gone.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/datagen.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::RowStrings;

// Disarms everything around each test so a failed assertion cannot leak an
// armed failpoint into unrelated suites.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

/// One engine configuration the sweep exercises; `configure` runs against a
/// fresh session before any query.
struct ChaosConfig {
  std::string name;
  std::vector<std::pair<std::string, std::string>> conf;
  std::string sql;
  bool incomplete_data = false;
};

std::vector<ChaosConfig> SweepConfigs() {
  return {
      {"bnl-distributed",
       {{"sparkline.skyline.kernel", "bnl"}},
       "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"},
      {"sfs-distributed",
       {{"sparkline.skyline.kernel", "sfs"}},
       "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"},
      // Row input to the global stage: its "[project]" stage builds the
      // matrix the partial and merge stages share.
      {"sfs-non-distributed",
       {{"sparkline.skyline.kernel", "sfs"},
        {"sparkline.skyline.strategy", "non_distributed"}},
       "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"},
      {"grid-angle-partitioning",
       {{"sparkline.skyline.kernel", "grid"},
        {"sparkline.skyline.partitioning", "angle"}},
       "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN"},
      {"incomplete-parallel",
       {{"sparkline.skyline.strategy", "incomplete"}},
       "SELECT * FROM sparse SKYLINE OF d0 MIN, d1 MIN, d2 MIN",
       /*incomplete_data=*/true},
  };
}

void RegisterData(Session* session) {
  ASSERT_OK(session->catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 600, 3, datagen::PointDistribution::kAntiCorrelated, 5, 0.0)));
  ASSERT_OK(session->catalog()->RegisterTable(datagen::GeneratePoints(
      "sparse", 400, 3, datagen::PointDistribution::kIndependent, 9, 0.25)));
}

void Configure(Session* session, const ChaosConfig& config) {
  for (const auto& [key, value] : config.conf) {
    SL_CHECK_OK(session->SetConf(key, value));
  }
  RegisterData(session);
}

/// Plans `sql` and executes the physical plan against a caller-owned
/// ExecContext, so the test can assert the memory invariant after the
/// relation is gone. Returns the rows (sorted) through `rows`.
Result<std::vector<std::string>> RunPlanLevel(Session* session,
                                              const std::string& sql) {
  SL_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, session->Optimize(df.plan()));
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr physical,
                      session->PlanPhysical(optimized));
  ExecContext ctx(session->config().cluster);
  std::vector<std::string> rows;
  {
    SL_ASSIGN_OR_RETURN(PartitionedRelation rel, physical->Execute(&ctx));
    rows = RowStrings(std::move(rel).Flatten());
  }
  // The relation (and its MemoryCharge) is gone: every byte the query
  // reserved must have been returned, fault or no fault.
  EXPECT_EQ(ctx.memory()->current_bytes(), 0)
      << "leaked reservation after successful run of " << sql;
  return rows;
}

// The tentpole sweep: every registered failpoint site x every action class,
// across every engine configuration, checked against the no-fault oracle.
TEST_F(FaultInjectionTest, ChaosSweepNeverCorruptsOrLeaks) {
  // Action specs swept at every site. Expected outcomes differ:
  //   error*1           one transient fault -> retry -> bit-identical success
  //   error             every attempt fails -> clean Unavailable
  //   error(internal)   non-retryable -> clean Internal
  //   throw*1           exception -> caught -> clean Internal
  //   delay:2*3         latency only -> bit-identical success
  //   error%0.4:77      seeded coin flips -> either outcome, cleanly
  const std::vector<std::string> specs = {
      "error*1",  "error",       "error(internal)",
      "throw*1",  "delay:2*3",   "error%0.4:77",
  };

  for (const ChaosConfig& config : SweepConfigs()) {
    Session session;
    Configure(&session, config);

    fail::DisarmAll();
    auto oracle = RunPlanLevel(&session, config.sql);
    ASSERT_TRUE(oracle.ok()) << config.name << ": "
                             << oracle.status().ToString();
    ASSERT_FALSE(oracle->empty()) << config.name;

    for (const std::string& site : fail::RegisteredSites()) {
      for (const std::string& spec : specs) {
        SCOPED_TRACE(StrCat(config.name, " :: ", site, "=", spec));
        ASSERT_OK(fail::ArmFromString(StrCat(site, "=", spec)));

        auto run = [&]() -> Result<std::vector<std::string>> {
          SL_ASSIGN_OR_RETURN(DataFrame df, session.Sql(config.sql));
          SL_ASSIGN_OR_RETURN(LogicalPlanPtr optimized,
                              session.Optimize(df.plan()));
          SL_ASSIGN_OR_RETURN(PhysicalPlanPtr physical,
                              session.PlanPhysical(optimized));
          ExecContext ctx(session.config().cluster);
          std::vector<std::string> rows;
          Status status;
          {
            Result<PartitionedRelation> rel = physical->Execute(&ctx);
            if (rel.ok()) {
              rows = RowStrings(std::move(*rel).Flatten());
            } else {
              status = rel.status();
            }
          }
          // The invariant that makes retries and faults safe to serve on:
          // whatever path the query died on, its reservations drained.
          EXPECT_EQ(ctx.memory()->current_bytes(), 0)
              << "leaked reservation (status: " << status.ToString() << ")";
          if (!status.ok()) return status;
          return rows;
        };

        Result<std::vector<std::string>> faulted = run();
        if (faulted.ok()) {
          // Success must mean *bit-identical* success: a fault is never
          // allowed to silently drop or duplicate rows.
          EXPECT_EQ(*faulted, *oracle);
        } else {
          // Clean failure: a real error status with a message, not a crash.
          EXPECT_FALSE(faulted.status().message().empty());
        }
        fail::DisarmAll();
      }
    }
  }
}

// The broadcast filter is a pure optimization, so its failure contract is
// stronger than the sweep's either/or: any non-cancellation fault at
// exec.broadcast must degrade to the unfiltered pre-gather path and still
// serve the bit-identical skyline — never an error, never a wrong result.
TEST_F(FaultInjectionTest, BroadcastFilterFaultDegradesToUnfilteredPath) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "8"));
  RegisterData(&session);
  const std::string sql =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";
  auto oracle = RunPlanLevel(&session, sql);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  for (const char* spec :
       {"error", "error(internal)", "throw*1", "delay:1*2", "error%0.5:13"}) {
    SCOPED_TRACE(spec);
    ASSERT_OK(fail::ArmFromString(StrCat("exec.broadcast=", spec)));
    auto faulted = RunPlanLevel(&session, sql);
    ASSERT_TRUE(faulted.ok()) << spec << ": " << faulted.status().ToString();
    EXPECT_EQ(*faulted, *oracle) << spec;
    fail::DisarmAll();
  }
}

// The retry path end to end, through the public Session API: a transient
// fault budget smaller than the retry budget must be absorbed, visibly.
TEST_F(FaultInjectionTest, TransientFaultsAreRetriedAndCounted) {
  Session session;
  RegisterData(&session);
  ASSERT_OK(session.SetConf("sparkline.exec.task_retries", "3"));
  ASSERT_OK(session.SetConf("sparkline.exec.retry_backoff_ms", "0"));

  // No-fault oracle through the same API.
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"));
  ASSERT_OK_AND_ASSIGN(QueryResult oracle, df.Collect());

  ASSERT_OK(session.SetConf("sparkline.failpoints", "exec.scan=error*2"));
  ASSERT_OK_AND_ASSIGN(QueryResult faulted, df.Collect());
  ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

  EXPECT_EQ(RowStrings(faulted.rows()), RowStrings(oracle.rows()));
  EXPECT_GE(faulted.metrics.tasks_retried, 2);
  EXPECT_EQ(faulted.metrics.tasks_failed, 0);
  // The acceptance criterion: retries are visible in the metrics line.
  EXPECT_NE(faulted.metrics.ToString().find("tasks_retried="),
            std::string::npos)
      << faulted.metrics.ToString();
}

TEST_F(FaultInjectionTest, ExhaustedRetriesFailCleanly) {
  Session session;
  RegisterData(&session);
  ASSERT_OK(session.SetConf("sparkline.exec.task_retries", "1"));
  ASSERT_OK(session.SetConf("sparkline.exec.retry_backoff_ms", "0"));
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"));

  // Unlimited fires: every attempt (initial + 1 retry) hits the fault.
  ASSERT_OK(session.SetConf("sparkline.failpoints", "exec.scan=error"));
  Result<QueryResult> result = df.Collect();
  ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  // And the session recovers: the next query is clean.
  ASSERT_OK_AND_ASSIGN(QueryResult ok_again, df.Collect());
  EXPECT_GT(ok_again.num_rows(), 0u);
}

TEST_F(FaultInjectionTest, ThrownExceptionsBecomeInternalErrors) {
  Session session;
  RegisterData(&session);
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"));

  ASSERT_OK(session.SetConf("sparkline.failpoints", "exec.local_task=throw"));
  Result<QueryResult> result = df.Collect();
  ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("threw"), std::string::npos)
      << result.status().ToString();
}

// Enforced memory limits: a budget far below the query's working set must
// produce a clean ResourceExhausted — and release everything it did charge.
TEST_F(FaultInjectionTest, MemoryLimitFailsCleanlyAndDrains) {
  Session session;
  RegisterData(&session);
  ASSERT_OK(session.SetConf("sparkline.exec.memory_limit_bytes", "2048"));

  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"));
  ASSERT_OK_AND_ASSIGN(LogicalPlanPtr optimized, session.Optimize(df.plan()));
  ASSERT_OK_AND_ASSIGN(PhysicalPlanPtr physical,
                       session.PlanPhysical(optimized));
  ExecContext ctx(session.config().cluster);
  {
    Result<PartitionedRelation> rel = physical->Execute(&ctx);
    ASSERT_FALSE(rel.ok());
    EXPECT_EQ(rel.status().code(), StatusCode::kResourceExhausted)
        << rel.status().ToString();
  }
  EXPECT_EQ(ctx.memory()->current_bytes(), 0);

  // Raising the limit above the working set makes the same query pass.
  ASSERT_OK(session.SetConf("sparkline.exec.memory_limit_bytes", "0"));
  ASSERT_OK_AND_ASSIGN(QueryResult ok_result, df.Collect());
  EXPECT_GT(ok_result.num_rows(), 0u);
}

// Serving-tier degradation: a failing (or throwing) result-cache insert must
// not fail the query — it degrades to uncached serving.
TEST_F(FaultInjectionTest, CacheInsertFaultDegradesToUncachedServing) {
  for (const std::string spec : {"error(internal)", "throw"}) {
    SCOPED_TRACE(spec);
    Session session;
    RegisterData(&session);
    ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
    ASSERT_OK_AND_ASSIGN(
        DataFrame df,
        session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX"));

    ASSERT_OK(session.SetConf("sparkline.failpoints",
                              StrCat("serve.cache_insert=", spec)));
    ASSERT_OK_AND_ASSIGN(QueryResult first, df.Collect());
    EXPECT_GT(first.num_rows(), 0u);

    // Nothing was cached, so the repeat is a miss — but still correct.
    ASSERT_OK_AND_ASSIGN(QueryResult second, df.Collect());
    EXPECT_FALSE(second.metrics.cache_hit);
    EXPECT_EQ(RowStrings(second.rows()), RowStrings(first.rows()));
    ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

    // With the fault gone, caching resumes.
    ASSERT_OK_AND_ASSIGN(QueryResult third, df.Collect());
    ASSERT_OK_AND_ASSIGN(QueryResult fourth, df.Collect());
    (void)third;
    EXPECT_TRUE(fourth.metrics.cache_hit);
  }
}

// A fault while delta-maintaining a cached skyline (serve.delta_apply)
// degrades to invalidation: the faulted delta is discarded, the entry is
// dropped, and the next query recomputes — a miss, never a stale hit.
TEST_F(FaultInjectionTest, DeltaApplyFaultDegradesToInvalidation) {
  for (const std::string spec : {"error(internal)", "throw"}) {
    SCOPED_TRACE(spec);
    Session session;
    RegisterData(&session);
    ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
    const std::string sql = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX";
    ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
    ASSERT_OK_AND_ASSIGN(QueryResult warm, df.Collect());
    EXPECT_GT(warm.num_rows(), 0u);

    ASSERT_OK(session.SetConf("sparkline.failpoints",
                              StrCat("serve.delta_apply=", spec)));
    ASSERT_OK_AND_ASSIGN(TablePtr table, session.catalog()->GetTable("pts"));
    ASSERT_OK(session.catalog()->InsertInto("pts", {table->rows().front()}));
    session.catalog()->DrainWrites();
    ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

    const auto stats = session.maintainer()->stats();
    EXPECT_EQ(stats.maintained, 0);
    EXPECT_GT(stats.fallbacks, 0);

    // Re-parse so the fingerprint reflects the new table version; the
    // result must be a miss that matches an uncached plan-level run.
    ASSERT_OK_AND_ASSIGN(DataFrame df2, session.Sql(sql));
    ASSERT_OK_AND_ASSIGN(QueryResult after, df2.Collect());
    EXPECT_FALSE(after.metrics.cache_hit);
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> oracle,
                         RunPlanLevel(&session, sql));
    EXPECT_EQ(RowStrings(after.rows()), oracle);
  }
}

// Catalog writes fail atomically under injection: no rows land, no version
// bumps, and the table serves reads as if the write never happened.
TEST_F(FaultInjectionTest, CatalogWriteFaultIsAtomic) {
  Session session;
  RegisterData(&session);
  const uint64_t version_before = session.catalog()->TableVersion("pts");
  ASSERT_OK_AND_ASSIGN(TablePtr table, session.catalog()->GetTable("pts"));
  const size_t rows_before = table->num_rows();

  ASSERT_OK(session.SetConf("sparkline.failpoints", "catalog.write=error"));
  Status write = session.catalog()->InsertInto(
      "pts", {table->rows().front()});
  ASSERT_OK(session.SetConf("sparkline.failpoints", ""));

  EXPECT_FALSE(write.ok());
  EXPECT_EQ(session.catalog()->TableVersion("pts"), version_before);
  ASSERT_OK_AND_ASSIGN(TablePtr after, session.catalog()->GetTable("pts"));
  EXPECT_EQ(after->num_rows(), rows_before);

  // The failed write did not poison the catalog: a real write still works.
  ASSERT_OK(session.catalog()->InsertInto("pts", {table->rows().front()}));
  ASSERT_OK_AND_ASSIGN(TablePtr final_table,
                       session.catalog()->GetTable("pts"));
  EXPECT_EQ(final_table->num_rows(), rows_before + 1);
}

}  // namespace
}  // namespace sparkline
