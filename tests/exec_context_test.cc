// Regression tests for ExecContext's metrics accumulators — in particular
// the Finish() race the thread-safety analysis surfaced: the serving tier
// calls Finish on the submitting thread while a cancelled or timed-out
// query's pool tasks are still draining and appending to the accumulators.
// Finish() used to read them unlocked; it now takes the accumulator mutex.
// Under TSan the concurrent section below reproduces the original data race
// directly; under plain builds the totals assert the lock gives Finish a
// consistent snapshot. The ExecutorPoolTest cases check that queries on the
// shared executor pool keep the simulated cluster's tasks and counters and
// start no threads.
#include "exec/exec_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "api/dataframe.h"
#include "api/session.h"
#include "datagen/datagen.h"
#include "exec/trace.h"
#include "test_util.h"

namespace sparkline {
namespace {

TEST(ExecContextTest, AccumulatorsSumAcrossThreads) {
  ClusterConfig config;
  config.num_executors = 4;
  config.executor_overhead_bytes = 0;
  ExecContext ctx(config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ctx.AddStageTime("[local]", 1.0);
        ctx.AddStageRows("[local]", 2);
        ctx.AddRowsShuffled(3);
        ctx.AddExchangeShipped(1, 10);
        ctx.AddMatrixBuilds("[local]", 1);
        if (t == 0) ctx.AddPartitionsSkipped(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const QueryMetrics m = ctx.Finish(12.5);
  EXPECT_DOUBLE_EQ(m.wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(m.simulated_ms, kThreads * kPerThread * 1.0);
  EXPECT_DOUBLE_EQ(m.operator_ms.at("[local]"), kThreads * kPerThread * 1.0);
  EXPECT_EQ(m.operator_rows.at("[local]"), kThreads * kPerThread * 2);
  EXPECT_EQ(m.rows_shuffled, kThreads * kPerThread * 3);
  EXPECT_EQ(m.exchange_rows_shipped, kThreads * kPerThread);
  EXPECT_EQ(m.exchange_bytes, kThreads * kPerThread * 10);
  EXPECT_EQ(m.matrix_builds.at("[local]"), kThreads * kPerThread);
  EXPECT_EQ(m.partitions_skipped, kPerThread);
}

TEST(ExecContextTest, FinishConcurrentWithWritersIsConsistent) {
  // The original bug: Finish() reading the accumulators unlocked while
  // drain-stage tasks keep writing. With the fix, every snapshot Finish
  // returns is internally consistent — simulated_ms_ and operator_ms_ are
  // updated under one critical section by AddStageTime, so their totals
  // must agree in any snapshot taken under the same lock.
  ClusterConfig config;
  config.num_executors = 2;
  config.executor_overhead_bytes = 0;
  ExecContext ctx(config);

  constexpr int kWriters = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&ctx] {
      for (int i = 0; i < kPerThread; ++i) ctx.AddStageTime("[drain]", 0.25);
    });
  }

  double last_total = 0;
  for (int probe = 0; probe < 200; ++probe) {
    const QueryMetrics m = ctx.Finish(0.0);
    double operator_total = 0;
    for (const auto& [label, ms] : m.operator_ms) operator_total += ms;
    EXPECT_DOUBLE_EQ(m.simulated_ms, operator_total);
    EXPECT_GE(m.simulated_ms, last_total);  // accumulators only grow
    last_total = m.simulated_ms;
  }
  for (auto& writer : writers) writer.join();

  const QueryMetrics final = ctx.Finish(0.0);
  EXPECT_DOUBLE_EQ(final.simulated_ms, kWriters * kPerThread * 0.25);
  EXPECT_DOUBLE_EQ(final.operator_ms.at("[drain]"),
                   kWriters * kPerThread * 0.25);
}

// sparkline.executors sets the simulated cluster (partitions and stage
// tasks), not a thread count: on the shared executor pool a 16-executor
// query still runs 16 tasks per parallel stage, and its counters are the
// ones the per-query 16-thread pool produced.
TEST(ExecutorPoolTest, SixteenExecutorsKeepTasksAndCounters) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "16"));
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 3000, 3, datagen::PointDistribution::kAntiCorrelated, 17)));
  auto df = session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MAX");
  ASSERT_OK(df.status());
  auto result = df->Collect();
  ASSERT_OK(result.status());

  const std::vector<std::pair<std::string, size_t>> expected_stages = {
      {"Scan pts [4 columns]", 16},
      {"LocalSkyline [complete, 3 dims]", 16},
      {"BroadcastFilter [nominate]", 16},
      {"BroadcastFilter [filter]", 16},
      {"Exchange [AllTuples]", 1},
      {"GlobalSkyline [complete] [partial]", 16},
      {"GlobalSkyline [complete] [merge]", 1}};
  ASSERT_NE(result->trace, nullptr);
  std::vector<std::pair<std::string, size_t>> stages;
  for (const TraceSpan* stage : result->trace->ChildrenOfKind("stage")) {
    stages.emplace_back(stage->name, stage->ChildrenOfKind("task").size());
  }
  EXPECT_EQ(stages, expected_stages);

  const QueryMetrics& m = result->metrics;
  EXPECT_EQ(result->rows().size(), 9u);
  EXPECT_EQ(m.dominance_tests, 8954);
  EXPECT_EQ(m.merge_dominance_tests, 61);
  EXPECT_EQ(m.rows_shuffled, 21);
  EXPECT_EQ(m.exchange_rows_shipped, 21);
  EXPECT_EQ(m.exchange_bytes, 5040);
  EXPECT_EQ(m.broadcast_filter_points, 32);
  EXPECT_EQ(m.partitions_skipped, 0);
  EXPECT_EQ(m.rows_pruned_pre_gather, 89);
  EXPECT_EQ(m.tasks_retried, 0);
  EXPECT_EQ(m.tasks_failed, 0);
  EXPECT_EQ(m.matrix_builds,
            (std::map<std::string, int64_t>{
                {"LocalSkyline [complete, 3 dims]", 16}}));
  EXPECT_EQ(m.matrix_reuses,
            (std::map<std::string, int64_t>{{"Exchange [AllTuples]", 1},
                                            {"GlobalSkyline [complete]", 1}}));
  EXPECT_EQ(m.operator_rows,
            (std::map<std::string, int64_t>{
                {"BroadcastFilter", 21},
                {"Exchange [AllTuples]", 21},
                {"GlobalSkyline [complete]", 9},
                {"LocalSkyline [complete, 3 dims]", 110},
                {"Scan pts [4 columns]", 3000}}));
}

#ifdef __linux__
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

// Queries run on the process-wide executor pool: once it is up, running
// queries neither starts nor ends a thread. A sampler lists the process's
// threads while 200 queries run, so a per-query pool that starts and joins
// its workers inside each query is caught in the act.
TEST(ExecutorPoolTest, QueriesStartNoThreads) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 200, 2, datagen::PointDistribution::kIndependent, 5)));
  const std::string sql = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX";
  ASSERT_OK(session.Sql(sql)->Collect().status());  // starts the pool

  const std::set<std::string> before = ThreadIds();
  std::atomic<bool> done{false};
  std::set<std::string> seen;
  std::string sampler_id;
  std::thread sampler([&] {
    sampler_id = std::to_string(static_cast<long>(syscall(SYS_gettid)));
    while (!done.load()) {
      for (const auto& id : ThreadIds()) seen.insert(id);
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto result = session.Sql(sql)->Collect();
    ASSERT_OK(result.status());
  }
  done.store(true);
  sampler.join();

  EXPECT_EQ(ThreadIds(), before);
  seen.erase(sampler_id);
  for (const auto& id : seen) {
    EXPECT_EQ(before.count(id), 1u) << "thread " << id << " started mid-run";
  }
}
#endif

}  // namespace
}  // namespace sparkline
