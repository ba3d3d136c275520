// Tests for src/common: Status/Result, string utils, thread pool, memory
// tracker, RNG distributions.
#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "test_util.h"

namespace sparkline {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "Parse error: bad token");
}

TEST(StatusTest, TimeoutPredicate) {
  EXPECT_TRUE(Status::Timeout("t").IsTimeout());
  EXPECT_FALSE(Status::Invalid("x").IsTimeout());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SL_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, ValuePath) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(Split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a..", '.'), (std::vector<std::string>{"a", "", ""}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SkyLine"), "skyline");
  EXPECT_EQ(ToUpper("min"), "MIN");
  EXPECT_TRUE(EqualsIgnoreCase("SKYLINE", "skyline"));
  EXPECT_FALSE(EqualsIgnoreCase("skyline", "skylines"));
}

TEST(StringUtilTest, DoubleToString) {
  EXPECT_EQ(DoubleToString(3.0), "3");
  EXPECT_EQ(DoubleToString(3.5), "3.5");
  EXPECT_EQ(DoubleToString(-0.25), "-0.25");
}

TEST(StringUtilTest, Indent) {
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, 64, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndSingle) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// A task that throws must not take the process down (the old WorkerLoop let
// the exception escape into std::terminate) and must not poison the pool:
// later tasks still run on every worker.
TEST(ThreadPoolTest, SurvivesThrowingTasks) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("injected task failure"); });
  }
  pool.WaitIdle();
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 32);
}

// A group's helper that the pool starts only after the caller returned
// must touch nothing of the caller's. On a 1-thread pool whose worker is
// busy, the caller runs both tasks itself and returns while its helper is
// still queued; `fn` is freed before the helper runs, so a helper that
// dereferenced it would be a heap-use-after-free under ASan.
TEST(ThreadPoolTest, LateHelperNeverTouchesCallerFrame) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocked{false};
  pool.Submit([&blocked, released] {
    blocked.store(true);
    released.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  std::vector<int> runs(2, 0);
  auto fn = std::make_unique<std::function<void(size_t)>>(
      [&runs](size_t i) { ++runs[i]; });
  ParallelFor(&pool, 2, *fn);
  fn.reset();
  EXPECT_EQ(runs, (std::vector<int>{1, 1}));

  release.set_value();
  pool.WaitIdle();  // the queued helper runs now, after ParallelFor returned
  EXPECT_EQ(runs, (std::vector<int>{1, 1}));
}

// Concurrent groups share a pool smaller than their number: each caller
// waits only on tasks already running, so none can deadlock, and every
// index of every group runs exactly once.
TEST(ThreadPoolTest, ConcurrentGroupsOnSmallPool) {
  ThreadPool pool(2);
  constexpr int kCallers = 8;
  constexpr size_t kTasks = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kTasks);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 20; ++round) {
        ParallelFor(&pool, kTasks, [&hits, c](size_t i) {
          hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    for (const auto& count : h) EXPECT_EQ(count.load(), 20);
  }
}

// A task may start a group of its own (a stage inside a stage task): on a
// 1-thread pool the inner caller is the pool's only worker, and it runs its
// group alone instead of waiting for a helper that cannot start.
TEST(ThreadPoolTest, NestedGroupsOnOneThreadPool) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(8 * 8);
  ParallelFor(&pool, 8, [&](size_t outer) {
    ParallelFor(&pool, 8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExecutorPoolIsOneProcessWidePool) {
  ThreadPool* pool = ExecutorPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, ExecutorPool());
  EXPECT_EQ(pool->num_threads(),
            std::max<size_t>(1, std::thread::hardware_concurrency()));
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker t;
  t.Grow(100);
  t.Grow(50);
  t.Shrink(120);
  EXPECT_EQ(t.current_bytes(), 30);
  EXPECT_EQ(t.peak_bytes(), 150);
  t.Grow(10);
  EXPECT_EQ(t.peak_bytes(), 150);  // peak unchanged below the high-water mark
}

TEST(MemoryTrackerTest, ScopedReservation) {
  MemoryTracker t;
  {
    ScopedReservation r(&t, 64);
    EXPECT_EQ(t.current_bytes(), 64);
  }
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(t.peak_bytes(), 64);
}

#ifdef NDEBUG
// Regression: a mismatched Shrink used to drive current_ negative and
// silently corrupt all later peak math. Release builds clamp at zero
// (debug builds assert instead, which is why this only runs under NDEBUG).
TEST(MemoryTrackerTest, ShrinkUnderflowClampsAtZero) {
  MemoryTracker t;
  t.Grow(10);
  t.Shrink(25);
  EXPECT_EQ(t.current_bytes(), 0);
  t.Grow(7);
  EXPECT_EQ(t.current_bytes(), 7);  // not 7 - 15: the underflow didn't stick
}
#endif

TEST(MemoryTrackerTest, TryGrowEnforcesLimit) {
  MemoryTracker t;
  t.set_limit_bytes(100);
  EXPECT_TRUE(t.TryGrow(60));
  EXPECT_FALSE(t.TryGrow(50));  // 60 + 50 > 100
  EXPECT_EQ(t.current_bytes(), 60);  // the refused reservation charged nothing
  EXPECT_TRUE(t.TryGrow(40));
  EXPECT_EQ(t.current_bytes(), 100);
  t.set_limit_bytes(0);  // 0 = unlimited
  EXPECT_TRUE(t.TryGrow(1 << 20));
}

TEST(MemoryTrackerTest, MemoryChargeReleasesOnEveryPath) {
  MemoryTracker t;
  t.Grow(64);
  {
    MemoryCharge a(&t, 64);
    EXPECT_EQ(t.current_bytes(), 64);
    MemoryCharge b = std::move(a);  // move transfers, no double release
    MemoryCharge c;
    c = std::move(b);
    EXPECT_EQ(t.current_bytes(), 64);
  }
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(CancellationTokenTest, CancelIsSticky) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(FailpointTest, DisarmedSitesAreFree) {
  EXPECT_FALSE(fail::AnyArmed());
  EXPECT_OK(fail::Hit("exec.scan"));
}

TEST_F(FailpointTest, ArmRejectsUnknownSites) {
  EXPECT_EQ(fail::Arm("exec.typo", fail::FailpointSpec{}).code(),
            StatusCode::kNotFound);
}

TEST_F(FailpointTest, ErrorActionFiresAndCounts) {
  ASSERT_OK(fail::ArmFromString("exec.scan=error"));
  EXPECT_TRUE(fail::AnyArmed());
  Status s = fail::Hit("exec.scan");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(s.IsRetryable());
  EXPECT_EQ(fail::FireCount("exec.scan"), 1);
  EXPECT_OK(fail::Hit("exec.exchange"));  // other sites stay disarmed
}

TEST_F(FailpointTest, FromHitAndMaxFiresModifiers) {
  // Fire only on the 3rd and 4th evaluations: @3 (start at hit 3) *2 (budget
  // of two fires).
  ASSERT_OK(fail::ArmFromString("exec.local_task=error(internal)@3*2"));
  EXPECT_OK(fail::Hit("exec.local_task"));
  EXPECT_OK(fail::Hit("exec.local_task"));
  EXPECT_EQ(fail::Hit("exec.local_task").code(), StatusCode::kInternal);
  EXPECT_EQ(fail::Hit("exec.local_task").code(), StatusCode::kInternal);
  EXPECT_OK(fail::Hit("exec.local_task"));  // budget exhausted
  EXPECT_EQ(fail::FireCount("exec.local_task"), 2);
}

TEST_F(FailpointTest, SeededProbabilityIsDeterministic) {
  auto run = [] {
    SL_CHECK_OK(fail::ArmFromString("exec.stage_task=error%0.5:1234"));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fail::Hit("exec.stage_task").ok());
    }
    return fired;
  };
  const std::vector<bool> a = run();
  const std::vector<bool> b = run();
  EXPECT_EQ(a, b);  // same seed, same coin flips
  const int64_t fires = fail::FireCount("exec.stage_task");
  EXPECT_GT(fires, 8);   // ~32 expected; loose bounds keep this robust
  EXPECT_LT(fires, 56);
}

TEST_F(FailpointTest, ThrowAndDelayActions) {
  ASSERT_OK(fail::ArmFromString("exec.exchange=throw*1"));
  EXPECT_THROW((void)fail::Hit("exec.exchange"), std::runtime_error);
  EXPECT_OK(fail::Hit("exec.exchange"));  // *1 budget spent

  ASSERT_OK(fail::ArmFromString("exec.scan=delay:20"));
  StopWatch w;
  EXPECT_OK(fail::Hit("exec.scan"));  // delay succeeds, just late
  EXPECT_GE(w.ElapsedMillis(), 15.0);
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(fail::ArmFromString("exec.scan").ok());           // no '='
  EXPECT_FALSE(fail::ArmFromString("exec.scan=explode").ok());   // bad action
  EXPECT_FALSE(fail::ArmFromString("exec.scan=error%1.5").ok()); // p > 1
  EXPECT_FALSE(fail::ArmFromString("exec.scan=error@0").ok());   // hit < 1
  EXPECT_FALSE(fail::ArmFromString("nope=error").ok());          // bad site
  EXPECT_FALSE(fail::AnyArmed()) << "failed arms must not leave sites armed";
}

TEST_F(FailpointTest, MultiSpecStringArmsEverySite) {
  ASSERT_OK(fail::ArmFromString(
      " exec.scan = error ; serve.cache_insert = throw ; "));
  EXPECT_FALSE(fail::Hit("exec.scan").ok());
  EXPECT_THROW((void)fail::Hit("serve.cache_insert"), std::runtime_error);
  ASSERT_OK(fail::ArmFromString(""));  // empty string disarms everything
  EXPECT_FALSE(fail::AnyArmed());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(ZipfTest, SkewedTowardsSmallValues) {
  Rng rng(5);
  ZipfDistribution zipf(100, 1.2);
  int64_t ones = 0, total = 0;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = zipf.Sample(&rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    if (v == 1) ++ones;
    total += v;
  }
  // Rank 1 should be by far the most common outcome.
  EXPECT_GT(ones, 5000 / 10);
  EXPECT_LT(total / 5000, 20);
}

TEST(TimerTest, WallClockAdvances) {
  StopWatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(w.ElapsedNanos(), 0);
}

TEST(TimerTest, ThreadCpuAdvancesUnderWork) {
  ThreadCpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedNanos(), 0);
}

}  // namespace
}  // namespace sparkline
