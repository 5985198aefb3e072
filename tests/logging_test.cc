#include "common/logging.h"

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace topk {
namespace {

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, SuppressedLevelsDoNotCrash) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  TOPK_LOG(Debug) << "suppressed " << 42;
  TOPK_LOG(Info) << "also suppressed";
  TOPK_LOG(Warning) << "still suppressed";
  SetLogLevel(original);
}

TEST(LoggingTest, EmittedLevelsDoNotCrash) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  TOPK_LOG(Error) << "expected test error line " << 3.14 << " " << "str";
  SetLogLevel(original);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  TOPK_CHECK(1 + 1 == 2) << "never printed";
  TOPK_DCHECK(true) << "never printed";
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ TOPK_CHECK(false) << "boom"; }, "check failed");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(watch.ElapsedNanos(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  const int64_t first = watch.ElapsedNanos();
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(watch.ElapsedNanos(), first);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  const int64_t before = watch.ElapsedNanos();
  watch.Restart();
  EXPECT_LT(watch.ElapsedNanos(), before);
}

TEST(PhaseTimerTest, AccumulatesAcrossIntervals) {
  PhaseTimer timer;
  EXPECT_EQ(timer.TotalNanos(), 0);
  timer.Start();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  timer.Stop();
  const int64_t first = timer.TotalNanos();
  EXPECT_GT(first, 0);
  timer.Start();
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  timer.Stop();
  EXPECT_GT(timer.TotalNanos(), first);
  // Stop while stopped is a no-op.
  const int64_t settled = timer.TotalNanos();
  timer.Stop();
  EXPECT_EQ(timer.TotalNanos(), settled);
}

TEST(PhaseTimerTest, RunningTimerReportsLiveTotal) {
  PhaseTimer timer;
  timer.Start();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.TotalNanos(), 0);  // still running
  timer.Stop();
}

/// Spins for `nanos` of wall time.
void BusyWait(int64_t nanos) {
  Stopwatch watch;
  while (watch.ElapsedNanos() < nanos) {
  }
}

TEST(SampledScopeTimerTest, FirstCallIsTimedOnAnEarlyReturnToo) {
  SampledScopeTimer::Schedule schedule;
  int64_t total = 0;
  const auto timed_scope = [&](bool return_early) {
    SampledScopeTimer timer(&schedule, &total);
    BusyWait(20000);
    if (return_early) return;
    BusyWait(1);
  };
  timed_scope(/*return_early=*/true);
  EXPECT_GE(total, 20000 - ClockReadOverheadNanos());
}

TEST(SampledScopeTimerTest, EstimatesWorkThatRecursEveryMeanGapCalls) {
  // One call in kMeanGap is expensive, the rest are free. A timer that
  // sampled every kMeanGap-th call would time only the expensive ones (or
  // none) and be off by that factor; random gaps keep the estimate near the
  // measured total. The check is on the weights the expensive calls were
  // scaled by: each one's estimate delta over its own measured time. A
  // preemption inside a sampled call inflates both alike, so a loaded
  // machine cannot push the sum out of the band.
  SampledScopeTimer::Schedule schedule;
  int64_t estimate = 0;
  const int calls = 4000 * SampledScopeTimer::kMeanGap;
  int expensive_calls = 0;
  double weights = 0.0;
  for (int i = 0; i < calls; ++i) {
    const int64_t before = estimate;
    int64_t own_nanos = 0;
    {
      SampledScopeTimer timer(&schedule, &estimate);
      if (i % SampledScopeTimer::kMeanGap == 0) {
        Stopwatch call;
        BusyWait(10000);
        own_nanos = call.ElapsedNanos();
      }
    }
    if (own_nanos > 0) {
      ++expensive_calls;
      weights += static_cast<double>(estimate - before) /
                 static_cast<double>(own_nanos);
    }
  }
  // A fixed stride sums to ~64× the expensive-call count here (or ~0).
  EXPECT_GT(weights, 0.3 * expensive_calls);
  EXPECT_LT(weights, 3.0 * expensive_calls);
}

TEST(SampledScopeTimerTest, InFullChargesRareHeavyWorkOnce) {
  // Ten calls in 6,400 do 2 ms of marked work. Scaling one sampled heavy
  // call by its gap would overshoot many times over, and missing them all
  // would read near zero; marked, they are charged exactly once. The check
  // is on what the heavy calls were charged (their estimate deltas) over
  // their own measured time, so a preemption inside a sampled cheap call,
  // scaled by its weight, cannot move it.
  SampledScopeTimer::Schedule schedule;
  int64_t estimate = 0;
  const int calls = 100 * SampledScopeTimer::kMeanGap;
  double charged = 0.0;
  double measured = 0.0;
  for (int i = 0; i < calls; ++i) {
    const int64_t before = estimate;
    int64_t own_nanos = 0;
    {
      SampledScopeTimer timer(&schedule, &estimate);
      if (i % (calls / 10) == 0) {
        Stopwatch call;
        {
          SampledScopeTimer::InFull heavy;
          SampledScopeTimer::InFull nested;  // charges nothing twice
          BusyWait(2000000);
        }
        own_nanos = call.ElapsedNanos();
      }
    }
    if (own_nanos > 0) {
      charged += static_cast<double>(estimate - before);
      measured += static_cast<double>(own_nanos);
    }
  }
  EXPECT_GT(charged, 0.5 * measured);
  EXPECT_LT(charged, 1.5 * measured);

  // Outside any sampled scope it times nothing.
  const int64_t before = estimate;
  { SampledScopeTimer::InFull idle; }
  EXPECT_EQ(estimate, before);
}

TEST(SampledScopeTimerTest, ClockOverheadIsSmallAndStable) {
  const int64_t overhead = ClockReadOverheadNanos();
  EXPECT_GE(overhead, 0);
  EXPECT_LT(overhead, 1000000);
  EXPECT_EQ(ClockReadOverheadNanos(), overhead);
}

}  // namespace
}  // namespace topk
