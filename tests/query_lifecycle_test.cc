/// Query lifecycle control: the cancellation token and deadline unit
/// behavior, cooperative unwind through every operator with bounded
/// latency, the classification of Cancelled as caller-initiated (never
/// retried, never health-signalled), cancellation racing background pool
/// work, and the keep-for-resume cancel policy whose durable handoff lets
/// a preempted query continue from where the cancel caught it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/query_control.h"
#include "io/retry.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "topk/histogram_topk.h"
#include "topk/operator_factory.h"
#include "topk/optimized_external_topk.h"
#include "topk/traditional_external_topk.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

constexpr char kManifest[] = "query.tkm";

std::vector<Row> Dataset(uint64_t rows, uint64_t seed = 17) {
  DatasetSpec spec;
  spec.WithRows(rows).WithSeed(seed).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

TopKOptions SmallOptions(StorageEnv* env, const std::string& dir) {
  TopKOptions options;
  options.k = 500;
  options.memory_limit_bytes = 16 * 1024;
  options.env = env;
  options.spill_dir = dir;
  return options;
}

// ---------------------------------------------------------------- token

TEST(CancellationTokenTest, StartsLive) {
  CancellationToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTokenTest, RequestCancelLatchesReason) {
  CancellationToken token;
  token.RequestCancel("user hit ^C");
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  EXPECT_NE(token.status().message().find("user hit ^C"), std::string::npos);
}

TEST(CancellationTokenTest, FirstCauseWins) {
  CancellationToken token;
  token.RequestCancel("first");
  token.RequestCancel("second");
  EXPECT_NE(token.status().message().find("first"), std::string::npos);
  EXPECT_EQ(token.status().message().find("second"), std::string::npos);
}

TEST(CancellationTokenTest, DeadlineTripsWithDeadlineExceeded) {
  CancellationToken token;
  token.SetDeadline(1);  // 1ns: already past by the time we poll
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, GenerousDeadlineStaysLive) {
  CancellationToken token;
  token.SetDeadline(uint64_t{3600} * 1'000'000'000);
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancellationTokenTest, WaitForWakesOnCancel) {
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.RequestCancel("wake up");
  });
  Stopwatch watch;
  // A 30s sleep must be interrupted by the 10ms cancel.
  EXPECT_FALSE(token.WaitFor(uint64_t{30} * 1'000'000'000));
  EXPECT_LT(watch.ElapsedSeconds(), 10.0);
  canceller.join();
}

TEST(CancellationTokenTest, WaitForRunsFullWhenLive) {
  CancellationToken token;
  EXPECT_TRUE(token.WaitFor(1'000'000));  // 1ms
  EXPECT_FALSE(token.ShouldStop());
}

Status PollWithMacro(const CancellationToken* token) {
  TOPK_RETURN_IF_CANCELLED(token);
  return Status::OK();
}

TEST(CancellationTokenTest, MacroReturnsLatchedStatus) {
  EXPECT_TRUE(PollWithMacro(nullptr).ok());
  CancellationToken token;
  EXPECT_TRUE(PollWithMacro(&token).ok());
  token.RequestCancel();
  EXPECT_EQ(PollWithMacro(&token).code(), StatusCode::kCancelled);
}

TEST(CancelShieldTest, MasksTrippedTokenWithinScope) {
  CancellationToken token;
  token.RequestCancel("preempted");
  ASSERT_TRUE(token.ShouldStop());
  {
    CancelShield shield(&token);
    EXPECT_FALSE(token.ShouldStop());
    EXPECT_TRUE(token.Check().ok());
    // The latched cause is still readable under the shield.
    EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
    // A shielded wait sleeps the full request instead of failing fast.
    EXPECT_TRUE(token.WaitFor(1'000'000));
    {
      CancelShield nested(&token);
      EXPECT_FALSE(token.ShouldStop());
    }
    EXPECT_FALSE(token.ShouldStop());
  }
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelShieldTest, NullTokenIsLegal) {
  CancelShield shield(nullptr);  // must not crash
}

TEST(QueryLifecycleTest, IsCancellationClassifier) {
  EXPECT_TRUE(IsCancellation(StatusCode::kCancelled));
  EXPECT_TRUE(IsCancellation(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsCancellation(StatusCode::kUnavailable));
  EXPECT_FALSE(IsCancellation(StatusCode::kIoError));
  EXPECT_FALSE(IsCancellation(StatusCode::kOk));
}

// ------------------------------------------------------- operator unwind

TEST(OperatorCancelTest, EveryOperatorUnwindsOnNextConsume) {
  const auto rows = Dataset(30000);
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options = SmallOptions(&env, scratch.str());
    if (algorithm == TopKAlgorithm::kHeap) {
      options.memory_limit_bytes = std::numeric_limits<size_t>::max();
    }
    options.cancel = std::make_shared<CancellationToken>();
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    for (size_t i = 0; i < 10000; ++i) {
      ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    }
    options.cancel->RequestCancel("test preemption");
    // The very next row observes the cancel: bounded-step observation.
    Status status = (*op)->Consume(rows[10000]);
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  }
}

TEST(OperatorCancelTest, DeadlineSurfacesAsDeadlineExceeded) {
  const auto rows = Dataset(5000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.cancel = std::make_shared<CancellationToken>();
  options.cancel->SetDeadline(1'000'000);  // 1ms
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status status = Status::OK();
  for (const Row& row : rows) {
    status = (*op)->Consume(row);
    if (!status.ok()) break;
  }
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(OperatorCancelTest, FinishObservesCancel) {
  const auto rows = Dataset(30000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.cancel = std::make_shared<CancellationToken>();
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  options.cancel->RequestCancel();
  auto result = (*op)->Finish();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

/// A controller cancelling mid-stream must see the query thread unwind
/// quickly — the per-row poll guarantees bounded observation latency.
void ExpectCancelUnwindLatencyBounded(size_t workers) {
  const auto rows = Dataset(200000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.workers = workers;
  options.cancel = std::make_shared<CancellationToken>();
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());

  std::atomic<bool> unwound{false};
  std::atomic<size_t> consumed{0};
  Status final_status;
  std::thread query([&] {
    for (const Row& row : rows) {
      final_status = (*op)->Consume(row);
      if (!final_status.ok()) break;
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
    unwound.store(true);
  });
  // Cancel once the query is mid-stream, not after a fixed sleep: a fast
  // build can consume the whole input before a sleep ends.
  while (consumed.load(std::memory_order_relaxed) < 1000 && !unwound.load()) {
    std::this_thread::yield();
  }
  Stopwatch cancel_watch;
  options.cancel->RequestCancel("controller");
  query.join();
  // Generous bound for loaded CI machines, but a bound: seconds, not the
  // minutes an unobserved cancel would take on a large input.
  EXPECT_LT(cancel_watch.ElapsedSeconds(), 5.0);
  ASSERT_TRUE(unwound.load());
  EXPECT_EQ(final_status.code(), StatusCode::kCancelled);
}

TEST(OperatorCancelTest, CancelUnwindLatencyBounded) {
  ExpectCancelUnwindLatencyBounded(/*workers=*/1);
}

TEST(OperatorCancelTest, ParallelCancelUnwindLatencyBounded) {
  // The run-generation workers stop with the query: none keeps spilling
  // after the cancel, and none outlives the operator.
  ExpectCancelUnwindLatencyBounded(/*workers=*/4);
}

// --------------------------------------------- retry/pool classification

TEST(CancelledRetryTest, TrippedTokenFailsFastWithoutAttempt) {
  MetricsCounter* cancelled_ops =
      GlobalMetrics().GetCounter("io.cancelled_ops");
  MetricsCounter* attempts = GlobalMetrics().GetCounter("io.retry.attempts");
  const uint64_t cancelled_before = cancelled_ops->value();
  const uint64_t attempts_before = attempts->value();

  CancellationToken token;
  token.RequestCancel("gone");
  RetryBudget budget(10.0, 0.1);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.cancel = &token;
  policy.retry_budget = &budget;
  int calls = 0;
  Random rng(1);
  Status status = RetryOp(policy, "spill write", &rng, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 0);  // storage never touched
  EXPECT_EQ(budget.tokens(), 10.0);  // no budget withdrawal
  EXPECT_EQ(cancelled_ops->value(), cancelled_before + 1);
  EXPECT_EQ(attempts->value(), attempts_before);  // zero retries
}

TEST(CancelledRetryTest, CancelDuringBackoffStopsRetrying) {
  MetricsCounter* attempts = GlobalMetrics().GetCounter("io.retry.attempts");
  const uint64_t attempts_before = attempts->value();
  CancellationToken token;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_nanos = uint64_t{10} * 1'000'000'000;  // 10s
  policy.max_backoff_nanos = uint64_t{10} * 1'000'000'000;
  policy.cancel = &token;
  int calls = 0;
  Random rng(1);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.RequestCancel("impatient");
  });
  Stopwatch watch;
  Status status = RetryOp(policy, "flaky read", &rng, [&] {
    ++calls;
    return Status::Unavailable("hiccup");
  });
  canceller.join();
  // The interruptible backoff woke on the cancel instead of sleeping 10s.
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);
  EXPECT_LT(watch.ElapsedSeconds(), 8.0);
  EXPECT_EQ(attempts->value(), attempts_before + 1);
}

TEST(CancelledRetryTest, CancelledIsNotRetryable) {
  EXPECT_FALSE(IsRetryable(Status::Cancelled("stop")));
  EXPECT_FALSE(IsRetryable(Status::DeadlineExceeded("late")));
  EXPECT_TRUE(IsRetryable(Status::Unavailable("hiccup")));
}

TEST(OperatorCancelTest, CancelRacingBackgroundPoolWork) {
  // Cancellation lands while the background I/O pool has work in flight
  // (spill writes, prefetch reads). The query must unwind cleanly with no
  // leaked in-flight blocks; run under tools/run_sanitized.sh thread for
  // the race coverage.
  MetricsCounter* blocks_cancelled =
      GlobalMetrics().GetCounter("io.prefetch.blocks_cancelled");
  const uint64_t blocks_cancelled_before = blocks_cancelled->value();
  const auto rows = Dataset(60000);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options = SmallOptions(&env, scratch.str());
    options.io_background_threads = 2;
    options.enable_io_prefetch = true;
    options.merge_fan_in = 4;  // force intermediate merges with prefetch
    options.cancel = std::make_shared<CancellationToken>();
    auto op = MakeTopKOperator(TopKAlgorithm::kTraditionalExternal, options);
    ASSERT_TRUE(op.ok());
    Status final_status;
    std::thread query([&] {
      for (const Row& row : rows) {
        final_status = (*op)->Consume(row);
        if (!final_status.ok()) return;
      }
      auto result = (*op)->Finish();
      final_status = result.status();
    });
    // Stagger the cancel so different rounds catch different phases
    // (consume, spill, merge).
    std::this_thread::sleep_for(std::chrono::milliseconds(5 + 25 * round));
    options.cancel->RequestCancel("race");
    query.join();
    // Either the query beat the cancel or it unwound with the token's
    // status — both are correct; crashing or deadlocking is not.
    if (!final_status.ok()) {
      EXPECT_EQ(final_status.code(), StatusCode::kCancelled)
          << final_status.ToString();
    }
    op->reset();  // teardown with the token still tripped must be clean
  }
  // Abandoned in-flight prefetch blocks are accounted as deliberately
  // cancelled, not leaked (counter is cumulative; >= is all we can pin).
  EXPECT_GE(blocks_cancelled->value(), blocks_cancelled_before);
}

// ----------------------------------------------------- keep-for-resume

/// Cancels a keep-for-resume histogram query mid-consume, then resumes it
/// from the manifest its cancel handoff left behind.
void ExpectCancelMidConsumeResumesPrefix(size_t workers) {
  const auto rows = Dataset(30000);
  constexpr size_t kCancelAt = 20000;
  const auto expected = ReferenceTopK(
      std::vector<Row>(rows.begin(), rows.begin() + kCancelAt), 500, 0,
      SortDirection::kAscending);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.workers = workers;
  options.manifest_filename = kManifest;
  options.on_cancel = OnCancelPolicy::kKeepForResume;
  options.cancel = std::make_shared<CancellationToken>();
  {
    auto op = HistogramTopK::Make(options);
    ASSERT_TRUE(op.ok());
    for (size_t i = 0; i < kCancelAt; ++i) {
      ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    }
    ASSERT_TRUE((*op)->is_external());
    options.cancel->RequestCancel("preempted");
    EXPECT_EQ((*op)->Consume(rows[kCancelAt]).code(), StatusCode::kCancelled);
  }
  // The cancel handoff left a durable manifest behind.
  ASSERT_TRUE(std::filesystem::exists(scratch.str() + "/" + kManifest));
  TopKOptions resume_options = options;
  resume_options.cancel = nullptr;
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kHistogram, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Exactly the top-k of the prefix the query consumed before preemption.
  ExpectSameRows(expected, *result);
}

TEST(KeepForResumeTest, HistogramCancelMidConsumeResumesPrefix) {
  ExpectCancelMidConsumeResumesPrefix(/*workers=*/1);
}

TEST(KeepForResumeTest, ParallelHistogramCancelMidConsumeResumesPrefix) {
  // Rows still queued for or buffered in the four run-generation workers
  // reach the runs before the manifest is made durable.
  ExpectCancelMidConsumeResumesPrefix(/*workers=*/4);
}

TEST(KeepForResumeTest, TraditionalCancelBeforeFinishResumesFull) {
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  options.on_cancel = OnCancelPolicy::kKeepForResume;
  options.cancel = std::make_shared<CancellationToken>();
  {
    auto op = TraditionalExternalTopK::Make(options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    options.cancel->RequestCancel("preempted at the finish line");
    auto result = (*op)->Finish();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  TopKOptions resume_options = options;
  resume_options.cancel = nullptr;
  auto resumed =
      ResumeTopKOperator(TopKAlgorithm::kTraditionalExternal, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST(KeepForResumeTest, OptimizedCancelMidInputReplaysTail) {
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  constexpr size_t kCancelAt = 17000;
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  options.on_cancel = OnCancelPolicy::kKeepForResume;
  options.checkpoint_input_every_rows = 5000;
  options.cancel = std::make_shared<CancellationToken>();
  {
    auto op = OptimizedExternalTopK::Make(options);
    ASSERT_TRUE(op.ok());
    for (size_t i = 0; i < kCancelAt; ++i) {
      ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    }
    options.cancel->RequestCancel("preempted");
    EXPECT_EQ((*op)->Consume(rows[kCancelAt]).code(), StatusCode::kCancelled);
  }
  TopKOptions resume_options = options;
  resume_options.cancel = nullptr;
  auto resumed = OptimizedExternalTopK::ResumeFromManifest(resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // The cancel handoff checkpointed at the cancel point itself, so the
  // replay starts exactly where the preempted query stopped.
  ASSERT_TRUE((*resumed)->resume_accepts_input());
  EXPECT_EQ((*resumed)->resume_input_offset(), kCancelAt);
  for (size_t i = (*resumed)->resume_input_offset(); i < rows.size(); ++i) {
    ASSERT_TRUE((*resumed)->Consume(rows[i]).ok());
  }
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Tail replay on top of the restored runs: full-input answer.
  ExpectSameRows(expected, *result);
}

TEST(KeepForResumeTest, ReleasePolicyDropsSpillState) {
  const auto rows = Dataset(30000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  // Default policy: a cancelled query's spill state is released.
  options.cancel = std::make_shared<CancellationToken>();
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (size_t i = 0; i < 20000; ++i) {
      ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    }
    options.cancel->RequestCancel();
    EXPECT_EQ((*op)->Consume(rows[20000]).code(), StatusCode::kCancelled);
  }
  // The spill manager owned the directory and cleaned it on destruction.
  EXPECT_FALSE(std::filesystem::exists(scratch.str() + "/" + kManifest));
}

// --------------------------------------------------- suspend error paths

TEST(SuspendErrorTest, SuspendAfterLatchedErrorSurfacesThatError) {
  // A query that died of a real storage error and is then asked to
  // suspend must report the storage error — the actionable cause — not a
  // generic precondition failure.
  const auto rows = Dataset(30000);
  ScratchDir scratch;
  StorageEnv env;
  FaultProfile profile;
  profile.torn_write_rate = 1.0;  // every spill write is torn: permanent
  profile.seed = 3;
  env.SetFaultProfile(profile);
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  auto op = MakeTopKOperator(TopKAlgorithm::kTraditionalExternal, options);
  ASSERT_TRUE(op.ok());
  Status consume_status;
  for (const Row& row : rows) {
    consume_status = (*op)->Consume(row);
    if (!consume_status.ok()) break;
  }
  ASSERT_FALSE(consume_status.ok());
  ASSERT_FALSE(IsCancellation(consume_status.code()));
  Status suspend_status = (*op)->Suspend();
  EXPECT_EQ(suspend_status.code(), consume_status.code());
  EXPECT_EQ(suspend_status.message(), consume_status.message());
}

TEST(SuspendErrorTest, ExplicitSuspendOverridesTrippedToken) {
  // Suspend IS the cancel handler in a coordinator that preempts queries:
  // the tripped token must not veto the durable handoff it prompted.
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  options.cancel = std::make_shared<CancellationToken>();
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    options.cancel->RequestCancel("preempt, keep state");
    ASSERT_TRUE((*op)->Suspend().ok());
  }
  TopKOptions resume_options = options;
  resume_options.cancel = nullptr;
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kHistogram, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST(SuspendErrorTest, ParallelSuspendThenResumeMatchesReference) {
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.workers = 4;
  options.manifest_filename = kManifest;
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    ASSERT_TRUE((*op)->Suspend().ok());
  }
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

}  // namespace
}  // namespace topk
