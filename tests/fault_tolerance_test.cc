/// End-to-end fault tolerance: a spilling top-k query must return
/// byte-identical results under probabilistic transient storage faults
/// (with retries visible in the metrics), torn writes and bit flips must
/// surface as permanent errors (never wrong results), and a crashed or
/// suspended merge phase must resume from its manifest — quarantining
/// corrupt runs instead of aborting.

#include <gtest/gtest.h>

#include <fstream>

#include "io/manifest.h"
#include "io/retry.h"
#include "io/spill_manager.h"
#include "io/storage_health.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "topk/histogram_topk.h"
#include "topk/operator_factory.h"
#include "topk/traditional_external_topk.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

constexpr char kManifest[] = "spill.tkm";

TopKOptions SmallOptions(StorageEnv* env, const std::string& dir) {
  TopKOptions options;
  options.k = 500;
  options.memory_limit_bytes = 16 * 1024;
  options.env = env;
  options.spill_dir = dir;
  // Tight backoff: fault tests inject hundreds of transients.
  options.io_retry.initial_backoff_nanos = 1'000;
  options.io_retry.max_backoff_nanos = 100'000;
  return options;
}

std::vector<Row> Dataset(uint64_t rows, uint64_t seed = 11) {
  DatasetSpec spec;
  spec.WithRows(rows).WithSeed(seed).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

/// Descending keys against an ascending top-k: the cutoff filter never
/// eliminates anything, so every row spills — maximum storage traffic for
/// tests that need the I/O path thoroughly exercised.
std::vector<Row> DescendingDataset(uint64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rows.emplace_back(static_cast<double>(n - i), i, std::string(24, 'p'));
  }
  return rows;
}

TEST(FaultProfileTest, ParseRoundTrip) {
  auto profile = FaultProfile::Parse(
      "transient=0.01,spike=0.005,spike-us=2000,torn=0.001,bitflip=0.0001,"
      "seed=7");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_DOUBLE_EQ(profile->transient_fault_rate, 0.01);
  EXPECT_DOUBLE_EQ(profile->latency_spike_rate, 0.005);
  EXPECT_EQ(profile->latency_spike_nanos, 2'000'000);
  EXPECT_DOUBLE_EQ(profile->torn_write_rate, 0.001);
  EXPECT_DOUBLE_EQ(profile->bit_flip_rate, 0.0001);
  EXPECT_EQ(profile->seed, 7u);
  EXPECT_TRUE(profile->enabled());
}

TEST(FaultProfileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultProfile::Parse("transient=maybe").ok());
  EXPECT_FALSE(FaultProfile::Parse("unknown-key=1").ok());
  EXPECT_FALSE(FaultProfile::Parse("transient").ok());
  EXPECT_FALSE(FaultProfile::Parse("transient=2.0").ok());  // rate > 1
  EXPECT_FALSE(FaultProfile::Parse("transient=-0.1").ok());
}

TEST(FaultProfileTest, EmptyProfileDisabled) {
  FaultProfile profile;
  EXPECT_FALSE(profile.enabled());
}

/// The acceptance bar: >= 1% transient failure rate on every storage call,
/// and the query result is byte-identical to the fault-free ground truth,
/// with the retries that absorbed the faults visible in the metrics.
TEST(TransientFaultTest, SpillingQueryIdenticalUnderTransients) {
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);

  MetricsCounter* attempts = GlobalMetrics().GetCounter("io.retry.attempts");
  MetricsCounter* faults =
      GlobalMetrics().GetCounter("storage.fault.transient");
  const uint64_t attempts_before = attempts->value();
  const uint64_t faults_before = faults->value();

  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHistogram, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    ScratchDir scratch;
    StorageEnv env;
    FaultProfile profile;
    profile.transient_fault_rate = 0.02;  // 2% of calls fail transiently
    profile.seed = 0xfau;
    env.SetFaultProfile(profile);

    auto op = MakeTopKOperator(algorithm, SmallOptions(&env, scratch.str()));
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(expected, *result);
  }

  // Faults were actually injected and retries actually absorbed them.
  // (Aggregated across algorithms: the histogram operator filters input so
  // hard that its few storage calls may dodge a 2% fault rate entirely.)
  EXPECT_GT(faults->value(), faults_before);
  EXPECT_GT(attempts->value(), attempts_before);
}

TEST(TransientFaultTest, LatencySpikesDoNotChangeResults) {
  const auto rows = Dataset(15000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  StorageEnv env;
  FaultProfile profile;
  profile.latency_spike_rate = 0.05;
  profile.latency_spike_nanos = 100'000;  // 0.1 ms: noticeable, not slow
  env.SetFaultProfile(profile);
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram,
                             SmallOptions(&env, scratch.str()));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

/// A hedged spilling query under a latency-spike profile: with 200 µs of
/// base read latency and 10% of reads spiking to 20 ms, the merge path
/// hedges the stragglers (visible in io.hedge.issued) and the result is
/// still byte-identical. The read deadline is set generously, so the
/// deadline path stays quiet.
TEST(TransientFaultTest, HedgedReadsUnderLatencySpikesIdentical) {
  const auto rows = DescendingDataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);

  MetricsCounter* issued = GlobalMetrics().GetCounter("io.hedge.issued");
  MetricsCounter* wasted = GlobalMetrics().GetCounter("io.hedge.wasted");
  MetricsCounter* deadline =
      GlobalMetrics().GetCounter("io.prefetch.deadline_exceeded");
  const uint64_t issued_before = issued->value();
  const uint64_t wasted_before = wasted->value();
  const uint64_t deadline_before = deadline->value();

  ScratchDir scratch;
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 200'000;  // 0.2 ms baseline round trip
  StorageEnv env(env_options);
  FaultProfile profile;
  profile.latency_spike_rate = 0.1;
  profile.latency_spike_nanos = 20'000'000;  // 100x the baseline
  profile.seed = 0x51deu;
  env.SetFaultProfile(profile);

  TopKOptions options = SmallOptions(&env, scratch.str());
  options.io_hedge_reads = true;
  options.io_retry.deadline_nanos = 5'000'000'000;  // 5 s: never in play

  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);

  const uint64_t hedges = issued->value() - issued_before;
  EXPECT_GT(hedges, 0u) << "no hedge fired against a 20 ms straggler";
  EXPECT_LE(wasted->value() - wasted_before, hedges);
  EXPECT_EQ(deadline->value(), deadline_before);
}

/// Brownout: half of all storage calls fail. The circuit breaker trips
/// open, the shared retry budget caps how much retrying the pipeline may
/// spend, and the query dies promptly with one coherent Unavailable —
/// instead of hanging in per-call backoff loops against dead storage.
TEST(TransientFaultTest, BrownoutTripsBreakerWithinRetryBudget) {
  const auto rows = DescendingDataset(30000);

  MetricsCounter* opened = GlobalMetrics().GetCounter("io.health.opened");
  MetricsCounter* withdrawn =
      GlobalMetrics().GetCounter("io.retry.budget_withdrawn");
  MetricsCounter* exhausted =
      GlobalMetrics().GetCounter("io.retry.budget_exhausted");
  const uint64_t opened_before = opened->value();
  const uint64_t withdrawn_before = withdrawn->value();
  const uint64_t exhausted_before = exhausted->value();

  ScratchDir scratch;
  StorageEnv env;
  // A small sample window so the breaker reacts within the first few
  // retried operations of the brownout.
  StorageHealth::Options breaker;
  breaker.window_size = 8;
  breaker.min_samples = 4;
  env.EnableStorageHealth(breaker);
  FaultProfile profile;
  profile.transient_fault_rate = 0.5;
  profile.seed = 0xb10u;
  env.SetFaultProfile(profile);

  // Small enough that the brownout drains it before some operation burns
  // through max_attempts on its own.
  RetryBudget budget(/*capacity=*/4.0, /*refill_per_success=*/0.1);
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.io_retry.retry_budget = &budget;

  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  Status status;
  for (const Row& row : rows) {
    status = (*op)->Consume(row);
    if (!status.ok()) break;
  }
  if (status.ok()) status = (*op)->Finish().status();

  ASSERT_FALSE(status.ok()) << "a 50% brownout cannot succeed";
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  // The breaker tripped (seen in metrics) and retrying stayed within the
  // shared budget: withdrawals happened, then the budget ran dry and
  // further retries were refused instead of backing off forever.
  EXPECT_GT(opened->value(), opened_before);
  EXPECT_GT(withdrawn->value(), withdrawn_before);
  EXPECT_GT(exhausted->value(), exhausted_before);
  EXPECT_LT(budget.tokens(), 1.0);
}

TEST(TransientFaultTest, FaultSequenceIsDeterministic) {
  // Same seed => same fault sequence => identical storage traffic.
  uint64_t calls[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    ScratchDir scratch;
    StorageEnv env;
    FaultProfile profile;
    profile.transient_fault_rate = 0.05;
    profile.seed = 42;
    env.SetFaultProfile(profile);
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram,
                               SmallOptions(&env, scratch.str()));
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), Dataset(10000));
    ASSERT_TRUE(result.ok());
    calls[round] = env.stats()->snapshot().write_calls;
  }
  EXPECT_EQ(calls[0], calls[1]);
}

TEST(PermanentFaultTest, TornWriteIsPermanent) {
  ScratchDir scratch;
  StorageEnv env;
  FaultProfile profile;
  profile.torn_write_rate = 1.0;  // first block write tears
  env.SetFaultProfile(profile);
  const std::string path = scratch.str() + "/f";
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  Status status = (*file)->Append(std::string(1000, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("torn write"), std::string::npos);
  // The handle is poisoned: the same permanent error again, not a retry
  // that would silently duplicate the torn prefix.
  EXPECT_EQ((*file)->Append("more").code(), StatusCode::kIoError);
  EXPECT_EQ((*file)->Close().code(), StatusCode::kIoError);
}

TEST(PermanentFaultTest, BitFlipCaughtByInlineChecksum) {
  // Write a clean run, then read it back with inline verification under a
  // bit-flipping env: the merge-path read must report Corruption — not
  // return silently wrong rows, and not retry (a re-read of intact storage
  // would "succeed" and mask the corrupted read path).
  ScratchDir scratch;
  StorageEnv clean_env;
  RowComparator comparator;
  RunMeta meta;
  {
    auto writer = RunWriter::Create(&clean_env, scratch.str() + "/run", 0,
                                    comparator);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          (*writer)->Append(Row(i, i, std::string(40, 'p'))).ok());
    }
    auto finished = (*writer)->Finish();
    ASSERT_TRUE(finished.ok());
    meta = *finished;
  }

  StorageEnv faulty_env;
  FaultProfile profile;
  profile.bit_flip_rate = 1.0;  // every read flips one bit
  faulty_env.SetFaultProfile(profile);
  RunReadVerification verify;
  verify.enabled = true;
  verify.expected_crc32c = meta.crc32c;
  verify.expected_rows = meta.rows;
  verify.run_id = meta.id;
  auto reader = RunReader::Open(&faulty_env, meta.path, kDefaultBlockBytes,
                                nullptr, RetryPolicy(), verify);
  Status status = Status::OK();
  if (!reader.ok()) {
    status = reader.status();  // the flipped bit may hit the magic/framing
  } else {
    Row row;
    bool eof = false;
    while (status.ok() && !eof) {
      status = (*reader)->Next(&row, &eof);
    }
  }
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(SuspendResumeTest, SuspendThenResumeEmitsIdenticalRows) {
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);

  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHistogram, TopKAlgorithm::kTraditionalExternal}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options = SmallOptions(&env, scratch.str());
    options.manifest_filename = kManifest;

    // Process 1: consume everything, then suspend instead of merging.
    {
      auto op = MakeTopKOperator(algorithm, options);
      ASSERT_TRUE(op.ok());
      for (const Row& row : rows) {
        ASSERT_TRUE((*op)->Consume(row).ok());
      }
      ASSERT_TRUE((*op)->Suspend().ok());
    }
    // The operator is gone; its runs + manifest must still be on disk.
    ASSERT_TRUE(
        std::filesystem::exists(scratch.str() + "/" + kManifest));

    // Process 2: resume from the manifest and finish the merge.
    RestoreReport report;
    auto resumed = ResumeTopKOperator(algorithm, options, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_GT(report.runs_restored, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ((*resumed)->Consume(Row(1.0, 1, "")).code(),
              StatusCode::kFailedPrecondition);
    auto result = (*resumed)->Finish();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(expected, *result);
  }
}

TEST(SuspendResumeTest, ResumeRebuildsCutoffFilterFromManifest) {
  const auto rows = Dataset(30000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  {
    auto op = HistogramTopK::Make(options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    ASSERT_TRUE((*op)->is_external());
    ASSERT_TRUE((*op)->Suspend().ok());
  }
  auto resumed = HistogramTopK::ResumeFromManifest(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // The per-run histograms persisted in the manifest re-establish a cutoff
  // before the resumed merge reads a single row.
  EXPECT_TRUE((*resumed)->cutoff().has_value());
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
}

TEST(SuspendResumeTest, CrashMidMergeLeavesResumableManifest) {
  // Simulated crash: a permanent read failure torpedoes Finish() partway
  // through the merge. With a manifest configured the operator must leave
  // the spill directory behind, and a resume must produce the exact rows
  // the unharmed query would have.
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  const std::string spill_dir = scratch.str() + "/spill";
  {
    StorageEnv env;
    TopKOptions options = SmallOptions(&env, spill_dir);
    options.manifest_filename = kManifest;
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    env.InjectReadFailure(2);  // the merge phase dies on its 2nd read call
    auto crashed = (*op)->Finish();
    ASSERT_FALSE(crashed.ok());
  }
  ASSERT_TRUE(std::filesystem::exists(spill_dir + "/" + kManifest));

  StorageEnv env;
  TopKOptions options = SmallOptions(&env, spill_dir);
  options.manifest_filename = kManifest;
  RestoreReport report;
  auto resumed =
      ResumeTopKOperator(TopKAlgorithm::kHistogram, options, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(report.quarantined.empty());
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST(SuspendResumeTest, CorruptRunIsQuarantinedNotFatal) {
  const auto rows = Dataset(30000);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    ASSERT_TRUE((*op)->Suspend().ok());
  }

  // Flip one payload byte in the middle of a registered run.
  auto manifest = ReadManifest(&env, scratch.str() + "/" + kManifest);
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(manifest->size(), 1u) << "need >1 run to survive a quarantine";
  const RunMeta& victim = manifest->front();
  {
    std::fstream file(victim.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(victim.bytes / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(victim.bytes / 2));
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }

  MetricsCounter* quarantined =
      GlobalMetrics().GetCounter("resume.runs_quarantined");
  const uint64_t quarantined_before = quarantined->value();
  RestoreReport report;
  auto resumed =
      ResumeTopKOperator(TopKAlgorithm::kHistogram, options, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].meta.id, victim.id);
  EXPECT_EQ(report.quarantined[0].reason.code(), StatusCode::kCorruption);
  EXPECT_EQ(report.runs_restored, manifest->size() - 1);
  EXPECT_EQ(quarantined->value(), quarantined_before + 1);

  // The resumed merge completes on the surviving runs (the quarantined
  // run's rows are reported missing, not silently wrong).
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
}

TEST(SuspendResumeTest, ResumeWithMissingManifestFails) {
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kHistogram, options);
  EXPECT_FALSE(resumed.ok());
}

TEST(SuspendResumeTest, ResumeUnsupportedAlgorithmsRejected) {
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  auto heap = ResumeTopKOperator(TopKAlgorithm::kHeap, options);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
  // The rejection names the algorithms that DO support resume.
  EXPECT_NE(heap.status().message().find("histogram"), std::string::npos);
  EXPECT_NE(heap.status().message().find("traditional-external"),
            std::string::npos);
  EXPECT_NE(heap.status().message().find("optimized-external"),
            std::string::npos);
  // optimized-external supports resume now; with no manifest on disk the
  // attempt fails, but as an I/O problem rather than "unsupported".
  auto optimized =
      ResumeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_FALSE(optimized.ok());
  EXPECT_NE(optimized.status().code(), StatusCode::kInvalidArgument);
}

TEST(SuspendResumeTest, SuspendRequiresManifest) {
  ScratchDir scratch;
  StorageEnv env;
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram,
                             SmallOptions(&env, scratch.str()));
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->Suspend().code(), StatusCode::kFailedPrecondition);
}

TEST(SuspendResumeTest, ResumeSurvivesTransientFaults) {
  // Both halves of the crash/resume exercise run under a nonzero fault
  // profile: retries absorb the transients in run generation AND in the
  // resumed merge, and the output still matches the ground truth.
  const auto rows = Dataset(30000);
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  ScratchDir scratch;
  FaultProfile profile;
  profile.transient_fault_rate = 0.02;
  profile.seed = 0xbeef;
  {
    StorageEnv env;
    env.SetFaultProfile(profile);
    TopKOptions options = SmallOptions(&env, scratch.str());
    options.manifest_filename = kManifest;
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    ASSERT_TRUE((*op)->Suspend().ok());
  }
  StorageEnv env;
  env.SetFaultProfile(profile);
  TopKOptions options = SmallOptions(&env, scratch.str());
  options.manifest_filename = kManifest;
  RestoreReport report;
  auto resumed =
      ResumeTopKOperator(TopKAlgorithm::kHistogram, options, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(report.quarantined.empty());
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

}  // namespace
}  // namespace topk
