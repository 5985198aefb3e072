/// Degraded-storage survival: hedged block reads beat a straggling primary
/// fetch without changing the byte stream, consumer-side read deadlines
/// convert hung fetches into clean Unavailable errors, the storage health
/// circuit breaker trips under sustained failure and recovers through
/// probes, and the spill disk-space quota rejects writes with a
/// ResourceExhausted that names the quota — after the histogram operator
/// has first tried to consolidate its way back under it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/async_io.h"
#include "io/spill_manager.h"
#include "io/spill_quota.h"
#include "io/storage_health.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::MakePrefetchingReader;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

constexpr size_t kBlock = 1024;

uint64_t CounterValue(const char* name) {
  return GlobalMetrics().GetCounter(name)->value();
}

/// One deterministic straggler: delays the read whose stream position
/// matches `straggle_offset` by `sleep_nanos` before serving it correctly.
/// Only the handle wrapped here straggles — reopened (hedge) handles read
/// at full speed, so the hedge outcome is deterministic, not a race.
class StragglingFile : public SequentialFile {
 public:
  StragglingFile(std::unique_ptr<SequentialFile> base,
                 uint64_t straggle_offset, int64_t sleep_nanos)
      : base_(std::move(base)),
        straggle_offset_(straggle_offset),
        sleep_nanos_(sleep_nanos) {}

  Status Read(size_t n, char* scratch, size_t* bytes_read) override {
    if (pos_ == straggle_offset_) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_nanos_));
    }
    Status status = base_->Read(n, scratch, bytes_read);
    if (status.ok()) pos_ += *bytes_read;
    return status;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return base_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  uint64_t pos_ = 0;
  uint64_t straggle_offset_;
  int64_t sleep_nanos_;
};

std::string PatternData(size_t bytes) {
  std::string data(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<char>('a' + (i * 31 + i / kBlock) % 26);
  }
  return data;
}

std::string WritePatternFile(StorageEnv* env, const std::string& path,
                             size_t bytes) {
  std::string data = PatternData(bytes);
  auto file = env->NewWritableFile(path);
  EXPECT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(data).ok());
  EXPECT_TRUE((*file)->Close().ok());
  return data;
}

TEST(HedgedReadTest, HedgeBeatsStragglingPrimaryByteIdentically) {
  ScratchDir scratch;
  StorageEnv env;
  const std::string path = scratch.str() + "/hedged.dat";
  const std::string expected = WritePatternFile(&env, path, 4 * kBlock);

  const uint64_t issued_before = CounterValue("io.hedge.issued");
  const uint64_t wins_before = CounterValue("io.hedge.wins");

  ThreadPool pool(2);
  PrefetchBudget budget(kBlock);
  auto base = env.NewSequentialFile(path);
  ASSERT_TRUE(base.ok());
  // The primary handle stalls 300 ms on the very first block; the hedge
  // threshold is 2 ms, so the consumer hedges long before it completes.
  auto straggler = std::make_unique<StragglingFile>(
      std::move(*base), /*straggle_offset=*/0, /*sleep_nanos=*/300'000'000);
  PrefetchTuning tuning;
  tuning.hedge_reads = true;
  tuning.hedge_min_nanos = 2'000'000;
  auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                      /*depth_cap=*/2, tuning,
                                      std::move(straggler));

  std::string got(expected.size(), '\0');
  size_t off = 0;
  while (off < got.size()) {
    size_t bytes_read = 0;
    ASSERT_TRUE(reader->Read(kBlock, got.data() + off, &bytes_read).ok());
    ASSERT_GT(bytes_read, 0u);
    off += bytes_read;
  }
  EXPECT_EQ(got, expected);

  const uint64_t issued = CounterValue("io.hedge.issued") - issued_before;
  const uint64_t wins = CounterValue("io.hedge.wins") - wins_before;
  EXPECT_GE(issued, 1u);
  EXPECT_GE(wins, 1u);  // the hedge, not the straggler, supplied block 0
}

TEST(HedgedReadTest, NoHedgesOnHealthyStorage) {
  ScratchDir scratch;
  StorageEnv env;
  const std::string path = scratch.str() + "/healthy.dat";
  const std::string expected = WritePatternFile(&env, path, 4 * kBlock);

  const uint64_t issued_before = CounterValue("io.hedge.issued");
  ThreadPool pool(2);
  PrefetchBudget budget(kBlock);
  PrefetchTuning tuning;
  tuning.hedge_reads = true;
  tuning.hedge_min_nanos = 500'000'000;  // far beyond any local read
  auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                      /*depth_cap=*/2, tuning);
  std::string got(expected.size(), '\0');
  size_t off = 0;
  while (off < got.size()) {
    size_t bytes_read = 0;
    ASSERT_TRUE(reader->Read(kBlock, got.data() + off, &bytes_read).ok());
    off += bytes_read;
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(CounterValue("io.hedge.issued"), issued_before);
}

TEST(ReadDeadlineTest, HungFetchSurfacesUnavailable) {
  ScratchDir scratch;
  StorageEnv env;
  const std::string path = scratch.str() + "/hung.dat";
  WritePatternFile(&env, path, 2 * kBlock);

  const uint64_t deadline_before =
      CounterValue("io.prefetch.deadline_exceeded");
  ThreadPool pool(1);
  PrefetchBudget budget(0);
  auto base = env.NewSequentialFile(path);
  ASSERT_TRUE(base.ok());
  // 400 ms stall against a 50 ms deadline: the consumer must give up with
  // Unavailable instead of hanging for the duration of the stall.
  auto straggler = std::make_unique<StragglingFile>(
      std::move(*base), /*straggle_offset=*/0, /*sleep_nanos=*/400'000'000);
  PrefetchTuning tuning;
  tuning.read_deadline_nanos = 50'000'000;
  {
    auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                        /*depth_cap=*/1, tuning,
                                        std::move(straggler));
    char buf[kBlock];
    size_t bytes_read = 0;
    Status status = reader->Read(kBlock, buf, &bytes_read);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_NE(status.message().find("deadline exceeded"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(CounterValue("io.prefetch.deadline_exceeded"),
            deadline_before + 1);
}

StorageHealth::Options FastBreaker() {
  StorageHealth::Options options;
  options.window_size = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.open_cooldown_nanos = 2'000'000;  // 2 ms
  options.half_open_probes = 2;
  return options;
}

TEST(StorageHealthTest, TripsFailsFastAndRecoversThroughProbes) {
  StorageHealth health(FastBreaker());
  const auto op = StorageHealth::OpClass::kWrite;

  // Sustained failure trips the breaker once the window has samples.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(health.AllowRequest(op).ok());
    health.RecordOutcome(op, Status::Unavailable("storage down"), 1000);
  }
  EXPECT_EQ(health.state(op), StorageHealth::State::kOpen);

  // Open = fail fast, and a coherent message.
  Status rejected = health.AllowRequest(op);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("circuit breaker open"),
            std::string::npos);

  // Other op classes are unaffected.
  EXPECT_TRUE(health.AllowRequest(StorageHealth::OpClass::kRead).ok());

  // After the cooldown, probes are admitted; enough successes close it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(health.AllowRequest(op).ok());
  EXPECT_EQ(health.state(op), StorageHealth::State::kHalfOpen);
  health.RecordOutcome(op, Status::OK(), 1000);
  ASSERT_TRUE(health.AllowRequest(op).ok());
  health.RecordOutcome(op, Status::OK(), 1000);
  EXPECT_EQ(health.state(op), StorageHealth::State::kClosed);
  EXPECT_TRUE(health.AllowRequest(op).ok());
}

TEST(StorageHealthTest, FailedProbeSnapsBackToOpen) {
  StorageHealth health(FastBreaker());
  const auto op = StorageHealth::OpClass::kRead;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(health.AllowRequest(op).ok());
    health.RecordOutcome(op, Status::IoError("io down"), 1000);
  }
  EXPECT_EQ(health.state(op), StorageHealth::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(health.AllowRequest(op).ok());  // probe admitted
  health.RecordOutcome(op, Status::Unavailable("still down"), 1000);
  EXPECT_EQ(health.state(op), StorageHealth::State::kOpen);
  EXPECT_FALSE(health.AllowRequest(op).ok());
}

TEST(StorageHealthTest, CallerErrorsAreNotHealthSignals) {
  StorageHealth health(FastBreaker());
  const auto op = StorageHealth::OpClass::kWrite;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(health.AllowRequest(op).ok());
    health.RecordOutcome(op, Status::ResourceExhausted("quota"), 1000);
  }
  EXPECT_EQ(health.state(op), StorageHealth::State::kClosed);
}

TEST(StorageHealthTest, EnvIntegrationFailsFastUnderSustainedFaults) {
  ScratchDir scratch;
  StorageEnv env;
  env.EnableStorageHealth(FastBreaker());
  env.InjectTransientWriteFailures(100);

  const uint64_t opened_before = CounterValue("io.health.opened");
  const uint64_t fast_before = CounterValue("io.health.fast_fail");

  auto file = env.NewWritableFile(scratch.str() + "/breaker.dat");
  ASSERT_TRUE(file.ok());
  // Every append fails Unavailable; after min_samples the breaker opens
  // and the remaining calls never reach the (still faulty) storage.
  Status last;
  for (int i = 0; i < 10; ++i) {
    last = (*file)->Append("block");
    EXPECT_FALSE(last.ok());
  }
  EXPECT_EQ(env.health()->state(StorageHealth::OpClass::kWrite),
            StorageHealth::State::kOpen);
  EXPECT_EQ(last.code(), StatusCode::kUnavailable);
  EXPECT_NE(last.message().find("circuit breaker open"), std::string::npos);
  EXPECT_GT(CounterValue("io.health.opened"), opened_before);
  EXPECT_GT(CounterValue("io.health.fast_fail"), fast_before);
}

TEST(SpillQuotaTest, ChargesCreditsAndNamesTheQuota) {
  SpillQuota quota(/*quota_bytes=*/1000);
  EXPECT_TRUE(quota.enabled());
  EXPECT_TRUE(quota.Charge("a", 600).ok());
  EXPECT_EQ(quota.charged_bytes(), 600u);
  Status rejected = quota.Charge("b", 500);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("spill_quota_bytes"), std::string::npos)
      << rejected.ToString();
  // Deleting file a returns its bytes; the same charge then fits.
  EXPECT_EQ(quota.CreditFile("a"), 600u);
  EXPECT_TRUE(quota.Charge("b", 500).ok());
}

TEST(SpillQuotaTest, ExemptionAllowsOverageUntilSettled) {
  SpillQuota quota(/*quota_bytes=*/1000);
  ASSERT_TRUE(quota.Charge("in", 900).ok());
  quota.AddExemption("out");
  // The exempt consolidation output may exceed the quota while written...
  EXPECT_TRUE(quota.Charge("out", 400).ok());
  EXPECT_EQ(quota.charged_bytes(), 1300u);
  // ...but settling its final size ends the exemption.
  quota.ChargeAtLeast("out", 400);
  EXPECT_FALSE(quota.Charge("out", 400).ok());
}

TEST(SpillQuotaTest, SpillManagerEnforcesQuotaOnRunsAndCreditsDeletes) {
  ScratchDir scratch;
  StorageEnv env;
  IoPipelineOptions io;
  // Room for one full block plus change — the second block must bounce.
  io.spill_quota_bytes = kDefaultBlockBytes + kDefaultBlockBytes / 2;
  auto spill = SpillManager::Create(&env, scratch.str() + "/spill", io);
  ASSERT_TRUE(spill.ok());

  const uint64_t rejections_before = CounterValue("spill.quota_rejections");
  RowComparator comparator;
  auto writer = (*spill)->NewRun(comparator);
  ASSERT_TRUE(writer.ok());
  Status status;
  const std::string payload(1024, 'q');
  for (uint64_t i = 0; i < 4096 && status.ok(); ++i) {
    status = (*writer)->Append(Row(static_cast<double>(i), i, payload));
  }
  if (status.ok()) status = (*writer)->Finish().status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("spill quota exceeded"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("spill_quota_bytes"), std::string::npos);
  EXPECT_GT(CounterValue("spill.quota_rejections"), rejections_before);

  // An exempt (consolidation-output) run may run past the quota while it
  // is written; settling its final size at AddRun ends the exemption and
  // leaves the quota over-committed.
  auto exempt = (*spill)->NewRun(comparator, kDefaultIndexStride,
                                 /*quota_exempt=*/true);
  ASSERT_TRUE(exempt.ok()) << exempt.status().ToString();
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        (*exempt)->Append(Row(static_cast<double>(i), i, payload)).ok());
  }
  auto meta = (*exempt)->Finish();
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE((*spill)->AddRun(*meta).ok());
  ASSERT_GT((*spill)->spill_quota()->charged_bytes(), io.spill_quota_bytes);

  // Now the quota really is exhausted: new non-exempt runs bounce up front.
  EXPECT_EQ((*spill)->NewRun(comparator).status().code(),
            StatusCode::kResourceExhausted);

  // Deleting the big run's file returns its bytes and re-admits runs.
  auto released = (*spill)->ReleaseRun(meta->id);
  ASSERT_TRUE(released.ok());
  ASSERT_TRUE((*spill)->DeleteSpillFile(*released).ok());
  EXPECT_LT((*spill)->spill_quota()->charged_bytes(), io.spill_quota_bytes);
  EXPECT_TRUE((*spill)->NewRun(comparator).ok());
}

/// Descending keys against an ascending top-k: every arriving row beats
/// everything seen before, so the cutoff filter never eliminates anything
/// and all rows spill — worst case for disk footprint.
std::vector<Row> DescendingRows(uint64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rows.emplace_back(static_cast<double>(n - i), i, std::string(24, 'p'));
  }
  return rows;
}

/// Uniform keys with a fixed payload: every run starts near the lowest key,
/// so no run ever lies wholly beyond the cutoff and only consolidation can
/// shrink the spilled set.
std::vector<Row> UniformRows(uint64_t n) {
  DatasetSpec spec;
  spec.WithRows(n).WithSeed(31).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

TEST(SpillQuotaTest, HistogramOperatorConsolidatesBeforeFailing) {
  const auto rows = UniformRows(60000);
  const auto expected = ReferenceTopK(rows, 800, 0, SortDirection::kAscending);

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 800;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  // Tight but survivable: the live runs would blow through this, so the
  // operator must consolidate mid-flight (folding its runs down to the
  // current top-k) to finish at all.
  options.spill_quota_bytes = 128 * 1024;

  const uint64_t consolidations_before =
      CounterValue("spill.quota_consolidations");
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  for (const Row& row : rows) {
    const Status status = (*op)->Consume(row);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
  EXPECT_GT(CounterValue("spill.quota_consolidations"),
            consolidations_before);
  EXPECT_EQ((*op)->stats().runs_dropped, 0u);
}

TEST(SpillQuotaTest, HistogramOperatorMeetsQuotaByDroppingDeadRuns) {
  // Descending keys spill every row (~1 MB), far past the quota, but each
  // run falls wholly beyond the cutoff soon after it is written. Deleting
  // those runs as input arrives keeps the live set under the quota, with
  // no consolidation needed.
  const auto rows = DescendingRows(20000);
  const auto expected = ReferenceTopK(rows, 800, 0, SortDirection::kAscending);

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 800;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  options.spill_quota_bytes = 128 * 1024;

  const uint64_t consolidations_before =
      CounterValue("spill.quota_consolidations");
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
  EXPECT_GT((*op)->stats().bytes_spilled, options.spill_quota_bytes);
  EXPECT_GT((*op)->stats().runs_dropped, 0u);
  EXPECT_EQ(CounterValue("spill.quota_consolidations"),
            consolidations_before);
}

TEST(SpillQuotaTest, ImpossibleQuotaSurfacesResourceExhausted) {
  const auto rows = DescendingRows(20000);

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 800;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  // Smaller than a single spill block: no amount of consolidation helps.
  options.spill_quota_bytes = 4 * 1024;

  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  Status status;
  for (const Row& row : rows) {
    status = (*op)->Consume(row);
    if (!status.ok()) break;
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("spill_quota_bytes"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace topk
