/// Adaptive prefetch window: EWMA-driven depth scaling, the shared
/// PrefetchBudget clamp, budget hand-back by abandoned runs, and cancel
/// semantics when a merge stops early at k rows.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "io/async_io.h"
#include "io/spill_manager.h"
#include "io/storage_env.h"
#include "obs/metrics.h"
#include "sort/merger.h"
#include "tests/test_util.h"

namespace topk {
namespace {

using testing_util::MakePrefetchingReader;
using testing_util::ScratchDir;

constexpr size_t kBlock = 1024;

TEST(PrefetchBudgetTest, AcquireReleaseRoundTrip) {
  PrefetchBudget budget(2 * kBlock + kBlock / 2);
  EXPECT_EQ(budget.total(), 2 * kBlock + kBlock / 2);
  EXPECT_TRUE(budget.TryAcquire(kBlock));
  EXPECT_TRUE(budget.TryAcquire(kBlock));
  // A third full block exceeds the pool even though half a block is left.
  EXPECT_FALSE(budget.TryAcquire(kBlock));
  EXPECT_EQ(budget.acquired(), 2 * kBlock);
  budget.Release(kBlock);
  EXPECT_TRUE(budget.TryAcquire(kBlock));
  budget.Release(2 * kBlock);
  EXPECT_EQ(budget.acquired(), 0u);
}

TEST(ApportionPrefetchDepthTest, SplitsBudgetAcrossLiveRuns) {
  // 8 extra slots over 2 runs -> 4 each, plus the free first slot.
  EXPECT_EQ(ApportionPrefetchDepth(8 * kBlock, 2, kBlock), 5u);
  // Budget smaller than one slot per run -> fixed single-block lookahead.
  EXPECT_EQ(ApportionPrefetchDepth(8 * kBlock, 100, kBlock), 1u);
  EXPECT_EQ(ApportionPrefetchDepth(0, 4, kBlock), 1u);
  // Never beyond the hard ceiling, however generous the budget.
  EXPECT_EQ(ApportionPrefetchDepth(1u << 30, 1, kBlock), kMaxPrefetchDepth);
  // Degenerate widths.
  EXPECT_EQ(ApportionPrefetchDepth(8 * kBlock, 0, kBlock), 9u);
  EXPECT_EQ(ApportionPrefetchDepth(8 * kBlock, 1, 0), 1u);
}

class AdaptivePrefetchTest : public ::testing::Test {
 protected:
  std::string WriteFile(StorageEnv* env, const std::string& name,
                        size_t bytes) {
    const std::string path = scratch_.str() + "/" + name;
    auto file = env->NewWritableFile(path);
    EXPECT_TRUE(file.ok());
    std::string payload(bytes, '\0');
    for (size_t i = 0; i < bytes; ++i) {
      payload[i] = static_cast<char>('a' + (i % 26));
    }
    EXPECT_TRUE((*file)->Append(payload).ok());
    EXPECT_TRUE((*file)->Close().ok());
    return path;
  }

  ScratchDir scratch_;
};

/// The tentpole behaviour: when one storage round trip costs far more than
/// merging one block, the window must open past a single block.
TEST_F(AdaptivePrefetchTest, SlowStorageConvergesToDepthAboveOne) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 2'000'000;  // 2 ms per read call
  StorageEnv env(env_options);
  const std::string path = WriteFile(&env, "slow", 40 * kBlock);

  ThreadPool pool(4);
  PrefetchBudget budget(16 * kBlock);
  auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                      /*depth_cap=*/8);
  std::vector<char> buf(kBlock);
  for (;;) {
    size_t n = 0;
    ASSERT_TRUE(reader->Read(buf.size(), buf.data(), &n).ok());
    if (n == 0) break;
  }
  // The consumer merges a block in microseconds while the fetch costs 2 ms:
  // ceil(rtt / consume) saturates the cap.
  EXPECT_GT(reader->max_target_depth(), 1u);
  // EOF hands every reservation back, with the reader still open, once the
  // claims that extra handles made past EOF have come back empty.
  for (int i = 0; i < 2000 && budget.acquired() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(budget.acquired(), 0u);
}

/// With a cap of 1 the same slow environment must not read ahead more than
/// one block, however lopsided the EWMAs get or however much budget is
/// free.
TEST_F(AdaptivePrefetchTest, DepthCapOnePinsLegacyBehaviour) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 500'000;
  StorageEnv env(env_options);
  const std::string path = WriteFile(&env, "pinned", 10 * kBlock);

  ThreadPool pool(2);
  PrefetchBudget budget(16 * kBlock);
  auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                      /*depth_cap=*/1);
  std::vector<char> buf(kBlock);
  for (;;) {
    size_t n = 0;
    ASSERT_TRUE(reader->Read(buf.size(), buf.data(), &n).ok());
    if (n == 0) break;
  }
  EXPECT_EQ(reader->max_target_depth(), 1u);
}

/// Slots beyond the first fetch through extra handles from the reopen
/// factory, striped across block offsets. Out-of-order completions must
/// still reassemble into the exact byte stream.
TEST_F(AdaptivePrefetchTest, ReopenFactoryPreservesByteStream) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 300'000;
  StorageEnv env(env_options);
  // Not a multiple of the block size: the final block is short.
  const size_t kBytes = 33 * kBlock + 217;
  const std::string path = WriteFile(&env, "striped", kBytes);

  ThreadPool pool(4);
  PrefetchBudget budget(16 * kBlock);
  std::string contents;
  {
    auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                        /*depth_cap=*/8);
    std::vector<char> buf(kBlock);
    for (;;) {
      size_t n = 0;
      ASSERT_TRUE(reader->Read(buf.size(), buf.data(), &n).ok());
      if (n == 0) break;
      contents.append(buf.data(), n);
    }
    EXPECT_GT(reader->max_target_depth(), 1u);
  }  // trailing claims past EOF settle before the budget check
  ASSERT_EQ(contents.size(), kBytes);
  for (size_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(contents[i], static_cast<char>('a' + (i % 26))) << "at " << i;
  }
  EXPECT_EQ(budget.acquired(), 0u);
}

/// The budget clamp: many hungry readers can collectively never reserve
/// more than the pool holds, so per-reader windows stay shallow.
TEST_F(AdaptivePrefetchTest, SharedBudgetClampsManyReaders) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 1'000'000;
  StorageEnv env(env_options);
  const std::string path = WriteFile(&env, "many", 20 * kBlock);

  ThreadPool pool(4);
  // Room for two extra slots in total, fought over by four readers that
  // each want eight.
  PrefetchBudget budget(2 * kBlock);
  std::vector<std::unique_ptr<PrefetchingBlockReader>> readers;
  for (int i = 0; i < 4; ++i) {
    readers.push_back(MakePrefetchingReader(&env, path, &pool, kBlock,
                                            &budget, /*depth_cap=*/8));
  }
  std::vector<char> buf(kBlock);
  for (int round = 0; round < 20; ++round) {
    for (auto& reader : readers) {
      size_t n = 0;
      ASSERT_TRUE(reader->Read(buf.size(), buf.data(), &n).ok());
      ASSERT_LE(budget.acquired(), budget.total());
    }
  }
  readers.clear();
  EXPECT_EQ(budget.acquired(), 0u);
}

/// A reader abandoned mid-file (the cutoff dropped its run) must hand its
/// reservations back so surviving runs can deepen.
TEST_F(AdaptivePrefetchTest, AbandonedReaderReturnsBudget) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 1'000'000;
  StorageEnv env(env_options);
  const std::string path = WriteFile(&env, "abandoned", 30 * kBlock);

  ThreadPool pool(2);
  PrefetchBudget budget(8 * kBlock);
  {
    auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget,
                                        /*depth_cap=*/8);
    reader->CancelPrefetch();  // the merge dropped this run; stop the pump
    std::vector<char> buf(kBlock);
    for (int i = 0; i < 6; ++i) {
      size_t n = 0;
      ASSERT_TRUE(reader->Read(buf.size(), buf.data(), &n).ok());
      ASSERT_GT(n, 0u);
    }
  }  // destroyed mid-file, blocks still buffered and slots still reserved
  EXPECT_EQ(budget.acquired(), 0u);
}

/// Cancelled lookahead is deliberate, not overshoot: it must land on the
/// blocks_cancelled counter and leave blocks_unconsumed untouched.
TEST_F(AdaptivePrefetchTest, CancelReclassifiesLeftoverBlocks) {
  MetricsCounter* unconsumed =
      GlobalMetrics().GetCounter("io.prefetch.blocks_unconsumed");
  MetricsCounter* cancelled =
      GlobalMetrics().GetCounter("io.prefetch.blocks_cancelled");
  StorageEnv env;
  const std::string path = WriteFile(&env, "cancel", 5 * kBlock);

  ThreadPool pool(2);
  const uint64_t unconsumed_before = unconsumed->value();
  const uint64_t cancelled_before = cancelled->value();
  {
    PrefetchBudget budget(0);
    // Untouched reader: the constructor's eager first fetch is in flight.
    auto reader = MakePrefetchingReader(&env, path, &pool, kBlock, &budget);
    reader->CancelPrefetch();
  }
  EXPECT_EQ(unconsumed->value(), unconsumed_before);
  EXPECT_EQ(cancelled->value(), cancelled_before + 1);
}

std::vector<Row> SequentialRows(size_t n, double first_key) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row(first_key + static_cast<double>(i), i,
                       std::string(24, static_cast<char>('a' + (i % 26)))));
  }
  return rows;
}

/// The acceptance criterion: a k-limited merge that stops early cancels or
/// drains every in-flight read — io.prefetch.blocks_unconsumed stays 0.
TEST_F(AdaptivePrefetchTest, EarlyMergeStopLeavesNoUnconsumedBlocks) {
  MetricsCounter* unconsumed =
      GlobalMetrics().GetCounter("io.prefetch.blocks_unconsumed");
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 200'000;
  StorageEnv env(env_options);

  IoPipelineOptions io;
  io.background_threads = 4;
  auto spill = SpillManager::Create(&env, scratch_.str() + "/spill", io);
  ASSERT_TRUE(spill.ok());
  const RowComparator cmp;
  // Runs with near-disjoint key ranges: the merge drains the first run
  // while the others prefetch ahead — the worst case for overshoot.
  for (int r = 0; r < 6; ++r) {
    auto writer = (*spill)->NewRun(cmp);
    ASSERT_TRUE(writer.ok());
    for (const Row& row : SequentialRows(4000, r * 4000.0)) {
      ASSERT_TRUE((*writer)->Append(row).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE((*spill)->AddRun(*meta).ok());
  }

  const uint64_t before = unconsumed->value();
  MergeOptions options;
  options.limit = 500;  // stops inside the very first run
  MergeStats stats;
  {
    auto result = MergeRuns(spill->get(), (*spill)->runs(), cmp, options,
                            [](Row&&) { return Status::OK(); });
    ASSERT_TRUE(result.ok());
    stats = *result;
  }
  EXPECT_EQ(stats.rows_emitted, 500u);
  EXPECT_FALSE(stats.exhausted_inputs);
  EXPECT_EQ(unconsumed->value(), before);
  // Everything the merge abandoned was reclaimed.
  EXPECT_EQ((*spill)->prefetch_budget()->acquired(), 0u);
}

/// Samples of the io.prefetch.depth histogram at depth 2 or more.
uint64_t DeepWindowSamples() {
  const LatencyHistogram::Snapshot depth =
      GlobalMetrics().GetHistogram("io.prefetch.depth")->snapshot();
  uint64_t samples = 0;
  for (size_t i = LatencyHistogram::BucketIndex(2); i < depth.buckets.size();
       ++i) {
    samples += depth.buckets[i];
  }
  return samples;
}

/// The depth cap is derived from the width of the merge that opens a run,
/// not from how many runs are registered: a 2-way merge among 16
/// registered runs gets the 2-way share of the budget.
TEST_F(AdaptivePrefetchTest, MergeWidthSetsDepthCap) {
  StorageEnv::Options env_options;
  env_options.read_latency_nanos = 10'000'000;  // depth-hungry storage
  StorageEnv env(env_options);

  IoPipelineOptions io;
  io.background_threads = 4;
  io.prefetch_memory_budget = 8 * kDefaultBlockBytes;
  auto spill = SpillManager::Create(&env, scratch_.str() + "/spill", io);
  ASSERT_TRUE(spill.ok());
  const RowComparator cmp;
  // Two runs of several blocks with disjoint keys, so the merge drains one
  // after the other, plus 14 one-row runs that only make the registry
  // wide. Wide rows keep merging a block far cheaper than reading it,
  // sanitizer builds included.
  const std::string payload(8000, 'w');
  for (int r = 0; r < 16; ++r) {
    const int rows = r < 2 ? 200 : 1;
    auto writer = (*spill)->NewRun(cmp);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          (*writer)->Append(Row(r * 10000.0 + i, i, payload)).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE((*spill)->AddRun(*meta).ok());
  }
  // Apportioned over the registry, 8 slots over 16 runs leave depth 1.
  ASSERT_EQ((*spill)->PrefetchDepthCap(0), 1u);

  const std::vector<RunMeta> runs = (*spill)->runs();
  const std::vector<RunMeta> drained(runs.begin(), runs.begin() + 2);
  const uint64_t deep_before = DeepWindowSamples();
  auto stats = MergeRuns(spill->get(), drained, cmp, MergeOptions(),
                         [](Row&&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_emitted, 400u);
  EXPECT_TRUE(stats->exhausted_inputs);
  EXPECT_GT(DeepWindowSamples(), deep_before);
}

}  // namespace
}  // namespace topk
