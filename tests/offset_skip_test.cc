#include "extensions/offset_skip.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

class OffsetSkipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  /// Writes sorted `keys` as one run with a tiny index stride so even small
  /// tests exercise seeks.
  void WriteIndexedRun(const std::vector<double>& keys,
                       uint64_t index_stride) {
    RowComparator cmp;
    const uint64_t run_id = next_run_++;
    auto writer = RunWriter::Create(
        &env_, scratch_.str() + "/run" + std::to_string(run_id), run_id,
        cmp, kDefaultBlockBytes, index_stride);
    ASSERT_TRUE(writer.ok());
    for (double key : keys) {
      ASSERT_TRUE((*writer)->Append(Row(key, next_id_++)).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    spill_->AddRun(*meta);
  }

  ScratchDir scratch_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
  uint64_t next_run_ = 0;
  uint64_t next_id_ = 0;
};

TEST_F(OffsetSkipTest, RunIndexEntriesRecorded) {
  std::vector<double> keys(100);
  for (int i = 0; i < 100; ++i) keys[i] = i;
  WriteIndexedRun(keys, /*index_stride=*/10);
  const std::vector<RunMeta> runs = spill_->runs();
  const RunMeta& meta = runs[0];
  ASSERT_EQ(meta.index.size(), 10u);
  EXPECT_EQ(meta.index[0].key, 9.0);
  EXPECT_EQ(meta.index[0].rows, 10u);
  EXPECT_EQ(meta.index[9].rows, 100u);
  EXPECT_LT(meta.index[0].bytes, meta.index[9].bytes);
}

TEST_F(OffsetSkipTest, PlanRespectsOffsetUpperBound) {
  // Two runs of 0..99 and 100..199; offset 50 can safely skip at most the
  // rows provably below the 50th key.
  std::vector<double> a(100), b(100);
  for (int i = 0; i < 100; ++i) {
    a[i] = i;
    b[i] = 100 + i;
  }
  WriteIndexedRun(a, 10);
  WriteIndexedRun(b, 10);
  auto plan = PlanOffsetSkip(spill_->runs(), 50, RowComparator());
  EXPECT_TRUE(plan.has_skip);
  EXPECT_LE(plan.rows_skipped, 50u);
  EXPECT_GT(plan.rows_skipped, 0u);
  // All skipped rows must come from run a (run b starts at key 100).
  EXPECT_EQ(plan.skip_rows[1], 0u);
}

TEST_F(OffsetSkipTest, PlanZeroOffsetSkipsNothing) {
  std::vector<double> keys(50);
  for (int i = 0; i < 50; ++i) keys[i] = i;
  WriteIndexedRun(keys, 10);
  auto plan = PlanOffsetSkip(spill_->runs(), 0, RowComparator());
  EXPECT_FALSE(plan.has_skip);
  EXPECT_EQ(plan.rows_skipped, 0u);
}

TEST_F(OffsetSkipTest, PlanWithoutIndexesSkipsNothing) {
  std::vector<double> keys(50);
  for (int i = 0; i < 50; ++i) keys[i] = i;
  WriteIndexedRun(keys, /*index_stride=*/0);  // no index
  auto plan = PlanOffsetSkip(spill_->runs(), 25, RowComparator());
  EXPECT_FALSE(plan.has_skip);
}

TEST_F(OffsetSkipTest, MergeWithSkipMatchesPlainMerge) {
  Random rng(1);
  std::vector<double> all;
  for (int run = 0; run < 5; ++run) {
    std::vector<double> keys;
    for (int i = 0; i < 400; ++i) keys.push_back(rng.NextDouble());
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    WriteIndexedRun(keys, 16);
  }
  std::sort(all.begin(), all.end());

  for (uint64_t offset : {1ULL, 17ULL, 250ULL, 1000ULL, 1999ULL}) {
    MergeOptions options;
    options.skip = offset;
    options.limit = 100;
    std::vector<Row> out;
    OffsetSkipPlan plan;
    auto stats = MergeRunsWithOffsetSkip(
        spill_.get(), spill_->runs(), RowComparator(), options,
        [&](Row&& row) {
          out.push_back(std::move(row));
          return Status::OK();
        },
        &plan);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const size_t expect_n =
        std::min<size_t>(100, all.size() - std::min<size_t>(offset, all.size()));
    ASSERT_EQ(out.size(), expect_n) << "offset " << offset;
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].key, all[offset + i]) << "offset " << offset;
    }
    if (offset >= 100) {
      EXPECT_TRUE(plan.has_skip) << "offset " << offset;
      EXPECT_GT(plan.rows_skipped, 0u);
      // Seeked rows were never read from storage.
      EXPECT_EQ(stats->rows_skipped, offset);
    }
  }
}

TEST_F(OffsetSkipTest, SkipReducesRowsRead) {
  Random rng(2);
  for (int run = 0; run < 4; ++run) {
    std::vector<double> keys;
    for (int i = 0; i < 1000; ++i) keys.push_back(rng.NextDouble());
    std::sort(keys.begin(), keys.end());
    WriteIndexedRun(keys, 32);
  }
  MergeOptions options;
  options.skip = 3000;
  options.limit = 50;

  auto count_reads = [&](bool use_skip) {
    std::vector<Row> out;
    MergeStats stats;
    auto sink = [&](Row&& row) {
      out.push_back(std::move(row));
      return Status::OK();
    };
    if (use_skip) {
      auto r = MergeRunsWithOffsetSkip(spill_.get(), spill_->runs(),
                                       RowComparator(), options, sink);
      EXPECT_TRUE(r.ok());
      return r->rows_read;
    }
    auto r = MergeRuns(spill_.get(), spill_->runs(), RowComparator(),
                       options, sink);
    EXPECT_TRUE(r.ok());
    return r->rows_read;
  };

  const uint64_t plain = count_reads(false);
  const uint64_t seek = count_reads(true);
  EXPECT_GT(plain, 3000u);
  EXPECT_LT(seek, plain / 2);  // most of the offset prefix never read
}

TEST_F(OffsetSkipTest, DescendingDirection) {
  RowComparator cmp(SortDirection::kDescending);
  auto writer = RunWriter::Create(&env_, scratch_.str() + "/desc", 100, cmp,
                                  kDefaultBlockBytes, /*index_stride=*/8);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*writer)->Append(Row(200.0 - i, i)).ok());
  }
  auto meta = (*writer)->Finish();
  ASSERT_TRUE(meta.ok());
  spill_->AddRun(*meta);

  MergeOptions options;
  options.skip = 100;
  options.limit = 10;
  std::vector<Row> out;
  auto stats = MergeRunsWithOffsetSkip(spill_.get(), spill_->runs(), cmp,
                                       options, [&](Row&& row) {
                                         out.push_back(std::move(row));
                                         return Status::OK();
                                       });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].key, 100.0);  // 101st largest of 200..1
  EXPECT_LT(stats->rows_read, 150u);
}

TEST_F(OffsetSkipTest, OperatorLevelOffsetSkipMatchesPlain) {
  ScratchDir op_scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(21);
  auto rows = MaterializeDataset(spec);
  const uint64_t k = 500, offset = 5000;
  auto expected = ReferenceTopK(rows, k, offset, SortDirection::kAscending);

  for (bool use_skip : {true, false}) {
    TopKOptions options;
    options.k = k;
    options.offset = offset;
    options.memory_limit_bytes = 16 * 1024;
    options.histogram_offset_skip = use_skip;
    options.env = &env;
    options.spill_dir = op_scratch.str() + (use_skip ? "/skip" : "/plain");
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(expected, *result);
    if (use_skip) {
      EXPECT_GT((*op)->stats().offset_rows_seek_skipped, 0u);
    } else {
      EXPECT_EQ((*op)->stats().offset_rows_seek_skipped, 0u);
    }
  }
}

TEST_F(OffsetSkipTest, ParallelRunGenerationKeepsTheOffsetSkip) {
  // Runs written by four parallel run generators carry seek indexes too,
  // so the final merge still seeks past the offset prefix.
  ScratchDir op_scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(21);
  const auto rows = MaterializeDataset(spec);
  const uint64_t k = 500, offset = 5000;
  for (const SortDirection direction :
       {SortDirection::kAscending, SortDirection::kDescending}) {
    TopKOptions options;
    options.k = k;
    options.offset = offset;
    options.direction = direction;
    options.memory_limit_bytes = 16 * 1024;
    options.workers = 4;
    options.env = &env;
    options.spill_dir = op_scratch.str() + "/" +
                        std::to_string(static_cast<int>(direction));
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(ReferenceTopK(rows, k, offset, direction), *result);
    EXPECT_GT((*op)->stats().offset_rows_seek_skipped, 0u);
  }
}

/// Property sweep: random runs, random offsets — seek-merge must equal the
/// flattened sorted reference in every case.
class OffsetSkipPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OffsetSkipPropertyTest, SeekMergeEqualsReference) {
  const uint64_t seed = GetParam();
  Random rng(seed * 31 + 5);
  ScratchDir scratch;
  StorageEnv env;
  auto spill_result = SpillManager::Create(&env, scratch.str() + "/s");
  ASSERT_TRUE(spill_result.ok());
  auto& spill = *spill_result;

  RowComparator cmp;
  std::vector<double> all;
  uint64_t id = 0;
  const int num_runs = 1 + static_cast<int>(rng.NextUint64(8));
  for (int r = 0; r < num_runs; ++r) {
    std::vector<double> keys;
    const size_t n = rng.NextUint64(600);
    for (size_t i = 0; i < n; ++i) keys.push_back(rng.NextDouble());
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    auto writer = RunWriter::Create(
        &env, scratch.str() + "/r" + std::to_string(r), r, cmp,
        kDefaultBlockBytes, /*index_stride=*/1 + rng.NextUint64(64));
    ASSERT_TRUE(writer.ok());
    for (double key : keys) {
      ASSERT_TRUE((*writer)->Append(Row(key, id++)).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    spill->AddRun(*meta);
  }
  std::sort(all.begin(), all.end());

  MergeOptions options;
  options.skip = rng.NextUint64(all.size() + 10);
  options.limit = rng.NextUint64(200);
  std::vector<Row> out;
  auto stats = MergeRunsWithOffsetSkip(spill.get(), spill->runs(), cmp,
                                       options, [&](Row&& row) {
                                         out.push_back(std::move(row));
                                         return Status::OK();
                                       });
  ASSERT_TRUE(stats.ok());
  const size_t start = std::min<size_t>(options.skip, all.size());
  const size_t expect_n = std::min<size_t>(options.limit, all.size() - start);
  ASSERT_EQ(out.size(), expect_n);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].key, all[start + i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffsetSkipPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace topk
