#include <algorithm>
#include <filesystem>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

#include "extensions/grouped_topk.h"
#include "extensions/segmented_topk.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

class ExtensionsTest : public ::testing::Test {
 protected:
  TopKOptions BaseOptions(uint64_t k, size_t memory_bytes = 32 * 1024) {
    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(dir_seq_++);
    return options;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int dir_seq_ = 0;
};

// ---------------- Grouped top-k (Sec 4.3) ----------------

TEST_F(ExtensionsTest, GroupedTopKMatchesPerGroupReference) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(300, 16 * 1024);
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());

  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  std::map<uint64_t, std::vector<Row>> by_group;
  for (const Row& row : rows) {
    const uint64_t group = row.id % 7;
    by_group[group].push_back(row);
    ASSERT_TRUE((*grouped)->Consume(group, row).ok());
  }
  EXPECT_EQ((*grouped)->group_count(), 7u);

  auto results = (*grouped)->Finish();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 7u);
  for (const auto& result : *results) {
    ExpectSameRows(ReferenceTopK(by_group[result.group], 300, 0,
                                 SortDirection::kAscending),
                   result.rows);
  }
}

TEST_F(ExtensionsTest, GroupedTopKSkewedGroupSizes) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(50, 8 * 1024);
  options.grouped_buckets_per_run = 5;  // smaller per-group histograms
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());

  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  std::map<uint64_t, std::vector<Row>> by_group;
  for (const Row& row : rows) {
    // Group 0 gets ~94% of rows; groups 1..16 share the tail.
    const uint64_t group = (row.id % 16 == 0) ? 1 + (row.id % 15) : 0;
    by_group[group].push_back(row);
    ASSERT_TRUE((*grouped)->Consume(group, row).ok());
  }
  auto results = (*grouped)->Finish();
  ASSERT_TRUE(results.ok());
  for (const auto& result : *results) {
    ExpectSameRows(ReferenceTopK(by_group[result.group], 50, 0,
                                 SortDirection::kAscending),
                   result.rows);
  }
}

TEST_F(ExtensionsTest, GroupedTopKConsumeAfterFinishFails) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(10);
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE((*grouped)->Consume(0, Row(1, 1)).ok());
  ASSERT_TRUE((*grouped)->Finish().ok());
  EXPECT_EQ((*grouped)->Consume(0, Row(2, 2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ExtensionsTest, GroupedAndSegmentedRemoveTheSpillDirTheyCreated) {
  DatasetSpec spec;
  spec.WithRows(5000).WithSeed(6);
  auto rows = MaterializeDataset(spec);

  GroupedTopK::Options grouped_options;
  grouped_options.per_group = BaseOptions(100, 4 * 1024);
  auto grouped = GroupedTopK::Make(grouped_options);
  ASSERT_TRUE(grouped.ok());
  for (const Row& row : rows) {
    ASSERT_TRUE((*grouped)->Consume(row.id % 2, row).ok());
  }
  ASSERT_TRUE((*grouped)->Finish().ok());
  ASSERT_TRUE((*grouped)->group_operator(0)->is_external());
  grouped->reset();
  EXPECT_FALSE(std::filesystem::exists(grouped_options.per_group.spill_dir));

  SegmentedTopK::Options segmented_options;
  segmented_options.base = BaseOptions(100, 4 * 1024);
  auto segmented = SegmentedTopK::Make(segmented_options);
  ASSERT_TRUE(segmented.ok());
  for (const Row& row : rows) {
    ASSERT_TRUE((*segmented)->Consume(0, row).ok());
  }
  ASSERT_TRUE((*segmented)->Finish().ok());
  segmented->reset();
  EXPECT_FALSE(std::filesystem::exists(segmented_options.base.spill_dir));

  // A directory the caller made is left in place.
  const std::string existing = scratch_.str() + "/existing";
  std::filesystem::create_directories(existing);
  grouped_options.per_group.spill_dir = existing;
  grouped = GroupedTopK::Make(grouped_options);
  ASSERT_TRUE(grouped.ok());
  for (const Row& row : rows) {
    ASSERT_TRUE((*grouped)->Consume(0, row).ok());
  }
  ASSERT_TRUE((*grouped)->Finish().ok());
  grouped->reset();
  EXPECT_TRUE(std::filesystem::exists(existing));
}

// ---------------- Segmented top-k (Sec 4.2) ----------------

TEST_F(ExtensionsTest, SegmentedTopKStopsAfterKRows) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(100, 16 * 1024);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());

  // Three segments of 80 rows each: k=100 needs all of segment 0 plus the
  // top 20 of segment 1; segment 2 must be ignored.
  DatasetSpec spec;
  spec.WithRows(240).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*segmented)->Consume(i / 80, rows[i]).ok());
  }
  EXPECT_GT((*segmented)->rows_ignored(), 0u);
  auto result = (*segmented)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 100u);

  // Expected: segment 0 fully sorted (80 rows), then top-20 of segment 1.
  std::vector<Row> segment0(rows.begin(), rows.begin() + 80);
  std::vector<Row> segment1(rows.begin() + 80, rows.begin() + 160);
  auto expected0 = ReferenceTopK(segment0, 80, 0, SortDirection::kAscending);
  auto expected1 = ReferenceTopK(segment1, 20, 0, SortDirection::kAscending);
  for (size_t i = 0; i < 80; ++i) {
    EXPECT_EQ((*result)[i].segment, 0u);
    EXPECT_EQ((*result)[i].row.id, expected0[i].id);
  }
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ((*result)[80 + i].segment, 1u);
    EXPECT_EQ((*result)[80 + i].row.id, expected1[i].id);
  }
}

TEST_F(ExtensionsTest, SegmentedTopKCapsApproxTargetAtRemainingRows) {
  // Segment 0 leaves 20 of k = 100 rows to find, fewer than the target of
  // 90: segment 1's operator filters for those 20 rows.
  SegmentedTopK::Options options;
  options.base = BaseOptions(100, 16 * 1024);
  options.base.approx_filter_k = 90;
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());
  DatasetSpec spec;
  spec.WithRows(240).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*segmented)->Consume(i / 80, rows[i]).ok());
  }
  auto result = (*segmented)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 100u);
  std::vector<Row> segment1(rows.begin() + 80, rows.begin() + 160);
  auto expected1 = ReferenceTopK(segment1, 20, 0, SortDirection::kAscending);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ((*result)[80 + i].segment, 1u);
    EXPECT_EQ((*result)[80 + i].row.id, expected1[i].id);
  }
}

TEST_F(ExtensionsTest, SegmentedTopKFirstSegmentSatisfiesQuery) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*segmented)->Consume(0, Row(i, i)).ok());
  }
  // Close segment 0 by presenting segment 1; everything after is ignored.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*segmented)->Consume(1, Row(-100 + i, 100 + i)).ok());
  }
  EXPECT_TRUE((*segmented)->saturated());
  EXPECT_EQ((*segmented)->rows_ignored(), 50u);  // all of segment 1
  auto result = (*segmented)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*result)[i].segment, 0u);
    EXPECT_EQ((*result)[i].row.key, i);
  }
}

TEST_F(ExtensionsTest, SegmentedTopKRejectsOutOfOrderSegments) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());
  ASSERT_TRUE((*segmented)->Consume(3, Row(1, 1)).ok());
  EXPECT_EQ((*segmented)->Consume(2, Row(2, 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtensionsTest, SegmentedTopKRejectsOffset) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  options.base.offset = 5;
  EXPECT_FALSE(SegmentedTopK::Make(options).ok());
}

// ---------------- Approximate top-k (Sec 4.5) ----------------

TEST_F(ExtensionsTest, ApproxTopKReturnsTruePrefixWithinTolerance) {
  auto approx = ApproximateTopK(BaseOptions(2000, 16 * 1024), 0.1);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->approx_filter_k, 1800u);  // k' = 1800 guaranteed rows
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, *approx);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(4);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->size(), 1800u);
  ASSERT_LE(result->size(), 2000u);
  // Guarantee (Sec 4.5): the first k' rows are the exact top-k'; rows
  // between k' and k may be approximate in *membership* (the second form
  // of approximation) but are still sorted retained rows.
  auto exact_prefix = ReferenceTopK(rows, 1800, 0, SortDirection::kAscending);
  std::vector<Row> head(result->begin(), result->begin() + 1800);
  ExpectSameRows(exact_prefix, head);
  RowComparator cmp;
  EXPECT_TRUE(std::is_sorted(result->begin(), result->end(), cmp));
}

TEST_F(ExtensionsTest, ApproxTopKZeroToleranceIsExact) {
  auto approx = ApproximateTopK(BaseOptions(500, 16 * 1024), 0.0);
  ASSERT_TRUE(approx.ok());
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, *approx);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(ExtensionsTest, ApproxTopKRejectsBadTolerance) {
  EXPECT_FALSE(ApproximateTopK(BaseOptions(10), 1.0).ok());
  EXPECT_FALSE(ApproximateTopK(BaseOptions(10), -0.1).ok());
}

TEST_F(ExtensionsTest, ApproxTopKTargetCoversTheOffset) {
  // k' = ceil(10 * 0.75) = 8 rows after the 5 skipped ones; at least 1.
  TopKOptions options = BaseOptions(10);
  options.offset = 5;
  auto approx = ApproximateTopK(options, 0.25);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->approx_filter_k, 13u);
  approx = ApproximateTopK(BaseOptions(1), 0.99);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->approx_filter_k, 1u);
}

TEST_F(ExtensionsTest, ApproxTopKStatsAreLiveAndSuspendWorks) {
  // The approximate query is the histogram operator itself: its stats are
  // live during input, it exposes its filter, and it can Suspend.
  TopKOptions options = BaseOptions(2000, 16 * 1024);
  options.manifest_filename = "approx.tkm";
  auto approx = ApproximateTopK(options, 0.1);
  ASSERT_TRUE(approx.ok());
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, *approx);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(4);
  for (const Row& row : MaterializeDataset(spec)) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  EXPECT_EQ((*op)->stats().rows_consumed, 20000u);
  ASSERT_NE((*op)->filter(), nullptr);
  EXPECT_EQ((*op)->filter()->k(), 1800u);
  EXPECT_TRUE((*op)->Suspend().ok());
}

// ---------------- Parallel run generation (Sec 4.4) ----------------

TEST_F(ExtensionsTest, ParallelHistogramMatchesReference) {
  TopKOptions options = BaseOptions(1000, 64 * 1024);
  options.workers = 4;
  // The cutoff timeline records from the worker threads too.
  options.obs = ObsContext::Create("parallel");
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok()) << op.status().ToString();

  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(6);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 1000, 0, SortDirection::kAscending),
                 *result);
  // The shared filter must have eliminated a large share of the input.
  EXPECT_GT((*op)->stats().rows_eliminated_input +
                (*op)->stats().rows_eliminated_spill,
            20000u);
  ASSERT_TRUE((*op)->filter()->cutoff().has_value());
  EXPECT_FALSE(options.obs->cutoff_events().empty());
}

TEST_F(ExtensionsTest, ParallelSharedFilterRetainsLikeSingleThread) {
  // Sec 4.4: sharing the histogram priority queue keeps the retained row
  // count near single-thread levels. The contrast, threads with filters of
  // their own, is N independent operators over round-robin slices of the
  // input, each with 1/N of the memory: every one must prove k rows on
  // its own slice before it eliminates anything, so together they retain
  // far more.
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(8);
  auto rows = MaterializeDataset(spec);
  constexpr uint64_t kK = 2000;
  constexpr size_t kMemory = 64 * 1024;

  auto shared = [&](size_t workers) -> uint64_t {
    TopKOptions options = BaseOptions(kK, kMemory);
    options.workers = workers;
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    EXPECT_TRUE(op.ok());
    for (const Row& row : rows) {
      EXPECT_TRUE((*op)->Consume(row).ok());
    }
    auto result = (*op)->Finish();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->size(), kK);
    return (*op)->stats().rows_spilled;
  };
  auto independent = [&](size_t workers) -> uint64_t {
    std::vector<std::unique_ptr<TopKOperator>> ops;
    for (size_t i = 0; i < workers; ++i) {
      auto op = MakeTopKOperator(TopKAlgorithm::kHistogram,
                                 BaseOptions(kK, kMemory / workers));
      EXPECT_TRUE(op.ok());
      ops.push_back(std::move(*op));
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(ops[i % workers]->Consume(rows[i]).ok());
    }
    uint64_t spilled = 0;
    std::vector<Row> candidates;
    for (auto& op : ops) {
      auto result = op->Finish();
      EXPECT_TRUE(result.ok());
      candidates.insert(candidates.end(), result->begin(), result->end());
      spilled += op->stats().rows_spilled;
    }
    // The slices' answers still contain the global one.
    ExpectSameRows(ReferenceTopK(rows, kK, 0, SortDirection::kAscending),
                   ReferenceTopK(candidates, kK, 0, SortDirection::kAscending));
    return spilled;
  };

  const uint64_t single = shared(1);
  const uint64_t shared4 = shared(4);
  const uint64_t independent4 = independent(4);
  EXPECT_LT(shared4, 2 * single);     // near single-thread retention
  EXPECT_GT(independent4, shared4);   // independent filters retain more
}

TEST_F(ExtensionsTest, OnlyHistogramTakesWorkers) {
  TopKOptions options = BaseOptions(10);
  for (const size_t workers : {size_t{0}, kMaxWorkers + 1}) {
    options.workers = workers;
    EXPECT_EQ(MakeTopKOperator(TopKAlgorithm::kHistogram,
                               options).status().code(),
              StatusCode::kInvalidArgument)
        << workers;
  }
  options.workers = kMaxWorkers;
  EXPECT_TRUE(MakeTopKOperator(TopKAlgorithm::kHistogram, options).ok());
  options.workers = 2;
  EXPECT_TRUE(MakeTopKOperator(TopKAlgorithm::kHistogram, options).ok());
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    EXPECT_EQ(MakeTopKOperator(algorithm, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  GroupedTopK::Options grouped;
  grouped.per_group = options;
  EXPECT_EQ(GroupedTopK::Make(grouped).status().code(),
            StatusCode::kInvalidArgument);
  SegmentedTopK::Options segmented;
  segmented.base = options;
  EXPECT_EQ(SegmentedTopK::Make(segmented).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtensionsTest, OnlyHistogramTakesApproxFilterK) {
  TopKOptions options = BaseOptions(10);
  options.offset = 5;
  options.approx_filter_k = 16;  // beyond k + offset
  EXPECT_EQ(MakeTopKOperator(TopKAlgorithm::kHistogram, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.approx_filter_k = 15;
  EXPECT_TRUE(MakeTopKOperator(TopKAlgorithm::kHistogram, options).ok());
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    EXPECT_EQ(MakeTopKOperator(algorithm, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Grouped and segmented execution run the histogram operator, so they
  // take a target within k + offset and reject one beyond it.
  GroupedTopK::Options grouped;
  grouped.per_group = options;
  EXPECT_TRUE(GroupedTopK::Make(grouped).ok());
  grouped.per_group.approx_filter_k = 16;
  EXPECT_EQ(GroupedTopK::Make(grouped).status().code(),
            StatusCode::kInvalidArgument);
  SegmentedTopK::Options segmented;
  segmented.base = BaseOptions(10);  // segmented execution takes no offset
  segmented.base.approx_filter_k = 8;
  EXPECT_TRUE(SegmentedTopK::Make(segmented).ok());
  segmented.base.approx_filter_k = 11;
  EXPECT_EQ(SegmentedTopK::Make(segmented).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace topk
