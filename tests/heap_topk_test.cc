#include "topk/heap_topk.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/memory_accounting.h"
#include "tests/test_util.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;

TopKOptions HeapOptions(uint64_t k) {
  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = 16 << 20;
  return options;
}

TEST(HeapTopKTest, MatchesReferenceOnUniformInput) {
  DatasetSpec spec;
  spec.WithRows(10000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  auto op = HeapTopK::Make(HeapOptions(100));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 100, 0, SortDirection::kAscending),
                 *result);
  EXPECT_EQ((*op)->stats().rows_consumed, 10000u);
  EXPECT_GT((*op)->stats().rows_eliminated_input, 9000u);
}

TEST(HeapTopKTest, DescendingDirection) {
  DatasetSpec spec;
  spec.WithRows(5000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  TopKOptions options = HeapOptions(50);
  options.direction = SortDirection::kDescending;
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 50, 0, SortDirection::kDescending),
                 *result);
}

TEST(HeapTopKTest, OffsetSkipsRows) {
  DatasetSpec spec;
  spec.WithRows(2000).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  TopKOptions options = HeapOptions(20);
  options.offset = 35;
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 20, 35, SortDirection::kAscending),
                 *result);
}

TEST(HeapTopKTest, InputSmallerThanKReturnsEverythingSorted) {
  DatasetSpec spec;
  spec.WithRows(30).WithSeed(4);
  auto rows = MaterializeDataset(spec);
  auto op = HeapTopK::Make(HeapOptions(100));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 30u);
  ExpectSameRows(ReferenceTopK(rows, 100, 0, SortDirection::kAscending),
                 *result);
}

TEST(HeapTopKTest, FailsWithOutOfMemoryWhenOutputExceedsBudget) {
  // The paper's point about the in-memory algorithm: it "may unexpectedly
  // fail" when the output does not fit.
  TopKOptions options = HeapOptions(1000000);
  options.memory_limit_bytes = 4096;
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  Status status = Status::OK();
  for (int i = 0; i < 100000 && status.ok(); ++i) {
    status = (*op)->Consume(Row(i * 1.0, i));
  }
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);

  // The same holds once the heap is full: a row that displaces the heap
  // top but brings a larger payload must still fit the budget.
  options = HeapOptions(2);
  options.memory_limit_bytes = 4096;
  op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Consume(Row(5, 1)).ok());
  ASSERT_TRUE((*op)->Consume(Row(6, 2)).ok());
  status = (*op)->Consume(Row(1, 3, std::string(8192, 'x')));
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
  EXPECT_LE((*op)->stats().peak_memory_bytes, options.memory_limit_bytes);
}

TEST(HeapTopKTest, PeakMemoryIsTheLiveFootprint) {
  // 40-byte payloads in 400-byte buffers, in descending key order, so
  // every row displaces the heap top. The bytes released for an evicted
  // row must be the bytes charged for it: the peak is k rows' footprint.
  TopKOptions options = HeapOptions(100);
  options.memory_limit_bytes = 200 * 1024;
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  size_t row_cost = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string payload;
    payload.reserve(400);
    payload.assign(40, 'p');
    Row row(20000.0 - i, i, std::move(payload));
    row_cost = row.MemoryFootprint() + kPerRowOverheadBytes;
    ASSERT_TRUE((*op)->Consume(std::move(row)).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 100u);
  EXPECT_EQ(result->front().key, 1.0);
  EXPECT_EQ((*op)->stats().peak_memory_bytes, 100 * row_cost);
  EXPECT_LE((*op)->stats().peak_memory_bytes, options.memory_limit_bytes);
}

TEST(HeapTopKTest, MaximumMemoryLimitNeverFails) {
  TopKOptions options = HeapOptions(50000);
  options.memory_limit_bytes = std::numeric_limits<size_t>::max();
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(100000).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50000u);
}

TEST(HeapTopKTest, CutoffIsHeapTopOnceSaturated) {
  auto op = HeapTopK::Make(HeapOptions(3));
  ASSERT_TRUE(op.ok());
  EXPECT_FALSE((*op)->cutoff().has_value());
  ASSERT_TRUE((*op)->Consume(Row(5, 1)).ok());
  ASSERT_TRUE((*op)->Consume(Row(1, 2)).ok());
  EXPECT_FALSE((*op)->cutoff().has_value());
  ASSERT_TRUE((*op)->Consume(Row(3, 3)).ok());
  ASSERT_TRUE((*op)->cutoff().has_value());
  EXPECT_EQ(*(*op)->cutoff(), 5.0);
  ASSERT_TRUE((*op)->Consume(Row(2, 4)).ok());
  EXPECT_EQ(*(*op)->cutoff(), 3.0);
}

TEST(HeapTopKTest, DuplicateKeysStableById) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row(1.0, 99 - i));
  auto op = HeapTopK::Make(HeapOptions(10));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*result)[i].id, static_cast<uint64_t>(i));
  }
}

TEST(HeapTopKTest, ConsumeBatchMatchesRepeatedConsume) {
  DatasetSpec spec;
  spec.WithRows(3000).WithSeed(6);
  auto rows = MaterializeDataset(spec);

  auto batched = HeapTopK::Make(HeapOptions(100));
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE((*batched)->ConsumeBatch(rows).ok());
  auto batched_result = (*batched)->Finish();
  ASSERT_TRUE(batched_result.ok());

  auto single = HeapTopK::Make(HeapOptions(100));
  ASSERT_TRUE(single.ok());
  auto single_result = RunOperator(single->get(), rows);
  ASSERT_TRUE(single_result.ok());
  ExpectSameRows(*single_result, *batched_result);
}

TEST(HeapTopKTest, RejectsZeroK) {
  EXPECT_FALSE(HeapTopK::Make(HeapOptions(0)).ok());
}

TEST(HeapTopKTest, ConsumeAfterFinishFails) {
  auto op = HeapTopK::Make(HeapOptions(5));
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Consume(Row(1, 1)).ok());
  ASSERT_TRUE((*op)->Finish().ok());
  EXPECT_EQ((*op)->Consume(Row(2, 2)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*op)->Finish().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace topk
