/// SQL "FETCH FIRST k ROWS WITH TIES" semantics across every operator:
/// the result contains the top k rows plus every row whose key equals the
/// kth row's key. Sec 2.3 calls unknown duplicate counts a robustness
/// hazard for the in-memory algorithm; these tests demonstrate both the
/// hazard and the external operators' immunity to it.

#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "topk/heap_topk.h"
#include "topk/histogram_topk.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

/// Ground truth for WITH TIES: sort, slice [offset, offset+k), then extend
/// while keys equal the boundary key.
std::vector<Row> ReferenceWithTies(std::vector<Row> rows, uint64_t k,
                                   uint64_t offset, SortDirection direction) {
  RowComparator cmp(direction);
  std::sort(rows.begin(), rows.end(), cmp);
  const size_t begin = std::min<size_t>(offset, rows.size());
  size_t end = std::min<size_t>(begin + k, rows.size());
  if (end > begin) {
    const double boundary = rows[end - 1].key;
    while (end < rows.size() && rows[end].key == boundary) ++end;
  }
  return std::vector<Row>(rows.begin() + begin, rows.begin() + end);
}

/// Keys from a tiny integer domain: every boundary has many ties.
std::vector<Row> DuplicateHeavyRows(uint64_t n, uint64_t domain,
                                    uint64_t seed) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rows.push_back(Row(static_cast<double>(rng.NextUint64(domain)), i,
                       std::string(8, 'p')));
  }
  return rows;
}

class WithTiesTest : public ::testing::TestWithParam<TopKAlgorithm> {
 protected:
  TopKOptions Options(uint64_t k, size_t memory_bytes) {
    TopKOptions options;
    options.k = k;
    options.with_ties = true;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(seq_++);
    if (GetParam() == TopKAlgorithm::kHeap) {
      options.memory_limit_bytes = std::numeric_limits<size_t>::max();
    }
    return options;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int seq_ = 0;
};

TEST_P(WithTiesTest, DuplicateHeavyInputMatchesReference) {
  auto rows = DuplicateHeavyRows(20000, 40, 1);
  auto expected =
      ReferenceWithTies(rows, 1000, 0, SortDirection::kAscending);
  ASSERT_GT(expected.size(), 1000u);  // the boundary really has ties

  auto op = MakeTopKOperator(GetParam(), Options(1000, 24 * 1024));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST_P(WithTiesTest, UniqueKeysDegradeToPlainTopK) {
  DatasetSpec spec;
  spec.WithRows(15000).WithSeed(2);
  auto rows = testing_util::MaterializeDataset(spec);
  auto op = MakeTopKOperator(GetParam(), Options(700, 24 * 1024));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Continuous keys: ties are measure-zero, result is exactly top-k.
  ExpectSameRows(ReferenceTopK(rows, 700, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(WithTiesTest, OffsetCombinesWithTies) {
  auto rows = DuplicateHeavyRows(15000, 25, 3);
  auto expected =
      ReferenceWithTies(rows, 500, 123, SortDirection::kAscending);
  TopKOptions options = Options(500, 24 * 1024);
  options.offset = 123;
  auto op = MakeTopKOperator(GetParam(), options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST_P(WithTiesTest, DescendingDirection) {
  auto rows = DuplicateHeavyRows(10000, 30, 4);
  auto expected =
      ReferenceWithTies(rows, 800, 0, SortDirection::kDescending);
  TopKOptions options = Options(800, 24 * 1024);
  options.direction = SortDirection::kDescending;
  auto op = MakeTopKOperator(GetParam(), options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST_P(WithTiesTest, AllKeysEqualReturnsEverything) {
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Row(7.0, i));
  auto op = MakeTopKOperator(GetParam(), Options(100, 24 * 1024));
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 5000u);  // every row ties with the kth
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, WithTiesTest,
    ::testing::Values(TopKAlgorithm::kHeap,
                      TopKAlgorithm::kTraditionalExternal,
                      TopKAlgorithm::kOptimizedExternal,
                      TopKAlgorithm::kHistogram),
    [](const ::testing::TestParamInfo<TopKAlgorithm>& info) {
      std::string name = TopKAlgorithmName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(WithTiesRobustnessTest, HeapFailsOnUnboundedDuplicates) {
  // Sec 2.3: "if rows with key values equal to the kth key value are
  // desired and the number of duplicate rows is unknown, then this
  // algorithm may unexpectedly fail."
  ScratchDir scratch;
  TopKOptions options;
  options.k = 10;
  options.with_ties = true;
  options.memory_limit_bytes = 8 * 1024;
  auto op = HeapTopK::Make(options);
  ASSERT_TRUE(op.ok());
  Status status = Status::OK();
  for (int i = 0; i < 100000 && status.ok(); ++i) {
    status = (*op)->Consume(Row(1.0, i, std::string(32, 't')));
  }
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
}

TEST(WithTiesRobustnessTest, EvictedTiesReleaseWhatTheyWereCharged) {
  // Key pairs in descending order, 40-byte payloads in 400-byte buffers:
  // for k=3 ascending, each pair first turns the evicted heap top into a
  // tie, then sharpens the boundary and drops it. The live set is at most
  // five rows, so both the heap and the histogram operator's in-memory
  // phase must finish within 64 KiB without spilling.
  const int pairs = 2000;
  const auto slack_row = [&](int i) {
    std::string payload;
    payload.reserve(400);
    payload.assign(40, 'p');
    return Row(pairs - i / 2, i, std::move(payload));
  };
  std::vector<Row> rows;
  for (int i = 0; i < 2 * pairs; ++i) rows.push_back(slack_row(i));
  const auto expected =
      ReferenceWithTies(rows, 3, 0, SortDirection::kAscending);
  ASSERT_EQ(expected.size(), 4u);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 3;
  options.with_ties = true;
  options.memory_limit_bytes = 64 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();

  auto heap = HeapTopK::Make(options);
  ASSERT_TRUE(heap.ok());
  auto histogram = HistogramTopK::Make(options);
  ASSERT_TRUE(histogram.ok());
  for (int i = 0; i < 2 * pairs; ++i) {
    ASSERT_TRUE((*heap)->Consume(slack_row(i)).ok());
    ASSERT_TRUE((*histogram)->Consume(slack_row(i)).ok());
  }
  for (TopKOperator* op :
       {static_cast<TopKOperator*>(heap->get()),
        static_cast<TopKOperator*>(histogram->get())}) {
    SCOPED_TRACE(op->name());
    auto result = op->Finish();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(expected, *result);
    EXPECT_LE(op->stats().peak_memory_bytes, options.memory_limit_bytes);
  }
  EXPECT_FALSE((*histogram)->is_external());
}

TEST(WithTiesRobustnessTest, HistogramSwitchesToExternalAndSucceeds) {
  // The adaptive operator hits the same duplicate flood, spills, and
  // still returns the complete tied answer.
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 10;
  options.with_ties = true;
  options.memory_limit_bytes = 8 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*op)->Consume(Row(1.0, i, std::string(32, 't'))).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE((*op)->is_external());
  EXPECT_EQ(result->size(), static_cast<size_t>(n));  // all rows tie
}

TEST(WithTiesRobustnessTest, ParallelRunGenerationKeepsEveryTie) {
  // Four run generators sharing one cutoff filter: the boundary key's
  // duplicates land in every worker's runs, and all of them must reach
  // the answer — in both directions, with and without an offset.
  const auto rows = DuplicateHeavyRows(30000, 40, 5);
  for (const SortDirection direction :
       {SortDirection::kAscending, SortDirection::kDescending}) {
    for (const uint64_t offset : {uint64_t{0}, uint64_t{123}}) {
      SCOPED_TRACE(testing::Message()
                   << (direction == SortDirection::kAscending ? "asc" : "desc")
                   << " offset " << offset);
      const auto expected = ReferenceWithTies(rows, 1000, offset, direction);
      ASSERT_GT(expected.size(), 1000u);  // the boundary really has ties
      ScratchDir scratch;
      StorageEnv env;
      TopKOptions options;
      options.k = 1000;
      options.offset = offset;
      options.with_ties = true;
      options.direction = direction;
      options.memory_limit_bytes = 24 * 1024;
      options.workers = 4;
      options.env = &env;
      options.spill_dir = scratch.str();
      auto op = HistogramTopK::Make(options);
      ASSERT_TRUE(op.ok()) << op.status().ToString();
      auto result = RunOperator(op->get(), rows);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE((*op)->is_external());
      ExpectSameRows(expected, *result);
    }
  }
}

TEST(WithTiesRobustnessTest, TiesNeverEliminatedByFilter) {
  // Property: over many random duplicate-heavy configurations, no tied
  // boundary row is ever lost to the cutoff filter.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    ScratchDir scratch;
    StorageEnv env;
    Random rng(seed);
    auto rows = DuplicateHeavyRows(8000 + rng.NextUint64(20000),
                                   2 + rng.NextUint64(60), seed * 11 + 3);
    const uint64_t k = 50 + rng.NextUint64(2000);
    TopKOptions options;
    options.k = k;
    options.with_ties = true;
    options.memory_limit_bytes = 8 * 1024 + rng.NextUint64(32 * 1024);
    options.histogram_buckets_per_run = 1 + rng.NextUint64(60);
    options.env = &env;
    options.spill_dir = scratch.str();
    auto op = HistogramTopK::Make(options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(
        ReferenceWithTies(rows, k, 0, SortDirection::kAscending), *result);
  }
}

}  // namespace
}  // namespace topk
