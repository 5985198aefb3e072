/// Cross-algorithm integration suite: every top-k operator must return
/// byte-identical results to a full reference sort, across algorithms,
/// distributions, directions, output sizes, payload shapes and memory
/// budgets — including configurations that force heavy spilling.

#include <tuple>

#include <gtest/gtest.h>

#include "gen/distribution.h"
#include "row/serialization.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

struct OperatorCase {
  TopKAlgorithm algorithm;
  KeyDistribution distribution;
  SortDirection direction;
  uint64_t k;
};

std::string CaseName(const ::testing::TestParamInfo<OperatorCase>& info) {
  const OperatorCase& c = info.param;
  std::string name = TopKAlgorithmName(c.algorithm) + "_" +
                     KeyDistributionName(c.distribution) + "_" +
                     (c.direction == SortDirection::kAscending ? "asc"
                                                               : "desc") +
                     "_k" + std::to_string(c.k);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class TopKOperatorTest : public ::testing::TestWithParam<OperatorCase> {};

TEST_P(TopKOperatorTest, MatchesReferenceSort) {
  const OperatorCase& c = GetParam();
  ScratchDir scratch;
  StorageEnv env;

  DatasetSpec spec;
  spec.WithRows(20000)
      .WithDistribution(c.distribution)
      .WithPayload(8, 40)
      .WithSeed(c.k * 7919 + static_cast<uint64_t>(c.distribution));
  auto rows = MaterializeDataset(spec);

  TopKOptions options;
  options.k = c.k;
  options.direction = c.direction;
  // Small budget: rows are ~100 bytes with overhead, so ~500 rows fit.
  // k=2000 cannot fit -> every external case truly spills.
  options.memory_limit_bytes = 64 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  if (c.algorithm == TopKAlgorithm::kHeap) {
    options.allow_unbounded_memory = true;  // heap is the in-memory oracle
  }

  auto op = MakeTopKOperator(c.algorithm, options);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, c.k, 0, c.direction), *result);

  const OperatorStats& stats = (*op)->stats();
  EXPECT_EQ(stats.rows_consumed, rows.size());
}

std::vector<OperatorCase> AllCases() {
  std::vector<OperatorCase> cases;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    for (KeyDistribution dist :
         {KeyDistribution::kUniform, KeyDistribution::kFal,
          KeyDistribution::kLogNormal}) {
      for (SortDirection dir :
           {SortDirection::kAscending, SortDirection::kDescending}) {
        for (uint64_t k : {10, 2000}) {
          cases.push_back({algorithm, dist, dir, k});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TopKOperatorTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// --- offset handling across algorithms ---

class TopKOffsetTest : public ::testing::TestWithParam<TopKAlgorithm> {};

TEST_P(TopKOffsetTest, OffsetMatchesReference) {
  ScratchDir scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(8000).WithPayload(4, 16).WithSeed(99);
  auto rows = MaterializeDataset(spec);

  for (uint64_t offset : {0ULL, 1ULL, 500ULL}) {
    TopKOptions options;
    options.k = 300;
    options.offset = offset;
    options.memory_limit_bytes = 32 * 1024;
    options.env = &env;
    options.spill_dir = scratch.str() + "/off" + std::to_string(offset);
    if (GetParam() == TopKAlgorithm::kHeap) {
      options.allow_unbounded_memory = true;
    }
    auto op = MakeTopKOperator(GetParam(), options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(
        ReferenceTopK(rows, 300, offset, SortDirection::kAscending),
        *result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, TopKOffsetTest,
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

// --- quicksort run generation variant ---

TEST(TopKOperatorVariantsTest, QuicksortRunGenerationMatchesReference) {
  ScratchDir scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(10000).WithSeed(123);
  auto rows = MaterializeDataset(spec);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal, TopKAlgorithm::kOptimizedExternal,
        TopKAlgorithm::kHistogram}) {
    TopKOptions options;
    options.k = 1500;
    options.memory_limit_bytes = 32 * 1024;
    options.run_generation = RunGenerationKind::kQuicksort;
    options.env = &env;
    options.spill_dir =
        scratch.str() + "/" + TopKAlgorithmName(algorithm);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(ReferenceTopK(rows, 1500, 0, SortDirection::kAscending),
                   *result);
  }
}

TEST(TopKOperatorVariantsTest, TinyMergeFanInForcesMultiStepMerges) {
  ScratchDir scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(321);
  auto rows = MaterializeDataset(spec);
  TopKOptions options;
  options.k = 2000;
  options.memory_limit_bytes = 16 * 1024;
  options.merge_fan_in = 2;  // worst case: binary merges
  options.env = &env;
  options.spill_dir = scratch.str();
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    options.spill_dir = scratch.str() + "/" + TopKAlgorithmName(algorithm);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                   *result);
    EXPECT_GT((*op)->stats().merge_rows_written, 0u);
  }
}

TEST(TopKOperatorVariantsTest, InputFitsInMemoryNeverSpills) {
  ScratchDir scratch;
  StorageEnv env;
  DatasetSpec spec;
  spec.WithRows(100).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    TopKOptions options;
    options.k = 50;
    options.memory_limit_bytes = 16 << 20;
    options.env = &env;
    options.spill_dir = scratch.str() + "/" + TopKAlgorithmName(algorithm);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok());
    ExpectSameRows(ReferenceTopK(rows, 50, 0, SortDirection::kAscending),
                   *result);
    EXPECT_EQ((*op)->stats().rows_spilled, 0u);
    EXPECT_EQ(env.stats()->bytes_written(), 0u);
  }
}

TEST(TopKOperatorVariantsTest, FactoryRejectsMissingStorage) {
  TopKOptions options;
  options.k = 10;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    auto op = MakeTopKOperator(algorithm, options);
    EXPECT_EQ(op.status().code(), StatusCode::kInvalidArgument);
  }
  // Heap does not need storage.
  options.memory_limit_bytes = 1 << 20;
  EXPECT_TRUE(MakeTopKOperator(TopKAlgorithm::kHeap, options).ok());
}

TEST(TopKOperatorVariantsTest, AlgorithmNamesRoundTrip) {
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram}) {
    TopKAlgorithm parsed;
    ASSERT_TRUE(ParseTopKAlgorithm(TopKAlgorithmName(algorithm), &parsed));
    EXPECT_EQ(parsed, algorithm);
  }
  TopKAlgorithm parsed;
  EXPECT_FALSE(ParseTopKAlgorithm("bubble", &parsed));
}

/// A payload beyond the run-file wire limit fails Consume with
/// InvalidArgument in every operator, even when the operator's budget would
/// keep the row in memory and it would never reach a run file.
class OversizedPayloadTest : public ::testing::TestWithParam<TopKAlgorithm> {
};

TEST_P(OversizedPayloadTest, ConsumeRejectsPayloadBeyondWireLimit) {
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 10;
  options.memory_limit_bytes = size_t{256} << 20;
  options.env = &env;
  options.spill_dir = scratch.str();
  auto op = MakeTopKOperator(GetParam(), options);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  Row row(1.0, 1, std::string(size_t{kMaxRowPayloadBytes} + 1, 'x'));
  const Status status = (*op)->Consume(std::move(row));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, OversizedPayloadTest,
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

}  // namespace
}  // namespace topk
