/// Randomized property sweeps: for arbitrary configurations, every operator
/// must (a) agree with a reference sort, (b) never let the cutoff key cross
/// the true kth key, and (c) keep its accounting self-consistent.

#include <gtest/gtest.h>

#include <string>

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

/// One operator column of the sweeps: an algorithm and its run-generation
/// workers.
struct Column {
  TopKAlgorithm algorithm;
  size_t workers;

  std::string Name() const {
    return TopKAlgorithmName(algorithm) + "x" + std::to_string(workers);
  }
};

const Column kColumns[] = {{TopKAlgorithm::kTraditionalExternal, 1},
                           {TopKAlgorithm::kOptimizedExternal, 1},
                           {TopKAlgorithm::kHistogram, 1},
                           {TopKAlgorithm::kHistogram, 4}};

class RandomConfigTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomConfigTest, AllOperatorsAgreeWithReference) {
  const uint64_t seed = GetParam();
  Random rng(seed * 2654435761ULL + 17);

  DatasetSpec spec;
  const uint64_t input = 2000 + rng.NextUint64(30000);
  spec.WithRows(input)
      .WithSeed(seed)
      .WithPayload(rng.NextUint64(8), 8 + rng.NextUint64(64));
  const KeyDistribution dists[] = {
      KeyDistribution::kUniform, KeyDistribution::kFal,
      KeyDistribution::kLogNormal, KeyDistribution::kAscending,
      KeyDistribution::kDescending};
  spec.WithDistribution(dists[rng.NextUint64(5)]);
  if (spec.keys.distribution == KeyDistribution::kFal) {
    const double shapes[] = {0.5, 1.05, 1.25, 1.5};
    spec.keys.fal_shape = shapes[rng.NextUint64(4)];
  }
  auto rows = MaterializeDataset(spec);

  const uint64_t k = 1 + rng.NextUint64(input / 2);
  const uint64_t offset = rng.NextUint64(50);
  const SortDirection direction = rng.NextUint64(2) == 0
                                      ? SortDirection::kAscending
                                      : SortDirection::kDescending;
  // WITH TIES sometimes (fal keys are discrete, so real ties occur).
  const bool with_ties = rng.NextUint64(3) == 0;
  const auto expected =
      with_ties
          ? testing_util::ReferenceTopKWithTies(rows, k, offset, direction)
          : ReferenceTopK(rows, k, offset, direction);

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = k;
  options.offset = offset;
  options.direction = direction;
  options.with_ties = with_ties;
  options.memory_limit_bytes = 8 * 1024 + rng.NextUint64(64 * 1024);
  options.histogram_buckets_per_run = rng.NextUint64(101);
  options.merge_fan_in = 2 + rng.NextUint64(30);
  options.run_generation = rng.NextUint64(2) == 0
                               ? RunGenerationKind::kReplacementSelection
                               : RunGenerationKind::kQuicksort;
  options.env = &env;

  for (const Column& column : kColumns) {
    SCOPED_TRACE(column.Name());
    options.spill_dir = scratch.str() + "/" + column.Name();
    options.workers = column.workers;
    auto op = MakeTopKOperator(column.algorithm, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok())
        << column.Name() << ": " << result.status().ToString();
    ExpectSameRows(expected, *result);

    // Accounting invariants.
    const OperatorStats& stats = (*op)->stats();
    ASSERT_EQ(stats.rows_consumed, rows.size());
    ASSERT_LE(stats.rows_eliminated_input, stats.rows_consumed);
    ASSERT_LE(stats.rows_spilled,
              stats.rows_consumed - stats.rows_eliminated_input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest,
                         ::testing::Range<uint64_t>(0, 20));

class CutoffSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CutoffSoundnessTest, CutoffNeverCrossesTrueKthKey) {
  // The central safety property of the paper's filter: at every moment, the
  // cutoff key must sort at-or-after the true kth key of the *entire*
  // input (otherwise a row of the true answer could be discarded).
  const uint64_t seed = GetParam();
  Random rng(seed + 1234);
  const uint64_t input = 20000 + rng.NextUint64(20000);
  const uint64_t k = 100 + rng.NextUint64(2000);

  DatasetSpec spec;
  spec.WithRows(input).WithSeed(seed);
  auto rows = MaterializeDataset(spec);
  auto truth = ReferenceTopK(rows, k, 0, SortDirection::kAscending);
  const double true_kth = truth.back().key;

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = 8 * 1024 + rng.NextUint64(16 * 1024);
  options.histogram_buckets_per_run = 1 + rng.NextUint64(50);
  options.env = &env;
  options.spill_dir = scratch.str();
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    if (i % 97 == 0) {
      const auto cutoff = (*op)->cutoff();
      if (cutoff.has_value()) {
        ASSERT_GE(*cutoff, true_kth) << "unsound cutoff at row " << i;
      }
    }
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(truth, *result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutoffSoundnessTest,
                         ::testing::Range<uint64_t>(0, 10));

class DuplicateKeysTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DuplicateKeysTest, HeavyDuplicationHandledByAllOperators) {
  // Keys drawn from a tiny domain: massive duplication stresses the
  // tie-keeping rule (rows equal to the cutoff must never be eliminated).
  const uint64_t seed = GetParam();
  Random rng(seed);
  const uint64_t domain = 1 + rng.NextUint64(20);
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(
        Row(static_cast<double>(rng.NextUint64(domain)), i,
            std::string(rng.NextUint64(16), 'd')));
  }
  const uint64_t k = 500 + rng.NextUint64(3000);
  auto expected = ReferenceTopK(rows, k, 0, SortDirection::kAscending);

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  for (const Column& column : kColumns) {
    SCOPED_TRACE(column.Name());
    options.spill_dir = scratch.str() + "/" + column.Name();
    options.workers = column.workers;
    auto op = MakeTopKOperator(column.algorithm, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok())
        << column.Name() << ": " << result.status().ToString();
    ExpectSameRows(expected, *result);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicateKeysTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace topk
