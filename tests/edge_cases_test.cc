/// Boundary conditions every operator must get right: empty inputs, k or
/// offset at or past the input size, k = 1, single-row inputs, extreme
/// payloads, and degenerate memory budgets. The histogram operator runs
/// each case also with four run-generation workers.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::ExpectSameRowsBitwise;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

/// An operator and its run-generation workers.
struct Variant {
  TopKAlgorithm algorithm;
  size_t workers;
};

constexpr Variant kAllVariants[] = {{TopKAlgorithm::kHeap, 1},
                                    {TopKAlgorithm::kTraditionalExternal, 1},
                                    {TopKAlgorithm::kOptimizedExternal, 1},
                                    {TopKAlgorithm::kHistogram, 1},
                                    {TopKAlgorithm::kHistogram, 4}};

class EdgeCasesTest : public ::testing::TestWithParam<Variant> {
 protected:
  TopKOptions Options(uint64_t k, size_t memory_bytes = 32 * 1024) {
    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(seq_++);
    options.workers = GetParam().workers;
    if (GetParam().algorithm == TopKAlgorithm::kHeap) {
      options.memory_limit_bytes = std::numeric_limits<size_t>::max();
    }
    return options;
  }

  Result<std::vector<Row>> Run(const TopKOptions& options,
                               const std::vector<Row>& rows) {
    auto op = MakeTopKOperator(GetParam().algorithm, options);
    if (!op.ok()) return op.status();
    return RunOperator(op->get(), rows);
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int seq_ = 0;
};

TEST_P(EdgeCasesTest, EmptyInput) {
  auto result = Run(Options(10), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
}

TEST_P(EdgeCasesTest, SingleRow) {
  auto result = Run(Options(10), {Row(3.5, 7, "only")});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].payload, "only");
}

TEST_P(EdgeCasesTest, KEqualsOne) {
  DatasetSpec spec;
  spec.WithRows(10000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  auto result = Run(Options(1, 8 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 1, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, KEqualsInputSize) {
  DatasetSpec spec;
  spec.WithRows(3000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  auto result = Run(Options(3000, 16 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 3000, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, KExceedsInputSize) {
  DatasetSpec spec;
  spec.WithRows(500).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  auto result = Run(Options(100000, 8 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 500u);
  ExpectSameRows(ReferenceTopK(rows, 100000, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, OffsetBeyondInputYieldsEmpty) {
  DatasetSpec spec;
  spec.WithRows(2000).WithSeed(4);
  auto rows = MaterializeDataset(spec);
  TopKOptions options = Options(10, 8 * 1024);
  options.offset = 5000;
  auto result = Run(options, rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
}

TEST_P(EdgeCasesTest, OffsetPlusKStraddlesInputEnd) {
  DatasetSpec spec;
  spec.WithRows(2000).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  TopKOptions options = Options(100, 8 * 1024);
  options.offset = 1950;  // only 50 rows remain
  auto result = Run(options, rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 50u);
  ExpectSameRows(ReferenceTopK(rows, 100, 1950, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, EmptyPayloads) {
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Row(5000.0 - i, i));
  auto result = Run(Options(200, 8 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 200, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, OneGiantRowAmongSmall) {
  DatasetSpec spec;
  spec.WithRows(3000).WithSeed(6);
  auto rows = MaterializeDataset(spec);
  // A single row far larger than the memory budget, keyed into the output.
  rows.push_back(Row(-1.0, 999999, std::string(64 * 1024, 'G')));
  auto expected = ReferenceTopK(rows, 100, 0, SortDirection::kAscending);
  auto result = Run(Options(100, 16 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

TEST_P(EdgeCasesTest, NegativeAndExtremeKeys) {
  std::vector<Row> rows;
  Random rng(7);
  for (int i = 0; i < 4000; ++i) {
    double key = 0;
    switch (rng.NextUint64(4)) {
      case 0:
        key = -1e307 * rng.NextDouble();
        break;
      case 1:
        key = 1e307 * rng.NextDouble();
        break;
      case 2:
        key = rng.NextDouble() * 1e-300;
        break;
      case 3:
        key = (rng.NextDouble() - 0.5) * 2.0;
        break;
    }
    rows.push_back(Row(key, i));
  }
  auto result = Run(Options(300, 8 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 300, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(EdgeCasesTest, NaNZeroAndInfinityKeys) {
  // Regression for the comparator's strict-weak-ordering violation: NaN
  // keys used to compare "not less" in both directions while the id
  // tiebreak still distinguished rows, which is undefined behavior in
  // std::sort and left NaN placement to chance. NaN now totally orders
  // last in query direction; -0.0 and +0.0 are one key; infinities sort as
  // the extreme reals. All of it must hold through every operator — run
  // generation, spill, cutoff filter, and merge included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Row> rows;
  Random rng(21);
  const double pool[] = {nan, -nan, inf, -inf, -0.0, 0.0, 1.0, -1.0};
  for (int i = 0; i < 6000; ++i) {
    const uint64_t pick = rng.NextUint64(10);
    const double key = pick < 8 ? pool[pick] : rng.NextDouble() - 0.5;
    rows.push_back(Row(key, i));
  }
  for (auto direction :
       {SortDirection::kAscending, SortDirection::kDescending}) {
    TopKOptions options = Options(400, 8 * 1024);
    options.direction = direction;
    auto result = Run(options, rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRowsBitwise(ReferenceTopK(rows, 400, 0, direction), *result);
  }
  // A k large enough that the NaN tail enters the output.
  TopKOptions options = Options(5900, 64 * 1024);
  auto result = Run(options, rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRowsBitwise(
      ReferenceTopK(rows, 5900, 0, SortDirection::kAscending), *result);
}

TEST_P(EdgeCasesTest, AlreadySortedInput) {
  DatasetSpec spec;
  spec.WithRows(8000).WithDistribution(KeyDistribution::kAscending);
  spec.WithSeed(8);
  auto rows = MaterializeDataset(spec);
  auto result = Run(Options(500, 8 * 1024), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EdgeCasesTest, ::testing::ValuesIn(kAllVariants),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string name = TopKAlgorithmName(info.param.algorithm);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      if (info.param.workers != 1) {
        name += "_x" + std::to_string(info.param.workers);
      }
      return name;
    });

}  // namespace
}  // namespace topk
