/// Validates the analytic model against the paper's published numbers
/// (Tables 1-5) and cross-checks it against the real operator.

#include "model/analytic_model.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

AnalyticModelConfig Config(uint64_t input, uint64_t k, uint64_t memory,
                           uint64_t buckets) {
  AnalyticModelConfig config;
  config.input_rows = input;
  config.k = k;
  config.memory_rows = memory;
  config.buckets_per_run = buckets;
  return config;
}

// --- Table 1 anchors (top 5,000 of 1,000,000; memory 1,000; deciles) ---

TEST(AnalyticModelTest, Table1RunCountAndSpill) {
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  // Paper: "only 39 runs are required containing less than 35,000 rows".
  EXPECT_EQ(result.total_runs, 39u);
  EXPECT_LT(result.total_rows_spilled, 35000u);
  ASSERT_TRUE(result.final_cutoff.has_value());
  EXPECT_NEAR(*result.final_cutoff, 0.0063, 0.0002);
}

TEST(AnalyticModelTest, Table1CutoffEstablishedAfterSixRuns) {
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  ASSERT_GE(result.runs.size(), 8u);
  // Runs 1-6 run unfiltered; run 7 is the first with a cutoff (0.9).
  EXPECT_FALSE(result.runs[5].cutoff_before.has_value());
  ASSERT_TRUE(result.runs[6].cutoff_before.has_value());
  EXPECT_DOUBLE_EQ(*result.runs[6].cutoff_before, 0.9);
  // Paper Table 1: cutoff before run 8 is 0.72, before run 9 is 0.6.
  ASSERT_TRUE(result.runs[7].cutoff_before.has_value());
  EXPECT_NEAR(*result.runs[7].cutoff_before, 0.72, 1e-9);
  EXPECT_NEAR(*result.runs[8].cutoff_before, 0.6, 1e-9);
}

TEST(AnalyticModelTest, Table1RemainingInputTrace) {
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  // Paper Table 1's "Remaining Input Rows" column for runs 7-9.
  EXPECT_EQ(result.runs[6].remaining_before, 994000u);
  EXPECT_EQ(result.runs[7].remaining_before, 992889u);
  EXPECT_EQ(result.runs[8].remaining_before, 991501u);
}

TEST(AnalyticModelTest, Table1DecileKeys) {
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  // Run 1: deciles 0.1 .. 0.9.
  for (int d = 0; d < 9; ++d) {
    ASSERT_TRUE(result.runs[0].decile_keys[d].has_value());
    EXPECT_NEAR(*result.runs[0].decile_keys[d], 0.1 * (d + 1), 1e-9);
  }
  // Run 8 (cutoff 0.72): deciles 0.072, 0.144, ...; the 90% decile was
  // eliminated by the sharpened cutoff (empty cell in the paper's table).
  EXPECT_NEAR(*result.runs[7].decile_keys[0], 0.072, 1e-9);
  EXPECT_NEAR(*result.runs[7].decile_keys[7], 0.576, 1e-9);
  EXPECT_FALSE(result.runs[7].decile_keys[8].has_value());
}

// --- Table 2: varying histogram size ---

struct Table2Row {
  uint64_t buckets;
  uint64_t paper_runs;
  uint64_t paper_rows;
};

class Table2Test : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Test, MatchesPaperWithinTolerance) {
  const Table2Row& row = GetParam();
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, row.buckets));
  // Identical mechanics up to bucket-width rounding: within 2 runs / 7%.
  EXPECT_NEAR(static_cast<double>(result.total_runs),
              static_cast<double>(row.paper_runs), 2.0);
  EXPECT_NEAR(static_cast<double>(result.total_rows_spilled),
              static_cast<double>(row.paper_rows),
              0.07 * static_cast<double>(row.paper_rows));
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table2Test,
    ::testing::Values(Table2Row{0, 1000, 1000000}, Table2Row{1, 66, 62781},
                      Table2Row{5, 44, 39150}, Table2Row{10, 39, 34077},
                      Table2Row{20, 37, 31568}, Table2Row{50, 35, 30156},
                      Table2Row{100, 35, 29780},
                      Table2Row{1000, 35, 29258}),
    [](const ::testing::TestParamInfo<Table2Row>& info) {
      return std::string("B").append(std::to_string(info.param.buckets));
    });

TEST(AnalyticModelTest, Table2ZeroBucketsSpillsEverything) {
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 0));
  EXPECT_EQ(result.total_runs, 1000u);
  EXPECT_EQ(result.total_rows_spilled, 1000000u);
  EXPECT_FALSE(result.final_cutoff.has_value());
}

TEST(AnalyticModelTest, Table2MinimalHistogramExact) {
  // B=1 is bit-exact against the paper: 66 runs, 62,781 rows, cutoff
  // 0.015625.
  auto result = RunAnalyticModel(Config(1000000, 5000, 1000, 1));
  EXPECT_EQ(result.total_runs, 66u);
  EXPECT_EQ(result.total_rows_spilled, 62781u);
  ASSERT_TRUE(result.final_cutoff.has_value());
  EXPECT_DOUBLE_EQ(*result.final_cutoff, 0.015625);
}

// --- Table 3: varying output size ---

struct Table3Row {
  uint64_t k;
  uint64_t paper_runs;
  uint64_t paper_rows;
};

class Table3Test : public ::testing::TestWithParam<Table3Row> {};

TEST_P(Table3Test, MatchesPaperWithinTolerance) {
  const Table3Row& row = GetParam();
  auto result = RunAnalyticModel(Config(1000000, row.k, 1000, 9));
  EXPECT_NEAR(static_cast<double>(result.total_runs),
              static_cast<double>(row.paper_runs),
              std::max(2.0, 0.03 * row.paper_runs));
  EXPECT_NEAR(static_cast<double>(result.total_rows_spilled),
              static_cast<double>(row.paper_rows),
              0.05 * static_cast<double>(row.paper_rows));
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table3Test,
                         ::testing::Values(Table3Row{2000, 20, 14858},
                                           Table3Row{5000, 39, 34077},
                                           Table3Row{10000, 67, 62072},
                                           Table3Row{20000, 113, 109016}),
                         [](const ::testing::TestParamInfo<Table3Row>& info) {
                           return std::string("k").append(
                               std::to_string(info.param.k));
                         });

// --- Table 4 / Table 5: varying input size ---

TEST(AnalyticModelTest, Table4SmallInputsExact) {
  // Paper: N=6,000 -> 6 runs / 5,900 rows / cutoff 0.9.
  auto r6k = RunAnalyticModel(Config(6000, 5000, 1000, 9));
  EXPECT_EQ(r6k.total_runs, 6u);
  EXPECT_EQ(r6k.total_rows_spilled, 5900u);
  EXPECT_DOUBLE_EQ(*r6k.final_cutoff, 0.9);
  // N=20,000 -> 13 runs / 11,840 rows / cutoff 0.288.
  auto r20k = RunAnalyticModel(Config(20000, 5000, 1000, 9));
  EXPECT_EQ(r20k.total_runs, 13u);
  EXPECT_EQ(r20k.total_rows_spilled, 11840u);
  EXPECT_NEAR(*r20k.final_cutoff, 0.288, 1e-9);
}

TEST(AnalyticModelTest, Table4ScalingShape) {
  // The paper's headline scaling: doubling the input adds only a handful
  // of runs. N=1M -> 39 runs; N=2M -> 44; N=100M -> 71 (we allow +-1).
  auto r1m = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  auto r2m = RunAnalyticModel(Config(2000000, 5000, 1000, 9));
  auto r100m = RunAnalyticModel(Config(100000000, 5000, 1000, 9));
  EXPECT_NEAR(r1m.total_runs, 39.0, 1.0);
  EXPECT_NEAR(r2m.total_runs, 44.0, 1.0);
  EXPECT_NEAR(r100m.total_runs, 71.0, 1.0);
  EXPECT_LE(r2m.total_runs - r1m.total_runs, 6u);
  // >3 orders of magnitude less I/O than a full sort at N=100M.
  EXPECT_LT(r100m.total_rows_spilled, 100000000u / 1000u);
}

TEST(AnalyticModelTest, Table5MinimalHistogramExactSeries) {
  const struct {
    uint64_t input;
    uint64_t runs;
    uint64_t rows;
  } rows[] = {
      {6000, 6, 6000},     {10000, 10, 9500},   {20000, 15, 14500},
      {50000, 25, 24000},  {100000, 34, 32250}, {1000000, 66, 62781},
      {10000000, 100, 94999},
  };
  for (const auto& expected : rows) {
    auto result = RunAnalyticModel(Config(expected.input, 5000, 1000, 1));
    EXPECT_EQ(result.total_runs, expected.runs) << "N=" << expected.input;
    // +-1 row: the paper rounds the final partial run differently.
    EXPECT_NEAR(static_cast<double>(result.total_rows_spilled),
                static_cast<double>(expected.rows), 1.0)
        << "N=" << expected.input;
  }
}

TEST(AnalyticModelTest, RatioUsesDomainMaxWithoutCutoff) {
  auto result = RunAnalyticModel(Config(6000, 5000, 1000, 1));
  EXPECT_FALSE(result.final_cutoff.has_value());
  EXPECT_NEAR(result.ratio(), 1.2, 0.01);  // 1.0 / (5000/6000)
}

// --- baseline analysis (Sec 3.2.1's comparisons) ---

TEST(BaselineAnalysisTest, TraditionalSpillsEntireInput) {
  auto baselines = AnalyzeBaselines(Config(1000000, 5000, 1000, 9));
  EXPECT_EQ(baselines.traditional_rows_spilled, 1000000u);
}

TEST(BaselineAnalysisTest, OptimizedEarlyMergeCutoffAndSpill) {
  // 10 runs of 1,000 rows merged: cutoff = 5,000/10,000 = 0.5, so the
  // remaining 990,000 rows spill at rate 0.5 -> ~505,000 total (paper
  // Sec 3.2.1: "eliminate 1/2 of the remaining input immediately";
  // 12x more than the histogram algorithm's ~34k).
  auto baselines = AnalyzeBaselines(Config(1000000, 5000, 1000, 9));
  EXPECT_DOUBLE_EQ(baselines.optimized_cutoff, 0.5);
  EXPECT_NEAR(static_cast<double>(baselines.optimized_rows_spilled),
              10000 + 5000 + 495000, 100.0);
  auto histogram = RunAnalyticModel(Config(1000000, 5000, 1000, 9));
  const double vs_optimized =
      static_cast<double>(baselines.optimized_rows_spilled) /
      static_cast<double>(histogram.total_rows_spilled);
  const double vs_traditional =
      static_cast<double>(baselines.traditional_rows_spilled) /
      static_cast<double>(histogram.total_rows_spilled);
  EXPECT_NEAR(vs_optimized, 15.0, 3.5);     // paper: 12x
  EXPECT_NEAR(vs_traditional, 29.0, 2.0);   // paper: 28x
}

TEST(BaselineAnalysisTest, NoCutoffWhenInputSmallerThanK) {
  // Early merge cannot prove k rows: the optimized baseline degenerates
  // to spilling everything (plus its fruitless merge output).
  auto baselines = AnalyzeBaselines(Config(3000, 5000, 1000, 9));
  EXPECT_DOUBLE_EQ(baselines.optimized_cutoff, 1.0);
  EXPECT_GE(baselines.optimized_rows_spilled, 3000u);
}

// --- cross-check: model vs the real operator on real uniform data ---

TEST(AnalyticModelTest, ModelPredictsRealOperatorWithinFactor) {
  using testing_util::MaterializeDataset;
  using testing_util::RunOperator;
  using testing_util::ScratchDir;

  const uint64_t input = 200000, k = 2000;
  auto model = RunAnalyticModel(Config(input, k, 1000, 9));

  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = k;
  // ~1000 rows of memory: Row(48B) + overhead(32B + 32B heap) = 112.
  options.memory_limit_bytes = 1000 * 112;
  options.histogram_buckets_per_run = 9;
  options.env = &env;
  options.spill_dir = scratch.str();
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(input).WithSeed(12);
  auto rows = MaterializeDataset(spec);
  ASSERT_TRUE(RunOperator(op->get(), rows).ok());

  // The model idealizes run generation (load-sort-store, exact quantiles),
  // the operator uses replacement selection on random data — agreement
  // within 2x demonstrates the model captures the real behaviour.
  const double model_rows = static_cast<double>(model.total_rows_spilled);
  const double real_rows = static_cast<double>((*op)->stats().rows_spilled);
  EXPECT_LT(real_rows, 2.0 * model_rows);
  EXPECT_GT(real_rows, 0.4 * model_rows);
  // Both eliminate the overwhelming majority of the input.
  EXPECT_LT(real_rows, 0.2 * input);
}

}  // namespace
}  // namespace topk
