#include "topk/histogram_topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "tests/test_util.h"
#include "topk/traditional_external_topk.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ReferenceTopKWithTies;
using testing_util::RunOperator;
using testing_util::ScratchDir;

class HistogramTopKTest : public ::testing::Test {
 protected:
  TopKOptions Options(uint64_t k, size_t memory_bytes = 32 * 1024) {
    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(dir_seq_++);
    return options;
  }

  /// Sec 5.5's adversarial input for an ascending query: each run lies
  /// wholly below the one before it, so a tightening cutoff leaves whole
  /// runs behind it.
  static std::vector<Row> DescendingRows(uint64_t n) {
    DatasetSpec spec;
    spec.WithRows(n).WithDistribution(KeyDistribution::kDescending);
    spec.WithSeed(12);
    return MaterializeDataset(spec);
  }

  /// Run files currently in `dir`.
  static size_t RunFilesIn(const std::string& dir) {
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".tkr") ++files;
    }
    return files;
  }

  /// The traditional operator's rows for the same query: it never drops a
  /// run.
  std::vector<Row> TraditionalRows(TopKOptions options,
                                   const std::vector<Row>& rows) {
    options.spill_dir = scratch_.str() + "/" + std::to_string(dir_seq_++);
    options.workers = 1;
    auto op = TraditionalExternalTopK::Make(options);
    EXPECT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : std::vector<Row>();
  }

  /// Runs the histogram operator over `rows` and checks it deleted runs
  /// unmerged without changing the traditional operator's answer.
  void ExpectDropsKeepTraditionalRows(const TopKOptions& options,
                                      const std::vector<Row>& rows) {
    auto op = HistogramTopK::Make(options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT((*op)->stats().runs_dropped, 0u);
    ExpectSameRows(TraditionalRows(options, rows), *result);
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int dir_seq_ = 0;
};

TEST_F(HistogramTopKTest, StaysInMemoryWhenOutputFits) {
  // Sec 3.1.1: while the requested output fits in memory, the operator IS
  // the priority-queue algorithm and run generation is never activated.
  auto op = HistogramTopK::Make(Options(50, 1 << 20));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(5000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE((*op)->is_external());
  EXPECT_EQ((*op)->stats().rows_spilled, 0u);
  EXPECT_EQ(env_.stats()->bytes_written(), 0u);
  ExpectSameRows(ReferenceTopK(rows, 50, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, SwitchesToExternalWhenOutputExceedsMemory) {
  auto op = HistogramTopK::Make(Options(2000, 16 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*op)->is_external());
  EXPECT_GT((*op)->stats().rows_spilled, 0u);
  EXPECT_GT((*op)->stats().runs_created, 1u);
  ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, FilterEliminatesMostOfAUniformInput) {
  // The headline behaviour: with input >> k >> memory, the vast majority
  // of input rows must be eliminated before ever reaching a run.
  auto op = HistogramTopK::Make(Options(1000, 16 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(100000).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  const OperatorStats& stats = (*op)->stats();
  EXPECT_GT(stats.rows_eliminated_input, 80000u);
  EXPECT_LT(stats.rows_spilled, 20000u);
  ASSERT_TRUE(stats.final_cutoff.has_value());
  // Ideal cutoff is k/N = 0.01; the achieved cutoff should be within a
  // small factor (paper's Ratio column stays below ~1.3 for this shape).
  EXPECT_LT(*stats.final_cutoff, 0.05);
  ExpectSameRows(ReferenceTopK(rows, 1000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, CutoffOnlySharpens) {
  auto op = HistogramTopK::Make(Options(500, 8 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(4);
  RowGenerator gen(spec);
  Row row;
  std::optional<double> last;
  while (gen.Next(&row)) {
    ASSERT_TRUE((*op)->Consume(row).ok());
    const std::optional<double> cutoff = (*op)->cutoff();
    if (last.has_value()) {
      ASSERT_TRUE(cutoff.has_value());
      ASSERT_LE(*cutoff, *last);
    }
    last = cutoff;
  }
  ASSERT_TRUE((*op)->Finish().ok());
}

TEST_F(HistogramTopKTest, AdversarialDescendingInputEliminatesNothing) {
  // Sec 5.5's adversarial input: descending keys under an ascending query.
  // Every row is better than everything seen, so no row is ever eliminated
  // at arrival — the filter only adds overhead.
  auto op = HistogramTopK::Make(Options(2000, 16 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(20000).WithDistribution(KeyDistribution::kDescending);
  spec.WithSeed(5);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*op)->stats().rows_eliminated_input, 0u);
  ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, DescendingInputDeletesDeadRunsInsteadOfMerging) {
  // More runs than the fan-in, but the runs the cutoff has passed are
  // deleted unmerged, so no intermediate step is needed.
  TopKOptions options = Options(500, 16 * 1024);
  options.merge_fan_in = 8;
  const auto rows = DescendingRows(20000);
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  for (const Row& row : rows) ASSERT_TRUE((*op)->Consume(row).ok());
  // Before Finish, and so before any merge: dead runs already left the
  // spill directory while input arrived.
  const size_t files_before_finish = RunFilesIn(options.spill_dir);
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OperatorStats& stats = (*op)->stats();
  EXPECT_GT(stats.runs_created, options.merge_fan_in);
  EXPECT_LT(files_before_finish, stats.runs_created);
  EXPECT_GE(stats.runs_dropped, stats.runs_created - options.merge_fan_in);
  EXPECT_EQ(stats.merge_rows_written, 0u);
  // The final merge reads the answer and one row past it per live run.
  EXPECT_LE(stats.merge_rows_read, 500u + options.merge_fan_in);
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
  ExpectSameRows(TraditionalRows(options, rows), *result);
}

TEST_F(HistogramTopKTest, DroppedRunsKeepOffsetResults) {
  const auto rows = DescendingRows(20000);
  for (const bool offset_skip : {true, false}) {
    SCOPED_TRACE(offset_skip ? "offset skip" : "plain offset");
    TopKOptions options = Options(1500, 16 * 1024);
    options.offset = 500;
    options.merge_fan_in = 4;
    options.histogram_offset_skip = offset_skip;
    ASSERT_NO_FATAL_FAILURE(ExpectDropsKeepTraditionalRows(options, rows));
  }
}

TEST_F(HistogramTopKTest, DroppedRunsKeepEveryTie) {
  // Each key seven times, descending: a run may start exactly at the
  // cutoff, and its ties must survive.
  std::vector<Row> rows;
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) {
    rows.emplace_back(static_cast<double>((n - i) / 7), i,
                      std::string(16, 't'));
  }
  TopKOptions options = Options(2000, 16 * 1024);
  options.with_ties = true;
  options.merge_fan_in = 4;
  ASSERT_NO_FATAL_FAILURE(ExpectDropsKeepTraditionalRows(options, rows));
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(
      ReferenceTopKWithTies(rows, 2000, 0, SortDirection::kAscending),
      *result);
}

TEST_F(HistogramTopKTest, DroppedRunsKeepNaNAndSignedZeroOrder) {
  // NaN rows first (they sort last), then descending keys through a long
  // stretch of +0/-0 that holds the cutoff.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  uint64_t id = 0;
  for (int i = 0; i < 3000; ++i) rows.emplace_back(nan, id++);
  for (int i = 8000; i > 0; --i) rows.emplace_back(i * 1e-3, id++);
  for (int i = 0; i < 3000; ++i) {
    rows.emplace_back(i % 2 == 0 ? 0.0 : -0.0, id++);
  }
  for (int i = 1; i <= 1000; ++i) rows.emplace_back(-i * 1e-3, id++);
  for (const bool with_ties : {false, true}) {
    SCOPED_TRACE(with_ties ? "with ties" : "plain");
    TopKOptions options = Options(2000, 16 * 1024);
    options.merge_fan_in = 4;
    options.with_ties = with_ties;
    ASSERT_NO_FATAL_FAILURE(ExpectDropsKeepTraditionalRows(options, rows));
  }
}

TEST_F(HistogramTopKTest, ParallelRunGenerationDropsDeadRuns) {
  TopKOptions options = Options(2000, 64 * 1024);
  options.merge_fan_in = 4;
  options.workers = 4;
  ASSERT_NO_FATAL_FAILURE(
      ExpectDropsKeepTraditionalRows(options, DescendingRows(40000)));
}

TEST_F(HistogramTopKTest, ApproximateFilterDropsNoRun) {
  // An approximate cutoff does not bound the exact output, so no run is
  // deleted on its word; merges alone apply it, as before.
  TopKOptions options = Options(2000, 16 * 1024);
  options.approx_filter_k = 1800;
  options.merge_fan_in = 4;
  const auto rows = DescendingRows(20000);
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*op)->stats().runs_dropped, 0u);
  ASSERT_GE(result->size(), 1800u);
  auto reference = ReferenceTopK(rows, 1800, 0, SortDirection::kAscending);
  ExpectSameRows(reference,
                 std::vector<Row>(result->begin(), result->begin() + 1800));
}

TEST_F(HistogramTopKTest, ZeroBucketsDisablesFiltering) {
  TopKOptions options = Options(1000, 16 * 1024);
  options.histogram_buckets_per_run = 0;
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(6);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*op)->stats().rows_eliminated_input, 0u);
  EXPECT_EQ((*op)->stats().rows_eliminated_spill, 0u);
  EXPECT_EQ((*op)->stats().filter_buckets_inserted, 0u);
  // (final_cutoff may still be set by merge-step refinement in Finish,
  // Sec 4.1 — that path is independent of histogram collection.)
  ExpectSameRows(ReferenceTopK(rows, 1000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, MoreBucketsSpillFewerRows) {
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(7);
  auto rows = MaterializeDataset(spec);
  uint64_t spilled_b1 = 0, spilled_b50 = 0;
  for (uint64_t buckets : {1ULL, 50ULL}) {
    TopKOptions options = Options(1000, 16 * 1024);
    options.histogram_buckets_per_run = buckets;
    auto op = HistogramTopK::Make(options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok());
    if (buckets == 1) {
      spilled_b1 = (*op)->stats().rows_spilled;
    } else {
      spilled_b50 = (*op)->stats().rows_spilled;
    }
  }
  // Table 2's trend: richer histograms eliminate more.
  EXPECT_LT(spilled_b50, spilled_b1);
}

TEST_F(HistogramTopKTest, ConsolidationKeepsResultsCorrectUnderTinyBudget) {
  TopKOptions options = Options(2000, 16 * 1024);
  options.histogram_memory_limit_bytes = 256;  // forces consolidations
  options.histogram_buckets_per_run = 100;
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(8);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_GT((*op)->stats().filter_consolidations, 0u);
  ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, ApproximateFilterKReturnsTruePrefix) {
  // Sec 4.5 approximation: with a reduced filter-k, the result may fall
  // short of k rows but must be an exact prefix of the true order.
  TopKOptions options = Options(2000, 16 * 1024);
  options.approx_filter_k = 1800;
  auto op = HistogramTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(9);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->size(), 1800u);
  ASSERT_LE(result->size(), 2000u);
  // The first filter-k rows are the exact prefix; later rows may be
  // approximate in membership (Sec 4.5).
  auto reference = ReferenceTopK(rows, 1800, 0, SortDirection::kAscending);
  std::vector<Row> head(result->begin(), result->begin() + 1800);
  ExpectSameRows(reference, head);
}

TEST_F(HistogramTopKTest, StatsExposeFilterInternals) {
  auto op = HistogramTopK::Make(Options(1500, 16 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(10);
  auto rows = MaterializeDataset(spec);
  ASSERT_TRUE(RunOperator(op->get(), rows).ok());
  const OperatorStats& stats = (*op)->stats();
  EXPECT_GT(stats.filter_buckets_inserted, 0u);
  EXPECT_GT(stats.rows_eliminated_input + stats.rows_eliminated_spill, 0u);
  EXPECT_GT(stats.consume_nanos, 0);
  EXPECT_GT(stats.finish_nanos, 0);
  EXPECT_GT(stats.bytes_spilled, 0u);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

TEST_F(HistogramTopKTest, EliminationAtSpillHappensWhenCutoffSharpens) {
  // Rows admitted under an older, looser cutoff must be re-checked when
  // they are spilled (Algorithm 1 line 11).
  auto op = HistogramTopK::Make(Options(1000, 32 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(150000).WithSeed(11);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_GT((*op)->stats().rows_eliminated_spill, 0u);
}

}  // namespace
}  // namespace topk
