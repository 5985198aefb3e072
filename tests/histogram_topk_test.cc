#include "topk/operator_factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "obs/obs_context.h"
#include "sort/replacement_selection.h"
#include "sort/merge_planner.h"
#include "io/spill_manager.h"
#include "tests/test_util.h"

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
    auto op = MakeTopKOperator(TopKAlgorithm::kTraditionalExternal, options);
    EXPECT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : std::vector<Row>();
  }

  /// Runs the histogram operator over `rows` and checks it deleted runs
  /// unmerged without changing the traditional operator's answer.
  void ExpectDropsKeepTraditionalRows(const TopKOptions& options,
                                      const std::vector<Row>& rows) {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, Options(50, 1 << 20));
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
  auto op =
      MakeTopKOperator(TopKAlgorithm::kHistogram, Options(2000, 16 * 1024));
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
  auto op =
      MakeTopKOperator(TopKAlgorithm::kHistogram, Options(1000, 16 * 1024));
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, Options(500, 8 * 1024));
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
  auto op =
      MakeTopKOperator(TopKAlgorithm::kHistogram, Options(2000, 16 * 1024));
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
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
  auto op =
      MakeTopKOperator(TopKAlgorithm::kHistogram, Options(1500, 16 * 1024));
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

TEST_F(HistogramTopKTest, ResumedFilterLeasesItsBucketQueueBudget) {
  // A merge-phase resume rebuilds the cutoff filter, whose bucket queue may
  // grow to histogram_memory_limit_bytes: the arbiter must see that lease
  // before Finish, as it does from the external switch on.
  TopKOptions options = Options(2000, 16 * 1024);
  options.manifest_filename = "query.tkm";
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(13);
  const auto rows = MaterializeDataset(spec);
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) ASSERT_TRUE((*op)->Consume(row).ok());
    ASSERT_TRUE((*op)->is_external());
    ASSERT_TRUE((*op)->Suspend().ok());
  }
  MemoryArbiter arbiter;
  options.arbiter = &arbiter;
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(arbiter.granted_bytes(), options.histogram_memory_limit_bytes);
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(HistogramTopKTest, EliminationAtSpillHappensWhenCutoffSharpens) {
  // Rows admitted under an older, looser cutoff must be re-checked when
  // they are spilled (Algorithm 1 line 11).
  auto op =
      MakeTopKOperator(TopKAlgorithm::kHistogram, Options(1000, 32 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(150000).WithSeed(11);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  EXPECT_GT((*op)->stats().rows_eliminated_spill, 0u);
}

/// What the sequential operator would have done: the same heap phase,
/// switch and admission steps (probe, dead-run drop, then Add) run in
/// this thread on a ReplacementSelectionRunGenerator and a CutoffFilter.
/// `memory` must overflow before k rows are buffered, so the heap phase
/// only buffers.
struct SequentialRun {
  std::vector<RunMeta> runs;
  uint64_t eliminated_input = 0;
  uint64_t eliminated_spill = 0;
  uint64_t runs_dropped = 0;
  std::vector<std::pair<uint64_t, uint64_t>> timeline;
};

class ReplayObserver : public SpillObserver {
 public:
  explicit ReplayObserver(CutoffFilter* filter)
      : filter_(filter), spiller_(filter) {}
  bool EliminateAtSpill(const Row& row) override {
    return filter_->Eliminate(row);
  }
  void OnRowSpilled(const Row& row) override { spiller_.RowSpilled(row.key); }
  std::vector<HistogramBucket> OnRunFinished() override {
    return spiller_.RunFinished();
  }

 private:
  CutoffFilter* filter_;
  CutoffFilter::Spiller spiller_;
};

SequentialRun ReplaySequentially(const std::vector<Row>& rows, uint64_t k,
                                 size_t memory, const std::string& dir) {
  SequentialRun out;
  size_t buffered = 0, m = 0;
  while (m < rows.size() && buffered + HeldRowBytes(rows[m]) <= memory) {
    buffered += HeldRowBytes(rows[m++]);
  }
  EXPECT_LT(m, k);
  StorageEnv env;
  IoPipelineOptions io;
  io.background_threads = 0;
  auto spill = SpillManager::Create(&env, dir, io);
  EXPECT_TRUE(spill.ok());
  uint64_t consumed = m + 1, eliminated = 0, changes = 0;
  CutoffFilter::Options filter_options;
  filter_options.k = k;
  filter_options.target_run_rows =
      std::min<uint64_t>(2 * std::max<uint64_t>(m, 1), k);
  filter_options.on_cutoff_change = [&](const CutoffFilter::CutoffUpdate&) {
    ++changes;
    out.timeline.emplace_back(consumed, eliminated);
  };
  CutoffFilter filter(filter_options);
  ReplayObserver observer(&filter);
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = memory;
  gen_options.run_row_limit = k;
  gen_options.run_index_stride =
      std::max<uint64_t>(16, filter_options.target_run_rows / 64);
  gen_options.observer = &observer;
  ReplacementSelectionRunGenerator gen(spill->get(), RowComparator(),
                                       gen_options);
  // The switch hands the buffered rows over worst first.
  std::vector<Row> heap(rows.begin(), rows.begin() + m);
  std::sort(heap.begin(), heap.end(),
            [](const Row& a, const Row& b) { return RowComparator()(b, a); });
  for (const Row& row : heap) EXPECT_TRUE(gen.Add(row).ok());
  uint64_t changes_at_drop = 0;
  for (size_t i = m; i < rows.size(); ++i) {
    consumed = i + 1;
    if (filter.Eliminate(rows[i])) {
      ++eliminated;
      continue;
    }
    if (changes != changes_at_drop) {
      changes_at_drop = changes;
      auto dropped = DropRunsBeyondCutoff(spill->get(), filter, k, false);
      EXPECT_TRUE(dropped.ok());
      out.runs_dropped += dropped.ok() ? *dropped : 0;
    }
    EXPECT_TRUE(gen.Add(rows[i]).ok());
  }
  EXPECT_TRUE(gen.Flush().ok());
  out.runs = (*spill)->runs();
  out.eliminated_input = eliminated;
  out.eliminated_spill = gen.stats().rows_eliminated_at_spill;
  return out;
}

TEST_F(HistogramTopKTest, OneWorkerMatchesTheSequentialReplay) {
  constexpr uint64_t kK = 2000;
  constexpr size_t kMemory = 24 * 1024;
  std::vector<std::pair<std::string, std::vector<Row>>> inputs;
  for (const KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kDescending}) {
    DatasetSpec spec;
    spec.WithRows(40000).WithSeed(31).WithPayload(8, 8);
    spec.WithDistribution(dist);
    inputs.emplace_back(dist == KeyDistribution::kUniform ? "uniform"
                                                           : "descending",
                        MaterializeDataset(spec));
  }
  // Duplicate-heavy, with ties at every key.
  std::vector<Row> ties = inputs.front().second;
  for (Row& row : ties) row.key = std::floor(row.key * 64) / 64;
  inputs.emplace_back("ties", std::move(ties));
  for (const auto& [name, rows] : inputs) {
    SCOPED_TRACE(name);
    TopKOptions options = Options(kK, kMemory);
    options.io_background_threads = 0;
    options.manifest_filename = "m";
    options.obs = ObsContext::Create(name);
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    for (const Row& row : rows) ASSERT_TRUE((*op)->Consume(row).ok());
    ASSERT_TRUE((*op)->Suspend().ok());
    const OperatorStats stats = (*op)->stats();
    auto reopened = SpillManager::OpenExisting(&env_, options.spill_dir, "m");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const SequentialRun want = ReplaySequentially(
        rows, kK, kMemory, scratch_.str() + "/replay-" + name);

    EXPECT_EQ(stats.rows_eliminated_input, want.eliminated_input);
    EXPECT_EQ(stats.rows_eliminated_spill, want.eliminated_spill);
    EXPECT_EQ(stats.runs_dropped, want.runs_dropped);
    const std::vector<RunMeta> got = (*reopened)->runs();
    ASSERT_EQ(got.size(), want.runs.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want.runs[i].id);
      EXPECT_EQ(got[i].crc32c, want.runs[i].crc32c);
      EXPECT_EQ(got[i].rows, want.runs[i].rows);
      EXPECT_EQ(got[i].first_key, want.runs[i].first_key);
      EXPECT_EQ(got[i].last_key, want.runs[i].last_key);
      ASSERT_EQ(got[i].histogram.size(), want.runs[i].histogram.size());
      for (size_t b = 0; b < got[i].histogram.size(); ++b) {
        EXPECT_EQ(got[i].histogram[b].boundary,
                  want.runs[i].histogram[b].boundary);
        EXPECT_EQ(got[i].histogram[b].count, want.runs[i].histogram[b].count);
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> timeline;
    for (const auto& event : options.obs->cutoff_events()) {
      timeline.emplace_back(event.rows_consumed, event.rows_eliminated_input);
    }
    // The context keeps the first kMaxCutoffEvents and counts the rest.
    EXPECT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.size() + options.obs->cutoff_events_dropped(),
              want.timeline.size());
    const std::vector<std::pair<uint64_t, uint64_t>> want_kept(
        want.timeline.begin(),
        want.timeline.begin() +
            std::min(timeline.size(), want.timeline.size()));
    EXPECT_EQ(timeline, want_kept);
  }
}

TEST_F(HistogramTopKTest, ParallelTimelineCountsRowsConsumed) {
  // Each queued row carries its input ordinal, so the cutoff timeline of
  // four run-generation workers reports progress, never backwards.
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(5);
  const auto rows = MaterializeDataset(spec);
  TopKOptions options = Options(500);
  options.workers = 4;
  options.obs = ObsContext::Create("parallel-timeline");
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
  const auto events = options.obs->cutoff_events();
  ASSERT_FALSE(events.empty());
  uint64_t consumed = 0, eliminated = 0;
  for (const auto& event : events) {
    EXPECT_GT(event.rows_consumed, 0u);
    EXPECT_GE(event.rows_consumed, consumed);
    EXPECT_GE(event.rows_eliminated_input, eliminated);
    EXPECT_LE(event.rows_eliminated_input, event.rows_consumed);
    consumed = event.rows_consumed;
    eliminated = event.rows_eliminated_input;
  }
  EXPECT_LE(consumed, rows.size());
}

TEST_F(HistogramTopKTest, PeakMemoryStaysWithinTheBudgetBound) {
  // One run-generation worker keeps the whole budget and leases the rows
  // in flight beside it, at most a quarter of the budget more; more
  // workers keep them within the budget. Batches and generators
  // stop at the row that crosses their share, so a few rows' worth of
  // slack stays.
  DatasetSpec spec;
  spec.WithRows(100000).WithSeed(6);
  const auto rows = MaterializeDataset(spec);
  constexpr size_t kLimit = 256 * 1024;
  constexpr size_t kSlack = kLimit / 32;
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    TopKOptions options = Options(5000, kLimit);
    options.workers = workers;
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(ReferenceTopK(rows, 5000, 0, SortDirection::kAscending),
                   *result);
    ASSERT_TRUE((*op)->is_external());
    EXPECT_LE((*op)->stats().peak_memory_bytes,
              (workers == 1 ? kLimit + kLimit / 4 : kLimit) + kSlack);
  }
}

}  // namespace
}  // namespace topk
