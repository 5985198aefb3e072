#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gen/generator.h"
#include "sort/replacement_selection.h"
#include "sort/run_generation.h"

namespace topk {
namespace {

class RunGenerationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topk_rungen_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// True = replacement selection, false = quicksort.
  std::unique_ptr<RunGenerator> MakeGenerator(
      const RunGeneratorOptions& options,
      const RowComparator& cmp = RowComparator()) {
    if (GetParam()) {
      return std::make_unique<ReplacementSelectionRunGenerator>(spill_.get(),
                                                                cmp, options);
    }
    return std::make_unique<QuicksortRunGenerator>(spill_.get(), cmp,
                                                   options);
  }

  /// Reads all rows of a run back.
  std::vector<Row> ReadRun(const RunMeta& meta) {
    auto reader = spill_->OpenRun(meta);
    EXPECT_TRUE(reader.ok());
    std::vector<Row> rows;
    Row row;
    bool eof = false;
    for (;;) {
      EXPECT_TRUE((*reader)->Next(&row, &eof).ok());
      if (eof) break;
      rows.push_back(row);
    }
    return rows;
  }

  std::filesystem::path dir_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
};

RunGeneratorOptions SmallMemory(size_t rows_about = 100) {
  RunGeneratorOptions options;
  // ~Row footprint with empty payload + overhead.
  options.memory_limit_bytes = rows_about * (sizeof(Row) + 32);
  return options;
}

TEST_P(RunGenerationTest, AllRowsLandInSortedRuns) {
  auto gen = MakeGenerator(SmallMemory());
  Random rng(1);
  std::vector<double> keys;
  for (int i = 0; i < 5000; ++i) {
    const double key = rng.NextDouble();
    keys.push_back(key);
    ASSERT_TRUE(gen->Add(Row(key, i)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_EQ(gen->stats().rows_added, 5000u);
  EXPECT_EQ(gen->stats().rows_spilled, 5000u);
  EXPECT_GT(spill_->run_count(), 1u);

  RowComparator cmp;
  std::vector<double> read_back;
  for (const RunMeta& meta : spill_->runs()) {
    std::vector<Row> rows = ReadRun(meta);
    EXPECT_EQ(rows.size(), meta.rows);
    ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end(), cmp));
    EXPECT_EQ(rows.front().key, meta.first_key);
    EXPECT_EQ(rows.back().key, meta.last_key);
    for (const Row& row : rows) read_back.push_back(row.key);
  }
  std::sort(keys.begin(), keys.end());
  std::sort(read_back.begin(), read_back.end());
  EXPECT_EQ(keys, read_back);
}

TEST_P(RunGenerationTest, DescendingComparatorProducesDescendingRuns) {
  RowComparator cmp(SortDirection::kDescending);
  auto gen = MakeGenerator(SmallMemory(), cmp);
  Random rng(2);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(gen->Add(Row(rng.NextDouble(), i)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  for (const RunMeta& meta : spill_->runs()) {
    std::vector<Row> rows = ReadRun(meta);
    ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end(), cmp));
  }
}

TEST_P(RunGenerationTest, RunRowLimitSplitsRuns) {
  RunGeneratorOptions options = SmallMemory(100);
  options.run_row_limit = 25;
  auto gen = MakeGenerator(options);
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(gen->Add(Row(rng.NextDouble(), i)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  uint64_t total = 0;
  for (const RunMeta& meta : spill_->runs()) {
    EXPECT_LE(meta.rows, 25u);
    total += meta.rows;
  }
  EXPECT_EQ(total, 1000u);
}

TEST_P(RunGenerationTest, VariableSizeRowsRespectByteBudget) {
  RunGeneratorOptions options;
  options.memory_limit_bytes = 64 * 1024;
  auto gen = MakeGenerator(options);
  DatasetSpec spec;
  spec.WithRows(2000).WithPayload(0, 600).WithSeed(11);
  RowGenerator rows(spec);
  Row row;
  while (rows.Next(&row)) {
    ASSERT_TRUE(gen->Add(std::move(row)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_LE(gen->stats().peak_memory_bytes, 2 * options.memory_limit_bytes);
  EXPECT_EQ(gen->stats().rows_spilled, 2000u);
  uint64_t total = 0;
  for (const RunMeta& meta : spill_->runs()) total += meta.rows;
  EXPECT_EQ(total, 2000u);
}

TEST_P(RunGenerationTest, BudgetEnforcedAcrossPayloadSizes) {
  // Regression for the MemoryFootprint under-count: payloads that left SSO
  // but stayed under sizeof(std::string) were charged zero heap bytes, so
  // small-payload workloads quietly buffered more rows than the budget
  // intended. The peak may exceed the limit by at most one row's footprint
  // (the row is added before the spill loop runs), for every payload shape.
  for (const size_t payload : {size_t{0}, size_t{8}, size_t{24}, size_t{64}}) {
    RunGeneratorOptions options;
    options.memory_limit_bytes = 16 * 1024;
    auto gen = MakeGenerator(options);
    const std::string fill(payload, 'p');
    const size_t row_cost =
        Row(0.0, 0, fill).MemoryFootprint() + kPerRowOverheadBytes;
    Random rng(31 + payload);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(gen->Add(Row(rng.NextDouble(), i, fill)).ok());
    }
    const size_t peak = gen->stats().peak_memory_bytes;
    ASSERT_TRUE(gen->Flush().ok());
    EXPECT_LE(peak, options.memory_limit_bytes + row_cost)
        << "payload " << payload;
    EXPECT_EQ(gen->stats().rows_spilled, 4000u) << "payload " << payload;
  }
}

/// Observer that eliminates keys above a fixed threshold and records calls.
class ThresholdObserver : public SpillObserver {
 public:
  explicit ThresholdObserver(double threshold) : threshold_(threshold) {}

  bool EliminateAtSpill(const Row& row) override {
    return row.key > threshold_;
  }
  void OnRowSpilled(const Row& row) override { spilled_keys.push_back(row.key); }
  std::vector<HistogramBucket> OnRunFinished() override {
    ++runs_finished;
    return {};
  }

  std::vector<double> spilled_keys;
  int runs_finished = 0;

 private:
  double threshold_;
};

TEST_P(RunGenerationTest, ObserverEliminatesAtSpill) {
  RunGeneratorOptions options = SmallMemory(50);
  ThresholdObserver observer(0.5);
  options.observer = &observer;
  auto gen = MakeGenerator(options);
  Random rng(4);
  uint64_t below = 0;
  for (int i = 0; i < 2000; ++i) {
    const double key = rng.NextDouble();
    if (key <= 0.5) ++below;
    ASSERT_TRUE(gen->Add(Row(key, i)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_EQ(gen->stats().rows_spilled, below);
  EXPECT_EQ(gen->stats().rows_eliminated_at_spill, 2000 - below);
  EXPECT_EQ(observer.spilled_keys.size(), below);
  EXPECT_GT(observer.runs_finished, 0);
  for (double key : observer.spilled_keys) EXPECT_LE(key, 0.5);
}

TEST_P(RunGenerationTest, FlushOnEmptyInputCreatesNoRuns) {
  auto gen = MakeGenerator(SmallMemory());
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_EQ(spill_->run_count(), 0u);
  EXPECT_EQ(gen->stats().rows_spilled, 0u);
}

TEST_P(RunGenerationTest, SingleRowSingleRun) {
  auto gen = MakeGenerator(SmallMemory());
  ASSERT_TRUE(gen->Add(Row(0.5, 0)).ok());
  ASSERT_TRUE(gen->Flush().ok());
  ASSERT_EQ(spill_->run_count(), 1u);
  EXPECT_EQ(spill_->runs()[0].rows, 1u);
}

INSTANTIATE_TEST_SUITE_P(Generators, RunGenerationTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ReplacementSelection"
                                             : "Quicksort";
                         });

// --- Replacement-selection-specific behaviour ---

class ReplacementSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topk_rs_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
};

TEST_F(ReplacementSelectionTest, PresortedInputYieldsOneLongRun) {
  // The signature property of replacement selection: already-sorted input
  // produces a single run regardless of memory size.
  RunGeneratorOptions options;
  options.memory_limit_bytes = 100 * (sizeof(Row) + 32);
  ReplacementSelectionRunGenerator gen(spill_.get(), RowComparator(),
                                       options);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(gen.Add(Row(i * 1.0, i)).ok());
  }
  ASSERT_TRUE(gen.Flush().ok());
  EXPECT_EQ(spill_->run_count(), 1u);
  EXPECT_EQ(spill_->runs()[0].rows, 5000u);
}

TEST_F(ReplacementSelectionTest, RandomInputRunsAverageTwiceMemory) {
  const size_t memory_rows = 200;
  RunGeneratorOptions options;
  options.memory_limit_bytes = memory_rows * (sizeof(Row) + 32);
  ReplacementSelectionRunGenerator gen(spill_.get(), RowComparator(),
                                       options);
  Random rng(6);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(gen.Add(Row(rng.NextDouble(), i)).ok());
  }
  ASSERT_TRUE(gen.Flush().ok());
  const double avg_run =
      static_cast<double>(n) / static_cast<double>(spill_->run_count());
  // Knuth: expected run length ~ 2x memory on random input.
  EXPECT_GT(avg_run, 1.5 * memory_rows);
  EXPECT_LT(avg_run, 2.6 * memory_rows);
}

TEST_F(ReplacementSelectionTest, ReverseSortedInputYieldsMemorySizedRuns) {
  // Worst case: descending input with ascending sort -> every row starts a
  // new logical run once memory cycles; run length ~= memory capacity.
  const size_t memory_rows = 100;
  RunGeneratorOptions options;
  options.memory_limit_bytes = memory_rows * (sizeof(Row) + 32);
  ReplacementSelectionRunGenerator gen(spill_.get(), RowComparator(),
                                       options);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(gen.Add(Row(static_cast<double>(n - i), i)).ok());
  }
  ASSERT_TRUE(gen.Flush().ok());
  const double avg_run =
      static_cast<double>(n) / static_cast<double>(spill_->run_count());
  EXPECT_LT(avg_run, 1.3 * memory_rows);
}

TEST_F(ReplacementSelectionTest, PipelinedOperationNeverHoldsInputBack) {
  // Adds never block on a full sort: after every Add the buffered rows stay
  // within the budget.
  RunGeneratorOptions options;
  options.memory_limit_bytes = 50 * (sizeof(Row) + 32);
  ReplacementSelectionRunGenerator gen(spill_.get(), RowComparator(),
                                       options);
  Random rng(8);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(gen.Add(Row(rng.NextDouble(), i)).ok());
    EXPECT_LE(gen.stats().rows_in_memory, 51u);
  }
}

TEST_F(ReplacementSelectionTest, SpillReleasesWhatAddChargedForSpareCapacity) {
  // Add charges a payload by its capacity. A spilled row must give back that
  // same charge: a copy of it sheds the spare capacity and would give back
  // less, so the buffered bytes would creep up and the heap would shrink
  // toward one row.
  const auto make_row = [](double key, uint64_t id) {
    Row row(key, id);
    row.payload.reserve(1024);
    row.payload.assign(64, 'p');
    return row;
  };
  const size_t memory_rows = 50;
  const size_t row_cost =
      make_row(0, 0).MemoryFootprint() + kPerRowOverheadBytes;
  RunGeneratorOptions options;
  options.memory_limit_bytes = memory_rows * row_cost;
  ReplacementSelectionRunGenerator gen(spill_.get(), RowComparator(),
                                       options);
  Random rng(9);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(gen.Add(make_row(rng.NextDouble(), i)).ok());
    ASSERT_EQ(gen.stats().rows_in_memory,
              std::min<size_t>(i + 1, memory_rows))
        << "after row " << i;
  }
  EXPECT_EQ(gen.stats().peak_memory_bytes, memory_rows * row_cost + row_cost);
  ASSERT_TRUE(gen.Flush().ok());
  EXPECT_EQ(gen.stats().rows_spilled, static_cast<uint64_t>(n));
}

}  // namespace
}  // namespace topk
