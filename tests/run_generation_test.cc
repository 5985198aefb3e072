#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_control.h"
#include "common/random.h"
#include "common/resource_arbiter.h"
#include "gen/generator.h"
#include "sort/replacement_selection.h"
#include "sort/run_generation.h"
#include "tests/test_util.h"

namespace topk {
namespace {

/// A fresh spill directory per test.
class SpillDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::TestScratchPath("topk_rungen");
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
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

class RunGenerationTest : public SpillDirTest,
                          public ::testing::WithParamInterface<bool> {
 protected:
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

// --- Parallel run generation (FanOutRunGenerator) ---

using FanOutRunGeneratorTest = SpillDirTest;

TEST_F(FanOutRunGeneratorTest, EveryWorkerWritesSortedRunsOfTheInput) {
  RunGeneratorOptions options = SmallMemory(400);
  options.workers = 4;
  // Each observer is called only from its own worker's thread.
  std::vector<ThresholdObserver> observers(4, ThresholdObserver(0.9));
  for (ThresholdObserver& observer : observers) {
    options.worker_observers.push_back(&observer);
  }
  auto gen = MakeRunGenerator(RunGenerationKind::kReplacementSelection,
                              spill_.get(), RowComparator(), options);
  Random rng(11);
  std::vector<double> kept;
  for (int i = 0; i < 20000; ++i) {
    const double key = rng.NextDouble();
    if (key <= 0.9) kept.push_back(key);
    ASSERT_TRUE(gen->Add(Row(key, i)).ok());
  }
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_EQ(gen->stats().rows_added, 20000u);
  EXPECT_EQ(gen->stats().rows_spilled, kept.size());
  EXPECT_EQ(gen->stats().rows_eliminated_at_spill, 20000u - kept.size());

  std::vector<double> observed;
  for (const ThresholdObserver& observer : observers) {
    EXPECT_FALSE(observer.spilled_keys.empty());
    EXPECT_GT(observer.runs_finished, 0);
    observed.insert(observed.end(), observer.spilled_keys.begin(),
                    observer.spilled_keys.end());
  }
  RowComparator cmp;
  std::vector<double> read_back;
  for (const RunMeta& meta : spill_->runs()) {
    std::vector<Row> rows = ReadRun(meta);
    ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end(), cmp));
    for (const Row& row : rows) read_back.push_back(row.key);
  }
  std::sort(kept.begin(), kept.end());
  std::sort(observed.begin(), observed.end());
  std::sort(read_back.begin(), read_back.end());
  EXPECT_EQ(kept, observed);
  EXPECT_EQ(kept, read_back);
}

/// Records the rows reported spilled and trips `cancel` once it has seen
/// `trip_after` of them, so the cancellation lands in the middle of a spill.
class CancellingObserver : public SpillObserver {
 public:
  CancellingObserver(CancellationToken* cancel, size_t trip_after)
      : cancel_(cancel), trip_after_(trip_after) {}

  void OnRowSpilled(const Row& row) override {
    spilled_keys.push_back(row.key);
    if (spilled_keys.size() == trip_after_) cancel_->RequestCancel("test");
  }

  std::vector<double> spilled_keys;

 private:
  CancellationToken* cancel_;
  size_t trip_after_;
};

/// A run-generator kind and worker count.
class DetachedCancelTest
    : public SpillDirTest,
      public ::testing::WithParamInterface<
          std::tuple<RunGenerationKind, size_t>> {};

TEST_P(DetachedCancelTest, FlushSpillsEveryRowOnce) {
  // Every generator trips the token partway through a spill, past the end
  // of its first short run, so a stopped spill has finished runs and an
  // open one. Once the token is detached, Flush must write every row that
  // Add accepted, the one whose Add reported the cancellation included,
  // exactly once, and report each to the observer once.
  const auto [kind, workers] = GetParam();
  CancellationToken cancel;
  RunGeneratorOptions options = SmallMemory(400);
  options.workers = workers;
  options.cancel = &cancel;
  options.run_row_limit = 50;
  std::vector<CancellingObserver> observers(workers,
                                            CancellingObserver(&cancel, 120));
  if (workers == 1) {
    options.observer = &observers[0];
  } else {
    for (CancellingObserver& observer : observers) {
      options.worker_observers.push_back(&observer);
    }
  }
  auto gen = MakeRunGenerator(kind, spill_.get(), RowComparator(), options);
  Random rng(12);
  std::vector<double> keys;
  Status status;
  while (status.ok() && keys.size() < 20000) {
    keys.push_back(rng.NextDouble());
    status = gen->Add(Row(keys.back(), keys.size()));
  }
  ASSERT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  gen->SetCancel(nullptr);
  ASSERT_TRUE(gen->Flush().ok());
  EXPECT_EQ(gen->stats().rows_added, keys.size());
  EXPECT_EQ(gen->stats().rows_spilled, keys.size());
  std::vector<double> read_back;
  for (const RunMeta& meta : spill_->runs()) {
    for (const Row& row : ReadRun(meta)) read_back.push_back(row.key);
  }
  std::vector<double> observed;
  for (const CancellingObserver& observer : observers) {
    observed.insert(observed.end(), observer.spilled_keys.begin(),
                    observer.spilled_keys.end());
  }
  std::sort(keys.begin(), keys.end());
  std::sort(read_back.begin(), read_back.end());
  std::sort(observed.begin(), observed.end());
  EXPECT_EQ(keys, read_back);
  EXPECT_EQ(keys, observed);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndWorkers, DetachedCancelTest,
    ::testing::Combine(::testing::Values(RunGenerationKind::kReplacementSelection,
                                         RunGenerationKind::kQuicksort),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<DetachedCancelTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ==
                                 RunGenerationKind::kReplacementSelection
                             ? "ReplacementSelection"
                             : "Quicksort") +
             "x" + std::to_string(std::get<1>(info.param));
    });

// --- Replacement-selection-specific behaviour ---

class ReplacementSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::TestScratchPath("topk_rs");
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

// --- Differential check against the priority-queue semantics ---

/// One observer call, in order: an elimination probe (with its verdict), a
/// written row, or a closed run.
struct ObserverEvent {
  char kind;  // 'e' probe, 's' spilled, 'r' run finished
  uint64_t key_bits;
  uint64_t id;
  bool eliminated;
  bool operator==(const ObserverEvent&) const = default;
};

/// Logs every observer call; optionally eliminates every
/// `eliminate_every`-th probed row (1: every row) and trips a cancellation
/// token at probe `cancel_at_probe`, i.e. in the middle of whatever spill
/// loop is running then.
class LoggingObserver : public SpillObserver {
 public:
  LoggingObserver(uint64_t eliminate_every, uint64_t cancel_at_probe,
                  CancellationToken* cancel)
      : eliminate_every_(eliminate_every),
        cancel_at_probe_(cancel_at_probe),
        cancel_(cancel) {}

  bool EliminateAtSpill(const Row& row) override {
    ++probes_;
    if (probes_ == cancel_at_probe_) cancel_->RequestCancel("differential");
    const bool eliminate =
        eliminate_every_ != 0 && probes_ % eliminate_every_ == 0;
    log.push_back({'e', std::bit_cast<uint64_t>(row.key), row.id, eliminate});
    return eliminate;
  }
  void OnRowSpilled(const Row& row) override {
    log.push_back({'s', std::bit_cast<uint64_t>(row.key), row.id, false});
  }
  std::vector<HistogramBucket> OnRunFinished() override {
    log.push_back({'r', 0, 0, false});
    return {};
  }

  uint64_t probes() const { return probes_; }

  std::vector<ObserverEvent> log;

 private:
  const uint64_t eliminate_every_;
  const uint64_t cancel_at_probe_;
  CancellationToken* const cancel_;
  uint64_t probes_ = 0;
};

/// (key bits, id, payload) of one row as it sits in a run.
using RunRow = std::tuple<uint64_t, uint64_t, std::string>;

RunRow AsRunRow(const Row& row) {
  return {std::bit_cast<uint64_t>(row.key), row.id, row.payload};
}

/// Replacement selection as a binary min-heap over (run_seq, normalized
/// key): push the row, then pop the minimum while over budget and more than
/// one row is buffered. The generator's tournament tree must spill in
/// exactly this order, with the same run cuts, observer calls and stats.
class HeapModel {
 public:
  HeapModel(const RunGeneratorOptions& options, SortDirection direction)
      : options_(options), direction_(direction) {}

  Status Add(Row row) {
    const NormalizedKey norm = row.normalized_key(direction_);
    uint64_t seq = current_seq_;
    if (has_last_ && norm < last_norm_) seq = current_seq_ + 1;
    buffered_bytes_ += row.MemoryFootprint() + kPerRowOverheadBytes;
    heap_.push_back(Entry{seq, norm, std::move(row)});
    std::push_heap(heap_.begin(), heap_.end(), Greater{});
    ++stats.rows_added;
    stats.rows_in_memory = heap_.size();
    stats.peak_memory_bytes = std::max(stats.peak_memory_bytes,
                                       buffered_bytes_);
    size_t limit = options_.memory_limit_bytes;
    if (options_.arbiter != nullptr &&
        options_.arbiter->pressure() >= MemoryPressure::kSoft) {
      limit = std::max<size_t>(1, limit / 2);
    }
    while (buffered_bytes_ > limit && heap_.size() > 1) {
      TOPK_RETURN_IF_CANCELLED(options_.cancel);
      SpillOne();
    }
    stats.rows_in_memory = heap_.size();
    return Status::OK();
  }

  Status Flush() {
    while (!heap_.empty()) {
      TOPK_RETURN_IF_CANCELLED(options_.cancel);
      SpillOne();
    }
    CloseRun();
    buffered_bytes_ = 0;
    stats.rows_in_memory = 0;
    return Status::OK();
  }

  void SetCancel(const CancellationToken* cancel) { options_.cancel = cancel; }

  RunGeneratorStats stats;
  std::vector<std::vector<RunRow>> runs;

 private:
  struct Entry {
    uint64_t seq;
    NormalizedKey norm;
    Row row;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.seq != b.seq) return a.seq > b.seq;
      return b.norm < a.norm;
    }
  };

  void SpillOne() {
    std::pop_heap(heap_.begin(), heap_.end(), Greater{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    buffered_bytes_ -= entry.row.MemoryFootprint() + kPerRowOverheadBytes;
    if (entry.seq != current_seq_) {
      CloseRun();
      current_seq_ = entry.seq;
      has_last_ = false;
    }
    if (options_.observer != nullptr &&
        options_.observer->EliminateAtSpill(entry.row)) {
      ++stats.rows_eliminated_at_spill;
      return;
    }
    if (run_open_ && runs.back().size() >= options_.run_row_limit) {
      CloseRun();
    }
    if (!run_open_) {
      runs.emplace_back();
      run_open_ = true;
    }
    runs.back().push_back(AsRunRow(entry.row));
    if (options_.observer != nullptr) {
      options_.observer->OnRowSpilled(entry.row);
    }
    ++stats.rows_spilled;
    last_norm_ = entry.norm;
    has_last_ = true;
  }

  void CloseRun() {
    if (options_.observer != nullptr) options_.observer->OnRunFinished();
    run_open_ = false;
  }

  RunGeneratorOptions options_;
  SortDirection direction_;
  std::vector<Entry> heap_;
  size_t buffered_bytes_ = 0;
  uint64_t current_seq_ = 0;
  bool has_last_ = false;
  NormalizedKey last_norm_;
  bool run_open_ = false;
};

/// Load-sort-store as the plain algorithm over whole rows: buffer rows
/// until the next one would pass the budget, then sort them and write them
/// out in order. A cancellation stops the spill between two rows, the
/// incoming row is buffered behind it, and the next Add or Flush finishes
/// it. The generator's serialized buffer must spill exactly these rows,
/// with the same run cuts, observer calls and stats.
class QuicksortModel {
 public:
  QuicksortModel(const RunGeneratorOptions& options, SortDirection direction)
      : options_(options), direction_(direction) {}

  Status Add(Row row) {
    const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
    size_t limit = options_.memory_limit_bytes;
    if (options_.arbiter != nullptr &&
        options_.arbiter->pressure() >= MemoryPressure::kSoft) {
      limit = std::max<size_t>(1, limit / 2);
    }
    Status spilled = order_.empty() ? Status::OK() : Spill();
    if (spilled.ok() && buffered_bytes_ + cost > limit && !buffer_.empty()) {
      spilled = Spill();
    }
    if (!spilled.ok() && spilled.code() != StatusCode::kCancelled) {
      return spilled;
    }
    buffered_bytes_ += cost;
    buffer_.push_back(std::move(row));
    ++stats.rows_added;
    stats.rows_in_memory = buffer_.size();
    stats.peak_memory_bytes =
        std::max(stats.peak_memory_bytes, buffered_bytes_);
    return spilled;
  }

  Status Flush() {
    while (!buffer_.empty()) TOPK_RETURN_NOT_OK(Spill());
    return Status::OK();
  }

  void SetCancel(const CancellationToken* cancel) { options_.cancel = cancel; }

  RunGeneratorStats stats;
  std::vector<std::vector<RunRow>> runs;

 private:
  Status Spill() {
    if (order_.empty()) {
      for (size_t i = 0; i < buffer_.size(); ++i) order_.push_back(i);
      std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
        return buffer_[a].normalized_key(direction_) <
               buffer_[b].normalized_key(direction_);
      });
      next_ = 0;
    }
    for (; next_ < order_.size(); ++next_) {
      TOPK_RETURN_IF_CANCELLED(options_.cancel);
      const Row& row = buffer_[order_[next_]];
      if (options_.observer != nullptr &&
          options_.observer->EliminateAtSpill(row)) {
        ++stats.rows_eliminated_at_spill;
        continue;
      }
      if (run_open_ && runs.back().size() >= options_.run_row_limit) {
        CloseRun();
      }
      if (!run_open_) {
        runs.emplace_back();
        run_open_ = true;
      }
      runs.back().push_back(AsRunRow(row));
      if (options_.observer != nullptr) options_.observer->OnRowSpilled(row);
      ++stats.rows_spilled;
    }
    // Closes the last run, or tells the observer that a fully eliminated
    // load ended.
    CloseRun();
    buffer_.erase(buffer_.begin(), buffer_.begin() + order_.size());
    order_.clear();
    buffered_bytes_ = 0;
    for (const Row& row : buffer_) {
      buffered_bytes_ += row.MemoryFootprint() + kPerRowOverheadBytes;
    }
    stats.rows_in_memory = buffer_.size();
    return Status::OK();
  }

  void CloseRun() {
    if (options_.observer != nullptr) options_.observer->OnRunFinished();
    run_open_ = false;
  }

  RunGeneratorOptions options_;
  SortDirection direction_;
  std::vector<Row> buffer_;
  size_t buffered_bytes_ = 0;
  std::vector<size_t> order_;
  size_t next_ = 0;
  bool run_open_ = false;
};

enum class KeyShape { kRandom, kAscending, kDescending, kAllEqual, kSpecial };

double ShapedKey(KeyShape shape, size_t i, Random* rng) {
  switch (shape) {
    case KeyShape::kRandom:
      return rng->NextDouble();
    case KeyShape::kAscending:
      return static_cast<double>(i);
    case KeyShape::kDescending:
      return -static_cast<double>(i);
    case KeyShape::kAllEqual:
      return 7.0;
    case KeyShape::kSpecial: {
      static const double kSpecials[] = {
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          0.0,
          -0.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
      // Half the rows take a special value, the rest are ordinary keys
      // around zero so the specials interleave with them.
      if (rng->NextUint64(2) == 0) return kSpecials[rng->NextUint64(6)];
      return rng->NextDouble() - 0.5;
    }
  }
  return 0.0;
}

/// Payload lengths from 0 to 4 KiB, mostly small, with the string's
/// inline-buffer edge (15 and 16 bytes) among them: against a 64 KiB budget
/// a large row forces several spills in one Add, and the small rows after
/// it often spill none.
size_t PayloadBytes(Random* rng) {
  const uint64_t pick = rng->NextUint64(10);
  if (pick < 1) return 15 + rng->NextUint64(2);
  if (pick < 5) return rng->NextUint64(65);
  if (pick < 9) return 64 + rng->NextUint64(449);
  return 1024 + rng->NextUint64(3073);
}

/// Bytes that differ from row to row and along the row, so a run that
/// carries any stale or misplaced byte fails the comparison.
std::string PayloadOf(uint64_t id, size_t bytes) {
  std::string payload(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<char>(id * 131 + i * 7);
  }
  return payload;
}

struct DifferentialCase {
  std::string name;
  KeyShape shape = KeyShape::kRandom;
  SortDirection direction = SortDirection::kAscending;
  uint64_t run_row_limit = std::numeric_limits<uint64_t>::max();
  /// The observer eliminates every n-th probed row (0 = none, 1 = all).
  uint64_t eliminate_every = 0;
  /// Row index at which soft memory pressure turns on (0 = never).
  size_t soft_pressure_at = 0;
  /// Observer probe at which the query is cancelled (0 = never).
  uint64_t cancel_at_probe = 0;
  /// Payloads alternate 4 KiB and 0-16 bytes instead of PayloadBytes, so
  /// small rows keep taking over slots that held large ones.
  bool large_then_small = false;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) { *os << c.name; }

void ExpectSameStats(const RunGeneratorStats& tree,
                     const RunGeneratorStats& model, size_t row) {
  EXPECT_EQ(tree.rows_added, model.rows_added) << "row " << row;
  EXPECT_EQ(tree.rows_eliminated_at_spill, model.rows_eliminated_at_spill)
      << "row " << row;
  EXPECT_EQ(tree.rows_spilled, model.rows_spilled) << "row " << row;
  EXPECT_EQ(tree.peak_memory_bytes, model.peak_memory_bytes) << "row " << row;
  EXPECT_EQ(tree.rows_in_memory, model.rows_in_memory) << "row " << row;
}

/// Feeds one input to a run generator and to its model, and compares the
/// two row by row: status, stats, observer calls, and the runs read back
/// byte for byte.
class DifferentialTest : public ::testing::TestWithParam<DifferentialCase> {
 protected:
  void SetUp() override {
    dir_ = testing_util::TestScratchPath("topk_rs_diff");
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::vector<std::vector<RunRow>> ReadRuns() {
    std::vector<std::vector<RunRow>> runs;
    for (const RunMeta& meta : spill_->runs()) {
      auto reader = spill_->OpenRun(meta);
      EXPECT_TRUE(reader.ok());
      if (!reader.ok()) break;
      runs.emplace_back();
      Row row;
      bool eof = false;
      for (;;) {
        EXPECT_TRUE((*reader)->Next(&row, &eof).ok());
        if (eof) break;
        runs.back().push_back(AsRunRow(row));
      }
    }
    return runs;
  }

  template <typename Model, typename Generator>
  void ExpectSameAsModel();

  std::filesystem::path dir_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
};

template <typename Model, typename Generator>
void DifferentialTest::ExpectSameAsModel() {
  const DifferentialCase& c = GetParam();
  // Both sides share one arbiter. Its budget dwarfs their leases, so the
  // pressure level is set by the hog lease alone and both see it flip at
  // the same row.
  MemoryArbiter::Options arbiter_options;
  arbiter_options.budget_bytes = 16 << 20;
  MemoryArbiter arbiter(arbiter_options);
  CancellationToken model_cancel;
  CancellationToken tree_cancel;
  LoggingObserver model_observer(c.eliminate_every, c.cancel_at_probe,
                                 &model_cancel);
  LoggingObserver tree_observer(c.eliminate_every, c.cancel_at_probe,
                                &tree_cancel);

  RunGeneratorOptions options;
  options.memory_limit_bytes = 64 * 1024;
  options.run_row_limit = c.run_row_limit;
  options.arbiter = &arbiter;
  options.observer = &model_observer;
  options.cancel = &model_cancel;
  Model model(options, c.direction);
  options.observer = &tree_observer;
  options.cancel = &tree_cancel;
  Generator tree(spill_.get(), RowComparator(c.direction), options);

  Random rng(1000 + static_cast<uint64_t>(c.shape));
  MemoryLease hog;
  const size_t kRows = 6000;
  // Adds that spilled no row, one row, and several rows.
  size_t adds_by_spills[3] = {0, 0, 0};
  size_t added = 0;
  for (; added < kRows; ++added) {
    if (c.soft_pressure_at != 0 && added == c.soft_pressure_at) {
      auto lease = arbiter.Acquire("hog", 13 << 20);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      hog = std::move(*lease);
      ASSERT_EQ(arbiter.pressure(), MemoryPressure::kSoft);
    }
    const double key = ShapedKey(c.shape, added, &rng);
    const size_t payload_bytes =
        !c.large_then_small ? PayloadBytes(&rng)
        : added % 2 == 0    ? 4096
                            : rng.NextUint64(17);
    const Row row(key, added, PayloadOf(added, payload_bytes));
    const uint64_t probes_before = tree_observer.probes();
    const Status model_status = model.Add(row);
    const Status tree_status = tree.Add(row);
    ++adds_by_spills[std::min<uint64_t>(
        2, tree_observer.probes() - probes_before)];
    ASSERT_EQ(model_status.code(), tree_status.code()) << "row " << added;
    ExpectSameStats(tree.stats(), model.stats, added);
    if (!model_status.ok()) {
      ASSERT_EQ(model_status.code(), StatusCode::kCancelled);
      break;
    }
  }
  if (std::is_same_v<Generator, ReplacementSelectionRunGenerator> &&
      c.shape == KeyShape::kRandom && c.cancel_at_probe == 0) {
    EXPECT_GT(adds_by_spills[0], 0u);
    EXPECT_GT(adds_by_spills[1], 0u);
    EXPECT_GT(adds_by_spills[2], 0u);
  }
  if (c.cancel_at_probe != 0) {
    ASSERT_LT(added, kRows) << "the cancel never fired";
    // The keep-for-resume unwind: detach the token and flush what is left.
    // Every added row must still reach a run or the eliminated count.
    ++added;
    model.SetCancel(nullptr);
    tree.SetCancel(nullptr);
  }
  ASSERT_TRUE(model.Flush().ok());
  ASSERT_TRUE(tree.Flush().ok());

  ExpectSameStats(tree.stats(), model.stats, added);
  EXPECT_EQ(tree.stats().rows_added, added);
  EXPECT_EQ(tree.stats().rows_spilled + tree.stats().rows_eliminated_at_spill,
            added);
  EXPECT_EQ(tree_observer.log, model_observer.log);
  EXPECT_EQ(ReadRuns(), model.runs);
}

class ReplacementSelectionDifferentialTest : public DifferentialTest {};
class QuicksortDifferentialTest : public DifferentialTest {};

TEST_P(ReplacementSelectionDifferentialTest, SpillsLikePushThenPopMinimum) {
  ExpectSameAsModel<HeapModel, ReplacementSelectionRunGenerator>();
}

TEST_P(QuicksortDifferentialTest, SpillsLikeSortingEachLoad) {
  ExpectSameAsModel<QuicksortModel, QuicksortRunGenerator>();
}

DifferentialCase Case(std::string name, KeyShape shape) {
  DifferentialCase c;
  c.name = std::move(name);
  c.shape = shape;
  return c;
}

std::vector<DifferentialCase> DifferentialCases() {
  std::vector<DifferentialCase> cases = {
      Case("Random", KeyShape::kRandom),
      Case("Ascending", KeyShape::kAscending),
      Case("Descending", KeyShape::kDescending),
      Case("AllEqual", KeyShape::kAllEqual),
      Case("NanZeroInf", KeyShape::kSpecial),
  };
  DifferentialCase c = Case("RandomDescendingQuery", KeyShape::kRandom);
  c.direction = SortDirection::kDescending;
  cases.push_back(c);
  c = Case("NanZeroInfDescendingQuery", KeyShape::kSpecial);
  c.direction = SortDirection::kDescending;
  cases.push_back(c);
  c = Case("RunRowLimit", KeyShape::kRandom);
  c.run_row_limit = 37;
  cases.push_back(c);
  c = Case("EliminateEveryThird", KeyShape::kRandom);
  c.eliminate_every = 3;
  c.run_row_limit = 100;
  cases.push_back(c);
  // No run is ever opened: every run closes with no writer.
  c = Case("EliminateAll", KeyShape::kRandom);
  c.eliminate_every = 1;
  cases.push_back(c);
  c = Case("SoftPressureMidStream", KeyShape::kRandom);
  c.soft_pressure_at = 2500;
  cases.push_back(c);
  c = Case("SoftPressureDescending", KeyShape::kDescending);
  c.soft_pressure_at = 2500;
  cases.push_back(c);
  c = Case("LargeThenSmall", KeyShape::kRandom);
  c.large_then_small = true;
  cases.push_back(c);
  c = Case("LargeThenSmallDescending", KeyShape::kDescending);
  c.large_then_small = true;
  cases.push_back(c);
  for (const uint64_t probe : {1, 700, 701, 702, 2001}) {
    c = Case("CancelAtProbe" + std::to_string(probe), KeyShape::kRandom);
    c.eliminate_every = 3;
    c.cancel_at_probe = probe;
    cases.push_back(c);
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<DifferentialCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Inputs, ReplacementSelectionDifferentialTest,
                         ::testing::ValuesIn(DifferentialCases()), CaseName);
INSTANTIATE_TEST_SUITE_P(Inputs, QuicksortDifferentialTest,
                         ::testing::ValuesIn(DifferentialCases()), CaseName);

}  // namespace
}  // namespace topk
