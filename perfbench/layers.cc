#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/crc32.h"
#include "common/memory_accounting.h"
#include "common/resource_arbiter.h"
#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "io/storage_env.h"
#include "row/serialization.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"
#include "topk/topk_operator.h"

namespace perfbench {

using topk::Row;
using topk::Status;

namespace {

using Clock = std::chrono::steady_clock;

/// Calls per timed batch: one clock pair costs about as much as a few
/// dozen probes, so a 1024-call batch keeps it under 1% of the probe time.
constexpr size_t kBatch = 1024;
/// Rows the read/rewrite driver copies; enough for a few hundred batches.
constexpr uint64_t kIoDriverRows = 200'000;

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double PerUnit(int64_t nanos, uint64_t units) {
  return units == 0 ? 0.0
                    : static_cast<double>(nanos) / static_cast<double>(units);
}

/// The operators' spill hook, recording every key the filter accounts and
/// where each run ended so the accounting can be replayed and timed alone.
/// Without a histogram filter it applies the optimized baseline's cutoff:
/// a run of exactly k rows proves that its last key bounds the top k.
class RecordingObserver : public topk::SpillObserver {
 public:
  RecordingObserver(topk::CutoffFilter* filter, uint64_t k)
      : filter_(filter), k_(k) {}

  bool Eliminate(double key) const {
    if (filter_ != nullptr) return filter_->EliminateKey(key);
    return run_cutoff_.has_value() && key > *run_cutoff_;
  }

  bool EliminateAtSpill(const Row& row) override { return Eliminate(row.key); }

  void OnRowSpilled(const Row& row) override {
    keys_.push_back(row.key);
    if (filter_ != nullptr) filter_->RowSpilled(row.key);
  }

  std::vector<topk::HistogramBucket> OnRunFinished() override {
    const size_t begin = run_ends_.empty() ? 0 : run_ends_.back();
    run_ends_.push_back(keys_.size());
    if (filter_ != nullptr) return filter_->RunFinished();
    if (keys_.size() - begin == k_) {
      const double last = keys_.back();
      run_cutoff_ = run_cutoff_.has_value() ? std::min(*run_cutoff_, last)
                                            : last;
    }
    return {};
  }

  const std::vector<double>& keys() const { return keys_; }
  const std::vector<size_t>& run_ends() const { return run_ends_; }

 private:
  topk::CutoffFilter* filter_;
  uint64_t k_;
  std::optional<double> run_cutoff_;
  std::vector<double> keys_;
  std::vector<size_t> run_ends_;
};

/// The histogram operator's filter configuration: TopKOptions defaults and
/// the bucket width it derives from the expected run length (twice the
/// rows that fit in memory, capped at k).
topk::CutoffFilter::Options FilterOptions(const LayerSetup& setup,
                                          const Row& sample) {
  const topk::TopKOptions defaults;
  const size_t row_bytes =
      sample.MemoryFootprint() + topk::kPerRowOverheadBytes;
  topk::CutoffFilter::Options options;
  options.k = setup.k;
  options.target_buckets_per_run = defaults.histogram_buckets_per_run;
  options.memory_limit_bytes = defaults.histogram_memory_limit_bytes;
  options.consolidation = defaults.histogram_consolidation;
  const uint64_t rows_in_memory =
      std::max<size_t>(setup.memory_bytes / row_bytes, 1);
  options.target_run_rows = std::min<uint64_t>(2 * rows_in_memory, setup.k);
  return options;
}

/// Times CutoffFilter::RowSpilled / RunFinished on a fresh filter fed the
/// recorded spill sequence.
int64_t ReplayAccounting(const topk::CutoffFilter::Options& options,
                         const RecordingObserver& observer) {
  topk::CutoffFilter filter(options);
  const std::vector<double>& keys = observer.keys();
  const std::vector<size_t>& ends = observer.run_ends();
  size_t next_end = 0;
  int64_t nanos = 0;
  for (size_t begin = 0; begin < keys.size(); begin += kBatch) {
    const size_t end = std::min(keys.size(), begin + kBatch);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      filter.RowSpilled(keys[i]);
      while (next_end < ends.size() && ends[next_end] == i + 1) {
        filter.RunFinished();
        ++next_end;
      }
    }
    nanos += NanosBetween(t0, Clock::now());
  }
  return nanos;
}

/// Reads runs back (RunReader::Next), serializes and checksums their rows
/// (SerializeRow, Crc32c), and rewrites them as new runs (RunWriter).
Status MeasureRunIo(topk::SpillManager* spill,
                    const topk::RowComparator& comparator, LayerCosts* costs) {
  int64_t read_nanos = 0, serialize_nanos = 0, crc_nanos = 0,
          append_nanos = 0;
  uint64_t rows_done = 0, crc_bytes = 0;
  uint32_t crc = 0;
  std::string wire;
  for (const topk::RunMeta& meta : spill->runs()) {
    if (rows_done >= kIoDriverRows) break;
    std::vector<Row> rows;
    rows.reserve(meta.rows);
    {
      std::unique_ptr<topk::RunReader> reader;
      TOPK_ASSIGN_OR_RETURN(reader, spill->OpenRun(meta));
      bool eof = false;
      while (!eof) {
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < kBatch; ++i) {
          Row row;
          TOPK_RETURN_NOT_OK(reader->Next(&row, &eof));
          if (eof) break;
          rows.push_back(std::move(row));
        }
        read_nanos += NanosBetween(t0, Clock::now());
      }
    }
    for (size_t begin = 0; begin < rows.size(); begin += kBatch) {
      const size_t end = std::min(rows.size(), begin + kBatch);
      wire.clear();
      const Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) topk::SerializeRow(rows[i], &wire);
      const Clock::time_point t1 = Clock::now();
      crc = topk::Crc32c(crc, wire.data(), wire.size());
      const Clock::time_point t2 = Clock::now();
      serialize_nanos += NanosBetween(t0, t1);
      crc_nanos += NanosBetween(t1, t2);
      crc_bytes += wire.size();
    }
    std::unique_ptr<topk::RunWriter> writer;
    TOPK_ASSIGN_OR_RETURN(writer, spill->NewRun(comparator));
    for (size_t begin = 0; begin < rows.size(); begin += kBatch) {
      const size_t end = std::min(rows.size(), begin + kBatch);
      const Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        TOPK_RETURN_NOT_OK(writer->Append(rows[i]));
      }
      append_nanos += NanosBetween(t0, Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    topk::Result<topk::RunMeta> rewritten = writer->Finish();
    append_nanos += NanosBetween(t0, Clock::now());
    TOPK_RETURN_NOT_OK(rewritten.status());
    TOPK_RETURN_NOT_OK(spill->DeleteSpillFile(rewritten->path));
    rows_done += rows.size();
  }
  costs->read_ns = PerUnit(read_nanos, rows_done);
  costs->serialize_ns = PerUnit(serialize_nanos, rows_done);
  costs->append_ns = PerUnit(append_nanos, rows_done);
  costs->crc_mb_per_s =
      crc_nanos == 0 ? 0.0
                     : static_cast<double>(crc_bytes) * 1e3 /
                           static_cast<double>(crc_nanos);
  return Status::OK();
}

}  // namespace

topk::Result<LayerCosts> MeasureLayers(const LayerSetup& setup,
                                       std::vector<Row> rows) {
  if (rows.empty()) return Status::InvalidArgument("no rows to replay");
  LayerCosts costs;
  const topk::RowComparator comparator;
  topk::MemoryArbiter arbiter;
  topk::StorageEnv env;
  topk::TopKOptions query;
  query.io_background_threads = setup.io_threads;
  query.arbiter = &arbiter;
  std::unique_ptr<topk::SpillManager> spill;
  TOPK_ASSIGN_OR_RETURN(spill, topk::SpillManager::Create(
                                   &env, setup.spill_dir, query.io_pipeline()));

  const topk::CutoffFilter::Options filter_options =
      FilterOptions(setup, rows.front());
  std::optional<topk::CutoffFilter> filter;
  if (setup.histogram) filter.emplace(filter_options);
  RecordingObserver observer(filter ? &*filter : nullptr, setup.k);

  topk::RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = setup.memory_bytes;
  gen_options.run_row_limit = setup.k;
  gen_options.observer = &observer;
  gen_options.arbiter = &arbiter;
  gen_options.run_index_stride =
      std::max<uint64_t>(16, filter_options.target_run_rows / 64);
  topk::ReplacementSelectionRunGenerator generator(spill.get(), comparator,
                                                   gen_options);

  // The probe pass is timed on its own (EliminateKey has no side effects);
  // the add pass re-probes each row right before Add, as the operator
  // does, so the cutoff it sees is as fresh as in the real query.
  int64_t probe_nanos = 0, rungen_nanos = 0;
  uint64_t probes = 0, passed = 0, added = 0;
  for (size_t begin = 0; begin < rows.size(); begin += kBatch) {
    const size_t end = std::min(rows.size(), begin + kBatch);
    if (filter) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        passed += filter->EliminateKey(rows[i].key) ? 0 : 1;
      }
      probe_nanos += NanosBetween(t0, Clock::now());
      probes += end - begin;
    }
    const Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      if (observer.Eliminate(rows[i].key)) continue;
      TOPK_RETURN_NOT_OK(generator.Add(std::move(rows[i])));
      ++added;
    }
    rungen_nanos += NanosBetween(t0, Clock::now());
  }
  {
    const Clock::time_point t0 = Clock::now();
    TOPK_RETURN_NOT_OK(generator.Flush());
    rungen_nanos += NanosBetween(t0, Clock::now());
  }
  rows.clear();
  rows.shrink_to_fit();
  costs.probe_pass_frac = PerUnit(static_cast<int64_t>(passed), probes);
  costs.probe_ns = PerUnit(probe_nanos, probes);
  costs.rungen_ns = PerUnit(rungen_nanos, added);
  costs.rungen_spill_frac =
      added == 0 ? 0.0
                 : static_cast<double>(generator.stats().rows_spilled) /
                       static_cast<double>(added);
  if (filter) {
    costs.account_ns = PerUnit(ReplayAccounting(filter_options, observer),
                               observer.keys().size());
  }

  TOPK_RETURN_NOT_OK(MeasureRunIo(spill.get(), comparator, &costs));

  const topk::TopKOptions defaults;
  topk::MergePlannerOptions plan;
  plan.fan_in = defaults.merge_fan_in;
  plan.policy = defaults.merge_policy;
  plan.intermediate_limit = setup.k;
  plan.filter = filter ? &*filter : nullptr;
  plan.use_ovc = defaults.use_ovc;
  topk::MergeOptions merge;
  merge.limit = setup.k;
  merge.stop_filter = plan.filter;
  merge.use_ovc = defaults.use_ovc;
  topk::MergePlanStats plan_stats;
  const Clock::time_point t0 = Clock::now();
  std::vector<topk::RunMeta> final_runs;
  TOPK_ASSIGN_OR_RETURN(final_runs,
                        topk::ReduceRunsForFinalMerge(spill.get(), comparator,
                                                      plan, &plan_stats));
  topk::MergeStats merged;
  TOPK_ASSIGN_OR_RETURN(
      merged, topk::MergeRuns(spill.get(), final_runs, comparator, merge,
                              [](Row&&) { return Status::OK(); }));
  costs.merge_ns =
      PerUnit(NanosBetween(t0, Clock::now()),
              plan_stats.intermediate_rows_read + merged.rows_read);
  if (merged.rows_emitted != setup.k) {
    return Status::Unknown("layer merge emitted " +
                           std::to_string(merged.rows_emitted) +
                           " rows, not k");
  }
  return costs;
}

}  // namespace perfbench
