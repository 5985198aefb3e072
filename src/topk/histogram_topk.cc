#include "topk/histogram_topk.h"

#include <algorithm>
#include <atomic>

#include "extensions/offset_skip.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {

ObsCounter& CutoffUpdatesCounter() {
  static ObsCounter counter("filter.cutoff_updates");
  return counter;
}
ObsCounter& QuotaConsolidationsCounter() {
  static ObsCounter counter("spill.quota_consolidations");
  return counter;
}

/// A run generator's spill hook: Algorithm 1 lines 11-13 on the cutoff
/// filter, through a Spiller of its own, so that parallel run generators
/// (Sec 4.4) can share the filter.
class FilterSpillObserver final : public SpillObserver {
 public:
  explicit FilterSpillObserver(CutoffFilter* filter)
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

/// The histogram filter (Sec 3). In memory it is the bounded
/// priority-queue algorithm of Sec 2.3, the same BoundedHeapPolicy the heap
/// operator runs; a row that does not fit switches it to external mode.
/// There the cutoff filter probes every input row (Algorithm 1 line 4),
/// re-checks rows leaving for a run (line 11) and learns from every
/// spilled row (line 13), through each run generator's spill observer —
/// one per generator when TopKOptions::workers > 1 (Sec 4.4). Each time the
/// cutoff moves, the next surviving row first deletes the runs it has
/// passed. Merges stop at the cutoff and refine it; the final merge seeks
/// past the offset prefix (Sec 4.1).
class HistogramFilterPolicy final : public BoundedHeapPolicy {
 public:
  bool parallel_run_generation() const override { return true; }
  Status StartRunGeneration(RunGeneratorOptions* gen_options) override;
  Status ConsumeExternal(Row row) override {
    // Algorithm 1 line 4.
    if (filter_->Eliminate(row)) {
      ++stats().rows_eliminated_input;
      return Status::OK();
    }
    // Reclaim disk headroom *before* handing over the row: Add takes it by
    // value, so a quota breach inside run generation would lose it. Runs
    // the cutoff has passed go first, so consolidation sees their bytes
    // freed.
    if (cutoff_moved_.load(std::memory_order_relaxed)) {
      TOPK_RETURN_NOT_OK(DropDeadRuns());
    }
    TOPK_RETURN_NOT_OK(MaybeConsolidateForQuota());
    return generator()->Add(std::move(row));
  }
  void ConfigureMerges(MergePlannerOptions* planner) const override {
    planner->policy = options().merge_policy;
    planner->intermediate_limit = options().output_rows();
    planner->with_ties = options().with_ties;
    planner->filter = filter_.get();
  }
  Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                const MergeOptions& merge_options,
                                const RowSink& sink) override;
  Result<std::optional<uint64_t>> Resume() override;
  std::optional<double> cutoff() const override {
    if (filter_ != nullptr) return filter_->cutoff();
    return BoundedHeapPolicy::cutoff();
  }
  const CutoffFilter* filter() const override { return filter_.get(); }

 private:
  CutoffFilter::Options MakeFilterOptions(uint64_t expected_run_rows);

  /// Consolidates spilled runs early when the spill quota is nearly full
  /// or the memory arbiter reports soft pressure (checked before every row
  /// handed to run generation): merges up to merge_fan_in registered runs
  /// — lowest keys first, stopping at the cutoff — into one quota-exempt
  /// output, then deletes the inputs. The cutoff filter usually makes the
  /// output much smaller than its inputs, so disk headroom is reclaimed
  /// *before* a block write trips the quota. Only after consolidation can
  /// no longer help does a write surface ResourceExhausted.
  Status MaybeConsolidateForQuota();

  /// Deletes the registered runs the cutoff has passed since the last call
  /// (DropRunsBeyondCutoff), freeing their disk and spill quota while input
  /// still arrives.
  Status DropDeadRuns();

  /// Arbiter lease covering the cutoff filter's bucket-queue budget,
  /// acquired at the external switch.
  MemoryLease filter_lease_;
  std::unique_ptr<CutoffFilter> filter_;
  /// One spill hook per run generator.
  std::vector<std::unique_ptr<FilterSpillObserver>> observers_;
  /// total_runs_created() at the last quota consolidation attempt; a new
  /// attempt waits for at least one new run so a consolidation that could
  /// not free enough space is not retried on every row.
  uint64_t runs_created_at_last_quota_merge_ = 0;
  /// Set by the filter's on_cutoff_change, from whichever thread moved the
  /// cutoff; read per input row, cleared by DropDeadRuns.
  std::atomic<bool> cutoff_moved_{false};
};

CutoffFilter::Options HistogramFilterPolicy::MakeFilterOptions(
    uint64_t expected_run_rows) {
  const TopKOptions& opts = options();
  CutoffFilter::Options filter_options;
  filter_options.k =
      opts.approx_filter_k > 0 ? opts.approx_filter_k : opts.output_rows();
  filter_options.direction = opts.direction;
  filter_options.target_buckets_per_run = opts.histogram_buckets_per_run;
  filter_options.memory_limit_bytes = opts.histogram_memory_limit_bytes;
  filter_options.consolidation = opts.histogram_consolidation;
  // Cutoff-evolution timeline: one instant event per establishment /
  // tightening, annotated with operator progress. With one run generator
  // the callback runs on the consumer thread, where reading the stats is
  // safe. With several it may run on any worker, where the stats are off
  // limits: progress then reads 0.
  const bool on_consumer = opts.workers == 1;
  filter_options.on_cutoff_change =
      [this, on_consumer](const CutoffFilter::CutoffUpdate& update) {
        CutoffUpdatesCounter().Add(1);
        cutoff_moved_.store(true, std::memory_order_relaxed);
        const std::shared_ptr<ObsContext>& obs = options().obs;
        const uint64_t consumed = on_consumer ? stats().rows_consumed : 0;
        const uint64_t eliminated =
            on_consumer ? stats().rows_eliminated_input : 0;
        if (obs != nullptr) {
          // The profile report's cutoff-evolution timeline, captured even
          // when tracing is off (it is cheap: one capped vector append).
          ObsContext::CutoffEvent event;
          event.at_nanos = obs->ElapsedNanos();
          event.cutoff = update.cutoff;
          event.tightened = update.tightened;
          event.rows_consumed = consumed;
          event.rows_eliminated_input = eliminated;
          obs->RecordCutoffEvent(event);
        }
        if (!TracingEnabled()) return;
        const double pass_rate =
            consumed == 0
                ? 1.0
                : 1.0 - static_cast<double>(eliminated) /
                            static_cast<double>(consumed);
        TraceInstant(update.tightened ? "cutoff.tighten" : "cutoff.establish",
                     "filter",
                     {TraceArg("cutoff", update.cutoff),
                      TraceArg("proposed", update.proposed ? 1 : 0),
                      TraceArg("bucket_count", update.bucket_count),
                      TraceArg("tracked_rows", update.tracked_rows),
                      TraceArg("rows_consumed", consumed),
                      TraceArg("rows_eliminated_input", eliminated),
                      TraceArg("input_pass_rate", pass_rate)});
      };
  filter_options.target_run_rows = expected_run_rows;
  return filter_options;
}

Status HistogramFilterPolicy::StartRunGeneration(
    RunGeneratorOptions* gen_options) {
  const TopKOptions& opts = options();
  // The cutoff filter's bucket queue is a sizable consumer in its own
  // right: lease its configured budget up front, so the arbiter sees the
  // external switch's full footprint before the first run is written.
  MemoryArbiter* arbiter = opts.effective_arbiter();
  if (arbiter != nullptr && !filter_lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(filter_lease_, arbiter->Acquire("cutoff-filter", 0));
    TOPK_RETURN_NOT_OK(
        filter_lease_.EnsureAtLeast(opts.histogram_memory_limit_bytes));
  }
  // Bucket width is derived from the expected run length: replacement
  // selection produces runs near twice the rows that fit in memory,
  // truncated by the run-size limit ("A best effort is made to decide the
  // target number of histogram buckets collected from each run",
  // Sec 5.1.2). The heap size at the moment memory overflowed is our
  // estimate of rows-per-memory-load; parallel run generators split it.
  const uint64_t expected_run_rows = std::min<uint64_t>(
      2 * std::max<uint64_t>(memory().rows.size() / opts.workers, 1),
      opts.output_rows());
  gen_options->run_row_limit = opts.output_rows();
  filter_ = std::make_unique<CutoffFilter>(MakeFilterOptions(expected_run_rows));
  observers_.clear();
  for (size_t i = 0; i < opts.workers; ++i) {
    observers_.push_back(std::make_unique<FilterSpillObserver>(filter_.get()));
    gen_options->worker_observers.push_back(observers_.back().get());
  }
  gen_options->observer = observers_.front().get();
  // Index granularity that yields ~64 seek points per run even when runs
  // are small (offset skips need entries inside every run).
  gen_options->run_index_stride =
      std::max<uint64_t>(16, expected_run_rows / 64);
  return Status::OK();
}

Status HistogramFilterPolicy::MaybeConsolidateForQuota() {
  SpillQuota* quota = spill()->spill_quota();
  bool quota_pressed = false;
  if (quota->enabled()) {
    const double charged = static_cast<double>(quota->charged_bytes());
    quota_pressed = charged >= 0.85 * static_cast<double>(quota->quota_bytes());
  }
  // Memory-arbiter soft pressure reuses the same response as a near-full
  // spill quota: consolidating the lowest-key runs shrinks the registry
  // (fewer open readers and histogram buckets later) while the cutoff
  // filter drops rows for free. The runs-created guard below keeps a
  // persistent soft level from consolidating more than once per new run.
  MemoryArbiter* arbiter = options().effective_arbiter();
  const bool mem_pressed =
      arbiter != nullptr && arbiter->pressure() >= MemoryPressure::kSoft;
  if (!quota_pressed && !mem_pressed) return Status::OK();
  if (spill()->run_count() < 2) return Status::OK();
  if (spill()->total_runs_created() == runs_created_at_last_quota_merge_) {
    return Status::OK();
  }
  std::vector<RunMeta> inputs = spill()->runs();
  // Lowest keys first, the same policy intermediate merges use: those runs
  // are where the cutoff filter discards the most rows, so merging them
  // frees the most disk per merge.
  OrderRunsForMerge(&inputs, comparator(), MergePolicy::kLowestKeysFirst);
  if (inputs.size() > options().merge_fan_in) {
    inputs.resize(options().merge_fan_in);
  }
  uint64_t input_bytes = 0;
  for (const RunMeta& run : inputs) input_bytes += run.bytes;
  PhaseScope phase("spill.quota_consolidate");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("spill.quota_consolidate", "topk",
                 {TraceArg("runs", inputs.size()),
                  TraceArg("input_bytes", input_bytes),
                  TraceArg("charged_bytes",
                           spill()->spill_quota()->charged_bytes())});
  QuotaConsolidationsCounter().Add(1);

  TOPK_RETURN_NOT_OK(
      MergeDuringInput(inputs, filter_.get(), /*quota_exempt=*/true).status());
  runs_created_at_last_quota_merge_ = spill()->total_runs_created();
  return Status::OK();
}

Status HistogramFilterPolicy::DropDeadRuns() {
  cutoff_moved_.store(false, std::memory_order_relaxed);
  uint64_t dropped = 0;
  TOPK_ASSIGN_OR_RETURN(
      dropped, DropRunsBeyondCutoff(spill(), *filter_, options().output_rows(),
                                    /*input_complete=*/false));
  stats().runs_dropped += dropped;
  return Status::OK();
}

Result<MergeStats> HistogramFilterPolicy::FinalMerge(
    const std::vector<RunMeta>& runs, const MergeOptions& merge_options,
    const RowSink& sink) {
  if (options().offset == 0 || !options().histogram_offset_skip) {
    return CutoffPolicy::FinalMerge(runs, merge_options, sink);
  }
  // Sec 4.1: start the merge at the highest key with rank below the
  // offset, seeking past each run's skippable prefix.
  OffsetSkipPlan plan;
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(
      merge_stats, MergeRunsWithOffsetSkip(spill(), runs, comparator(),
                                           merge_options, sink, &plan));
  stats().offset_rows_seek_skipped = plan.rows_skipped;
  return merge_stats;
}

Result<std::optional<uint64_t>> HistogramFilterPolicy::Resume() {
  // Rebuild the cutoff filter from the per-run histograms the manifest
  // preserved ("retain any information once gained" surviving a process
  // death): merge steps resume with the same eager filtering the original
  // execution had earned.
  uint64_t max_run_rows = 1;
  uint64_t buckets = 0;
  for (const RunMeta& run : spill()->runs()) {
    max_run_rows = std::max(max_run_rows, run.rows);
    buckets += run.histogram.size();
  }
  filter_ = std::make_unique<CutoffFilter>(MakeFilterOptions(max_run_rows));
  for (const RunMeta& run : spill()->runs()) {
    for (const HistogramBucket& bucket : run.histogram) {
      filter_->InsertBucket(bucket);
    }
  }
  if (TracingEnabled()) {
    TraceInstant("resume.filter_rebuilt", "topk",
                 {TraceArg("runs", spill()->run_count()),
                  TraceArg("buckets", buckets),
                  TraceArg("cutoff_established",
                           filter_->cutoff().has_value() ? 1 : 0)});
  }
  // Merge-phase resume: the runs hold every surviving row.
  return std::optional<uint64_t>();
}

}  // namespace

HistogramTopK::HistogramTopK(const TopKOptions& options)
    : ExternalTopK(options, std::make_unique<HistogramFilterPolicy>()) {}

}  // namespace topk
