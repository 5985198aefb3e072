#include <algorithm>

#include "extensions/offset_skip.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "topk/topk_operator.h"

namespace topk {

namespace {

ObsCounter& QuotaConsolidationsCounter() {
  static ObsCounter counter("spill.quota_consolidations");
  return counter;
}

/// The paper's algorithm (Sec 3): top-k by external merge sort with eager
/// input filtering guided by histograms.
///
/// Adaptive behaviour (Sec 3.1.1): while the requested output fits in the
/// memory budget the operator is exactly the in-memory priority-queue
/// algorithm of Sec 2.3 — the same BoundedHeapPolicy the heap operator
/// runs — and never touches storage; the moment memory overflows before
/// k+offset rows are buffered, it switches to run generation. From then on:
///
///  * every arriving row is tested against the cutoff key (Algorithm 1,
///    line 4) and dropped if it provably cannot reach the output;
///  * surviving rows enter replacement selection; rows leaving memory for a
///    run are tested again (line 11) because the cutoff may have sharpened
///    since they were admitted;
///  * each spilled row feeds the cutoff filter's histogram (line 13),
///    which continuously sharpens the cutoff — even mid-run;
///  * each time the cutoff moves, the next surviving row first deletes the
///    runs it has passed unopened (DropRunsBeyondCutoff), freeing their
///    disk and spill quota.
///
/// The final result is produced by merging the surviving runs until k rows
/// are emitted, with lowest-keys-first intermediate merges that stop at the
/// cutoff and refine it (Sec 4.1); runs the cutoff has passed are dropped
/// before every merge step instead of being merged, and the final merge
/// seeks past the offset prefix.
///
/// With TopKOptions::workers > 1, run generation runs on that many worker
/// threads, each with an equal share of the memory budget and all filtering
/// through the operator's one cutoff filter, through one spill observer per
/// generator (Sec 4.4: threads sharing one histogram priority queue retain
/// about as many rows as one thread). The input probe stays on the
/// consuming thread; everything else above — cancellation, Suspend and
/// resume, WITH TIES, the merges — is unchanged.
///
/// A resume is merge-phase only: the cutoff filter is rebuilt from the
/// per-run histograms the manifest preserved, and Finish merges the
/// surviving runs.
class HistogramFilterPolicy final : public BoundedHeapPolicy {
 public:
  Status StartRunGeneration(RunGeneratorOptions* gen_options) override;
  Status ConsumeExternal(Row row) override {
    // Algorithm 1 line 4.
    if (filter()->Eliminate(row)) {
      ++stats().rows_eliminated_input;
      return Status::OK();
    }
    // Reclaim disk headroom *before* handing over the row: Add takes it by
    // value, so a quota breach inside run generation would lose it. Runs
    // the cutoff has passed go first, so consolidation sees their bytes
    // freed.
    if (cutoff_changes() != cutoff_changes_at_drop_) {
      TOPK_RETURN_NOT_OK(DropDeadRuns());
    }
    TOPK_RETURN_NOT_OK(MaybeConsolidateForQuota());
    return generator()->Add(std::move(row));
  }
  void ConfigureMerges(MergePlannerOptions* planner) const override {
    planner->policy = options().merge_policy;
    planner->intermediate_limit = options().output_rows();
    planner->with_ties = options().with_ties;
    planner->filter = filter();
  }
  Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                const MergeOptions& merge_options,
                                const RowSink& sink) override;
  Result<std::optional<uint64_t>> Resume() override;

 private:
  /// Leases the bucket queue's budget and builds the operator's cutoff
  /// filter with histogram_buckets_per_run buckets per run of
  /// `expected_run_rows` rows.
  Status BuildHistogramFilter(uint64_t expected_run_rows);

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
  /// acquired where the filter is built.
  MemoryLease filter_lease_;
  /// total_runs_created() at the last quota consolidation attempt; a new
  /// attempt waits for at least one new run so a consolidation that could
  /// not free enough space is not retried on every row.
  uint64_t runs_created_at_last_quota_merge_ = 0;
  /// cutoff_changes() at the last DropDeadRuns; read per input row.
  uint64_t cutoff_changes_at_drop_ = 0;
};

Status HistogramFilterPolicy::BuildHistogramFilter(
    uint64_t expected_run_rows) {
  const TopKOptions& opts = options();
  // The cutoff filter's bucket queue is a sizable consumer in its own
  // right: lease its configured budget up front, so the arbiter sees the
  // external switch's (or the resume's) full footprint before the queue
  // grows.
  MemoryArbiter* arbiter = opts.effective_arbiter();
  if (arbiter != nullptr && !filter_lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(filter_lease_, arbiter->Acquire("cutoff-filter", 0));
    TOPK_RETURN_NOT_OK(
        filter_lease_.EnsureAtLeast(opts.histogram_memory_limit_bytes));
  }
  BuildFilter(opts.histogram_buckets_per_run, expected_run_rows);
  return Status::OK();
}

Status HistogramFilterPolicy::StartRunGeneration(
    RunGeneratorOptions* gen_options) {
  const TopKOptions& opts = options();
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
  TOPK_RETURN_NOT_OK(BuildHistogramFilter(expected_run_rows));
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

  TOPK_RETURN_NOT_OK(MergeDuringInput(inputs, /*quota_exempt=*/true).status());
  runs_created_at_last_quota_merge_ = spill()->total_runs_created();
  return Status::OK();
}

Status HistogramFilterPolicy::DropDeadRuns() {
  cutoff_changes_at_drop_ = cutoff_changes();
  uint64_t dropped = 0;
  TOPK_ASSIGN_OR_RETURN(
      dropped, DropRunsBeyondCutoff(spill(), *filter(), options().output_rows(),
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
  // The rebuilt filter's buckets are sized for the longest restored run.
  uint64_t max_run_rows = 1;
  for (const RunMeta& run : spill()->runs()) {
    max_run_rows = std::max(max_run_rows, run.rows);
  }
  TOPK_RETURN_NOT_OK(BuildHistogramFilter(max_run_rows));
  // Merge-phase resume: the runs hold every surviving row.
  return std::optional<uint64_t>();
}

}  // namespace

std::unique_ptr<CutoffPolicy> MakeHistogramFilterPolicy() {
  return std::make_unique<HistogramFilterPolicy>();
}

}  // namespace topk
