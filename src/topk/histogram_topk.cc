#include <algorithm>
#include <atomic>
#include <mutex>

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
/// Run generation is pipelined (Sec 2.1): it runs on TopKOptions::workers
/// threads of a FanOutRunGenerator, each with an equal share of the memory
/// budget and all filtering through the operator's one cutoff filter,
/// through one spill observer per generator (Sec 4.4: threads sharing one
/// histogram priority queue retain about as many rows as one thread). The
/// consuming thread only pre-probes each row against the latest published
/// cutoff and queues the survivors with their input progress. A worker then
/// runs everything above for each of its rows, in input order: the
/// authoritative line-4 probe, the dead-run drop, quota consolidation, and
/// replacement selection. The cutoff only tightens, so the pre-probe drops
/// only rows the worker would drop too, and with one worker every decision
/// sees exactly the cutoff a sequential operator would. The switch hands
/// the in-memory rows straight to the generators, before the worker starts;
/// Suspend, the keep-for-resume cancel and Finish drain the queue through
/// the workers before they flush.
///
/// A resume is merge-phase only: the cutoff filter is rebuilt from the
/// per-run histograms the manifest preserved, and Finish merges the
/// surviving runs.
class HistogramFilterPolicy final : public BoundedHeapPolicy,
                                    private RowAdmission {
 public:
  Status StartRunGeneration(RunGeneratorOptions* gen_options) override;
  std::unique_ptr<RunGenerator> MakeGenerator(
      const RunGeneratorOptions& gen_options) override;
  Status ConsumeExternal(Row&& row) override {
    // The pre-probe, against the latest published cutoff.
    if (filter()->Eliminate(row)) {
      ++stats().rows_eliminated_input;
      return Status::OK();
    }
    // Admit adds every elimination of the workers', folded or not.
    return pipeline_->Offer(
        std::move(row),
        {stats().rows_consumed,
         stats().rows_eliminated_input - workers_eliminated_folded_});
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
  InputProgress progress() const override {
    return {progress_consumed_.load(std::memory_order_relaxed),
            progress_eliminated_.load(std::memory_order_relaxed)};
  }

 private:
  /// On a worker: Algorithm 1 line 4 for one queued row, and the run
  /// maintenance due before the worker adds it.
  Result<bool> Admit(const Row& row, const InputProgress& at) override;
  /// On a worker, after the last queued row: publishes the input totals as
  /// progress for the flush and the merges.
  void Drained() override;
  /// On the consuming thread, once the workers stopped: folds what they
  /// counted into stats().
  void Stopped() override;
  void PublishProgress(uint64_t consumed, uint64_t eliminated) {
    progress_consumed_.store(consumed, std::memory_order_relaxed);
    progress_eliminated_.store(eliminated, std::memory_order_relaxed);
  }

  /// Leases the bucket queue's budget and builds the operator's cutoff
  /// filter with histogram_buckets_per_run buckets per run of
  /// `expected_run_rows` rows.
  Status BuildHistogramFilter(uint64_t expected_run_rows);

  /// True when the spill quota is nearly full or the memory arbiter reports
  /// soft pressure; checked before every row handed to run generation.
  bool QuotaPressed() const;

  /// Consolidates spilled runs early under QuotaPressed(): merges up to
  /// merge_fan_in registered runs — lowest keys first, stopping at the
  /// cutoff — into one quota-exempt output, then deletes the inputs. The
  /// cutoff filter usually makes the output much smaller than its inputs,
  /// so disk headroom is reclaimed *before* a block write trips the quota.
  /// Only after consolidation can no longer help does a write surface
  /// ResourceExhausted.
  Status MaybeConsolidateForQuota();

  /// Deletes the registered runs the cutoff has passed since the last call
  /// (DropRunsBeyondCutoff), freeing their disk and spill quota while input
  /// still arrives.
  Status DropDeadRuns();

  /// Arbiter lease covering the cutoff filter's bucket-queue budget,
  /// acquired where the filter is built.
  MemoryLease filter_lease_;
  /// The run generator, which runs Admit on its workers.
  FanOutRunGenerator* pipeline_ = nullptr;
  /// The rows_eliminated_by_workers_ that Stopped folded into stats().
  uint64_t workers_eliminated_folded_ = 0;
  /// What QuotaPressed reads, copied here at the switch: the operator's own
  /// fields share cache lines that the consuming thread writes per row.
  SpillQuota* quota_ = nullptr;
  MemoryArbiter* arbiter_ = nullptr;

  /// Serializes the workers' run maintenance (dead-run drops, quota
  /// consolidation) and guards the members below it.
  std::mutex maintenance_mu_;
  /// total_runs_created() at the last quota consolidation attempt; a new
  /// attempt waits for at least one new run so a consolidation that could
  /// not free enough space is not retried on every row.
  uint64_t runs_created_at_last_quota_merge_ = 0;
  /// What the workers counted toward stats() since the last Stopped.
  uint64_t runs_dropped_ = 0;
  std::vector<MergeStats> consolidations_;
  /// cutoff_changes() at the last DropDeadRuns; read per queued row.
  std::atomic<uint64_t> cutoff_changes_at_drop_{0};
  /// Rows the workers' probe eliminated. Written per row, on a cache line of
  /// its own with the progress below.
  alignas(64) std::atomic<uint64_t> rows_eliminated_by_workers_{0};
  /// The input progress of the row run generation works on: the row the
  /// switch hands over, a worker's queued row, or the whole input once
  /// the workers drained.
  std::atomic<uint64_t> progress_consumed_{0};
  std::atomic<uint64_t> progress_eliminated_{0};
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
  quota_ = spill()->spill_quota();
  arbiter_ = opts.effective_arbiter();
  // The switch hands its rows over on this thread, before any is queued.
  PublishProgress(stats().rows_consumed, stats().rows_eliminated_input);
  TOPK_RETURN_NOT_OK(BuildHistogramFilter(expected_run_rows));
  // Index granularity that yields ~64 seek points per run even when runs
  // are small (offset skips need entries inside every run).
  gen_options->run_index_stride =
      std::max<uint64_t>(16, expected_run_rows / 64);
  return Status::OK();
}

std::unique_ptr<RunGenerator> HistogramFilterPolicy::MakeGenerator(
    const RunGeneratorOptions& gen_options) {
  RowAdmission* admission = this;
  auto pipeline = std::make_unique<FanOutRunGenerator>(
      options().run_generation, spill(), comparator(), gen_options, admission);
  pipeline_ = pipeline.get();
  return pipeline;
}

Result<bool> HistogramFilterPolicy::Admit(const Row& row,
                                          const InputProgress& at) {
  PublishProgress(at.rows_consumed,
                  at.rows_eliminated_input +
                      rows_eliminated_by_workers_.load(
                          std::memory_order_relaxed));
  // Algorithm 1 line 4.
  if (filter()->Eliminate(row)) {
    rows_eliminated_by_workers_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Reclaim disk headroom *before* adding the row: a quota breach inside
  // run generation fails the Add that spilled. Runs the cutoff has passed
  // go first, so consolidation sees their bytes freed.
  if (cutoff_changes() !=
      cutoff_changes_at_drop_.load(std::memory_order_relaxed)) {
    TOPK_RETURN_NOT_OK(DropDeadRuns());
  }
  if (QuotaPressed()) TOPK_RETURN_NOT_OK(MaybeConsolidateForQuota());
  return true;
}

void HistogramFilterPolicy::Drained() {
  // The consuming thread waits in Flush, so its stats() hold still.
  PublishProgress(stats().rows_consumed,
                  stats().rows_eliminated_input - workers_eliminated_folded_ +
                      rows_eliminated_by_workers_.load(
                          std::memory_order_relaxed));
}

void HistogramFilterPolicy::Stopped() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const uint64_t eliminated =
      rows_eliminated_by_workers_.load(std::memory_order_relaxed);
  stats().rows_eliminated_input += eliminated - workers_eliminated_folded_;
  workers_eliminated_folded_ = eliminated;
  stats().runs_dropped += runs_dropped_;
  runs_dropped_ = 0;
  for (const MergeStats& merged : consolidations_) ChargeInputMerge(merged);
  consolidations_.clear();
}

bool HistogramFilterPolicy::QuotaPressed() const {
  if (quota_->enabled()) {
    const double charged = static_cast<double>(quota_->charged_bytes());
    if (charged >= 0.85 * static_cast<double>(quota_->quota_bytes())) {
      return true;
    }
  }
  // Memory-arbiter soft pressure reuses the same response as a near-full
  // spill quota: consolidating the lowest-key runs shrinks the registry
  // (fewer open readers and histogram buckets later) while the cutoff
  // filter drops rows for free. MaybeConsolidateForQuota's runs-created
  // guard keeps a persistent soft level from consolidating more than once
  // per new run.
  return arbiter_ != nullptr && arbiter_->pressure() >= MemoryPressure::kSoft;
}

Status HistogramFilterPolicy::MaybeConsolidateForQuota() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
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

  MergeStats merged;
  TOPK_ASSIGN_OR_RETURN(merged,
                        MergeDuringInput(inputs, /*quota_exempt=*/true));
  consolidations_.push_back(merged);
  runs_created_at_last_quota_merge_ = spill()->total_runs_created();
  return Status::OK();
}

Status HistogramFilterPolicy::DropDeadRuns() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const uint64_t changes = cutoff_changes();
  // Another worker may have dropped for this cutoff already.
  if (cutoff_changes_at_drop_.load(std::memory_order_relaxed) == changes) {
    return Status::OK();
  }
  cutoff_changes_at_drop_.store(changes, std::memory_order_relaxed);
  uint64_t dropped = 0;
  TOPK_ASSIGN_OR_RETURN(
      dropped, DropRunsBeyondCutoff(spill(), *filter(), options().output_rows(),
                                    /*input_complete=*/false));
  runs_dropped_ += dropped;
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
