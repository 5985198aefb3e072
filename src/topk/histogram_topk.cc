#include "topk/histogram_topk.h"

#include <algorithm>

#include "common/memory_accounting.h"
#include "extensions/offset_skip.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

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
}  // namespace

/// Bridges the run generator's spill events into the cutoff filter
/// (Algorithm 1 lines 11-13).
class HistogramTopK::FilterObserver : public SpillObserver {
 public:
  explicit FilterObserver(CutoffFilter* filter) : filter_(filter) {}

  bool EliminateAtSpill(const Row& row) override {
    return filter_->Eliminate(row);
  }

  void OnRowSpilled(const Row& row) override {
    filter_->RowSpilled(row.key);
  }

  std::vector<HistogramBucket> OnRunFinished() override {
    return filter_->RunFinished();
  }

 private:
  CutoffFilter* filter_;
};

HistogramTopK::HistogramTopK(const TopKOptions& options)
    : options_(options),
      comparator_(options.direction),
      heap_(comparator_) {}

HistogramTopK::~HistogramTopK() = default;

Result<std::unique_ptr<HistogramTopK>> HistogramTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  return std::unique_ptr<HistogramTopK>(new HistogramTopK(options));
}

std::optional<double> HistogramTopK::cutoff() const {
  if (filter_ != nullptr) {
    return filter_->cutoff();
  }
  if (heap_saturated_ && !heap_.empty()) return heap_.top().key;
  return std::nullopt;
}

CutoffFilter::Options HistogramTopK::MakeFilterOptions(
    uint64_t expected_run_rows) {
  CutoffFilter::Options filter_options;
  filter_options.k = options_.approx_filter_k > 0 ? options_.approx_filter_k
                                                  : options_.output_rows();
  filter_options.direction = options_.direction;
  filter_options.target_buckets_per_run = options_.histogram_buckets_per_run;
  filter_options.memory_limit_bytes = options_.histogram_memory_limit_bytes;
  filter_options.consolidation = options_.histogram_consolidation;
  // Cutoff-evolution timeline: one instant event per establishment /
  // tightening, annotated with operator progress. The callback runs on the
  // single consumer thread, so reading stats_ here is safe.
  filter_options.on_cutoff_change =
      [this](const CutoffFilter::CutoffUpdate& update) {
        CutoffUpdatesCounter().Add(1);
        if (options_.obs != nullptr) {
          // The profile report's cutoff-evolution timeline, captured even
          // when tracing is off (it is cheap: one capped vector append).
          ObsContext::CutoffEvent event;
          event.at_nanos = options_.obs->ElapsedNanos();
          event.cutoff = update.cutoff;
          event.tightened = update.tightened;
          event.rows_consumed = stats_.rows_consumed;
          event.rows_eliminated_input = stats_.rows_eliminated_input;
          options_.obs->RecordCutoffEvent(event);
        }
        if (!TracingEnabled()) return;
        const uint64_t consumed = stats_.rows_consumed;
        const uint64_t eliminated = stats_.rows_eliminated_input;
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

Status HistogramTopK::SwitchToExternal() {
  PhaseScope phase("switch_to_external");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("topk.switch_to_external", "topk",
                 {TraceArg("buffered_rows", heap_.size() + ties_.size())});
  // The cutoff filter's bucket queue is a sizable consumer in its own
  // right: lease its configured budget up front, so the arbiter sees the
  // external switch's full footprint before the first run is written.
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !filter_lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(filter_lease_,
                          arbiter->Acquire("cutoff-filter", 0));
    TOPK_RETURN_NOT_OK(
        filter_lease_.EnsureAtLeast(options_.histogram_memory_limit_bytes));
  }
  TOPK_ASSIGN_OR_RETURN(spill_,
                        SpillManager::Create(options_.env, options_.spill_dir,
                                             options_.io_pipeline()));
  if (!options_.manifest_filename.empty()) {
    // Keep a manifest checkpointed from the very first run so a crash at
    // any later point finds a resumable state on disk.
    spill_->SetAutoManifest(options_.manifest_filename);
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  }

  // Bucket width is derived from the expected run length: replacement
  // selection produces runs near twice the rows that fit in memory,
  // truncated by the run-size limit ("A best effort is made to decide the
  // target number of histogram buckets collected from each run",
  // Sec 5.1.2). The heap size at the moment memory overflowed is our
  // estimate of rows-per-memory-load.
  uint64_t expected_run_rows = 2 * std::max<uint64_t>(heap_.size(), 1);
  if (options_.limit_run_size_to_output) {
    expected_run_rows = std::min(expected_run_rows, options_.output_rows());
  }
  filter_ = std::make_unique<CutoffFilter>(MakeFilterOptions(expected_run_rows));
  observer_ = std::make_unique<FilterObserver>(filter_.get());

  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = options_.memory_limit_bytes;
  if (options_.limit_run_size_to_output) {
    gen_options.run_row_limit = options_.output_rows();
  }
  gen_options.observer = observer_.get();
  gen_options.cancel = options_.cancel.get();
  gen_options.arbiter = arbiter;
  // Index granularity that yields ~64 seek points per run even when runs
  // are small (offset skips need entries inside every run).
  gen_options.run_index_stride = std::max<uint64_t>(16, expected_run_rows / 64);
  if (options_.run_generation == RunGenerationKind::kReplacementSelection) {
    generator_ = std::make_unique<ReplacementSelectionRunGenerator>(
        spill_.get(), comparator_, gen_options);
  } else {
    generator_ = std::make_unique<QuicksortRunGenerator>(
        spill_.get(), comparator_, gen_options);
  }

  // Hand the buffered rows to run generation; heap order is irrelevant,
  // replacement selection re-sorts.
  while (!heap_.empty()) {
    // std::priority_queue exposes only const top(); moving would break its
    // invariant anyway since we pop immediately after copying.
    TOPK_RETURN_NOT_OK(generator_->Add(heap_.top()));
    heap_.pop();
  }
  for (Row& tie : ties_) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(tie)));
  }
  ties_.clear();
  ties_.shrink_to_fit();
  heap_bytes_ = 0;
  lease_.ShrinkTo(0);
  return Status::OK();
}

Status HistogramTopK::MaybeConsolidateForQuota() {
  SpillQuota* quota = spill_->spill_quota();
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
  MemoryArbiter* arbiter = options_.effective_arbiter();
  const bool mem_pressed =
      arbiter != nullptr && arbiter->pressure() >= MemoryPressure::kSoft;
  if (!quota_pressed && !mem_pressed) return Status::OK();
  if (spill_->run_count() < 2) return Status::OK();
  if (spill_->total_runs_created() == runs_created_at_last_quota_merge_) {
    return Status::OK();
  }
  return ConsolidateSpillForQuota();
}

Status HistogramTopK::ConsolidateSpillForQuota() {
  std::vector<RunMeta> inputs = spill_->runs();
  // Lowest keys first, the same policy intermediate merges use: those runs
  // are where the cutoff filter discards the most rows, so merging them
  // frees the most disk per merge.
  OrderRunsForMerge(&inputs, comparator_, MergePolicy::kLowestKeysFirst);
  if (inputs.size() > options_.merge_fan_in) {
    inputs.resize(options_.merge_fan_in);
  }
  uint64_t input_bytes = 0;
  for (const RunMeta& run : inputs) input_bytes += run.bytes;
  PhaseScope phase("spill.quota_consolidate");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("spill.quota_consolidate", "topk",
                 {TraceArg("runs", inputs.size()),
                  TraceArg("input_bytes", input_bytes),
                  TraceArg("charged_bytes", spill_->spill_quota()->charged_bytes())});
  QuotaConsolidationsCounter().Add(1);

  std::unique_ptr<RunWriter> writer;
  TOPK_ASSIGN_OR_RETURN(writer,
                        spill_->NewRun(comparator_, kDefaultIndexStride,
                                       /*quota_exempt=*/true));
  MergeOptions merge_options;
  merge_options.limit = options_.output_rows();
  merge_options.with_ties = options_.with_ties;
  merge_options.stop_filter = filter_.get();
  merge_options.refine_filter = filter_.get();
  merge_options.use_ovc = options_.use_ovc;
  merge_options.cancel = options_.cancel.get();
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(
      merge_stats, MergeRuns(spill_.get(), inputs, comparator_, merge_options,
                             [&](Row&& row) { return writer->Append(row); }));
  RunMeta merged;
  TOPK_ASSIGN_OR_RETURN(merged, writer->Finish());
  // Same crash-safe ordering as the merge planner: keep the input files
  // until the output's registration is checkpointed in the manifest.
  std::vector<std::string> consumed_paths;
  consumed_paths.reserve(inputs.size());
  for (const RunMeta& consumed : inputs) {
    std::string path;
    TOPK_ASSIGN_OR_RETURN(path, spill_->ReleaseRun(consumed.id));
    consumed_paths.push_back(std::move(path));
  }
  if (merged.rows > 0) {
    TOPK_RETURN_NOT_OK(spill_->AddRun(merged));
  } else {
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
    consumed_paths.push_back(merged.path);
  }
  if (spill_->auto_manifest_enabled()) {
    TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  }
  for (const std::string& path : consumed_paths) {
    TOPK_RETURN_NOT_OK(spill_->DeleteSpillFile(path));
  }
  stats_.merge_rows_written += merge_stats.rows_emitted;
  stats_.merge_rows_read += merge_stats.rows_read;
  runs_created_at_last_quota_merge_ = spill_->total_runs_created();
  return Status::OK();
}

Status HistogramTopK::CheckCancel() {
  if (options_.cancel == nullptr || !options_.cancel->ShouldStop()) {
    return Status::OK();
  }
  return OnCancelStatus(options_.cancel->status());
}

Status HistogramTopK::OnCancelStatus(Status cause) {
  if (!IsCancellation(cause.code())) return cause;
  if (options_.on_cancel != OnCancelPolicy::kKeepForResume ||
      cancel_unwound_ || spill_ == nullptr ||
      options_.manifest_filename.empty()) {
    return cause;
  }
  // Preempted-but-resumable: perform Suspend's durable handoff before
  // surfacing the cancellation, so the runs this query already paid for
  // survive for ResumeFromManifest instead of being released.
  cancel_unwound_ = true;
  finished_ = true;
  TraceSpan span("topk.cancel_keep_for_resume", "topk");
  // The token has tripped; shield it (and detach it from the generator's
  // spill loops) so the handoff's own flush and manifest I/O complete
  // instead of re-observing the cancellation at every layer.
  CancelShield shield(options_.cancel.get());
  if (generator_ != nullptr) {
    generator_->SetCancel(nullptr);
    TOPK_RETURN_NOT_OK(generator_->Flush());
  }
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  spill_->DisownDir();
  return cause;
}

Status HistogramTopK::Consume(Row row) {
  // No-op when the caller (CLI, test harness) already installed the same
  // context around its consume loop — the per-row cost is then one TLS
  // read and a pointer compare.
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (resumed_) {
    return Status::FailedPrecondition(
        "a resumed operator accepts no input; its runs are already on disk");
  }
  Status status = RunWithAllocGuard(
      "histogram.Consume", [&] { return ConsumeImpl(std::move(row)); });
  if (!status.ok() && !IsCancellation(status.code()) && first_error_.ok()) {
    first_error_ = status;
  }
  return status;
}

Status HistogramTopK::ConsumeImpl(Row row) {
  TOPK_RETURN_NOT_OK(CheckCancel());
  SampledScopeTimer timer(&consume_timing_, &stats_.consume_nanos);
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  ++stats_.rows_consumed;

  if (generator_ != nullptr) {
    // External mode: Algorithm 1 line 4.
    if (filter_->Eliminate(row)) {
      ++stats_.rows_eliminated_input;
    } else {
      // Reclaim disk headroom *before* handing over the row: Add takes it
      // by value, so a quota breach inside run generation would lose it.
      Status pushed = MaybeConsolidateForQuota();
      if (pushed.ok()) pushed = generator_->Add(std::move(row));
      if (!pushed.ok()) return OnCancelStatus(std::move(pushed));
    }
    return Status::OK();
  }

  // In-memory mode: behave exactly like the priority-queue algorithm.
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter->Acquire("histogram-topk", 0));
  }
  if (heap_saturated_) {
    if (options_.with_ties && row.key == heap_.top().key) {
      // Boundary-key duplicate: must be retained (Sec 2.3's hazard). When
      // the duplicates overflow memory we — unlike the bare in-memory
      // algorithm — simply switch to the external algorithm below.
      const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
      if (heap_bytes_ + cost <= options_.memory_limit_bytes) {
        heap_bytes_ += cost;
        TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
        ties_.push_back(std::move(row));
        stats_.peak_memory_bytes =
            std::max(stats_.peak_memory_bytes, heap_bytes_);
        return Status::OK();
      }
      // Fall through: spill.
    } else if (!comparator_.Less(row, heap_.top())) {
      ++stats_.rows_eliminated_input;
      return Status::OK();
    } else {
      const size_t new_cost = row.MemoryFootprint() + kPerRowOverheadBytes;
      const size_t old_cost =
          heap_.top().MemoryFootprint() + kPerRowOverheadBytes;
      if (heap_bytes_ - old_cost + new_cost <=
          options_.memory_limit_bytes) {
        Row evicted = heap_.top();
        heap_.pop();
        heap_bytes_ = heap_bytes_ - old_cost + new_cost;
        heap_.push(std::move(row));
        if (options_.with_ties && evicted.key == heap_.top().key) {
          // Boundary unchanged: the evicted row is now a retained tie.
          // This can transiently overshoot the budget by at most the
          // boundary key's duplicate count already in the heap; the next
          // duplicate arrival takes the checked path and switches to
          // external mode.
          heap_bytes_ += old_cost;
          ties_.push_back(std::move(evicted));
        } else if (options_.with_ties && !ties_.empty()) {
          // Boundary sharpened: old boundary ties fell out of the output.
          for (const Row& tie : ties_) {
            heap_bytes_ -= tie.MemoryFootprint() + kPerRowOverheadBytes;
          }
          stats_.rows_eliminated_input += ties_.size();
          ties_.clear();
        }
        TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
        stats_.peak_memory_bytes =
            std::max(stats_.peak_memory_bytes, heap_bytes_);
        return Status::OK();
      }
      // Replacement row does not fit (variable-size rows): spill.
    }
  } else {
    const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
    if (heap_bytes_ + cost <= options_.memory_limit_bytes) {
      heap_bytes_ += cost;
      TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
      heap_.push(std::move(row));
      heap_saturated_ = heap_.size() >= options_.output_rows();
      stats_.peak_memory_bytes =
          std::max(stats_.peak_memory_bytes, heap_bytes_);
      return Status::OK();
    }
    // Memory overflowed before k+offset rows were buffered: the output
    // does not fit, switch to the external algorithm.
  }
  TOPK_RETURN_NOT_OK(SwitchToExternal());
  Status added = generator_->Add(std::move(row));
  if (!added.ok()) return OnCancelStatus(std::move(added));
  return Status::OK();
}

Result<std::vector<Row>> HistogramTopK::Finish() {
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  Result<std::vector<Row>> result =
      RunWithAllocGuard("histogram.Finish", [&] { return FinishImpl(); });
  if (!result.ok() && !IsCancellation(result.status().code()) &&
      first_error_.ok()) {
    first_error_ = result.status();
  }
  return result;
}

Result<std::vector<Row>> HistogramTopK::FinishImpl() {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  std::vector<Row> result;

  if (generator_ == nullptr && !resumed_) {
    // Pure in-memory execution.
    stats_.final_cutoff = cutoff();
    std::vector<Row> rows;
    rows.reserve(heap_.size() + ties_.size());
    while (!heap_.empty()) {
      rows.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(rows.begin(), rows.end());
    if (!ties_.empty()) {
      rows.insert(rows.end(), std::make_move_iterator(ties_.begin()),
                  std::make_move_iterator(ties_.end()));
      ties_.clear();
      std::sort(rows.begin(), rows.end(), comparator_);
    }
    const size_t begin = std::min<size_t>(options_.offset, rows.size());
    size_t end = std::min<size_t>(begin + options_.k, rows.size());
    if (options_.with_ties && end > begin && end < rows.size()) {
      const double boundary = rows[end - 1].key;
      while (end < rows.size() && rows[end].key == boundary) ++end;
    }
    result.assign(std::make_move_iterator(rows.begin() + begin),
                  std::make_move_iterator(rows.begin() + end));
    stats_.finish_nanos = watch.ElapsedNanos();
    if (options_.obs != nullptr) {
      options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
    }
    return result;
  }

  if (resumed_) {
    // Run generation happened in the pre-crash process; the restored
    // registry totals are all that remain of it.
    stats_.rows_spilled = spill_->total_rows_spilled();
    stats_.runs_created = spill_->total_runs_created();
  } else {
    {
      PhaseScope flush_phase("rungen.flush");
      TraceSpan flush_span("rungen.flush", "topk");
      Status flushed = generator_->Flush();
      if (!flushed.ok()) return OnCancelStatus(std::move(flushed));
    }
    stats_.rows_eliminated_spill =
        generator_->stats().rows_eliminated_at_spill;
    stats_.rows_spilled = generator_->stats().rows_spilled;
    stats_.runs_created = spill_->total_runs_created();
    stats_.peak_memory_bytes = std::max(
        stats_.peak_memory_bytes, generator_->stats().peak_memory_bytes);
    if (spill_->auto_manifest_enabled()) {
      // Every run is registered and checkpointed; make the manifest
      // durable so the crash point below (and any real crash between
      // run generation and the merge) finds a resumable state.
      TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      HitCrashPoint("post-run-flush");
    }
  }

  MergePlanStats plan_stats;
  MergeStats merge_stats;
  const auto merge_phase = [&]() -> Status {
    MergePlannerOptions planner_options;
    planner_options.fan_in = options_.merge_fan_in;
    planner_options.policy = options_.merge_policy;
    planner_options.intermediate_limit = options_.output_rows();
    planner_options.with_ties = options_.with_ties;
    planner_options.filter = filter_.get();
    planner_options.use_ovc = options_.use_ovc;
    planner_options.cancel = options_.cancel.get();
    std::vector<RunMeta> final_runs;
    {
      TraceSpan plan_span("merge.reduce_runs", "topk",
                          {TraceArg("runs", spill_->run_count())});
      TOPK_ASSIGN_OR_RETURN(
          final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                              planner_options, &plan_stats));
    }
    stats_.merge_rows_written += plan_stats.intermediate_rows_written;

    MergeOptions merge_options;
    merge_options.limit = options_.k;
    merge_options.skip = options_.offset;
    merge_options.with_ties = options_.with_ties;
    merge_options.use_ovc = options_.use_ovc;
    merge_options.cancel = options_.cancel.get();
    const RowSink collect = [&](Row&& row) {
      result.push_back(std::move(row));
      return Status::OK();
    };
    PhaseScope merge_phase_scope("merge.final");
    TraceSpan merge_span("merge.final", "topk",
                         {TraceArg("runs", final_runs.size())});
    if (options_.offset > 0 && options_.histogram_offset_skip) {
      // Sec 4.1: start the merge at the highest key with rank below the
      // offset, seeking past each run's skippable prefix.
      OffsetSkipPlan plan;
      TOPK_ASSIGN_OR_RETURN(
          merge_stats, MergeRunsWithOffsetSkip(spill_.get(), final_runs,
                                               comparator_, merge_options,
                                               collect, &plan));
      stats_.offset_rows_seek_skipped = plan.rows_skipped;
    } else {
      TOPK_ASSIGN_OR_RETURN(merge_stats,
                            MergeRuns(spill_.get(), final_runs, comparator_,
                                      merge_options, collect));
    }
    return Status::OK();
  };
  Status merged = merge_phase();
  if (!merged.ok()) {
    if (spill_->auto_manifest_enabled()) {
      // The merge failed, but the manifest still describes a consistent run
      // set on disk (the planner deletes inputs only after checkpointing).
      // Keep the directory so ResumeFromManifest can pick the query up.
      // This also covers a cancellation that surfaced mid-merge, whatever
      // the on_cancel policy: the runs are already durable, releasing them
      // would only destroy a valid manifest's backing files.
      (void)spill_->FlushManifest();
      spill_->DisownDir();
    }
    return merged;
  }
  stats_.merge_rows_read +=
      plan_stats.intermediate_rows_read + merge_stats.rows_read;
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  stats_.final_cutoff = filter_->cutoff();
  stats_.filter_buckets_inserted = filter_->buckets_inserted();
  stats_.filter_consolidations = filter_->consolidations();
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

Status HistogramTopK::Suspend() {
  return RunWithAllocGuard("histogram.Suspend", [&] { return SuspendImpl(); });
}

Status HistogramTopK::SuspendImpl() {
  ObsScope obs_scope(options_.obs);
  if (!first_error_.ok()) {
    // A prior entry point already failed; the real cause of the
    // operator's demise beats a generic precondition complaint.
    return first_error_;
  }
  if (finished_) {
    return Status::FailedPrecondition("Suspend after Finish");
  }
  if (resumed_) {
    return Status::FailedPrecondition("Suspend of a resumed operator");
  }
  if (options_.manifest_filename.empty()) {
    return Status::FailedPrecondition(
        "Suspend requires TopKOptions::manifest_filename");
  }
  finished_ = true;
  TraceSpan span("topk.suspend", "topk");
  // An explicit Suspend overrides a tripped cancellation token: it IS the
  // orderly way to stop this query, so the spill and manifest work below
  // must not be interrupted by the very cancellation that prompted it.
  CancelShield shield(options_.cancel.get());
  // Everything still buffered in memory must reach a run on disk — an
  // in-memory operator spills via the normal external switch.
  if (generator_ == nullptr) {
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  generator_->SetCancel(nullptr);
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  stats_.rows_eliminated_spill = generator_->stats().rows_eliminated_at_spill;
  stats_.rows_spilled = generator_->stats().rows_spilled;
  stats_.runs_created = spill_->total_runs_created();
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  HitCrashPoint("post-manifest-checkpoint");
  spill_->DisownDir();
  return Status::OK();
}

Result<std::unique_ptr<HistogramTopK>> HistogramTopK::ResumeFromManifest(
    const TopKOptions& options, RestoreReport* report) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  if (options.manifest_filename.empty()) {
    return Status::InvalidArgument(
        "ResumeFromManifest requires TopKOptions::manifest_filename");
  }
  auto op = std::unique_ptr<HistogramTopK>(new HistogramTopK(options));
  op->resumed_ = true;
  ObsScope obs_scope(options.obs);
  TraceSpan span("topk.resume_from_manifest", "topk");
  TOPK_ASSIGN_OR_RETURN(
      op->spill_,
      SpillManager::OpenExisting(options.env, options.spill_dir,
                                 options.manifest_filename, op->comparator_,
                                 options.io_pipeline(), report));
  // Keep checkpointing across the resumed merge so another crash is also
  // recoverable.
  op->spill_->SetAutoManifest(options.manifest_filename);

  // Rebuild the cutoff filter from the per-run histograms the manifest
  // preserved ("retain any information once gained" surviving a process
  // death): merge steps resume with the same eager filtering the original
  // execution had earned.
  uint64_t max_run_rows = 1;
  uint64_t buckets = 0;
  for (const RunMeta& run : op->spill_->runs()) {
    max_run_rows = std::max(max_run_rows, run.rows);
    buckets += run.histogram.size();
  }
  op->filter_ =
      std::make_unique<CutoffFilter>(op->MakeFilterOptions(max_run_rows));
  for (const RunMeta& run : op->spill_->runs()) {
    for (const HistogramBucket& bucket : run.histogram) {
      op->filter_->InsertBucket(bucket);
    }
  }
  if (TracingEnabled()) {
    TraceInstant("resume.filter_rebuilt", "topk",
                 {TraceArg("runs", op->spill_->run_count()),
                  TraceArg("buckets", buckets),
                  TraceArg("cutoff_established",
                           op->filter_->cutoff().has_value() ? 1 : 0)});
  }
  return op;
}

}  // namespace topk
