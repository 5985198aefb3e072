#include "topk/topk_operator.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/memory_accounting.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "topk/operator_factory.h"

namespace topk {

std::vector<Row> SortAndSliceTopKRows(std::vector<Row> rows,
                                      std::vector<Row> ties,
                                      const TopKOptions& options) {
  rows.insert(rows.end(), std::make_move_iterator(ties.begin()),
              std::make_move_iterator(ties.end()));
  std::sort(rows.begin(), rows.end(), RowComparator(options.direction));
  const size_t begin = std::min<size_t>(options.offset, rows.size());
  size_t end = std::min<size_t>(begin + options.k, rows.size());
  if (options.with_ties && end > begin && end < rows.size()) {
    // Extend past k while rows tie with the kth row's key.
    const double boundary = rows[end - 1].key;
    while (end < rows.size() && rows[end].key == boundary) ++end;
  }
  return std::vector<Row>(std::make_move_iterator(rows.begin() + begin),
                          std::make_move_iterator(rows.begin() + end));
}

Status ValidateTopKOptions(const TopKOptions& options, bool requires_storage,
                           bool histogram_filter) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.workers == 0 || options.workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be in [1, " +
                                   std::to_string(kMaxWorkers) + "]");
  }
  if (options.workers != 1 && !histogram_filter) {
    return Status::InvalidArgument(
        "workers > 1 needs the histogram operator; this operator runs one "
        "run generator");
  }
  if (options.approx_filter_k > options.output_rows()) {
    return Status::InvalidArgument(
        "approx_filter_k must be at most k + offset");
  }
  if (options.approx_filter_k != 0 && !histogram_filter) {
    return Status::InvalidArgument(
        "approx_filter_k needs the histogram operator; only its cutoff "
        "filter takes an approximate target");
  }
  if (options.memory_limit_bytes == 0) {
    return Status::InvalidArgument("memory limit must be positive");
  }
  if (requires_storage) {
    if (options.env == nullptr) {
      return Status::InvalidArgument(
          "external top-k operators need a StorageEnv");
    }
    if (options.spill_dir.empty()) {
      return Status::InvalidArgument(
          "external top-k operators need a spill directory");
    }
    if (options.merge_fan_in < 2) {
      return Status::InvalidArgument("merge fan-in must be at least 2");
    }
  }
  return Status::OK();
}

Result<bool> CutoffPolicy::Buffer(Row& row, std::vector<Row>* into) {
  InMemoryRows& mem = memory();
  const size_t cost = HeldRowBytes(row);
  if (mem.bytes + cost > options().memory_limit_bytes) return false;
  mem.bytes += cost;
  TOPK_RETURN_NOT_OK(mem.lease.EnsureAtLeast(mem.bytes));
  stats().peak_memory_bytes = std::max(stats().peak_memory_bytes, mem.bytes);
  into->push_back(std::move(row));
  return true;
}

namespace {

/// True when the row behind the heap top shares its key, so evicting the
/// top leaves the boundary key unchanged. The candidates for the next top
/// are the root's two children.
bool BoundaryKeyHeldBehindTop(const std::vector<Row>& heap) {
  const double key = heap.front().key;
  return (heap.size() > 1 && heap[1].key == key) ||
         (heap.size() > 2 && heap[2].key == key);
}

}  // namespace

Result<bool> BoundedHeapPolicy::KeepInMemory(Row& row) {
  const TopKOptions& opts = options();
  const RowComparator& cmp = comparator();
  InMemoryRows& mem = memory();
  std::vector<Row>& heap = mem.rows;
  if (!saturated_) {
    bool kept = false;
    TOPK_ASSIGN_OR_RETURN(kept, Buffer(row, &heap));
    if (!kept) return false;
    std::push_heap(heap.begin(), heap.end(), cmp);
    saturated_ = heap.size() >= opts.output_rows();
    return true;
  }
  if (opts.with_ties && row.key == heap.front().key) {
    // A boundary-key duplicate must be kept, and nobody knows how many
    // follow: Sec 2.3's robustness hazard.
    return Buffer(row, &mem.ties);
  }
  if (!cmp.Less(row, heap.front())) {
    ++stats().rows_eliminated_input;
    return true;
  }
  // `row` displaces the worst kept row. With ties, the evicted row stays as
  // a tie while the boundary key holds; otherwise the boundary sharpens and
  // the old ties fall out of the output with it.
  const bool evicted_is_tie = opts.with_ties && BoundaryKeyHeldBehindTop(heap);
  size_t released = 0;
  if (!evicted_is_tie) {
    released = HeldRowBytes(heap.front());
    for (const Row& tie : mem.ties) released += HeldRowBytes(tie);
  }
  const size_t bytes = mem.bytes - released + HeldRowBytes(row);
  if (bytes > opts.memory_limit_bytes) return false;
  std::pop_heap(heap.begin(), heap.end(), cmp);
  Row evicted = std::move(heap.back());
  heap.back() = std::move(row);
  std::push_heap(heap.begin(), heap.end(), cmp);
  if (evicted_is_tie) {
    mem.ties.push_back(std::move(evicted));
  } else {
    stats().rows_eliminated_input += mem.ties.size();
    mem.ties.clear();
  }
  mem.bytes = bytes;
  TOPK_RETURN_NOT_OK(mem.lease.EnsureAtLeast(mem.bytes));
  mem.lease.ShrinkTo(mem.bytes);
  stats().peak_memory_bytes = std::max(stats().peak_memory_bytes, mem.bytes);
  return true;
}

Status BoundedHeapPolicy::SpillInMemoryRows(RunGenerator* generator) {
  // Heap order is irrelevant, run generation re-sorts. Each row is handed
  // over as a copy, whose payload capacity is its size: run generation
  // charges capacity, so the copy decides where runs are cut.
  std::vector<Row>& heap = memory().rows;
  while (!heap.empty()) {
    TOPK_RETURN_NOT_OK(generator->Add(heap.front()));
    std::pop_heap(heap.begin(), heap.end(), comparator());
    heap.pop_back();
  }
  return Status::OK();
}

std::optional<double> BoundedHeapPolicy::cutoff() const {
  const std::vector<Row>& heap = memory().rows;
  if (!saturated_ || heap.empty()) return std::nullopt;
  return heap.front().key;
}

namespace {

ObsCounter& CutoffUpdatesCounter() {
  static ObsCounter counter("filter.cutoff_updates");
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

}  // namespace

void CutoffPolicy::BuildFilter(uint64_t buckets_per_run, uint64_t run_rows) {
  const TopKOptions& opts = options();
  CutoffFilter::Options filter_options;
  filter_options.k =
      opts.approx_filter_k > 0 ? opts.approx_filter_k : opts.output_rows();
  filter_options.direction = opts.direction;
  filter_options.target_buckets_per_run = buckets_per_run;
  filter_options.target_run_rows = run_rows;
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
        cutoff_changes_.fetch_add(1, std::memory_order_relaxed);
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
  filter_ = std::make_unique<CutoffFilter>(filter_options);
  // Rebuild from the per-run histograms a reopened manifest preserved
  // ("retain any information once gained" surviving a process death):
  // the resumed query filters with the cutoff the original execution had
  // earned. A fresh spill directory has no runs.
  uint64_t buckets = 0;
  for (const RunMeta& run : spill()->runs()) {
    for (const HistogramBucket& bucket : run.histogram) {
      filter_->InsertBucket(bucket);
    }
    buckets += run.histogram.size();
  }
  if (op_->resumed_ && TracingEnabled()) {
    TraceInstant("resume.filter_rebuilt", "topk",
                 {TraceArg("runs", spill()->run_count()),
                  TraceArg("buckets", buckets),
                  TraceArg("cutoff_established",
                           filter_->cutoff().has_value() ? 1 : 0)});
  }
}

Result<MergeStats> CutoffPolicy::MergeDuringInput(
    const std::vector<RunMeta>& inputs, bool quota_exempt) {
  MergeOptions merge_options;
  merge_options.limit = options().output_rows();
  merge_options.with_ties = options().with_ties;
  merge_options.stop_filter = filter();
  merge_options.refine_filter = filter();
  merge_options.use_ovc = options().use_ovc;
  merge_options.cancel = options().cancel.get();
  MergeStats merged;
  TOPK_ASSIGN_OR_RETURN(merged,
                        MergeIntoCommittedRun(spill(), inputs, comparator(),
                                              merge_options, quota_exempt));
  stats().merge_rows_written += merged.rows_emitted;
  stats().merge_rows_read += merged.rows_read;
  if (merged.rows_emitted > 0) ++op_->input_merge_runs_;
  return merged;
}

TopKOperator::TopKOperator(TopKAlgorithm algorithm, const TopKOptions& options,
                           std::unique_ptr<CutoffPolicy> policy)
    : algorithm_(algorithm),
      options_(options),
      comparator_(options.direction),
      policy_(std::move(policy)) {
  policy_->op_ = this;
}

Result<std::unique_ptr<TopKOperator>> TopKOperator::Open(
    TopKAlgorithm algorithm, const TopKOptions& options,
    std::unique_ptr<CutoffPolicy> policy, bool resume, RestoreReport* report) {
  std::unique_ptr<TopKOperator> op(
      new TopKOperator(algorithm, options, std::move(policy)));
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(
      options, /*requires_storage=*/algorithm != TopKAlgorithm::kHeap,
      /*histogram_filter=*/algorithm == TopKAlgorithm::kHistogram));
  if (resume) TOPK_RETURN_NOT_OK(op->Reopen(report));
  return op;
}

Status TopKOperator::CreateGenerator() {
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = options_.memory_limit_bytes;
  gen_options.cancel = options_.cancel.get();
  gen_options.arbiter = options_.effective_arbiter();
  gen_options.workers = options_.workers;
  TOPK_RETURN_NOT_OK(policy_->StartRunGeneration(&gen_options));
  if (CutoffFilter* filter = policy_->filter()) {
    std::vector<std::unique_ptr<SpillObserver>>& observers =
        policy_->observers_;
    for (size_t i = 0; i < options_.workers; ++i) {
      observers.push_back(std::make_unique<FilterSpillObserver>(filter));
      gen_options.worker_observers.push_back(observers.back().get());
    }
    gen_options.observer = observers.front().get();
  }
  generator_ = MakeRunGenerator(options_.run_generation, spill_.get(),
                                comparator_, gen_options);
  return Status::OK();
}

Status TopKOperator::SwitchToExternal() {
  PhaseScope phase("switch_to_external");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("topk.switch_to_external", "topk",
                 {TraceArg("buffered_rows", memory_.rows.size())});
  TOPK_ASSIGN_OR_RETURN(spill_,
                        SpillManager::Create(options_.env, options_.spill_dir,
                                             options_.io_pipeline()));
  if (!options_.manifest_filename.empty()) {
    // Keep a manifest checkpointed from the very first run so a crash at
    // any later point finds a resumable state on disk.
    spill_->SetAutoManifest(options_.manifest_filename);
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  }
  TOPK_RETURN_NOT_OK(CreateGenerator());
  TOPK_RETURN_NOT_OK(policy_->SpillInMemoryRows(generator_.get()));
  for (Row& tie : memory_.ties) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(tie)));
  }
  memory_.rows.clear();
  memory_.rows.shrink_to_fit();
  memory_.ties.clear();
  memory_.ties.shrink_to_fit();
  memory_.bytes = 0;
  memory_.lease.ShrinkTo(0);
  return Status::OK();
}

Status TopKOperator::CheckCancel() {
  if (options_.cancel == nullptr || !options_.cancel->ShouldStop()) {
    return Status::OK();
  }
  return OnCancelStatus(options_.cancel->status());
}

Status TopKOperator::OnCancelStatus(Status cause) {
  if (!IsCancellation(cause.code())) return cause;
  if (options_.on_cancel != OnCancelPolicy::kKeepForResume ||
      cancel_unwound_ || spill_ == nullptr ||
      options_.manifest_filename.empty()) {
    return cause;
  }
  // Preempted-but-resumable: perform Suspend's durable handoff before
  // surfacing the cancellation, so the runs this query already paid for
  // survive for ResumeTopKOperator instead of being released.
  cancel_unwound_ = true;
  finished_ = true;
  TraceSpan span("topk.cancel_keep_for_resume", "topk");
  // The token has tripped; shield it (and detach it from the generator's
  // spill loops) so the handoff's own flush and manifest I/O complete
  // instead of re-observing the cancellation at every layer.
  CancelShield shield(options_.cancel.get());
  TOPK_RETURN_NOT_OK(MakeDurable());
  spill_->DisownDir();
  return cause;
}

Status TopKOperator::MakeDurable() {
  // Callers hold a CancelShield, but a background manifest write that the
  // tripped token stopped before its first attempt has already latched
  // that cancellation. The handoff below writes a fresh manifest, so only
  // a real storage error may fail it.
  Status pending = spill_->FlushManifest();
  if (!pending.ok() && !IsCancellation(pending.code())) return pending;
  if (generator_ == nullptr) {
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
    return spill_->FlushManifest();
  }
  generator_->SetCancel(nullptr);
  TOPK_RETURN_NOT_OK(generator_->Flush());
  CollectRunStats();
  return policy_->MakeInputDurable();
}

void TopKOperator::CollectRunStats() {
  const RunGeneratorStats& gen = generator_->stats();
  stats_.rows_eliminated_spill = gen.rows_eliminated_at_spill;
  stats_.rows_spilled = gen.rows_spilled;
  stats_.runs_created = spill_->total_runs_created() - input_merge_runs_;
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, gen.peak_memory_bytes);
}

void TopKOperator::NoteError(const Status& status) {
  if (!status.ok() && !IsCancellation(status.code()) && first_error_.ok()) {
    first_error_ = status;
  }
}

Status TopKOperator::Consume(Row row) {
  // No-op when the caller (CLI, test harness) already installed the same
  // context around its consume loop — the per-row cost is then one TLS
  // read and a pointer compare.
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (resumed_ && generator_ == nullptr) {
    return Status::FailedPrecondition(
        "a merge-phase resumed operator accepts no input; its runs already "
        "hold the whole input");
  }
  Status status = RunWithAllocGuard(
      "topk-operator.Consume", [&] { return ConsumeImpl(std::move(row)); });
  NoteError(status);
  return status;
}

Status TopKOperator::ConsumeImpl(Row row) {
  TOPK_RETURN_NOT_OK(CheckCancel());
  SampledScopeTimer timer(&consume_timing_, &stats_.consume_nanos);
  // Checked once, before the row is buffered: an oversized payload must
  // fail the same way whether it would stay in memory or spill.
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  ++stats_.rows_consumed;
  if (generator_ == nullptr) {
    MemoryArbiter* arbiter = options_.effective_arbiter();
    if (arbiter != nullptr && !memory_.lease.attached()) {
      TOPK_ASSIGN_OR_RETURN(memory_.lease,
                            arbiter->Acquire(TopKAlgorithmName(algorithm_), 0));
    }
    bool kept = false;
    TOPK_ASSIGN_OR_RETURN(kept, policy_->KeepInMemory(row));
    if (kept) return Status::OK();
    if (algorithm_ == TopKAlgorithm::kHeap) {
      // Sec 2.3: the in-memory algorithm "may unexpectedly fail".
      return Status::OutOfMemory(
          "requested output does not fit in operator memory (" +
          std::to_string(memory_.rows.size() + memory_.ties.size()) +
          " rows buffered); an external top-k operator is required");
    }
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  Status status = policy_->ConsumeExternal(std::move(row));
  if (!status.ok()) return OnCancelStatus(std::move(status));
  return Status::OK();
}

Result<std::vector<Row>> TopKOperator::Finish() {
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  Result<std::vector<Row>> result =
      RunWithAllocGuard("topk-operator.Finish", [&] { return FinishImpl(); });
  if (!result.ok()) NoteError(result.status());
  return result;
}

Status TopKOperator::FlushRuns() {
  {
    PhaseScope flush_phase("rungen.flush");
    TraceSpan flush_span("rungen.flush", "topk");
    Status flushed = generator_->Flush();
    if (!flushed.ok()) return OnCancelStatus(std::move(flushed));
  }
  CollectRunStats();
  if (!spill_->auto_manifest_enabled()) return Status::OK();
  // Every run is registered and checkpointed; make the manifest durable so
  // the crash point below (and any real crash between run generation and
  // the merge) finds a resumable state.
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  HitCrashPoint("post-run-flush");
  if (spill_->manifest_checkpoint().has_value()) {
    // The whole input now lives in the runs, so a mid-input checkpoint has
    // served its purpose. Drop it: a merge-phase crash must resume from
    // the runs alone — replaying input on top of merge output would
    // double-count rows.
    spill_->ClearManifestCheckpoint();
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
    TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  }
  return Status::OK();
}

Status TopKOperator::MergeRunsInto(std::vector<Row>* result) {
  MergePlannerOptions planner_options;
  planner_options.fan_in = options_.merge_fan_in;
  planner_options.use_ovc = options_.use_ovc;
  planner_options.cancel = options_.cancel.get();
  policy_->ConfigureMerges(&planner_options);
  MergePlanStats plan_stats;
  std::vector<RunMeta> final_runs;
  {
    TraceSpan plan_span("merge.reduce_runs", "topk",
                        {TraceArg("runs", spill_->run_count())});
    TOPK_ASSIGN_OR_RETURN(
        final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                            planner_options, &plan_stats));
  }
  stats_.merge_rows_written += plan_stats.intermediate_rows_written;
  stats_.runs_dropped += plan_stats.runs_dropped;

  MergeOptions merge_options;
  merge_options.limit = options_.k;
  merge_options.skip = options_.offset;
  merge_options.with_ties = options_.with_ties;
  merge_options.use_ovc = options_.use_ovc;
  merge_options.cancel = options_.cancel.get();
  MergeStats merge_stats;
  {
    PhaseScope merge_phase("merge.final");
    TraceSpan merge_span("merge.final", "topk",
                         {TraceArg("runs", final_runs.size())});
    TOPK_ASSIGN_OR_RETURN(
        merge_stats,
        policy_->FinalMerge(final_runs, merge_options, [&](Row&& row) {
          result->push_back(std::move(row));
          return Status::OK();
        }));
  }
  stats_.merge_rows_read +=
      plan_stats.intermediate_rows_read + merge_stats.rows_read;
  return Status::OK();
}

Result<std::vector<Row>> TopKOperator::FinishImpl() {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  std::vector<Row> result;

  if (generator_ == nullptr && !resumed_) {
    // The input fit in memory: nothing ever spilled.
    stats_.final_cutoff = cutoff();
    result = SortAndSliceTopKRows(std::move(memory_.rows),
                                  std::move(memory_.ties), options_);
    memory_.lease.Release();
  } else {
    if (generator_ != nullptr) {
      TOPK_RETURN_NOT_OK(FlushRuns());
    } else {
      // Merge-phase resume: run generation happened in the pre-crash
      // process; the restored registry totals are all that remain of it.
      stats_.rows_spilled = spill_->total_rows_spilled();
      stats_.runs_created = spill_->total_runs_created();
    }
    Status merged = MergeRunsInto(&result);
    if (!merged.ok()) {
      if (spill_->auto_manifest_enabled()) {
        // The merge failed, but the manifest still describes a consistent
        // run set on disk (every merge step deletes its inputs only after
        // checkpointing). Keep the directory so ResumeTopKOperator can
        // pick the query up. This also covers a cancellation that surfaced
        // mid-merge, whatever the on_cancel policy: the runs are already
        // durable, releasing them would only destroy a valid manifest's
        // backing files.
        (void)spill_->FlushManifest();
        spill_->DisownDir();
      }
      return merged;
    }
    stats_.bytes_spilled = spill_->total_bytes_spilled();
    stats_.final_cutoff = cutoff();
    if (const CutoffFilter* cutoff_filter = filter()) {
      stats_.filter_buckets_inserted = cutoff_filter->buckets_inserted();
      stats_.filter_consolidations = cutoff_filter->consolidations();
    }
  }
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

Status TopKOperator::Suspend() {
  return RunWithAllocGuard("topk-operator.Suspend",
                           [&] { return SuspendImpl(); });
}

Status TopKOperator::SuspendImpl() {
  if (algorithm_ == TopKAlgorithm::kHeap) {
    return Status::FailedPrecondition(
        TopKAlgorithmName(algorithm_) +
        " does not support Suspend; suspend/resume is supported by the "
        "histogram, traditional-external, and optimized-external operators");
  }
  ObsScope obs_scope(options_.obs);
  if (!first_error_.ok()) {
    // A prior entry point already failed; the real cause of the
    // operator's demise beats a generic precondition complaint.
    return first_error_;
  }
  if (finished_) {
    return Status::FailedPrecondition("Suspend after Finish");
  }
  if (resumed_ && generator_ == nullptr) {
    return Status::FailedPrecondition(
        "Suspend of a merge-phase resumed operator");
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
  TOPK_RETURN_NOT_OK(MakeDurable());
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  HitCrashPoint("post-manifest-checkpoint");
  spill_->DisownDir();
  return Status::OK();
}

Status TopKOperator::Reopen(RestoreReport* report) {
  if (options_.manifest_filename.empty()) {
    return Status::InvalidArgument(
        "ResumeTopKOperator requires TopKOptions::manifest_filename");
  }
  resumed_ = true;
  ObsScope obs_scope(options_.obs);
  TraceSpan span("topk.resume_from_manifest", "topk");
  TOPK_ASSIGN_OR_RETURN(
      spill_, SpillManager::OpenExisting(
                  options_.env, options_.spill_dir, options_.manifest_filename,
                  comparator_, options_.io_pipeline(), report));
  // Keep checkpointing across the resumed execution so another crash is
  // also recoverable.
  spill_->SetAutoManifest(options_.manifest_filename);
  std::optional<uint64_t> replay_from;
  TOPK_ASSIGN_OR_RETURN(replay_from, policy_->Resume());
  if (replay_from.has_value()) {
    // Absolute input accounting continues where the checkpoint left it, so
    // the next checkpoint's input_rows_consumed stays an absolute offset.
    resume_input_offset_ = *replay_from;
    stats_.rows_consumed = *replay_from;
    TOPK_RETURN_NOT_OK(CreateGenerator());
  }
  return Status::OK();
}

}  // namespace topk
