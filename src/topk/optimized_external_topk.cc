#include "topk/optimized_external_topk.h"

#include <algorithm>

#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

namespace topk {

/// Spill hook implementing the [14] filter: drops rows beyond the cutoff at
/// spill time and proposes the (k+offset)th key of every physical run as a
/// new cutoff.
class OptimizedExternalTopK::KthKeyObserver : public SpillObserver {
 public:
  KthKeyObserver(OptimizedExternalTopK* op, uint64_t kth)
      : op_(op), kth_(kth) {}

  bool EliminateAtSpill(const Row& row) override {
    return op_->EliminateAtInput(row);
  }

  void OnRowSpilled(const Row& row) override {
    ++rows_in_run_;
    if (rows_in_run_ == kth_) {
      // This run alone proves k+offset rows at or before row.key.
      op_->ProposeCutoff(row.key);
    }
  }

  std::vector<HistogramBucket> OnRunFinished() override {
    rows_in_run_ = 0;
    return {};
  }

 private:
  OptimizedExternalTopK* op_;
  uint64_t kth_;
  uint64_t rows_in_run_ = 0;
};

OptimizedExternalTopK::OptimizedExternalTopK(const TopKOptions& options)
    : options_(options), comparator_(options.direction) {}

OptimizedExternalTopK::~OptimizedExternalTopK() = default;

Result<std::unique_ptr<OptimizedExternalTopK>> OptimizedExternalTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  if (options.early_merge_fan_in < 2) {
    return Status::InvalidArgument("early merge fan-in must be at least 2");
  }
  return std::unique_ptr<OptimizedExternalTopK>(
      new OptimizedExternalTopK(options));
}

bool OptimizedExternalTopK::EliminateAtInput(const Row& row) const {
  return cutoff_.has_value() && comparator_.KeyBeyond(row.key, *cutoff_);
}

void OptimizedExternalTopK::ProposeCutoff(double key) {
  if (!cutoff_.has_value() || comparator_.KeyLess(key, *cutoff_)) {
    const bool tightened = cutoff_.has_value();
    cutoff_ = key;
    if (TracingEnabled()) {
      TraceInstant(tightened ? "cutoff.tighten" : "cutoff.establish",
                   "filter",
                   {TraceArg("cutoff", key),
                    TraceArg("rows_consumed", stats_.rows_consumed),
                    TraceArg("rows_eliminated_input",
                             stats_.rows_eliminated_input)});
    }
  }
}

Status OptimizedExternalTopK::CreateGenerator() {
  observer_ =
      std::make_unique<KthKeyObserver>(this, options_.output_rows());
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = options_.memory_limit_bytes;
  if (options_.limit_run_size_to_output) {
    gen_options.run_row_limit = options_.output_rows();
  }
  gen_options.observer = observer_.get();
  gen_options.cancel = options_.cancel.get();
  gen_options.arbiter = options_.effective_arbiter();
  if (options_.run_generation == RunGenerationKind::kReplacementSelection) {
    generator_ = std::make_unique<ReplacementSelectionRunGenerator>(
        spill_.get(), comparator_, gen_options);
  } else {
    generator_ = std::make_unique<QuicksortRunGenerator>(
        spill_.get(), comparator_, gen_options);
  }
  return Status::OK();
}

Status OptimizedExternalTopK::SwitchToExternal() {
  PhaseScope phase("switch_to_external");
  SampledScopeTimer::InFull in_full;
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
  for (Row& row : buffer_) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(row)));
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
  buffered_bytes_ = 0;
  lease_.ShrinkTo(0);
  return Status::OK();
}

Status OptimizedExternalTopK::WriteInputCheckpoint() {
  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = stats_.rows_consumed;
  ckpt.run_id_bound = spill_->run_id_bound();
  ckpt.has_cutoff = cutoff_.has_value();
  if (cutoff_.has_value()) ckpt.cutoff = *cutoff_;
  spill_->SetManifestCheckpoint(ckpt);
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  pinned_run_id_bound_ = ckpt.run_id_bound;
  return Status::OK();
}

Status OptimizedExternalTopK::CheckpointInput() {
  rows_since_checkpoint_ = 0;
  PhaseScope phase("input.checkpoint");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("input.checkpoint", "topk",
                 {TraceArg("rows_consumed", stats_.rows_consumed)});
  // Close the current run set: every surviving row consumed so far
  // reaches disk. Add-after-Flush is safe (RunGenerator contract), so
  // input continues into a fresh run set afterwards.
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(WriteInputCheckpoint());
  HitCrashPoint("optimized.mid-input");
  return Status::OK();
}

Status OptimizedExternalTopK::MaybeEarlyMerge() {
  // An early merge only helps while no cutoff exists (k exceeds run sizes):
  // merging `early_merge_fan_in` runs can prove k rows and yield a cutoff
  // much earlier than waiting for the final merge. It interrupts run
  // generation and performs a low-fan-in merge — the cost the histogram
  // algorithm avoids.
  if (!options_.enable_early_merge) return Status::OK();
  if (cutoff_.has_value()) return Status::OK();
  // Checkpointed runs are pinned: consuming one would leave its merged
  // replacement — a higher id the resume path deletes as replay-duplicated
  // — as the only copy of pre-checkpoint rows the replay never
  // re-delivers. Only runs past the last checkpoint's frontier are fair
  // game.
  std::vector<RunMeta> inputs;
  for (const RunMeta& run : spill_->runs()) {
    if (run.id >= pinned_run_id_bound_) inputs.push_back(run);
  }
  if (inputs.size() < options_.early_merge_fan_in) return Status::OK();

  PhaseScope phase("merge.early");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("merge.early", "topk",
                 {TraceArg("runs", inputs.size())});
  std::unique_ptr<RunWriter> writer;
  TOPK_ASSIGN_OR_RETURN(writer, spill_->NewRun(comparator_));
  MergeOptions merge_options;
  merge_options.limit = options_.output_rows();
  merge_options.with_ties = options_.with_ties;
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
    ++early_merge_runs_registered_;
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
  ++early_merges_done_;
  if (merge_stats.rows_emitted >= options_.output_rows()) {
    ProposeCutoff(merge_stats.last_key);
  }
  return Status::OK();
}

Status OptimizedExternalTopK::CheckCancel() {
  if (options_.cancel == nullptr || !options_.cancel->ShouldStop()) {
    return Status::OK();
  }
  return OnCancelStatus(options_.cancel->status());
}

Status OptimizedExternalTopK::OnCancelStatus(Status cause) {
  if (!IsCancellation(cause.code())) return cause;
  if (options_.on_cancel != OnCancelPolicy::kKeepForResume ||
      cancel_unwound_ || spill_ == nullptr ||
      options_.manifest_filename.empty()) {
    return cause;
  }
  // Preempted-but-resumable: the optimized handoff checkpoints input
  // consumption too, so the resumed query replays only the tail the
  // cancel cut off instead of restarting from row zero.
  cancel_unwound_ = true;
  finished_ = true;
  TraceSpan span("topk.cancel_keep_for_resume", "topk");
  CancelShield shield(options_.cancel.get());
  if (generator_ != nullptr) {
    generator_->SetCancel(nullptr);
    TOPK_RETURN_NOT_OK(generator_->Flush());
    TOPK_RETURN_NOT_OK(WriteInputCheckpoint());
  } else {
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
    TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  }
  spill_->DisownDir();
  return cause;
}

Status OptimizedExternalTopK::Consume(Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (resumed_ && generator_ == nullptr) {
    return Status::FailedPrecondition(
        "a merge-phase resumed operator accepts no input; its runs "
        "already hold the whole input");
  }
  ObsScope obs_scope(options_.obs);
  Status status = RunWithAllocGuard(
      "optimized.Consume", [&] { return ConsumeImpl(std::move(row)); });
  if (!status.ok() && !IsCancellation(status.code()) && first_error_.ok()) {
    first_error_ = status;
  }
  return status;
}

Status OptimizedExternalTopK::ConsumeImpl(Row row) {
  TOPK_RETURN_NOT_OK(CheckCancel());
  SampledScopeTimer timer(&consume_timing_, &stats_.consume_nanos);
  ++stats_.rows_consumed;
  if (EliminateAtInput(row)) {
    ++stats_.rows_eliminated_input;
  } else {
    if (generator_ == nullptr) {
      MemoryArbiter* arbiter = options_.effective_arbiter();
      if (arbiter != nullptr && !lease_.attached()) {
        TOPK_ASSIGN_OR_RETURN(lease_, arbiter->Acquire("optimized-topk", 0));
      }
      const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
      if (buffered_bytes_ + cost <= options_.memory_limit_bytes) {
        buffered_bytes_ += cost;
        TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(buffered_bytes_));
        stats_.peak_memory_bytes =
            std::max(stats_.peak_memory_bytes, buffered_bytes_);
        buffer_.push_back(std::move(row));
        return Status::OK();
      }
      TOPK_RETURN_NOT_OK(SwitchToExternal());
    }
    Status pushed = generator_->Add(std::move(row));
    if (pushed.ok()) pushed = MaybeEarlyMerge();
    if (!pushed.ok()) return OnCancelStatus(std::move(pushed));
  }
  // Eliminated rows advance the checkpoint clock too: the checkpoint
  // bounds how much *input* a crash replays, and the replay re-delivers
  // eliminated rows just the same.
  if (generator_ != nullptr && options_.checkpoint_input_every_rows > 0 &&
      spill_->auto_manifest_enabled() &&
      ++rows_since_checkpoint_ >= options_.checkpoint_input_every_rows) {
    Status checkpointed = CheckpointInput();
    if (!checkpointed.ok()) return OnCancelStatus(std::move(checkpointed));
  }
  return Status::OK();
}

Result<std::vector<Row>> OptimizedExternalTopK::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  ObsScope obs_scope(options_.obs);
  Result<std::vector<Row>> result =
      RunWithAllocGuard("optimized.Finish", [&] { return FinishImpl(); });
  if (!result.ok() && !IsCancellation(result.status().code()) &&
      first_error_.ok()) {
    first_error_ = result.status();
  }
  return result;
}

Result<std::vector<Row>> OptimizedExternalTopK::FinishImpl() {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  std::vector<Row> result;

  if (generator_ == nullptr && !resumed_) {
    std::sort(buffer_.begin(), buffer_.end(), comparator_);
    const size_t begin = std::min<size_t>(options_.offset, buffer_.size());
    size_t end = std::min<size_t>(begin + options_.k, buffer_.size());
    if (options_.with_ties && end > begin && end < buffer_.size()) {
      const double boundary = buffer_[end - 1].key;
      while (end < buffer_.size() && buffer_[end].key == boundary) ++end;
    }
    result.assign(std::make_move_iterator(buffer_.begin() + begin),
                  std::make_move_iterator(buffer_.begin() + end));
    buffer_.clear();
    lease_.Release();
    stats_.finish_nanos = watch.ElapsedNanos();
    if (options_.obs != nullptr) {
      options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
    }
    return result;
  }

  if (generator_ != nullptr) {
    {
      PhaseScope flush_phase("rungen.flush");
      TraceSpan flush_span("rungen.flush", "topk");
      Status flushed = generator_->Flush();
      if (!flushed.ok()) return OnCancelStatus(std::move(flushed));
    }
    stats_.rows_eliminated_spill =
        generator_->stats().rows_eliminated_at_spill;
    stats_.rows_spilled = generator_->stats().rows_spilled;
    stats_.peak_memory_bytes = std::max(
        stats_.peak_memory_bytes, generator_->stats().peak_memory_bytes);
    if (spill_->auto_manifest_enabled()) {
      // The complete run set is durable; the crash point below (and any
      // real crash before the merge) finds a resumable state.
      TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      HitCrashPoint("post-run-flush");
      if (spill_->manifest_checkpoint().has_value()) {
        // The whole input now lives in the runs, so the mid-input
        // checkpoint has served its purpose. Drop it: a merge-phase
        // crash must resume from the runs alone — replaying input on
        // top of merge output would double-count rows.
        spill_->ClearManifestCheckpoint();
        TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
        TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      }
    }
  } else {
    // Merge-phase resume: run generation happened in the pre-crash
    // process; the restored registry totals are all that remain of it.
    stats_.rows_spilled = spill_->total_rows_spilled();
  }
  stats_.runs_created =
      spill_->total_runs_created() - early_merge_runs_registered_;
  stats_.final_cutoff = cutoff_;

  const auto merge_phase = [&]() -> Status {
    MergePlannerOptions planner_options;
    planner_options.fan_in = options_.merge_fan_in;
    planner_options.policy = options_.merge_policy;
    planner_options.intermediate_limit = options_.output_rows();
    planner_options.with_ties = options_.with_ties;
    planner_options.use_ovc = options_.use_ovc;
    planner_options.cancel = options_.cancel.get();
    MergePlanStats plan_stats;
    std::vector<RunMeta> final_runs;
    TOPK_ASSIGN_OR_RETURN(
        final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                            planner_options, &plan_stats));
    stats_.merge_rows_written += plan_stats.intermediate_rows_written;

    MergeOptions merge_options;
    merge_options.limit = options_.k;
    merge_options.skip = options_.offset;
    merge_options.with_ties = options_.with_ties;
    merge_options.use_ovc = options_.use_ovc;
    merge_options.cancel = options_.cancel.get();
    MergeStats merge_stats;
    {
      PhaseScope merge_phase_scope("merge.final");
      TraceSpan merge_span("merge.final", "topk",
                           {TraceArg("runs", final_runs.size())});
      TOPK_ASSIGN_OR_RETURN(merge_stats,
                            MergeRuns(spill_.get(), final_runs, comparator_,
                                      merge_options, [&](Row&& row) {
                                        result.push_back(std::move(row));
                                        return Status::OK();
                                      }));
      merge_span.End();
    }
    stats_.merge_rows_read +=
        plan_stats.intermediate_rows_read + merge_stats.rows_read;
    return Status::OK();
  };
  Status merged = merge_phase();
  if (!merged.ok()) {
    if (spill_->auto_manifest_enabled()) {
      // The manifest still describes a consistent run set on disk (the
      // planner deletes inputs only after checkpointing). Keep the
      // directory so ResumeFromManifest can pick the query up.
      (void)spill_->FlushManifest();
      spill_->DisownDir();
    }
    return merged;
  }
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

Status OptimizedExternalTopK::Suspend() {
  return RunWithAllocGuard("optimized.Suspend", [&] { return SuspendImpl(); });
}

Status OptimizedExternalTopK::SuspendImpl() {
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
  // An explicit Suspend overrides a tripped cancellation token (see
  // HistogramTopK::Suspend).
  CancelShield shield(options_.cancel.get());
  if (generator_ == nullptr) {
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  generator_->SetCancel(nullptr);
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(WriteInputCheckpoint());
  stats_.rows_eliminated_spill = generator_->stats().rows_eliminated_at_spill;
  stats_.rows_spilled = generator_->stats().rows_spilled;
  stats_.runs_created =
      spill_->total_runs_created() - early_merge_runs_registered_;
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  HitCrashPoint("post-manifest-checkpoint");
  spill_->DisownDir();
  return Status::OK();
}

Result<std::unique_ptr<OptimizedExternalTopK>>
OptimizedExternalTopK::ResumeFromManifest(const TopKOptions& options,
                                          RestoreReport* report) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  if (options.early_merge_fan_in < 2) {
    return Status::InvalidArgument("early merge fan-in must be at least 2");
  }
  if (options.manifest_filename.empty()) {
    return Status::InvalidArgument(
        "ResumeFromManifest requires TopKOptions::manifest_filename");
  }
  auto op = std::unique_ptr<OptimizedExternalTopK>(
      new OptimizedExternalTopK(options));
  op->resumed_ = true;
  ObsScope obs_scope(options.obs);
  TraceSpan span("topk.resume_from_manifest", "topk");
  TOPK_ASSIGN_OR_RETURN(
      op->spill_,
      SpillManager::OpenExisting(options.env, options.spill_dir,
                                 options.manifest_filename, op->comparator_,
                                 options.io_pipeline(), report));
  // Keep checkpointing across the resumed execution so another crash is
  // also recoverable.
  op->spill_->SetAutoManifest(options.manifest_filename);
  const std::optional<ManifestCheckpoint> ckpt =
      op->spill_->manifest_checkpoint();
  if (!ckpt.has_value()) {
    // No input checkpoint: run generation had completed (Finish clears
    // the checkpoint at that boundary). Merge-phase resume — no
    // generator, no replay, Finish merges the restored runs.
    return op;
  }
  // Mid-input crash. Runs at or past the checkpoint's id frontier were
  // written after it; the replay the caller is about to perform
  // re-delivers exactly the rows they held, so keeping them would count
  // those rows twice.
  uint64_t dropped = 0;
  for (const RunMeta& run : op->spill_->runs()) {
    if (run.id >= ckpt->run_id_bound) {
      std::string path;
      TOPK_ASSIGN_OR_RETURN(path, op->spill_->ReleaseRun(run.id));
      TOPK_RETURN_NOT_OK(op->spill_->DeleteSpillFile(path));
      ++dropped;
    }
  }
  TOPK_RETURN_NOT_OK(op->spill_->CheckpointManifest());
  if (ckpt->has_cutoff) op->cutoff_ = ckpt->cutoff;
  op->resume_input_offset_ = ckpt->input_rows_consumed;
  // Absolute input accounting continues where the checkpoint left it, so
  // the next checkpoint's input_rows_consumed stays an absolute offset.
  op->stats_.rows_consumed = ckpt->input_rows_consumed;
  op->pinned_run_id_bound_ = ckpt->run_id_bound;
  TOPK_RETURN_NOT_OK(op->CreateGenerator());
  if (TracingEnabled()) {
    TraceInstant("resume.input_checkpoint", "topk",
                 {TraceArg("replay_from", ckpt->input_rows_consumed),
                  TraceArg("runs_dropped", dropped),
                  TraceArg("cutoff_restored", ckpt->has_cutoff ? 1 : 0)});
  }
  return op;
}

}  // namespace topk
