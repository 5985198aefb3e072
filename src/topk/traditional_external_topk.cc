#include "topk/traditional_external_topk.h"

#include <algorithm>

#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

namespace topk {

TraditionalExternalTopK::TraditionalExternalTopK(const TopKOptions& options)
    : options_(options), comparator_(options.direction) {}

Result<std::unique_ptr<TraditionalExternalTopK>> TraditionalExternalTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  return std::unique_ptr<TraditionalExternalTopK>(
      new TraditionalExternalTopK(options));
}

Status TraditionalExternalTopK::SwitchToExternal() {
  PhaseScope phase("switch_to_external");
  SampledScopeTimer::InFull in_full;
  TOPK_ASSIGN_OR_RETURN(spill_,
                        SpillManager::Create(options_.env, options_.spill_dir,
                                             options_.io_pipeline()));
  if (!options_.manifest_filename.empty()) {
    spill_->SetAutoManifest(options_.manifest_filename);
    TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  }
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = options_.memory_limit_bytes;
  gen_options.cancel = options_.cancel.get();
  gen_options.arbiter = options_.effective_arbiter();
  // Vanilla sort: no run-size limit, no filtering.
  if (options_.run_generation == RunGenerationKind::kReplacementSelection) {
    generator_ = std::make_unique<ReplacementSelectionRunGenerator>(
        spill_.get(), comparator_, gen_options);
  } else {
    generator_ = std::make_unique<QuicksortRunGenerator>(
        spill_.get(), comparator_, gen_options);
  }
  for (Row& row : buffer_) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(row)));
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
  buffered_bytes_ = 0;
  lease_.ShrinkTo(0);
  return Status::OK();
}

Status TraditionalExternalTopK::CheckCancel() {
  if (options_.cancel == nullptr || !options_.cancel->ShouldStop()) {
    return Status::OK();
  }
  return OnCancelStatus(options_.cancel->status());
}

Status TraditionalExternalTopK::OnCancelStatus(Status cause) {
  if (!IsCancellation(cause.code())) return cause;
  if (options_.on_cancel != OnCancelPolicy::kKeepForResume ||
      cancel_unwound_ || spill_ == nullptr ||
      options_.manifest_filename.empty()) {
    return cause;
  }
  // Preempted-but-resumable: perform Suspend's durable handoff before
  // surfacing the cancellation (see HistogramTopK::OnCancelStatus).
  cancel_unwound_ = true;
  finished_ = true;
  TraceSpan span("topk.cancel_keep_for_resume", "topk");
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

Status TraditionalExternalTopK::Consume(Row row) {
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (resumed_) {
    return Status::FailedPrecondition(
        "a resumed operator accepts no input; its runs are already on disk");
  }
  Status status = RunWithAllocGuard(
      "traditional.Consume", [&] { return ConsumeImpl(std::move(row)); });
  if (!status.ok() && !IsCancellation(status.code()) && first_error_.ok()) {
    first_error_ = status;
  }
  return status;
}

Status TraditionalExternalTopK::ConsumeImpl(Row row) {
  TOPK_RETURN_NOT_OK(CheckCancel());
  SampledScopeTimer timer(&consume_timing_, &stats_.consume_nanos);
  ++stats_.rows_consumed;
  if (generator_ == nullptr) {
    MemoryArbiter* arbiter = options_.effective_arbiter();
    if (arbiter != nullptr && !lease_.attached()) {
      TOPK_ASSIGN_OR_RETURN(lease_, arbiter->Acquire("traditional-topk", 0));
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
  Status status = generator_->Add(std::move(row));
  if (!status.ok()) return OnCancelStatus(std::move(status));
  return Status::OK();
}

Result<std::vector<Row>> TraditionalExternalTopK::Finish() {
  ObsScope obs_scope(options_.obs);
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  Result<std::vector<Row>> result =
      RunWithAllocGuard("traditional.Finish", [&] { return FinishImpl(); });
  if (!result.ok() && !IsCancellation(result.status().code()) &&
      first_error_.ok()) {
    first_error_ = result.status();
  }
  return result;
}

Result<std::vector<Row>> TraditionalExternalTopK::FinishImpl() {
  TOPK_RETURN_NOT_OK(CheckCancel());
  Stopwatch watch;
  std::vector<Row> result;

  if (generator_ == nullptr && !resumed_) {
    // The input fit in memory: sort and slice.
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
    return result;
  }

  if (resumed_) {
    stats_.rows_spilled = spill_->total_rows_spilled();
    stats_.runs_created = spill_->total_runs_created();
  } else {
    {
      PhaseScope flush_phase("rungen.flush");
      TraceSpan flush_span("rungen.flush", "topk");
      Status flushed = generator_->Flush();
      if (!flushed.ok()) return OnCancelStatus(std::move(flushed));
    }
    stats_.rows_spilled = generator_->stats().rows_spilled;
    stats_.runs_created = spill_->total_runs_created();
    stats_.peak_memory_bytes = std::max(
        stats_.peak_memory_bytes, generator_->stats().peak_memory_bytes);
    if (spill_->auto_manifest_enabled()) {
      // Make the complete run set durable so the crash point below (and
      // any real crash before the merge) finds a resumable state.
      TOPK_RETURN_NOT_OK(spill_->FlushManifest());
      HitCrashPoint("post-run-flush");
    }
  }

  MergePlanStats plan_stats;
  MergeStats merge_stats;
  const auto merge_phase = [&]() -> Status {
    MergePlannerOptions planner_options;
    planner_options.fan_in = options_.merge_fan_in;
    planner_options.policy = MergePolicy::kSmallestRunsFirst;
    planner_options.use_ovc = options_.use_ovc;
    planner_options.cancel = options_.cancel.get();
    std::vector<RunMeta> final_runs;
    TOPK_ASSIGN_OR_RETURN(
        final_runs, ReduceRunsForFinalMerge(spill_.get(), comparator_,
                                            planner_options, &plan_stats));
    stats_.merge_rows_written = plan_stats.intermediate_rows_written;

    MergeOptions merge_options;
    merge_options.limit = options_.k;
    merge_options.skip = options_.offset;
    merge_options.with_ties = options_.with_ties;
    merge_options.use_ovc = options_.use_ovc;
    merge_options.cancel = options_.cancel.get();
    PhaseScope merge_phase_scope("merge.final");
    TraceSpan merge_span("merge.final", "topk",
                         {TraceArg("runs", final_runs.size())});
    TOPK_ASSIGN_OR_RETURN(merge_stats,
                          MergeRuns(spill_.get(), final_runs, comparator_,
                                    merge_options, [&](Row&& row) {
                                      result.push_back(std::move(row));
                                      return Status::OK();
                                    }));
    return Status::OK();
  };
  Status merged = merge_phase();
  if (!merged.ok()) {
    if (spill_->auto_manifest_enabled()) {
      // The manifest still describes a consistent run set on disk; keep the
      // directory so ResumeFromManifest can pick the query up.
      (void)spill_->FlushManifest();
      spill_->DisownDir();
    }
    return merged;
  }
  stats_.merge_rows_read =
      plan_stats.intermediate_rows_read + merge_stats.rows_read;
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

Status TraditionalExternalTopK::Suspend() {
  return RunWithAllocGuard("traditional.Suspend",
                           [&] { return SuspendImpl(); });
}

Status TraditionalExternalTopK::SuspendImpl() {
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
  // An explicit Suspend overrides a tripped cancellation token (see
  // HistogramTopK::Suspend).
  CancelShield shield(options_.cancel.get());
  if (generator_ == nullptr) {
    TOPK_RETURN_NOT_OK(SwitchToExternal());
  }
  generator_->SetCancel(nullptr);
  TOPK_RETURN_NOT_OK(generator_->Flush());
  TOPK_RETURN_NOT_OK(spill_->CheckpointManifest());
  TOPK_RETURN_NOT_OK(spill_->FlushManifest());
  stats_.rows_spilled = generator_->stats().rows_spilled;
  stats_.runs_created = spill_->total_runs_created();
  stats_.bytes_spilled = spill_->total_bytes_spilled();
  HitCrashPoint("post-manifest-checkpoint");
  spill_->DisownDir();
  return Status::OK();
}

Result<std::unique_ptr<TraditionalExternalTopK>>
TraditionalExternalTopK::ResumeFromManifest(const TopKOptions& options,
                                            RestoreReport* report) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  if (options.manifest_filename.empty()) {
    return Status::InvalidArgument(
        "ResumeFromManifest requires TopKOptions::manifest_filename");
  }
  auto op = std::unique_ptr<TraditionalExternalTopK>(
      new TraditionalExternalTopK(options));
  op->resumed_ = true;
  ObsScope obs_scope(options.obs);
  TraceSpan span("topk.resume_from_manifest", "topk");
  TOPK_ASSIGN_OR_RETURN(
      op->spill_,
      SpillManager::OpenExisting(options.env, options.spill_dir,
                                 options.manifest_filename, op->comparator_,
                                 options.io_pipeline(), report));
  op->spill_->SetAutoManifest(options.manifest_filename);
  return op;
}

}  // namespace topk
