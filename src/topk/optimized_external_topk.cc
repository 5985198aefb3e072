#include "obs/obs_context.h"
#include "obs/trace.h"
#include "topk/topk_operator.h"

namespace topk {

namespace {

/// The paper's baseline (Sec 2.5): external merge sort optimized for top
/// queries per Graefe 2008 ("A general and efficient algorithm for 'top'
/// queries"). Run generation uses replacement selection with run sizes
/// limited to k+offset, and the input is filtered by a single cutoff key
/// obtained two ways:
///
///  * k fits in a run: the (k+offset)th key of each run is a valid cutoff
///    (that run alone proves k rows at or before it) — the "incrementally
///    sharpening filter" of [14]. With the run-size limit, this is exactly
///    the key that truncates each run.
///  * k larger than a run: once `early_merge_fan_in` runs exist, an early
///    merge step combines them into an intermediate run of at most
///    k+offset rows; if it reaches k+offset rows, its last key becomes the
///    cutoff. Early merges repeat as runs accumulate, so the cutoff keeps
///    sharpening — at the price of sub-optimal merge steps and interrupted
///    run generation, the drawbacks Sec 2.5 calls out and the histogram
///    algorithm removes.
///
/// This was F1 Query's production operator before the histogram algorithm.
/// The policy is the run generator's spill observer: it drops rows beyond
/// the cutoff at spill time and proposes the (k+offset)th key of every
/// physical run as a new cutoff.
///
/// Suspend (and the keep-for-resume cancel) also records an input
/// checkpoint — rows consumed, run-id frontier, cutoff — so the resumed
/// operator accepts the input tail this execution never saw; so do the
/// periodic checkpoints of TopKOptions::checkpoint_input_every_rows. A
/// resume takes one of two shapes, decided by the manifest:
///
///  * It holds an input checkpoint (ckpt record): the crash happened
///    mid-input. Runs past the checkpoint's run-id frontier are deleted
///    (the replay re-delivers their rows), the cutoff is restored, and
///    the resumed operator ACCEPTS INPUT — resume_accepts_input() is
///    true and the caller must replay the input stream starting at
///    resume_input_offset(), then call Finish().
///  * No checkpoint: the input had been fully flushed into runs before
///    the crash (Finish clears the checkpoint at that boundary). The
///    resumed operator accepts no input; Finish() merges the runs.
///
/// Without checkpoint_input_every_rows, a manifest written mid-input has
/// no ckpt record and is indistinguishable from the post-input state —
/// only crashes after run generation completed are then safely
/// resumable. Enable input checkpointing when optimized executions must
/// survive mid-input crashes.
class RunKthKeyPolicy final : public CutoffPolicy, private SpillObserver {
 public:
  Status ValidateOptions() const override {
    if (options().early_merge_fan_in >= 2) return Status::OK();
    return Status::InvalidArgument("early merge fan-in must be at least 2");
  }
  Status StartRunGeneration(RunGeneratorOptions* gen_options) override {
    gen_options->run_row_limit = options().output_rows();
    gen_options->observer = this;
    return Status::OK();
  }
  Status ConsumeExternal(Row row) override;
  /// Records (rows consumed, run-id frontier, cutoff) in the manifest as
  /// an input checkpoint, flushes it, and advances the early-merge pin.
  Status MakeInputDurable() override;
  void ConfigureMerges(MergePlannerOptions* planner) const override {
    planner->policy = options().merge_policy;
    planner->intermediate_limit = options().output_rows();
    planner->with_ties = options().with_ties;
  }
  Result<std::optional<uint64_t>> Resume() override;
  std::optional<double> cutoff() const override { return cutoff_; }

 private:
  // SpillObserver.
  bool EliminateAtSpill(const Row& row) override { return Beyond(row); }
  void OnRowSpilled(const Row& row) override {
    ++rows_in_run_;
    if (rows_in_run_ == options().output_rows()) {
      // This run alone proves k+offset rows at or before row.key.
      ProposeCutoff(row.key);
    }
  }
  std::vector<HistogramBucket> OnRunFinished() override {
    rows_in_run_ = 0;
    return {};
  }

  bool Beyond(const Row& row) const {
    return cutoff_.has_value() && comparator().KeyBeyond(row.key, *cutoff_);
  }
  void ProposeCutoff(double key);
  Status MaybeEarlyMerge();
  /// Closes the current run set and makes an input checkpoint durable;
  /// the "optimized.mid-input" crash point fires once it is.
  Status CheckpointInput();

  std::optional<double> cutoff_;
  /// Rows written to the current physical run.
  uint64_t rows_in_run_ = 0;
  /// Rows consumed since the last input checkpoint.
  uint64_t rows_since_checkpoint_ = 0;
  /// Run ids below this bound are covered by the last durable input
  /// checkpoint. Early merges must not consume them: their merged
  /// replacement would get a higher id — which the resume path deletes as
  /// replay-duplicated — while the replay never re-delivers the
  /// pre-checkpoint rows it absorbed.
  uint64_t pinned_run_id_bound_ = 0;
};

void RunKthKeyPolicy::ProposeCutoff(double key) {
  if (cutoff_.has_value() && !comparator().KeyLess(key, *cutoff_)) return;
  const bool tightened = cutoff_.has_value();
  cutoff_ = key;
  if (TracingEnabled()) {
    TraceInstant(tightened ? "cutoff.tighten" : "cutoff.establish", "filter",
                 {TraceArg("cutoff", key),
                  TraceArg("rows_consumed", stats().rows_consumed),
                  TraceArg("rows_eliminated_input",
                           stats().rows_eliminated_input)});
  }
}

Status RunKthKeyPolicy::ConsumeExternal(Row row) {
  if (Beyond(row)) {
    ++stats().rows_eliminated_input;
  } else {
    TOPK_RETURN_NOT_OK(generator()->Add(std::move(row)));
    TOPK_RETURN_NOT_OK(MaybeEarlyMerge());
  }
  // Eliminated rows advance the checkpoint clock too: the checkpoint
  // bounds how much *input* a crash replays, and the replay re-delivers
  // eliminated rows just the same.
  const uint64_t every = options().checkpoint_input_every_rows;
  if (every > 0 && spill()->auto_manifest_enabled() &&
      ++rows_since_checkpoint_ >= every) {
    return CheckpointInput();
  }
  return Status::OK();
}

Status RunKthKeyPolicy::MaybeEarlyMerge() {
  // An early merge only helps while no cutoff exists (k exceeds run sizes):
  // merging `early_merge_fan_in` runs can prove k rows and yield a cutoff
  // much earlier than waiting for the final merge. It interrupts run
  // generation and performs a low-fan-in merge — the cost the histogram
  // algorithm avoids.
  const TopKOptions& opts = options();
  if (!opts.enable_early_merge || cutoff_.has_value()) return Status::OK();
  if (spill()->run_count() < opts.early_merge_fan_in) return Status::OK();
  // Checkpointed runs are pinned: consuming one would leave its merged
  // replacement — a higher id the resume path deletes as replay-duplicated
  // — as the only copy of pre-checkpoint rows the replay never
  // re-delivers. Only runs past the last checkpoint's frontier are fair
  // game.
  std::vector<RunMeta> inputs;
  for (const RunMeta& run : spill()->runs()) {
    if (run.id >= pinned_run_id_bound_) inputs.push_back(run);
  }
  if (inputs.size() < opts.early_merge_fan_in) return Status::OK();

  PhaseScope phase("merge.early");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("merge.early", "topk", {TraceArg("runs", inputs.size())});
  MergeStats merged;
  TOPK_ASSIGN_OR_RETURN(merged, MergeDuringInput(inputs, /*filter=*/nullptr,
                                                 /*quota_exempt=*/false));
  if (merged.rows_emitted >= opts.output_rows()) {
    ProposeCutoff(merged.last_key);
  }
  return Status::OK();
}

Status RunKthKeyPolicy::MakeInputDurable() {
  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = stats().rows_consumed;
  ckpt.run_id_bound = spill()->run_id_bound();
  ckpt.has_cutoff = cutoff_.has_value();
  if (cutoff_.has_value()) ckpt.cutoff = *cutoff_;
  spill()->SetManifestCheckpoint(ckpt);
  TOPK_RETURN_NOT_OK(CutoffPolicy::MakeInputDurable());
  pinned_run_id_bound_ = ckpt.run_id_bound;
  return Status::OK();
}

Status RunKthKeyPolicy::CheckpointInput() {
  rows_since_checkpoint_ = 0;
  PhaseScope phase("input.checkpoint");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("input.checkpoint", "topk",
                 {TraceArg("rows_consumed", stats().rows_consumed)});
  // Close the current run set: every surviving row consumed so far
  // reaches disk. Add-after-Flush is safe (RunGenerator contract), so
  // input continues into a fresh run set afterwards.
  TOPK_RETURN_NOT_OK(generator()->Flush());
  TOPK_RETURN_NOT_OK(MakeInputDurable());
  HitCrashPoint("optimized.mid-input");
  return Status::OK();
}

Result<std::optional<uint64_t>> RunKthKeyPolicy::Resume() {
  const std::optional<ManifestCheckpoint> ckpt = spill()->manifest_checkpoint();
  if (!ckpt.has_value()) {
    // No input checkpoint: run generation had completed (Finish clears
    // the checkpoint at that boundary). Merge-phase resume — no
    // generator, no replay, Finish merges the restored runs.
    return std::optional<uint64_t>();
  }
  // Mid-input crash. Runs at or past the checkpoint's id frontier were
  // written after it; the replay the caller is about to perform
  // re-delivers exactly the rows they held, so keeping them would count
  // those rows twice. They leave a durable manifest before their files go:
  // a crash in between must not resume from a manifest naming missing
  // files.
  std::vector<RunMeta> duplicated;
  TOPK_ASSIGN_OR_RETURN(duplicated,
                        spill()->DeleteRunsIf(
                            [&](const RunMeta& run) {
                              return run.id >= ckpt->run_id_bound;
                            },
                            "optimized.resume-drop"));
  if (ckpt->has_cutoff) cutoff_ = ckpt->cutoff;
  pinned_run_id_bound_ = ckpt->run_id_bound;
  if (TracingEnabled()) {
    TraceInstant("resume.input_checkpoint", "topk",
                 {TraceArg("replay_from", ckpt->input_rows_consumed),
                  TraceArg("runs_dropped", duplicated.size()),
                  TraceArg("cutoff_restored", ckpt->has_cutoff ? 1 : 0)});
  }
  return std::optional<uint64_t>(ckpt->input_rows_consumed);
}

}  // namespace

std::unique_ptr<CutoffPolicy> MakeRunKthKeyPolicy() {
  return std::make_unique<RunKthKeyPolicy>();
}

}  // namespace topk
