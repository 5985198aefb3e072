#include <limits>

#include "obs/obs_context.h"
#include "obs/trace.h"
#include "topk/topk_operator.h"

namespace topk {

namespace {

/// Runs an early merge combines (the example of Sec 2.5).
constexpr size_t kEarlyMergeFanIn = 10;

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
///  * k larger than a run: once kEarlyMergeFanIn runs exist, an early
///    merge step combines them into an intermediate run of at most
///    k+offset rows; if it reaches k+offset rows, its last key becomes the
///    cutoff. Early merges repeat as runs accumulate, so the cutoff keeps
///    sharpening — at the price of sub-optimal merge steps and interrupted
///    run generation, the drawbacks Sec 2.5 calls out and the histogram
///    algorithm removes.
///
/// This was F1 Query's production operator before the histogram algorithm.
/// Its cutoff is the operator's cutoff filter (Sec 3) reduced to one bucket
/// per run: a run that reaches k+offset rows closes a bucket of k+offset
/// rows whose boundary is its last key, so the filter's cutoff is the
/// sharpest such key, and an early merge proposes its kth merged key. The
/// filter's spill observer drops rows beyond the cutoff at spill time.
///
/// Suspend (and the keep-for-resume cancel) also records an input
/// checkpoint — rows consumed, run-id frontier, cutoff — so the resumed
/// operator accepts the input tail this execution never saw; so do the
/// periodic checkpoints of TopKOptions::checkpoint_input_every_rows. A
/// resume rebuilds the filter from the one-bucket histograms the manifest
/// kept and takes one of two shapes, decided by the manifest:
///
///  * It holds an input checkpoint (ckpt record): the crash happened
///    mid-input. Runs past the checkpoint's run-id frontier are deleted
///    (the replay re-delivers their rows) before the filter is rebuilt,
///    the checkpointed cutoff is proposed to it, and the resumed operator
///    ACCEPTS INPUT — resume_accepts_input() is true and the caller must
///    replay the input stream starting at resume_input_offset(), then
///    call Finish().
///  * No checkpoint: the input had been fully flushed into runs before
///    the crash (Finish clears the checkpoint at that boundary). The
///    resumed operator accepts no input; Finish() merges the runs.
///
/// Without checkpoint_input_every_rows, a manifest written mid-input has
/// no ckpt record and is indistinguishable from the post-input state —
/// only crashes after run generation completed are then safely
/// resumable. Enable input checkpointing when optimized executions must
/// survive mid-input crashes.
class RunKthKeyPolicy final : public CutoffPolicy {
 public:
  Status StartRunGeneration(RunGeneratorOptions* gen_options) override {
    gen_options->run_row_limit = options().output_rows();
    // A replay-resume rebuilt the filter already.
    if (filter() == nullptr) BuildOneBucketFilter();
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

 private:
  /// The cutoff filter with one bucket of exactly k+offset rows per run:
  /// the sizing rule round(R / (B + 1)) gives that width for B = 1 over
  /// runs of R = 2(k+offset) rows (saturated, should k+offset exceed half
  /// the range).
  void BuildOneBucketFilter() {
    const uint64_t rows = options().output_rows();
    const uint64_t kMax = std::numeric_limits<uint64_t>::max();
    BuildFilter(/*buckets_per_run=*/1, rows > kMax / 2 ? kMax : 2 * rows);
  }
  Status MaybeEarlyMerge();
  /// Closes the current run set and makes an input checkpoint durable;
  /// the "optimized.mid-input" crash point fires once it is.
  Status CheckpointInput();

  /// Rows consumed since the last input checkpoint.
  uint64_t rows_since_checkpoint_ = 0;
  /// Run ids below this bound are covered by the last durable input
  /// checkpoint. Early merges must not consume them: their merged
  /// replacement would get a higher id — which the resume path deletes as
  /// replay-duplicated — while the replay never re-delivers the
  /// pre-checkpoint rows it absorbed.
  uint64_t pinned_run_id_bound_ = 0;
};

Status RunKthKeyPolicy::ConsumeExternal(Row row) {
  if (filter()->Eliminate(row)) {
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
  // merging kEarlyMergeFanIn runs can prove k rows and yield a cutoff much
  // earlier than waiting for the final merge. It interrupts run generation
  // and performs a low-fan-in merge — the cost the histogram algorithm
  // avoids.
  if (!options().enable_early_merge || filter()->cutoff().has_value()) {
    return Status::OK();
  }
  if (spill()->run_count() < kEarlyMergeFanIn) return Status::OK();
  // Checkpointed runs are pinned: consuming one would leave its merged
  // replacement — a higher id the resume path deletes as replay-duplicated
  // — as the only copy of pre-checkpoint rows the replay never
  // re-delivers. Only runs past the last checkpoint's frontier are fair
  // game.
  std::vector<RunMeta> inputs;
  for (const RunMeta& run : spill()->runs()) {
    if (run.id >= pinned_run_id_bound_) inputs.push_back(run);
  }
  if (inputs.size() < kEarlyMergeFanIn) return Status::OK();

  PhaseScope phase("merge.early");
  SampledScopeTimer::InFull in_full;
  TraceSpan span("merge.early", "topk", {TraceArg("runs", inputs.size())});
  // The merge proposes its kth key to the filter once it reaches k+offset
  // rows.
  return MergeDuringInput(inputs, /*quota_exempt=*/false).status();
}

Status RunKthKeyPolicy::MakeInputDurable() {
  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = stats().rows_consumed;
  ckpt.run_id_bound = spill()->run_id_bound();
  const std::optional<double> cutoff = filter()->cutoff();
  ckpt.has_cutoff = cutoff.has_value();
  if (cutoff.has_value()) ckpt.cutoff = *cutoff;
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
    BuildOneBucketFilter();
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
  // The rebuilt cutoff is never sharper than the checkpointed one, which
  // an early merge may have proposed.
  BuildOneBucketFilter();
  if (ckpt->has_cutoff) filter()->ProposeCutoff(ckpt->cutoff);
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
