#ifndef TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_
#define TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_

#include <memory>

#include "topk/external_topk.h"

namespace topk {

/// The paper's baseline (Sec 2.5): external merge sort optimized for top
/// queries per Graefe 2008 ("A general and efficient algorithm for 'top'
/// queries") — ExternalTopK with the run-kth-key policy. Run generation
/// uses replacement selection with run sizes limited to k+offset, and the
/// input is filtered by a single cutoff key obtained two ways:
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
///
/// Suspend (and the keep-for-resume cancel) also records an input
/// checkpoint — rows consumed, run-id frontier, cutoff — so the resumed
/// operator accepts the input tail this execution never saw; so do the
/// periodic checkpoints of TopKOptions::checkpoint_input_every_rows.
class OptimizedExternalTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<OptimizedExternalTopK>> Make(
      const TopKOptions& options) {
    return Open<OptimizedExternalTopK>(options, /*resume=*/false);
  }

  /// Reconstructs a suspended or crashed execution from the manifest in
  /// `options.manifest_filename`. Two shapes, decided by the manifest:
  ///
  ///  * It holds an input checkpoint (ckpt record): the crash happened
  ///    mid-input. Runs past the checkpoint's run-id frontier are deleted
  ///    (the replay re-delivers their rows), the cutoff is restored, and
  ///    the resumed operator ACCEPTS INPUT — resume_accepts_input() is
  ///    true and the caller must replay the input stream starting at
  ///    resume_input_offset(), then call Finish().
  ///
  ///  * No checkpoint: the input had been fully flushed into runs before
  ///    the crash (Finish clears the checkpoint at that boundary). The
  ///    resumed operator accepts no input; Finish() merges the runs.
  ///
  /// Note: without checkpoint_input_every_rows, a manifest written
  /// mid-input has no ckpt record and is indistinguishable from the
  /// post-input state — only crashes after run generation completed are
  /// then safely resumable. Enable input checkpointing when optimized
  /// executions must survive mid-input crashes.
  static Result<std::unique_ptr<OptimizedExternalTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr) {
    return Open<OptimizedExternalTopK>(options, /*resume=*/true, report);
  }

  std::string name() const override { return "optimized-external"; }

 private:
  friend class ExternalTopK;
  explicit OptimizedExternalTopK(const TopKOptions& options);
};

}  // namespace topk

#endif  // TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_
