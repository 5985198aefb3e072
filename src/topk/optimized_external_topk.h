#ifndef TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_
#define TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_

#include <memory>
#include <optional>
#include <vector>

#include "io/spill_manager.h"
#include "sort/run_generation.h"
#include "topk/topk_operator.h"

namespace topk {

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
class OptimizedExternalTopK : public TopKOperator {
 public:
  static Result<std::unique_ptr<OptimizedExternalTopK>> Make(
      const TopKOptions& options);

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
      const TopKOptions& options, RestoreReport* report = nullptr);

  ~OptimizedExternalTopK() override;  // out-of-line: KthKeyObserver is
                                      // incomplete here

  Status Consume(Row row) override;
  Result<std::vector<Row>> Finish() override;

  /// Flushes buffered rows into runs, records an input checkpoint (rows
  /// consumed, run-id frontier, cutoff), makes the manifest durable, and
  /// leaves the spill directory for a later ResumeFromManifest — which
  /// will accept the input tail this execution never saw. Requires
  /// options.manifest_filename. Also legal on an input-accepting resumed
  /// operator (a resumed query can be preempted again).
  Status Suspend() override;

  std::string name() const override { return "optimized-external"; }

  bool resume_accepts_input() const override {
    return resumed_ && generator_ != nullptr;
  }
  uint64_t resume_input_offset() const override {
    return resume_input_offset_;
  }

  std::optional<double> cutoff() const { return cutoff_; }

  /// True for an operator reconstructed by ResumeFromManifest.
  bool is_resumed() const { return resumed_; }

 private:
  class KthKeyObserver;

  explicit OptimizedExternalTopK(const TopKOptions& options);

  Status SwitchToExternal();
  /// Builds observer_ + generator_ against the existing spill_ (shared by
  /// the external switch and the mid-input resume path).
  Status CreateGenerator();
  Status MaybeEarlyMerge();
  bool EliminateAtInput(const Row& row) const;
  void ProposeCutoff(double key);

  /// Closes the current run set and makes an input checkpoint durable;
  /// the "optimized.mid-input" crash point fires once it is.
  Status CheckpointInput();
  /// Records (rows consumed, run-id frontier, cutoff) in the manifest and
  /// flushes it; advances the early-merge pin.
  Status WriteInputCheckpoint();

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Status SuspendImpl();

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff (checkpoint included) so the query resumes from
  /// where the cancel caught it.
  Status OnCancelStatus(Status cause);

  TopKOptions options_;
  RowComparator comparator_;

  /// In-memory phase buffer.
  std::vector<Row> buffer_;
  size_t buffered_bytes_ = 0;
  /// Arbiter lease covering buffered_bytes_.
  MemoryLease lease_;

  /// External phase.
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<KthKeyObserver> observer_;
  std::unique_ptr<RunGenerator> generator_;

  std::optional<double> cutoff_;
  uint64_t early_merges_done_ = 0;
  uint64_t early_merge_runs_registered_ = 0;

  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
  /// Built by ResumeFromManifest. With a generator the operator accepts
  /// the replayed input tail; without one it is merge-phase only.
  bool resumed_ = false;
  /// Input rows the restored state already covers (resume replays from
  /// here).
  uint64_t resume_input_offset_ = 0;
  /// Rows consumed since the last input checkpoint.
  uint64_t rows_since_checkpoint_ = 0;
  /// Run ids below this bound are covered by the last durable input
  /// checkpoint. Early merges must not consume them: their merged
  /// replacement would get a higher id — which the resume path deletes as
  /// replay-duplicated — while the replay never re-delivers the
  /// pre-checkpoint rows it absorbed.
  uint64_t pinned_run_id_bound_ = 0;
  /// First non-cancellation error any entry point surfaced; Suspend
  /// returns it instead of a generic precondition failure.
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
};

}  // namespace topk

#endif  // TOPK_TOPK_OPTIMIZED_EXTERNAL_TOPK_H_
