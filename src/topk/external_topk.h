#ifndef TOPK_TOPK_EXTERNAL_TOPK_H_
#define TOPK_TOPK_EXTERNAL_TOPK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/run_generation.h"
#include "topk/topk_operator.h"

namespace topk {

class ExternalTopK;

/// The rows an ExternalTopK holds before it spills, and what they cost.
struct InMemoryRows {
  std::vector<Row> rows;
  /// WITH TIES: boundary-key duplicates a BoundedHeapPolicy keeps beside
  /// its heap in `rows`.
  std::vector<Row> ties;
  /// Bytes charged for `rows` and `ties` (footprint plus
  /// kPerRowOverheadBytes each).
  size_t bytes = 0;
  /// Arbiter lease covering `bytes`.
  MemoryLease lease;
};

/// What distinguishes the paper's four top-k algorithms. The external ones
/// are increments of one external merge sort: the traditional sort
/// (Sec 2.4) gains a run-size limit, a kth-key cutoff and an early merge
/// (Sec 2.5), then the histogram filter (Sec 3), whose in-memory phase is
/// the bounded priority queue of Sec 2.3; that heap alone, never spilling,
/// is the in-memory algorithm. ExternalTopK owns the operator around the
/// sort; a policy supplies only the steps where the algorithms differ.
///
/// The defaults are the traditional sort: buffer the whole input while it
/// fits, spill all of it into unlimited runs, merge smallest runs first.
class CutoffPolicy {
 public:
  CutoffPolicy() = default;
  // The run generator and the cutoff filter's callback hold its address.
  CutoffPolicy(const CutoffPolicy&) = delete;
  CutoffPolicy& operator=(const CutoffPolicy&) = delete;
  virtual ~CutoffPolicy() = default;

  /// Checks the options the policy alone reads.
  virtual Status ValidateOptions() const { return Status::OK(); }
  /// True when the policy's cutoff state serves parallel run generators
  /// (TopKOptions::workers > 1).
  virtual bool parallel_run_generation() const { return false; }
  /// False for the in-memory algorithm: it needs no storage, memory that
  /// overflows fails the query with OutOfMemory (Sec 2.3), and it cannot
  /// Suspend.
  virtual bool can_spill() const { return true; }

  /// In-memory phase: keeps `row` in memory, or returns false — leaving
  /// `row` untouched — when memory is full and the operator must switch to
  /// run generation. Default: buffer every row.
  virtual Result<bool> KeepInMemory(Row& row) {
    return Buffer(row, &memory().rows);
  }
  /// Hands the in-memory rows (ties aside) to run generation at the
  /// external switch.
  virtual Status SpillInMemoryRows(RunGenerator* generator) {
    for (Row& row : memory().rows) {
      TOPK_RETURN_NOT_OK(generator->Add(std::move(row)));
    }
    return Status::OK();
  }

  /// Sets up the cutoff state that runs alongside run generation and
  /// adjusts the generator's options. Called when the operator switches to
  /// external mode and when a replay-resume recreates the generator.
  virtual Status StartRunGeneration(RunGeneratorOptions* /*gen_options*/) {
    return Status::OK();
  }
  /// External phase: routes one input row into run generation.
  virtual Status ConsumeExternal(Row row) {
    return generator()->Add(std::move(row));
  }
  /// Makes the flushed run set durable in the manifest (Suspend and the
  /// keep-for-resume cancel).
  virtual Status MakeInputDurable() {
    TOPK_RETURN_NOT_OK(spill()->CheckpointManifest());
    return spill()->FlushManifest();
  }

  /// Shapes the intermediate merge steps. Default: classic external sort,
  /// smallest runs first, nothing dropped.
  virtual void ConfigureMerges(MergePlannerOptions* planner) const {
    planner->policy = MergePolicy::kSmallestRunsFirst;
  }
  /// Runs the final merge of `runs` into `sink`.
  virtual Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                        const MergeOptions& merge_options,
                                        const RowSink& sink) {
    return MergeRuns(spill(), runs, comparator(), merge_options, sink);
  }

  /// Rebuilds the policy's state from a reopened manifest. Returns the
  /// input row to replay from when the restored state accepts the input
  /// tail, nullopt when its runs already hold the whole input.
  virtual Result<std::optional<uint64_t>> Resume() {
    return std::optional<uint64_t>();
  }

  /// Current cutoff key, when one is established.
  virtual std::optional<double> cutoff() const { return std::nullopt; }
  /// The histogram cutoff filter, when the policy keeps one.
  virtual const CutoffFilter* filter() const { return nullptr; }

 protected:
  /// The operator state a policy works on.
  const TopKOptions& options() const;
  const RowComparator& comparator() const;
  OperatorStats& stats() const;
  InMemoryRows& memory() const;
  SpillManager* spill() const;
  RunGenerator* generator() const;

  /// Charges `row` against the memory budget and moves it into `*into`;
  /// false, leaving `row` untouched, when it does not fit.
  Result<bool> Buffer(Row& row, std::vector<Row>* into);

  /// Merges `inputs` into one committed run of at most k+offset rows (plus
  /// ties) while input is still arriving (MergeIntoCommittedRun), charging
  /// the merge to the operator's stats. A `filter` stops the merge at its
  /// cutoff and is refined by it. The output is not a run-generation run,
  /// so runs_created leaves it out.
  Result<MergeStats> MergeDuringInput(const std::vector<RunMeta>& inputs,
                                      CutoffFilter* filter, bool quota_exempt);

 private:
  friend class ExternalTopK;
  ExternalTopK* op_ = nullptr;
};

/// The bounded priority queue of Sec 2.3 as the in-memory phase: the rows
/// form a query-order max-heap (top = worst kept row) of at most k+offset
/// rows, and WITH TIES keeps the boundary key's duplicates beside it. Every
/// row that grows the footprint is checked against the memory budget
/// first; one that does not fit is left untouched for the operator to
/// spill or fail on. Rows leave the heap by move, so the bytes released are
/// the bytes that were charged.
class BoundedHeapPolicy : public CutoffPolicy {
 public:
  Result<bool> KeepInMemory(Row& row) override;
  Status SpillInMemoryRows(RunGenerator* generator) override;
  /// The heap top once the heap holds k+offset rows.
  std::optional<double> cutoff() const override;

 private:
  /// The heap holds k+offset rows.
  bool saturated_ = false;
};

/// External merge sort for top-k queries: the shell the heap, traditional,
/// optimized and histogram operators share. It owns the entry points and
/// their guards (observability scope, allocation containment, the
/// first-error latch, cancellation with the keep-for-resume handoff), the
/// in-memory phase and its result slice, the switch to run generation, the
/// flush → manifest → merge sequence that keeps a failed query resumable,
/// Suspend, and reopening a manifest. The CutoffPolicy decides what is
/// filtered, how runs are cut, and how they are merged.
///
/// HeapTopK, TraditionalExternalTopK, OptimizedExternalTopK and
/// HistogramTopK are named configurations of this class.
class ExternalTopK : public TopKOperator {
 public:
  Status Consume(Row row) final;
  Result<std::vector<Row>> Finish() final;

  /// Requires options.manifest_filename; spills what is still buffered.
  /// FailedPrecondition for a policy that cannot spill.
  Status Suspend() final;

  bool resume_accepts_input() const final {
    return resumed_ && generator_ != nullptr;
  }
  uint64_t resume_input_offset() const final { return resume_input_offset_; }

  /// Current cutoff key: the policy's, or none.
  std::optional<double> cutoff() const { return policy_->cutoff(); }

  /// True once the operator switched to external (spilling) mode.
  bool is_external() const { return generator_ != nullptr || resumed_; }

  /// True for an operator reconstructed by ResumeFromManifest.
  bool is_resumed() const { return resumed_; }

  /// The cutoff filter (histogram policy in external mode; for
  /// tests/benchmarks).
  const CutoffFilter* filter() const { return policy_->filter(); }

 protected:
  ExternalTopK(const TopKOptions& options,
               std::unique_ptr<CutoffPolicy> policy);

  /// The bodies of the named configurations' Make and ResumeFromManifest:
  /// validates `options`, builds an `Op`, and for a resume reopens the
  /// manifest in options.manifest_filename. Runs failing verification are
  /// quarantined and reported via `report`.
  template <typename Op>
  static Result<std::unique_ptr<Op>> Open(const TopKOptions& options,
                                          bool resume,
                                          RestoreReport* report = nullptr) {
    std::unique_ptr<Op> op(new Op(options));
    TOPK_RETURN_NOT_OK(
        ValidateTopKOptions(options, op->policy_->can_spill(),
                            op->policy_->parallel_run_generation()));
    TOPK_RETURN_NOT_OK(op->policy_->ValidateOptions());
    if (resume) TOPK_RETURN_NOT_OK(op->Reopen(report));
    return op;
  }

 private:
  friend class CutoffPolicy;

  Status Reopen(RestoreReport* report);

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Status SuspendImpl();

  Status SwitchToExternal();
  Status CreateGenerator();
  /// Flushes run generation and makes the complete run set durable.
  Status FlushRuns();
  /// Suspend's durable handoff, short of disowning the directory: flush
  /// run generation with cancellation detached, then checkpoint and flush
  /// the manifest.
  Status MakeDurable();
  void CollectRunStats();
  /// Intermediate merge steps, then the final merge into `result`.
  Status MergeRunsInto(std::vector<Row>* result);

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus so the on_cancel policy applies.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff (flush, checkpoint, disown) so the spilled runs
  /// survive for ResumeFromManifest. A storage error during the handoff
  /// wins over the cancellation.
  Status OnCancelStatus(Status cause);
  /// Latches the first non-cancellation error an entry point surfaced.
  void NoteError(const Status& status);

  TopKOptions options_;
  RowComparator comparator_;
  std::unique_ptr<CutoffPolicy> policy_;

  /// In-memory phase.
  InMemoryRows memory_;

  /// External phase (created on the first overflow). The generator is
  /// declared after the spill manager and the policy so it is destroyed
  /// before them: it writes into the one and may observe through the
  /// other.
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<RunGenerator> generator_;

  /// Runs MergeDuringInput registered; not run-generation runs.
  uint64_t input_merge_runs_ = 0;

  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
  /// Built by ResumeFromManifest. With a generator the operator accepts
  /// the replayed input tail; without one it is merge-phase only.
  bool resumed_ = false;
  /// Input rows the restored state already covers (resume replays from
  /// here).
  uint64_t resume_input_offset_ = 0;
  /// First non-cancellation error any entry point surfaced. Suspend
  /// returns it instead of a generic precondition failure: the real cause
  /// of the operator's demise beats "Suspend after Finish".
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
};

inline const TopKOptions& CutoffPolicy::options() const {
  return op_->options_;
}
inline const RowComparator& CutoffPolicy::comparator() const {
  return op_->comparator_;
}
inline OperatorStats& CutoffPolicy::stats() const { return op_->stats_; }
inline InMemoryRows& CutoffPolicy::memory() const { return op_->memory_; }
inline SpillManager* CutoffPolicy::spill() const { return op_->spill_.get(); }
inline RunGenerator* CutoffPolicy::generator() const {
  return op_->generator_.get();
}

}  // namespace topk

#endif  // TOPK_TOPK_EXTERNAL_TOPK_H_
