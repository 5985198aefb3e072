#ifndef TOPK_TOPK_HISTOGRAM_TOPK_H_
#define TOPK_TOPK_HISTOGRAM_TOPK_H_

#include <memory>
#include <queue>
#include <vector>

#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "sort/run_generation.h"
#include "topk/topk_operator.h"

namespace topk {

/// The paper's algorithm (Sec 3): top-k by external merge sort with eager
/// input filtering guided by histograms.
///
/// Adaptive behaviour (Sec 3.1.1): while the requested output fits in the
/// memory budget the operator is exactly the in-memory priority-queue
/// algorithm and never touches storage; the moment memory overflows before
/// k+offset rows are buffered, it switches to run generation. From then on:
///
///  * every arriving row is tested against the cutoff key (Algorithm 1,
///    line 4) and dropped if it provably cannot reach the output;
///  * surviving rows enter replacement selection; rows leaving memory for a
///    run are tested again (line 11) because the cutoff may have sharpened
///    since they were admitted;
///  * each spilled row feeds the cutoff filter's histogram (line 13),
///    which continuously sharpens the cutoff — even mid-run.
///
/// The final result is produced by merging the surviving runs until k rows
/// are emitted, with lowest-keys-first intermediate merges that stop at the
/// cutoff and refine it (Sec 4.1).
class HistogramTopK : public TopKOperator {
 public:
  static Result<std::unique_ptr<HistogramTopK>> Make(
      const TopKOptions& options);

  /// Reconstructs the merge phase of a suspended or crashed operator from
  /// the manifest in `options.manifest_filename` (Sec 2.7's pause-and-resume
  /// across process boundaries). Runs failing verification are quarantined
  /// and reported via `report` rather than aborting. The resumed operator
  /// accepts no further input: call Finish() to produce the result from the
  /// surviving runs. The cutoff filter is rebuilt from the per-run
  /// histograms the manifest preserved.
  static Result<std::unique_ptr<HistogramTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr);

  ~HistogramTopK() override;  // out-of-line: FilterObserver is incomplete
                              // here

  Status Consume(Row row) override;
  Result<std::vector<Row>> Finish() override;

  /// Makes the operator's state durable and relinquishes it instead of
  /// producing a result: buffered rows are spilled (switching to external
  /// mode if needed), the manifest is written and flushed, and the spill
  /// directory is left on disk for a later ResumeFromManifest — possibly in
  /// another process. Requires options.manifest_filename. The operator is
  /// finished afterwards.
  Status Suspend() override;

  std::string name() const override { return "histogram"; }

  /// Current cutoff key (from the heap top in in-memory mode, from the
  /// histogram model in external mode).
  std::optional<double> cutoff() const;

  /// True once the operator switched to external (spilling) mode.
  bool is_external() const { return generator_ != nullptr || resumed_; }

  /// True for an operator reconstructed by ResumeFromManifest.
  bool is_resumed() const { return resumed_; }

  /// The cutoff filter (valid in external mode; for tests/benchmarks).
  const CutoffFilter* filter() const { return filter_.get(); }

 private:
  class FilterObserver;

  explicit HistogramTopK(const TopKOptions& options);

  Status SwitchToExternal();
  CutoffFilter::Options MakeFilterOptions(uint64_t expected_run_rows);

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Status SuspendImpl();

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus so the on_cancel policy applies.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff (flush, checkpoint, disown) so the spilled runs
  /// survive for ResumeFromManifest. A storage error during the handoff
  /// wins over the cancellation.
  Status OnCancelStatus(Status cause);

  /// Consolidates spilled runs early when the spill quota is nearly full
  /// (checked before every row handed to run generation): merges up to
  /// merge_fan_in registered runs — lowest keys first, stopping at the
  /// cutoff — into one quota-exempt output, then deletes the inputs. The
  /// cutoff filter usually makes the output much smaller than its inputs,
  /// so disk headroom is reclaimed *before* a block write trips the quota.
  /// Only after consolidation can no longer help does a write surface
  /// ResourceExhausted.
  Status MaybeConsolidateForQuota();
  Status ConsolidateSpillForQuota();

  TopKOptions options_;
  RowComparator comparator_;

  /// In-memory phase: query-order max-heap (top = worst kept row).
  std::priority_queue<Row, std::vector<Row>, RowComparator> heap_;
  /// WITH TIES, in-memory phase: boundary-key duplicates beyond the heap.
  std::vector<Row> ties_;
  size_t heap_bytes_ = 0;
  bool heap_saturated_ = false;  // holds k+offset rows; acts as HeapTopK
  /// Arbiter lease covering heap_bytes_ (in-memory phase).
  MemoryLease lease_;
  /// Arbiter lease covering the cutoff filter's bucket-queue budget,
  /// acquired at the external switch.
  MemoryLease filter_lease_;

  /// External phase.
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<CutoffFilter> filter_;
  std::unique_ptr<FilterObserver> observer_;
  std::unique_ptr<RunGenerator> generator_;

  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
  /// Built by ResumeFromManifest: runs come from a restored spill manager,
  /// there is no run generator, and Consume is rejected.
  bool resumed_ = false;
  /// First non-cancellation error any entry point surfaced. Suspend
  /// returns it instead of a generic precondition failure: the real cause
  /// of the operator's demise beats "Suspend after Finish".
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
  /// total_runs_created() at the last quota consolidation attempt; a new
  /// attempt waits for at least one new run so a consolidation that could
  /// not free enough space is not retried on every row.
  uint64_t runs_created_at_last_quota_merge_ = 0;
};

}  // namespace topk

#endif  // TOPK_TOPK_HISTOGRAM_TOPK_H_
