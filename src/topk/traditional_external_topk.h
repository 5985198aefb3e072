#ifndef TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
#define TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_

#include <memory>
#include <vector>

#include "io/spill_manager.h"
#include "sort/run_generation.h"
#include "topk/topk_operator.h"

namespace topk {

/// The traditional fallback algorithm (Sec 2.4), as found in e.g.
/// PostgreSQL: once the input exceeds memory, externally sort *all* of it —
/// quicksort memory loads into full-size runs with no input filtering and
/// no run-size limit — then merge and stop after k rows. Its cost is
/// proportional to the input, which is precisely the performance cliff the
/// paper sets out to remove.
///
/// If the whole input happens to fit in memory, it is sorted in place and
/// nothing spills.
class TraditionalExternalTopK : public TopKOperator {
 public:
  static Result<std::unique_ptr<TraditionalExternalTopK>> Make(
      const TopKOptions& options);

  /// Reconstructs the merge phase of a suspended or crashed execution from
  /// the manifest in `options.manifest_filename`. Runs failing verification
  /// are quarantined and reported via `report`. The resumed operator
  /// accepts no further input; Finish() merges the surviving runs.
  static Result<std::unique_ptr<TraditionalExternalTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr);

  Status Consume(Row row) override;
  Result<std::vector<Row>> Finish() override;

  /// Spills all buffered state, flushes the manifest, and leaves the spill
  /// directory on disk for a later ResumeFromManifest. Requires
  /// options.manifest_filename. The operator is finished afterwards.
  Status Suspend() override;

  std::string name() const override { return "traditional-external"; }

 private:
  explicit TraditionalExternalTopK(const TopKOptions& options);

  Status SwitchToExternal();

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Status SuspendImpl();

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff so the spilled runs survive for ResumeFromManifest.
  Status OnCancelStatus(Status cause);

  TopKOptions options_;
  RowComparator comparator_;

  /// In-memory phase.
  std::vector<Row> buffer_;
  size_t buffered_bytes_ = 0;
  /// Arbiter lease covering buffered_bytes_.
  MemoryLease lease_;

  /// External phase (created on first overflow).
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<RunGenerator> generator_;

  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
  /// Built by ResumeFromManifest: runs come from a restored spill manager,
  /// there is no run generator, and Consume is rejected.
  bool resumed_ = false;
  /// First non-cancellation error any entry point surfaced; Suspend
  /// returns it instead of a generic precondition failure.
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
};

}  // namespace topk

#endif  // TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
