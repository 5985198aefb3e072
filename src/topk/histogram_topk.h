#ifndef TOPK_TOPK_HISTOGRAM_TOPK_H_
#define TOPK_TOPK_HISTOGRAM_TOPK_H_

#include <memory>

#include "topk/external_topk.h"

namespace topk {

/// The paper's algorithm (Sec 3): top-k by external merge sort with eager
/// input filtering guided by histograms — ExternalTopK with the histogram
/// filter policy.
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
///    which continuously sharpens the cutoff — even mid-run;
///  * a run whose first key falls beyond a sharpened cutoff is deleted
///    unopened (DropRunsBeyondCutoff), freeing its disk and spill quota.
///
/// The final result is produced by merging the surviving runs until k rows
/// are emitted, with lowest-keys-first intermediate merges that stop at the
/// cutoff and refine it (Sec 4.1); runs the cutoff has passed are dropped
/// before every merge step instead of being merged.
///
/// With TopKOptions::workers > 1, run generation runs on that many worker
/// threads, each with an equal share of the memory budget and all filtering
/// through the one cutoff filter (Sec 4.4: threads sharing one histogram
/// priority queue retain about as many rows as one thread). The input probe
/// stays on the consuming thread; everything else above — cancellation,
/// Suspend and resume, WITH TIES, the merges — is unchanged.
class HistogramTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<HistogramTopK>> Make(
      const TopKOptions& options) {
    return Open<HistogramTopK>(options, /*resume=*/false);
  }

  /// Reconstructs the merge phase of a suspended or crashed operator from
  /// the manifest in `options.manifest_filename` (Sec 2.7's pause-and-resume
  /// across process boundaries). Runs failing verification are quarantined
  /// and reported via `report` rather than aborting. The resumed operator
  /// accepts no further input: call Finish() to produce the result from the
  /// surviving runs. The cutoff filter is rebuilt from the per-run
  /// histograms the manifest preserved.
  static Result<std::unique_ptr<HistogramTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr) {
    return Open<HistogramTopK>(options, /*resume=*/true, report);
  }

  std::string name() const override { return "histogram"; }

 private:
  friend class ExternalTopK;
  explicit HistogramTopK(const TopKOptions& options);
};

}  // namespace topk

#endif  // TOPK_TOPK_HISTOGRAM_TOPK_H_
