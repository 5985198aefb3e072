#ifndef TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
#define TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_

#include <memory>

#include "topk/external_topk.h"

namespace topk {

/// The traditional fallback algorithm (Sec 2.4), as found in e.g.
/// PostgreSQL: once the input exceeds memory, externally sort *all* of it —
/// quicksort memory loads into full-size runs with no input filtering and
/// no run-size limit — then merge and stop after k rows. Its cost is
/// proportional to the input, which is precisely the performance cliff the
/// paper sets out to remove. ExternalTopK with the default CutoffPolicy,
/// which filters nothing.
///
/// If the whole input happens to fit in memory, it is sorted in place and
/// nothing spills.
class TraditionalExternalTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<TraditionalExternalTopK>> Make(
      const TopKOptions& options) {
    return Open<TraditionalExternalTopK>(options, /*resume=*/false);
  }

  /// Reconstructs the merge phase of a suspended or crashed execution from
  /// the manifest in `options.manifest_filename`. Runs failing verification
  /// are quarantined and reported via `report`. The resumed operator
  /// accepts no further input; Finish() merges the surviving runs.
  static Result<std::unique_ptr<TraditionalExternalTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr) {
    return Open<TraditionalExternalTopK>(options, /*resume=*/true, report);
  }

  std::string name() const override { return "traditional-external"; }

 private:
  friend class ExternalTopK;
  explicit TraditionalExternalTopK(const TopKOptions& options)
      : ExternalTopK(options, std::make_unique<CutoffPolicy>()) {}
};

}  // namespace topk

#endif  // TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
