#ifndef TOPK_SORT_MERGE_PLANNER_H_
#define TOPK_SORT_MERGE_PLANNER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "row/row.h"
#include "sort/merger.h"

namespace topk {

/// Which runs an intermediate merge step consumes first.
enum class MergePolicy {
  /// Classic external sort: merge the smallest remaining runs, minimizing
  /// the work to reduce the run count.
  kSmallestRunsFirst,
  /// Top-k aware (Sec 4.1): "each merge step should choose the runs with
  /// the lowest keys, i.e., the runs produced most recently" — their rows
  /// are the likeliest to reach the output, and merging them sharpens the
  /// cutoff the most.
  kLowestKeysFirst,
};

struct MergePlannerOptions {
  /// Maximum runs merged in one step.
  size_t fan_in = 64;
  MergePolicy policy = MergePolicy::kLowestKeysFirst;
  /// Rows an intermediate run needs at most (k + offset for a top-k: a
  /// sorted intermediate never contributes beyond its first k+offset rows).
  uint64_t intermediate_limit = std::numeric_limits<uint64_t>::max();
  /// When set, intermediate merges stop at this filter's cutoff and propose
  /// their (k)th key back to it.
  CutoffFilter* filter = nullptr;
  /// WITH TIES queries: intermediate runs must keep key-ties of their
  /// limit-th row or the final merge could lose tied output rows.
  bool with_ties = false;
  /// Offset-value coding on each intermediate step's loser tree (see
  /// MergeOptions::use_ovc).
  bool use_ovc = DefaultOvcEnabled();
  /// Optional query cancellation token: polled before each intermediate
  /// step and per-row inside it (forwarded to MergeOptions::cancel). A
  /// completed step is durable before the next poll, so cancellation
  /// never strands a half-committed step. Not owned.
  const CancellationToken* cancel = nullptr;
};

struct MergePlanStats {
  uint64_t intermediate_steps = 0;
  uint64_t intermediate_rows_written = 0;
  uint64_t intermediate_rows_read = 0;
  /// Runs deleted unmerged by DropRunsBeyondCutoff.
  uint64_t runs_dropped = 0;
};

/// Reduces the SpillManager's registered runs to at most `fan_in` by
/// executing intermediate merge steps (consumed runs are deleted, each step
/// registers its output run). With a filter whose k covers
/// `intermediate_limit`, runs wholly beyond its cutoff are deleted unmerged
/// before every step and before the final run set is returned
/// (DropRunsBeyondCutoff). Returns the surviving runs, ready for a final
/// merge. Statistics about performed steps are added to `*stats` when
/// non-null.
Result<std::vector<RunMeta>> ReduceRunsForFinalMerge(
    SpillManager* spill, const RowComparator& comparator,
    const MergePlannerOptions& options, MergePlanStats* stats = nullptr);

/// Merges `inputs` (registered in `spill`) into one new run and commits it
/// crash-safely: the manifest never names a run whose file is gone.
/// `quota_exempt` exempts the output from the spill quota while it is
/// written (see SpillManager::NewRun). Intermediate merge steps, early
/// merges and quota consolidations all go through here.
Result<MergeStats> MergeIntoCommittedRun(SpillManager* spill,
                                         const std::vector<RunMeta>& inputs,
                                         const RowComparator& comparator,
                                         const MergeOptions& options,
                                         bool quota_exempt = false);

/// Deletes, without opening them, the registered runs that lie wholly
/// beyond `filter`'s cutoff: runs whose first key the filter eliminates,
/// by the same probe a merge stops on (so a run whose first key equals
/// the cutoff is kept). The cutoff proves at least k rows at or before it,
/// so no row of such a run can reach the output. The commit order is
/// MergeIntoCommittedRun's: release the runs, checkpoint and flush the
/// manifest, then delete the files. A no-op when the filter is
/// approximate (its k below `output_rows`, the k + offset the query
/// returns): its cutoff does not bound the exact output.
///
/// `input_complete` says the registered runs hold the whole input, so a
/// crash after the manifest flush is resumable; only then does the
/// `post-drop-checkpoint` crash point fire. Returns the runs deleted.
Result<uint64_t> DropRunsBeyondCutoff(SpillManager* spill,
                                      const CutoffFilter& filter,
                                      uint64_t output_rows,
                                      bool input_complete);

/// Orders runs by the chosen policy; exposed for tests.
void OrderRunsForMerge(std::vector<RunMeta>* runs,
                       const RowComparator& comparator, MergePolicy policy);

}  // namespace topk

#endif  // TOPK_SORT_MERGE_PLANNER_H_
