#ifndef TOPK_SORT_MERGER_H_
#define TOPK_SORT_MERGER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "row/row.h"

namespace topk {

/// Receives merged rows in sorted order.
using RowSink = std::function<Status(Row&&)>;

struct MergeOptions {
  /// Stop after emitting this many rows (a top-k merge "ends when the row
  /// count desired for the final output is reached", Sec 4.1).
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// Rows to drop before the first emitted row (OFFSET support; rows still
  /// count as read).
  uint64_t skip = 0;

  /// SQL FETCH FIRST .. WITH TIES: after `limit` rows, keep emitting rows
  /// whose key equals the last emitted key. The cutoff filter never
  /// eliminates key-ties, so tied rows are guaranteed to still be present
  /// in the runs.
  bool with_ties = false;

  /// When set, the merge stops as soon as the next merged row is eliminated
  /// by the filter ("or when the value of the latest merged row exceeds the
  /// cutoff key", Sec 4.1): every remaining row sorts at or after it, so
  /// none can reach the output.
  const CutoffFilter* stop_filter = nullptr;

  /// When set, the kth merged row's key is proposed to this filter as a
  /// cutoff ("each merge step can also reduce the cutoff key", Sec 4.1).
  /// Useful when input remains unsorted and run generation continues.
  CutoffFilter* refine_filter = nullptr;

  /// Histogram-guided offset seek (Sec 4.1, filled by PlanOffsetSkip):
  /// when non-empty (parallel to the run list), each reader seeks past
  /// `seek_bytes[i]` of row data before merging; the `seek_rows_total`
  /// rows so skipped count against `skip`.
  std::vector<uint64_t> seek_bytes;
  uint64_t seek_rows_total = 0;

  /// Offset-value coding on the loser tree (Do & Graefe): each way carries
  /// its row's normalized key plus an offset-value code, so most tournament
  /// repairs are a single integer compare and only equal codes fall back to
  /// one key memcmp. Output is byte-identical either way; the off switch
  /// exists for the CI equivalence matrix and A/B benchmarks
  /// (sort.compare.count / sort.compare.ovc_hits quantify the win).
  bool use_ovc = DefaultOvcEnabled();

  /// Optional query cancellation token, polled once per merged row (one
  /// relaxed load): a cancelled merge unwinds within one row, cancelling
  /// its readers' in-flight prefetches on the way out. Not owned.
  const CancellationToken* cancel = nullptr;
};

struct MergeStats {
  uint64_t rows_read = 0;
  uint64_t rows_emitted = 0;
  uint64_t rows_skipped = 0;
  /// True when every input run was fully consumed (the merge did not stop
  /// early on limit/cutoff).
  bool exhausted_inputs = false;
  /// Key of the last emitted row (valid when rows_emitted > 0).
  double last_key = 0.0;
};

/// Merges `runs` (already registered in `spill`) with a loser tree and
/// streams the result to `sink` in query order. Does not delete the input
/// runs; callers decide (the planner removes consumed runs).
Result<MergeStats> MergeRuns(SpillManager* spill,
                             const std::vector<RunMeta>& runs,
                             const RowComparator& comparator,
                             const MergeOptions& options, const RowSink& sink);

}  // namespace topk

#endif  // TOPK_SORT_MERGER_H_
