#ifndef TOPK_SORT_REPLACEMENT_SELECTION_H_
#define TOPK_SORT_REPLACEMENT_SELECTION_H_

#include <memory>
#include <vector>

#include "sort/run_generation.h"

namespace topk {

/// Replacement-selection run generation (Knuth Vol. 3; used by the paper's
/// production implementation, Sec 5.1.2). Rows live in a selection heap;
/// when memory is full the smallest row is spilled to the current run.
/// Incoming rows that can still extend the current run (they sort at or
/// after the last spilled row) are tagged for it; smaller rows are deferred
/// to the next run. Run generation therefore never stalls the input
/// ("pipelined operation", Sec 2.1) and runs average twice the memory size
/// on random input.
///
/// Variable-size rows are supported: the memory budget is tracked in bytes,
/// so the number of buffered rows floats with row sizes.
///
/// Physical runs are additionally cut at `run_row_limit` rows (the top-k
/// "limit run size to k" optimization); a cut mid-sequence is safe because
/// rows of one logical run pop in sorted order, so any contiguous slice of
/// them is itself a sorted run.
class ReplacementSelectionRunGenerator : public RunGenerator {
 public:
  ReplacementSelectionRunGenerator(SpillManager* spill,
                                   const RowComparator& comparator,
                                   const RunGeneratorOptions& options);

  Status Add(Row row) override;
  Status Flush() override;
  void SetCancel(const CancellationToken* cancel) override {
    options_.cancel = cancel;
  }
  const RunGeneratorStats& stats() const override { return stats_; }

  /// Logical run sequence currently being written (for tests).
  uint64_t current_run_seq() const { return current_seq_; }

 private:
  struct Entry {
    uint64_t run_seq;
    /// The row's sort order, encoded once at Add time: every heap sift
    /// compares two integers instead of re-running RowComparator, and a
    /// NaN key takes its defined place instead of corrupting the heap
    /// invariant.
    NormalizedKey norm;
    Row row;
  };

  /// Orders the selection heap: smallest (run_seq, normalized key) on top.
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.run_seq != b.run_seq) return a.run_seq > b.run_seq;
      return b.norm < a.norm;
    }
  };

  /// Spills the heap minimum, honoring elimination, run boundaries, and the
  /// physical row limit.
  Status SpillOne();
  Status CloseRun();
  Status EnsureWriter();

  SpillManager* spill_;
  RowComparator comparator_;
  RunGeneratorOptions options_;
  RunGeneratorStats stats_;

  /// Binary min-heap under EntryGreater, kept with std::push_heap and
  /// std::pop_heap so SpillOne can move the minimum out instead of copying
  /// it off a priority_queue's const top().
  std::vector<Entry> heap_;
  size_t buffered_bytes_ = 0;
  /// Lease covering buffered_bytes_ (detached without an arbiter).
  MemoryLease lease_;

  uint64_t current_seq_ = 0;
  bool has_last_spilled_ = false;
  /// Normalized key of the last row written to the current logical run;
  /// the can-this-row-extend-the-run test is one integer compare.
  NormalizedKey last_spilled_norm_;

  std::unique_ptr<RunWriter> writer_;
  uint64_t rows_in_physical_run_ = 0;
};

}  // namespace topk

#endif  // TOPK_SORT_REPLACEMENT_SELECTION_H_
