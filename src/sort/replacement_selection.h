#ifndef TOPK_SORT_REPLACEMENT_SELECTION_H_
#define TOPK_SORT_REPLACEMENT_SELECTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sort/run_generation.h"

namespace topk {

/// Replacement-selection run generation (Knuth Vol. 3; used by the paper's
/// production implementation, Sec 5.1.2). Buffered rows sit in a selection
/// tree; when memory is full the smallest row is spilled to the current run.
/// Incoming rows that can still extend the current run (they sort at or
/// after the last spilled row) are tagged for it; smaller rows are deferred
/// to the next run. Run generation therefore never stalls the input
/// ("pipelined operation", Sec 2.1) and runs average twice the memory size
/// on random input.
///
/// The selection structure is a tournament tree of winners over a stable
/// slot table (the tree-of-losers idea of Do & Graefe's run generation, in
/// its winner form so that any slot can be refilled). A row is serialized
/// once, at Add, into the wire-format bytes its run file will carry, in a
/// buffer its slot owns; selection only ever touches the compact {run_seq,
/// normalized key, slot} nodes, and a spill copies the slot's bytes to the
/// run writer. An Add that must spill fuses the push and the pop: the
/// incoming row is serialized straight to the run when it sorts before the
/// tree's winner, and otherwise the winner's bytes are written and the
/// incoming row is serialized into the buffer they leave, with one
/// leaf-to-root replay. Rows therefore spill in exactly the order a
/// push-then-pop-minimum priority queue would give, and a spill copies
/// bytes that were just touched instead of chasing and freeing a payload
/// allocated thousands of rows earlier.
///
/// Variable-size rows are supported: the memory budget is tracked in bytes,
/// so the number of buffered rows floats with row sizes. A row is charged
/// what it occupied as it arrived (Row::MemoryFootprint() plus
/// kPerRowOverheadBytes), and a spill returns exactly that charge. A slot
/// reuses its buffer only while the buffer and the slot record fit the new
/// row's charge, so the bytes held never exceed the bytes charged.
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

  Status Add(const Row& row) override;
  Status Flush() override;
  void SetCancel(const CancellationToken* cancel) override {
    options_.cancel = cancel;
  }
  const RunGeneratorStats& stats() const override { return sink_.stats(); }

  /// Logical run sequence currently being written (for tests).
  uint64_t current_run_seq() const { return current_seq_; }
  /// Bytes charged for the buffered rows (for tests).
  size_t buffered_bytes() const { return sink_.buffered_bytes(); }
  /// Bytes the buffered rows occupy: slot records and wire buffers (for
  /// tests). Never above buffered_bytes().
  size_t held_bytes() const;

 private:
  /// One tournament-tree node: the selection key of a buffered row and the
  /// slot holding it. The key is the row's sort order, encoded once at Add
  /// time, so every tournament match is integer comparisons and a NaN key
  /// takes its defined place.
  struct Node {
    uint64_t run_seq;
    NormalizedKey norm;
    size_t slot;
  };
  /// The run_seq of an empty slot's leaf: it loses to every row.
  static constexpr uint64_t kEmptyRunSeq = ~uint64_t{0};

  /// True when `a` is spilled before `b`: smaller (run_seq, normalized key).
  static bool Before(const Node& a, const Node& b) {
    if (a.run_seq != b.run_seq) return a.run_seq < b.run_seq;
    return a.norm < b.norm;
  }
  static const Node& Winner(const Node& left, const Node& right) {
    return Before(right, left) ? right : left;
  }
  /// The slot table's first size; it doubles whenever every slot is full.
  static constexpr size_t kMinSlots = 64;

  /// One buffered row: its key and id (all a spill observer is shown), the
  /// bytes Add charged for it, and its wire-format bytes in a buffer the
  /// slot owns and reuses for the next row placed in it.
  struct Slot {
    double key = 0.0;
    uint64_t id = 0;
    size_t charge = 0;
    std::unique_ptr<char[]> wire;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// Recomputes the winners on the path from `slot`'s leaf to the root.
  void Replay(size_t slot);
  /// Serializes `row` into a free slot, doubling the slot table when none
  /// is free.
  void Place(const Node& key, const Row& row, size_t charge);
  /// Serializes `row` into `slot`, reusing its buffer when that fits.
  static void Store(const Row& row, size_t charge, Slot* slot);
  /// Spills the winner and empties its slot.
  Status SpillWinner();
  /// The spill side of one push-then-pop-minimum: spills the incoming row
  /// when it sorts before the winner, otherwise spills the winner and puts
  /// the incoming row in its slot.
  Status SpillFused(const Node& key, const Row& row, size_t charge);
  /// Hands one row that is leaving the buffer to the sink, first closing
  /// the run when the row starts the next logical one.
  Status SpillRow(const Node& node, double key, uint64_t id,
                  std::string_view wire);

  RowComparator comparator_;
  RunGeneratorOptions options_;
  RunSink sink_;

  /// Tournament tree of winners: the leaf of slot s is
  /// tree_[slots_.size() + s], the children of node i are 2i and 2i + 1
  /// (adjacent, so one match reads one pair), and tree_[1] is the next row
  /// to spill. tree_[0] is unused.
  std::vector<Node> tree_;
  /// Buffered rows by slot; a row stays in its slot until it is spilled.
  std::vector<Slot> slots_;
  std::vector<size_t> free_slots_;
  size_t rows_buffered_ = 0;

  uint64_t current_seq_ = 0;
  bool has_last_spilled_ = false;
  /// Normalized key of the last row written to the current logical run;
  /// the can-this-row-extend-the-run test is one integer compare.
  NormalizedKey last_spilled_norm_;

  /// Wire bytes of an incoming row spilled without entering the tree.
  std::string incoming_wire_;
};

}  // namespace topk

#endif  // TOPK_SORT_REPLACEMENT_SELECTION_H_
