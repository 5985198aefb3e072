#ifndef TOPK_EXTENSIONS_SEGMENTED_TOPK_H_
#define TOPK_EXTENSIONS_SEGMENTED_TOPK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "topk/topk_operator.h"

namespace topk {

/// Segmented execution for partially sorted inputs (Sec 4.2): when the
/// input order and the top-k ORDER BY clause share a prefix, the sort
/// proceeds segment by segment (one segment per distinct prefix value) and
/// stops — ignoring all later segments — once k rows have been produced.
///
/// Earlier segments are "required in their entirety" (no filtering gain);
/// the paper's optimizations apply to the last relevant segment, whose
/// operator here runs the histogram algorithm with k reduced to the rows
/// still missing.
class SegmentedTopK {
 public:
  struct Options {
    /// Query shape and resources used for each segment's inner operator.
    /// Segment spill directories are derived from base.spill_dir, which is
    /// removed with the SegmentedTopK when it created it and it is left
    /// empty.
    TopKOptions base;
  };

  struct SegmentedRow {
    uint64_t segment = 0;
    Row row;
  };

  static Result<std::unique_ptr<SegmentedTopK>> Make(const Options& options);
  ~SegmentedTopK();

  /// Consumes the next row. Segment ids must be non-decreasing (the input
  /// is sorted by the shared prefix); a smaller id than an earlier one is
  /// InvalidArgument. Rows of segments past the point where k rows are
  /// already guaranteed are discarded without work.
  Status Consume(uint64_t segment, Row row);

  /// Rows in (segment, key) order, exactly min(k, input size) of them.
  Result<std::vector<SegmentedRow>> Finish();

  /// Rows still needed from current/future segments (k minus completed
  /// segments' output).
  uint64_t remaining_needed() const { return remaining_; }
  /// True once enough segments completed to satisfy k (later segments are
  /// being ignored).
  bool saturated() const { return remaining_ == 0; }
  /// Input rows skipped because the query was already satisfied.
  uint64_t rows_ignored() const { return rows_ignored_; }

 private:
  explicit SegmentedTopK(const Options& options);

  Status CloseCurrentSegment();
  Status OpenSegment(uint64_t segment);

  Options options_;
  /// base.spill_dir did not exist before this object.
  bool owns_spill_dir_;
  uint64_t remaining_;
  uint64_t rows_ignored_ = 0;

  std::optional<uint64_t> current_segment_;
  std::unique_ptr<TopKOperator> current_op_;
  uint64_t segment_counter_ = 0;  // distinct spill dir per segment

  std::vector<SegmentedRow> output_;
  bool finished_ = false;
};

}  // namespace topk

#endif  // TOPK_EXTENSIONS_SEGMENTED_TOPK_H_
