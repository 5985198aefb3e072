#ifndef TOPK_EXTENSIONS_GROUPED_TOPK_H_
#define TOPK_EXTENSIONS_GROUPED_TOPK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "topk/topk_operator.h"

namespace topk {

/// Top-k within disjoint groups (Sec 4.3), e.g. "the 10 million most active
/// customers from each country". The principal difficulty is bookkeeping:
/// every group tracks its own histogram priority queue and cutoff key. Each
/// group gets its own histogram operator; sizing decisions (bucket
/// width, consolidation) are made independently per group, as the paper
/// prescribes for groups with few rows per run.
class GroupedTopK {
 public:
  struct Options {
    /// Per-group query shape and resources. memory_limit_bytes is the
    /// budget for EACH group's operator; spill directories are derived per
    /// group from spill_dir, which is removed with the GroupedTopK when it
    /// created it and it is left empty.
    TopKOptions per_group;
    /// Smaller histograms for grouped execution (paper: "Smaller histograms
    /// can reduce the size of the created input models"). Overrides
    /// per_group.histogram_buckets_per_run when non-zero.
    uint64_t grouped_buckets_per_run = 0;
  };

  struct GroupResult {
    uint64_t group = 0;
    std::vector<Row> rows;
  };

  static Result<std::unique_ptr<GroupedTopK>> Make(const Options& options);
  ~GroupedTopK();

  /// Routes `row` to its group's operator (created on first sight).
  Status Consume(uint64_t group, Row row);

  /// Finishes every group; results are ordered by group id.
  Result<std::vector<GroupResult>> Finish();

  size_t group_count() const { return groups_.size(); }
  const TopKOperator* group_operator(uint64_t group) const;

 private:
  explicit GroupedTopK(const Options& options);

  Result<TopKOperator*> GetOrCreateGroup(uint64_t group);

  Options options_;
  /// per_group.spill_dir did not exist before this object.
  bool owns_spill_dir_;
  std::map<uint64_t, std::unique_ptr<TopKOperator>> groups_;
  bool finished_ = false;
};

}  // namespace topk

#endif  // TOPK_EXTENSIONS_GROUPED_TOPK_H_
