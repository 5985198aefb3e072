#ifndef TOPK_TOPK_HEAP_TOPK_H_
#define TOPK_TOPK_HEAP_TOPK_H_

#include <memory>
#include <queue>
#include <vector>

#include "topk/topk_operator.h"

namespace topk {

/// The standard in-memory top-k algorithm (Sec 2.3): a priority queue holds
/// the best k+offset rows seen so far, its top entry is the current worst
/// kept row and serves as the cutoff key for eliminating further input.
///
/// Perfectly suitable while the requested output fits in memory — and, as
/// the paper stresses, neither scalable nor robust beyond that: when the
/// heap would exceed the memory budget this operator fails with
/// OutOfMemory (unless allow_unbounded_memory is set, as in the Figure 6
/// provisioning study). Engines then fall back to an external operator.
class HeapTopK : public TopKOperator {
 public:
  static Result<std::unique_ptr<HeapTopK>> Make(const TopKOptions& options);

  Status Consume(Row row) override;
  Result<std::vector<Row>> Finish() override;
  std::string name() const override { return "heap"; }

  /// Current cutoff (top of the heap) once the heap holds k+offset rows.
  std::optional<double> cutoff() const;

 private:
  explicit HeapTopK(const TopKOptions& options);

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();

  TopKOptions options_;
  RowComparator comparator_;
  /// Query-order max-heap: top is the worst retained row.
  std::priority_queue<Row, std::vector<Row>, RowComparator> heap_;
  /// WITH TIES: rows whose key equals the heap top's key but which did not
  /// displace anything. Unbounded — the Sec 2.3 robustness hazard; growth
  /// is charged against the memory budget like heap rows.
  std::vector<Row> ties_;
  size_t heap_bytes_ = 0;
  /// Arbiter lease covering heap_bytes_ (detached when the effective
  /// arbiter is the unlimited global one — it still accounts).
  MemoryLease lease_;
  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
};

}  // namespace topk

#endif  // TOPK_TOPK_HEAP_TOPK_H_
