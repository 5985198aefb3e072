#ifndef TOPK_TOPK_HEAP_TOPK_H_
#define TOPK_TOPK_HEAP_TOPK_H_

#include <memory>

#include "topk/external_topk.h"

namespace topk {

/// The standard in-memory top-k algorithm (Sec 2.3): a priority queue holds
/// the best k+offset rows seen so far, its top entry is the current worst
/// kept row and serves as the cutoff key for eliminating further input.
/// ExternalTopK with the bounded heap alone — the histogram operator's
/// in-memory phase — and no way out of memory.
///
/// Perfectly suitable while the requested output fits in memory — and, as
/// the paper stresses, neither scalable nor robust beyond that: a row that
/// does not fit the memory budget fails the query with OutOfMemory, and
/// engines then fall back to an external operator. It needs no storage and
/// supports neither Suspend nor manifest resume. A study that grants the
/// heap whatever memory its output needs (Figure 6) sets
/// memory_limit_bytes to std::numeric_limits<size_t>::max().
class HeapTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<HeapTopK>> Make(const TopKOptions& options) {
    return Open<HeapTopK>(options, /*resume=*/false);
  }

  std::string name() const override { return "heap"; }

 private:
  friend class ExternalTopK;

  class NeverSpillPolicy final : public BoundedHeapPolicy {
    bool can_spill() const override { return false; }
  };

  explicit HeapTopK(const TopKOptions& options)
      : ExternalTopK(options, std::make_unique<NeverSpillPolicy>()) {}
};

}  // namespace topk

#endif  // TOPK_TOPK_HEAP_TOPK_H_
