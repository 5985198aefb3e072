#ifndef TOPK_TOPK_OPERATOR_FACTORY_H_
#define TOPK_TOPK_OPERATOR_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/spill_manager.h"
#include "topk/topk_operator.h"

namespace topk {

/// The top-k execution strategies the library implements (Sec 2.3-2.5 and
/// Sec 3 of the paper). Each is a TopKOperator with its own CutoffPolicy.
enum class TopKAlgorithm {
  /// The standard in-memory top-k algorithm (Sec 2.3): a priority queue
  /// holds the best k+offset rows seen so far, and its top entry is the
  /// current worst kept row and the cutoff key for eliminating further
  /// input. The BoundedHeapPolicy alone — the histogram operator's
  /// in-memory phase — with no way out of memory. Perfectly suitable while
  /// the requested output fits in memory — and, as the paper stresses,
  /// neither scalable nor robust beyond that: a row that does not fit the
  /// memory budget fails the query with OutOfMemory, and engines then fall
  /// back to an external operator. It needs no storage and supports
  /// neither Suspend nor manifest resume. A study that grants the heap
  /// whatever memory its output needs (Figure 6) sets memory_limit_bytes to
  /// std::numeric_limits<size_t>::max().
  kHeap,
  kTraditionalExternal,  // full external sort (Sec 2.4)
  kOptimizedExternal,    // Graefe 2008 baseline (Sec 2.5)
  kHistogram,            // the paper's algorithm (Sec 3)
};

std::string TopKAlgorithmName(TopKAlgorithm algorithm);
bool ParseTopKAlgorithm(const std::string& name, TopKAlgorithm* out);

/// Creates the requested operator, validating `options` for it.
Result<std::unique_ptr<TopKOperator>> MakeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options);

/// Resumes a suspended or crashed execution from the manifest named by
/// `options.manifest_filename` inside `options.spill_dir` (Sec 2.7's
/// pause-and-resume across process boundaries). Supported for the spilling
/// algorithms (kHistogram, kTraditionalExternal, kOptimizedExternal). Most
/// resumed operators accept no further input — call Finish() for the
/// result. The exception is an optimized-external execution restored from
/// a mid-input checkpoint: there resume_accepts_input() is true and the
/// caller must replay the input from resume_input_offset() before
/// Finish(). Runs failing verification are quarantined and recorded in
/// `report` rather than aborting.
Result<std::unique_ptr<TopKOperator>> ResumeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options,
    RestoreReport* report = nullptr);

/// Plans an approximate top-k query (Sec 4.5, first form: "the row count
/// may be approximate ... a 'top 100' request may produce 90, 100, or 110
/// rows") that may return up to `tolerance` (in [0, 1)) fewer rows than k.
/// Returns `options` with the histogram filter's target reduced to
/// approx_filter_k = k' + offset, where k' = max(1, ceil(k * (1 -
/// tolerance))); build the operator with
/// MakeTopKOperator(TopKAlgorithm::kHistogram, ...). The result is the
/// true top-m for some m in [k', k] when the input holds k' rows: the
/// cutoff filter targets k' rows, so its cutoff is established earlier and
/// sharpened more aggressively, and rows of the true top k beyond it may
/// be discarded. What survives is still an exact *prefix* of the global
/// order: fewer rows, never wrong rows. The paper's caution applies
/// verbatim: "even a conservatively estimated final cutoff key may lead to
/// fewer final result rows than requested".
Result<TopKOptions> ApproximateTopK(const TopKOptions& options,
                                    double tolerance);

}  // namespace topk

#endif  // TOPK_TOPK_OPERATOR_FACTORY_H_
