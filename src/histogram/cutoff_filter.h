#ifndef TOPK_HISTOGRAM_CUTOFF_FILTER_H_
#define TOPK_HISTOGRAM_CUTOFF_FILTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "histogram/bucket.h"
#include "histogram/sizing_policy.h"
#include "row/row.h"

namespace topk {

/// The paper's core contribution (Sec 3.1.2): a concise model of the input
/// built from per-run histograms, from which a cutoff key is derived and
/// continuously sharpened while runs are still being written.
///
/// Mechanics (ascending query; descending is symmetric):
///  * As rows are spilled to a run, the sizing policy closes buckets
///    (boundary key, row count) which are pushed into a priority queue
///    ordered by boundary *descending* — the inverse of the query order.
///  * A cutoff key exists once the bucket counts in the queue sum to >= k:
///    the buckets then prove that at least k rows sort at or before the
///    queue's top boundary, so any row strictly beyond it cannot be in the
///    output. The cutoff is that top boundary.
///  * After every insertion the filter pops while `sum - top.count >= k`,
///    which sharpens the cutoff to the next smaller boundary.
///  * Because buckets are inserted while the current run is still being
///    written, the sharpened cutoff can truncate the very run that produced
///    it.
///
/// Memory is bounded (Sec 5.1.2): when the queue exceeds its budget, a
/// consolidation step replaces all buckets with a single bucket whose
/// boundary is the current top boundary and whose count is the sum — the
/// cost of one insertion, and the filter's guarantee is preserved.
///
/// Threads that share an address space may share one filter (Sec 4.4).
/// The probes read the published cutoff without a lock, from any thread.
/// InsertBucket and ProposeCutoff take the filter's mutex, once per bucket
/// or proposal, never per row; the cutoff they publish only ever tightens.
/// RowSpilled and RunFinished go through the filter's own Spiller and serve
/// one spilling thread; each of several concurrent spillers keeps a Spiller
/// of its own.
class CutoffFilter {
 public:
  /// What happens when the bucket queue exceeds its memory budget.
  enum class ConsolidationPolicy {
    /// The paper's policy (Sec 5.1.2): replace every bucket with a single
    /// one. Simple, but if the merged count dominates the queue the big
    /// bucket can never be popped (popping needs the *other* buckets to
    /// prove k rows), freezing the cutoff when the budget is far below
    /// k-rows-worth of buckets.
    kFull,
    /// Merge only the worst half of the queue into one bucket AND double
    /// the bucket width for future runs (the paper's "sizing policy
    /// determines the new buckets" adaptively). The sharp low-boundary
    /// buckets survive, and coarser future buckets let a bounded queue
    /// still accumulate k provable rows, so the cutoff keeps refining
    /// under tiny budgets (see bench/ablation_consolidation). Same
    /// validity argument as kFull.
    kAdaptive,
  };

  /// Passed to Options::on_cutoff_change every time the cutoff key moves
  /// (establishment or tightening). Drives the cutoff-evolution timeline in
  /// traces; all fields are the filter's own state — callers layer on
  /// operator context (rows consumed, pass rate) themselves.
  struct CutoffUpdate {
    double cutoff = 0.0;
    /// False for the very first cutoff, true for every sharpening after.
    bool tightened = false;
    /// True when the new value came from ProposeCutoff (merge output)
    /// rather than histogram refinement.
    bool proposed = false;
    uint64_t tracked_rows = 0;
    size_t bucket_count = 0;
    uint64_t buckets_inserted = 0;
    uint64_t consolidations = 0;
  };

  struct Options {
    /// Requested output size (LIMIT k plus any OFFSET).
    uint64_t k = 0;
    SortDirection direction = SortDirection::kAscending;
    /// Target histogram buckets collected per run (paper default: 50).
    /// 0 disables filtering entirely.
    uint64_t target_buckets_per_run = 50;
    /// Expected run size in rows, used to derive the bucket width.
    uint64_t target_run_rows = 0;
    /// Memory budget for the bucket priority queue (paper default: 1 MB).
    size_t memory_limit_bytes = 1 << 20;
    ConsolidationPolicy consolidation = ConsolidationPolicy::kFull;
    /// Invoked (synchronously, on the mutating thread, under the filter's
    /// mutex) whenever the cutoff is established or sharpened. Must be
    /// cheap and must not reenter the filter.
    std::function<void(const CutoffUpdate&)> on_cutoff_change;
  };

  explicit CutoffFilter(const Options& options);

  /// True when `row` provably cannot be in the top-k output. Always false
  /// until a cutoff key is established. Rows whose key equals the cutoff are
  /// never eliminated (ties with the kth key may be needed). The cutoff is
  /// held in normalized form (row/normalized_key.h), so a probe is one
  /// integer compare — and NaN / -0.0 keys order exactly as they sort.
  /// Lock-free from any thread: one relaxed load of the published cutoff.
  bool Eliminate(const Row& row) const { return EliminateKey(row.key); }
  bool EliminateKey(double key) const {
    return EliminateNormalizedKey(
        NormalizeDoubleKey(key, comparator_.direction()));
  }
  /// Probe with an already-normalized key (the merge loop carries one per
  /// way); must be encoded with this filter's direction.
  bool EliminateNormalizedKey(uint64_t key_norm) const {
    return key_norm > cutoff_norm_.load(std::memory_order_relaxed);
  }

  /// Accounts a row that was written to the current run (Algorithm 1's
  /// rowSpilled). May close a bucket, insert it into the model, and sharpen
  /// the cutoff.
  void RowSpilled(double key) { spiller_.RowSpilled(key); }

  /// Marks the end of the current run; returns the histogram collected from
  /// it (for RunMeta). The partial tail bucket is discarded.
  std::vector<HistogramBucket> RunFinished() { return spiller_.RunFinished(); }

  /// Inserts an externally produced bucket (merge-step refinement, Sec 4.1,
  /// or a peer's buckets in parallel execution, Sec 4.4).
  void InsertBucket(HistogramBucket bucket);

  /// Directly proposes a cutoff candidate known to be valid (e.g. the kth
  /// key of a merge output). Adopted only if sharper than the current one.
  void ProposeCutoff(double key);

  /// The current cutoff key, if established. Safe from any thread; a
  /// thread never sees it loosen.
  std::optional<double> cutoff() const {
    if (!has_cutoff_.load(std::memory_order_acquire)) return std::nullopt;
    return cutoff_.load(std::memory_order_relaxed);
  }

  /// The spill side of Algorithm 1 (line 13) for one of several threads
  /// spilling through one filter (Sec 4.4). Each spiller builds its own
  /// run histograms, and only closed buckets reach the shared model, so
  /// the filter's mutex is taken once per bucket. Its bucket width follows
  /// the filter's adaptive coarsening (rows_per_bucket_).
  class Spiller {
   public:
    explicit Spiller(CutoffFilter* filter)
        : filter_(filter), builder_(filter->policy_) {}

    /// RowSpilled for this spiller's current run.
    void RowSpilled(double key);
    /// RunFinished for this spiller's current run.
    std::vector<HistogramBucket> RunFinished() {
      return builder_.FinishRun();
    }

   private:
    CutoffFilter* filter_;
    RunHistogramBuilder builder_;
  };

  // --- introspection (tests, stats, benchmarks) ---
  // These read the model unlocked: call them while no thread mutates it.
  /// Bytes the model charges per tracked bucket — the unit to use when
  /// sizing memory_limit_bytes as "N buckets". Larger than the persisted
  /// HistogramBucket: the in-memory form also carries the pre-normalized
  /// boundary.
  static size_t BucketBytes();
  uint64_t k() const { return k_; }
  size_t bucket_count() const { return queue_.size(); }
  /// Sum of bucket counts currently in the model.
  uint64_t tracked_rows() const { return tracked_rows_; }
  uint64_t consolidations() const { return consolidations_; }
  uint64_t buckets_inserted() const { return buckets_inserted_; }
  uint64_t buckets_popped() const { return buckets_popped_; }
  size_t memory_bytes() const { return queue_.size() * sizeof(NormBucket); }
  const RowComparator& comparator() const { return comparator_; }

 private:
  /// A bucket as stored in the model: the boundary is pre-encoded into its
  /// normalized form, so every queue reorder and every refinement compare
  /// is one integer compare (the double is retained for RunMeta histograms
  /// and stats — persistence stays in doubles). Ordering is decided once,
  /// at insert time; a NaN boundary takes the defined last-in-direction
  /// slot instead of breaking the priority queue's invariants.
  struct NormBucket {
    uint64_t norm_boundary = 0;
    double boundary = 0.0;
    uint64_t count = 0;
  };

  /// InsertBucket with mu_ held.
  void InsertBucketLocked(HistogramBucket bucket);
  /// Pops buckets while the model still proves k rows without the top
  /// bucket; updates the cutoff.
  void Refine();
  void MaybeConsolidate();
  void SetCutoff(uint64_t norm, double key, bool proposed);
  /// Fires on_cutoff_change after the cutoff moved.
  void NotifyCutoffChange(bool tightened, bool proposed) const;

  /// Orders the priority queue inversely to the query direction: the top
  /// bucket carries the *worst* boundary (largest normalized value — for
  /// ascending queries, the largest key).
  struct BucketWorse {
    bool operator()(const NormBucket& a, const NormBucket& b) const {
      if (a.norm_boundary != b.norm_boundary) {
        return a.norm_boundary < b.norm_boundary;
      }
      return a.count < b.count;
    }
  };

  uint64_t k_;
  RowComparator comparator_;
  size_t memory_limit_bytes_;
  ConsolidationPolicy consolidation_;
  BucketSizingPolicy policy_;
  /// The bucket width Spillers use: the policy's, doubled by each adaptive
  /// consolidation step. Spillers catch up to it under mu_.
  uint64_t rows_per_bucket_;

  /// Guards the bucket model: queue_, tracked_rows_, rows_per_bucket_ and
  /// the counters.
  mutable std::mutex mu_;
  std::priority_queue<NormBucket, std::vector<NormBucket>, BucketWorse>
      queue_;
  uint64_t tracked_rows_ = 0;
  /// The published cutoff: written under mu_, read lock-free. cutoff_norm_
  /// is stored before has_cutoff_ is released, and is the maximum (which
  /// eliminates nothing) until a cutoff exists.
  std::atomic<bool> has_cutoff_{false};
  std::atomic<double> cutoff_{0.0};
  /// cutoff_ in normalized form; the hot probes compare against this.
  std::atomic<uint64_t> cutoff_norm_{std::numeric_limits<uint64_t>::max()};

  uint64_t consolidations_ = 0;
  uint64_t buckets_inserted_ = 0;
  uint64_t buckets_popped_ = 0;

  std::function<void(const CutoffUpdate&)> on_cutoff_change_;

  /// RowSpilled and RunFinished's spiller. Declared last: it reads policy_.
  Spiller spiller_;
};

}  // namespace topk

#endif  // TOPK_HISTOGRAM_CUTOFF_FILTER_H_
