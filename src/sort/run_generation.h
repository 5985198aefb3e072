#ifndef TOPK_SORT_RUN_GENERATION_H_
#define TOPK_SORT_RUN_GENERATION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/memory_accounting.h"
#include "common/resource_arbiter.h"
#include "common/result.h"
#include "common/status.h"
#include "histogram/bucket.h"
#include "io/spill_manager.h"
#include "obs/obs_context.h"
#include "row/normalized_key.h"
#include "row/row.h"

namespace topk {

/// How an external operator generates its sorted runs.
enum class RunGenerationKind {
  kQuicksort,             // load-sort-store (PostgreSQL-style)
  kReplacementSelection,  // pipelined, the paper's production choice
};

/// Hook invoked by run generators around every spill. This is how the
/// cutoff filter logic of Algorithm 1 attaches to any run-generation
/// algorithm ("the cutoff filter logic ... can be combined with any
/// run-generation algorithm", Sec 3.1.2): the observer re-checks rows right
/// before they hit secondary storage (line 11) and accounts written rows
/// into the input model (line 13).
///
/// The run generators hold rows serialized, so the `Row` each hook
/// receives carries the row's key and id only; its payload is empty.
class SpillObserver {
 public:
  virtual ~SpillObserver() = default;

  /// Returns true when `row` must be dropped instead of written. Called
  /// with rows in run order.
  virtual bool EliminateAtSpill(const Row& row) {
    (void)row;
    return false;
  }

  /// `row` was appended to the current run.
  virtual void OnRowSpilled(const Row& row) { (void)row; }

  /// The current run was closed; returns the histogram collected from it
  /// (stored into RunMeta::histogram).
  virtual std::vector<HistogramBucket> OnRunFinished() { return {}; }
};

struct RunGeneratorOptions {
  /// Operator memory budget for buffered rows.
  size_t memory_limit_bytes = 64 << 20;
  /// Maximum rows per physical run; top-k operators set this to k+offset
  /// ("limiting the size of each run to the final output size", Sec 2.4).
  uint64_t run_row_limit = std::numeric_limits<uint64_t>::max();
  /// Optional spill hook (cutoff filter). Not owned.
  SpillObserver* observer = nullptr;
  /// Seek-index granularity of produced runs (rows per RunIndexEntry).
  uint64_t run_index_stride = kDefaultIndexStride;
  /// Optional query cancellation token, polled per spilled row: a spill
  /// of a whole memory load (potentially seconds on slow storage) unwinds
  /// within one row of a cancel. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Memory arbiter the generator leases its row buffer from (not owned;
  /// nullptr = unaccounted, the legacy behaviour). Under soft pressure the
  /// generator spills early — at half its configured memory limit — so
  /// buffered rows drain while the process still has headroom.
  MemoryArbiter* arbiter = nullptr;
  /// Run generators working in parallel, each on its own thread (Sec 4.4).
  /// Above 1, MakeRunGenerator builds a FanOutRunGenerator: `observer` is
  /// then unused, and worker i reports to worker_observers[i].
  size_t workers = 1;
  /// One spill hook per worker when workers > 1 (empty = none), each called
  /// only from its worker's thread. Not owned.
  std::vector<SpillObserver*> worker_observers;
};

struct RunGeneratorStats {
  uint64_t rows_added = 0;
  uint64_t rows_eliminated_at_spill = 0;
  uint64_t rows_spilled = 0;
  size_t peak_memory_bytes = 0;
  /// Rows currently buffered in memory.
  uint64_t rows_in_memory = 0;
};

/// The buffered bytes above which a run generator spills: its memory limit,
/// or half of it under arbiter soft pressure, so that buffered rows drain
/// while the process still has headroom (the early-spill rung of the
/// degradation ladder).
inline size_t SpillThreshold(const RunGeneratorOptions& options) {
  if (options.arbiter != nullptr &&
      options.arbiter->pressure() >= MemoryPressure::kSoft) {
    return std::max<size_t>(1, options.memory_limit_bytes / 2);
  }
  return options.memory_limit_bytes;
}

/// Counts a spill that soft pressure forced below the memory limit.
inline void CountEarlySpill() {
  static ObsCounter counter("mem.arbiter.early_spills");
  counter.Add(1);
}

/// The one spill path of run generation: every run generator turns a row
/// leaving its buffer into run-file bytes here, so the cutoff filter logic
/// of Algorithm 1 attaches to each of them the same way (Sec 3.1.2). A row
/// is first shown to the observer, which may drop it (line 11); a kept row
/// is appended to the current physical run, which is opened on demand and
/// cut at run_row_limit rows, and then reported to the observer (line 13).
///
/// The sink also keeps the row charges a generator's Add takes and its
/// spills return (the bytes charged for buffered rows and the arbiter lease
/// over them) and the generator's stats. Generators hold it by value, so a
/// spilled row costs no virtual call beyond the observer's.
class RunSink {
 public:
  RunSink(SpillManager* spill, const RowComparator& comparator,
          const RunGeneratorOptions& options);

  /// What `row` is charged from Add until it spills: its footprint as it
  /// arrived plus the per-row bookkeeping. Fails on an invalid payload.
  static Result<size_t> RowCharge(const Row& row);

  /// Charges one added row's `cost`, holds the `run-generation` lease
  /// (acquired on first use) over every buffered byte, and counts the row
  /// and the peak.
  Status Charge(size_t cost);
  /// Returns the charge of rows that left the buffer.
  void Refund(size_t cost) { buffered_bytes_ -= cost; }
  /// Shrinks the lease to the bytes still charged.
  void ShrinkLease() { lease_.ShrinkTo(buffered_bytes_); }
  /// Drops every charge and the lease: the input ended.
  void ReleaseCharges() {
    buffered_bytes_ = 0;
    lease_.Release();
  }
  size_t buffered_bytes() const { return buffered_bytes_; }

  /// Writes one row leaving the buffer, given as its key, id, normalized
  /// key and wire-format bytes, to the current physical run. Sets
  /// `*written` unless the observer eliminated the row.
  Status Spill(double key, uint64_t id, const NormalizedKey& norm,
               std::string_view wire, bool* written = nullptr) {
    observed_.key = key;
    observed_.id = id;
    if (observer_ != nullptr && observer_->EliminateAtSpill(observed_)) {
      ++stats_.rows_eliminated_at_spill;
      return Status::OK();
    }
    if (writer_ == nullptr || rows_in_run_ >= run_row_limit_) {
      TOPK_RETURN_NOT_OK(StartRun());
    }
    TOPK_RETURN_NOT_OK(writer_->AppendSerialized(key, norm, wire));
    if (observer_ != nullptr) observer_->OnRowSpilled(observed_);
    ++stats_.rows_spilled;
    ++rows_in_run_;
    if (written != nullptr) *written = true;
    return Status::OK();
  }

  /// Ends the current run: the observer's per-run state is always reset,
  /// and an open run is finished, given the observer's histogram and
  /// registered with the SpillManager.
  Status CloseRun();

  const RunGeneratorStats& stats() const { return stats_; }
  void set_rows_in_memory(uint64_t rows) { stats_.rows_in_memory = rows; }

 private:
  /// Closes the open run, if any, and opens the next one.
  Status StartRun();

  SpillManager* spill_;
  RowComparator comparator_;
  SpillObserver* observer_;
  uint64_t run_row_limit_;
  uint64_t run_index_stride_;
  MemoryArbiter* arbiter_;
  RunGeneratorStats stats_;
  std::unique_ptr<RunWriter> writer_;
  uint64_t rows_in_run_ = 0;
  /// The row shown to the observer: key and id, no payload.
  Row observed_;
  size_t buffered_bytes_ = 0;
  /// Lease covering buffered_bytes_ (detached without an arbiter).
  MemoryLease lease_;
};

/// Produces sorted runs in a SpillManager from an unsorted row stream.
class RunGenerator {
 public:
  virtual ~RunGenerator() = default;

  /// Buffers one row, spilling as needed to respect the memory budget.
  virtual Status Add(Row row) = 0;

  /// Ends the input: spills everything still buffered and closes the last
  /// run. After Flush() the SpillManager holds the complete set of runs.
  /// Safe to keep Add()ing afterwards (a new run set begins) — the
  /// optimized operator's input checkpoints rely on this.
  virtual Status Flush() = 0;

  /// Replaces the cancellation token polled by the spill loops (nullptr
  /// detaches). The keep-for-resume cancel unwind detaches it so the
  /// final checkpoint flush completes even though the token has tripped.
  virtual void SetCancel(const CancellationToken* cancel) = 0;

  virtual const RunGeneratorStats& stats() const = 0;
};

/// Load-sort-store run generation: fill memory, quicksort, write one run
/// (split at run_row_limit). Simple and cache-friendly, but consumption of
/// the input stalls during each sort+spill (the paper's motivation for
/// replacement selection); runs are at most one memory-load long.
///
/// Rows are serialized once, at Add, into one buffer of wire-format bytes;
/// the sort orders (normalized key, offset) pairs over it and a spill
/// copies each row's bytes to the run writer. Rows are charged and their
/// charges returned exactly as replacement selection does, and the buffers
/// grow only within the bytes charged.
class QuicksortRunGenerator : public RunGenerator {
 public:
  QuicksortRunGenerator(SpillManager* spill, const RowComparator& comparator,
                        const RunGeneratorOptions& options);

  Status Add(Row row) override;
  Status Flush() override;
  void SetCancel(const CancellationToken* cancel) override {
    options_.cancel = cancel;
  }
  const RunGeneratorStats& stats() const override { return sink_.stats(); }

  /// Bytes charged for the buffered rows (for tests).
  size_t buffered_bytes() const { return sink_.buffered_bytes(); }
  /// Bytes the buffered rows occupy: the wire buffer and the sort entries
  /// (for tests). Never above buffered_bytes().
  size_t held_bytes() const {
    return wire_.capacity() + entries_.capacity() * sizeof(Entry);
  }

 private:
  /// One buffered row: its sort order and where its bytes start in wire_.
  struct Entry {
    NormalizedKey norm;
    size_t offset;
  };

  /// Serializes `row` behind the buffered rows.
  void Buffer(const Row& row);
  /// Sorts the buffer and spills it, or finishes the spill a cancellation
  /// stopped.
  Status SortAndSpill();

  RowComparator comparator_;
  RunGeneratorOptions options_;
  RunSink sink_;
  /// Wire bytes of the buffered rows, back to back in arrival order.
  std::vector<char> wire_;
  std::vector<Entry> entries_;
  /// The spill in progress: entries_'s first `sorted_` rows are in sort
  /// order, next_ is the next of them to write, and `sorted_charge_` is
  /// what they were charged; the sink holds the open run. sorted_ is 0
  /// between spills.
  size_t sorted_ = 0;
  size_t next_ = 0;
  size_t sorted_charge_ = 0;
};

/// Builds the run generator of `kind` (replacement selection or quicksort)
/// spilling into `spill`; with options.workers > 1, a FanOutRunGenerator
/// over that many of them.
std::unique_ptr<RunGenerator> MakeRunGenerator(
    RunGenerationKind kind, SpillManager* spill,
    const RowComparator& comparator, const RunGeneratorOptions& options);

}  // namespace topk

#endif  // TOPK_SORT_RUN_GENERATION_H_
