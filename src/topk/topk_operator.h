#ifndef TOPK_TOPK_TOPK_OPERATOR_H_
#define TOPK_TOPK_TOPK_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/memory_accounting.h"
#include "common/query_control.h"
#include "common/resource_arbiter.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "io/async_io.h"
#include "io/storage_env.h"
#include "obs/obs_context.h"
#include "row/row.h"
#include "sort/merge_planner.h"
#include "sort/run_generation.h"

namespace topk {

/// What a cancelled external operator does with spilled state it already
/// paid for (query_control.h; in-memory operators have nothing to keep).
enum class OnCancelPolicy {
  /// Release everything: the spill directory is removed as usual when the
  /// operator is destroyed. The default — a cancelled query is garbage.
  kReleaseSpill,
  /// Keep the runs for a later ResumeFromManifest: before surfacing the
  /// cancellation the operator flushes in-flight run state, checkpoints
  /// the manifest, and disowns the spill directory — the same durable
  /// handoff Suspend() performs. Requires manifest_filename; preempted
  /// queries restart from their runs instead of from row zero.
  kKeepForResume,
};

/// Configuration shared by every top-k operator. Mirrors the paper's
/// experimental knobs (Sec 5.1.2): memory budget, histogram sizing, run-size
/// limit, plus the storage substrate to spill into.
struct TopKOptions {
  /// LIMIT: number of output rows.
  uint64_t k = 0;
  /// OFFSET: rows of the sorted stream to skip before the output
  /// (pause-and-resume paging, Sec 2.7).
  uint64_t offset = 0;
  /// SQL FETCH FIRST k ROWS WITH TIES: also return every row whose key
  /// equals the kth output row's key. The number of tied duplicates is
  /// unbounded and unknown in advance — exactly the robustness hazard
  /// Sec 2.3 raises for the in-memory algorithm; the external operators
  /// handle it naturally because the cutoff filter never eliminates
  /// key-ties.
  bool with_ties = false;
  SortDirection direction = SortDirection::kAscending;

  /// Operator memory budget in bytes (paper default: 1 GB; experiments use
  /// much smaller budgets). std::numeric_limits<size_t>::max() never runs
  /// out, which grants the heap operator whatever its output needs.
  size_t memory_limit_bytes = 64 << 20;

  /// Target histogram buckets collected per run (paper default: 50; 0
  /// disables the filter).
  uint64_t histogram_buckets_per_run = 50;
  /// Memory budget of the histogram priority queue (paper default: 1 MB).
  size_t histogram_memory_limit_bytes = 1 << 20;
  /// Fallback when the queue outgrows its budget (paper: full
  /// consolidation; kAdaptive degrades more gracefully under tiny
  /// budgets — see bench/ablation_consolidation).
  CutoffFilter::ConsolidationPolicy histogram_consolidation =
      CutoffFilter::ConsolidationPolicy::kFull;

  /// Maximum runs merged per step.
  size_t merge_fan_in = 64;
  /// Which runs multi-step merges consume first (Sec 4.1 recommends
  /// lowest-keys-first for top operations; used by the histogram and
  /// optimized operators).
  MergePolicy merge_policy = MergePolicy::kLowestKeysFirst;
  /// Number of initial runs an early merge step combines to establish a
  /// cutoff in the optimized baseline (Sec 2.5; the paper's example uses
  /// 10).
  size_t early_merge_fan_in = 10;

  /// OptimizedExternalTopK: force an early merge step to establish a
  /// cutoff when k exceeds the run size (the [14] recommendation). The
  /// paper's *measured* baseline lacks an effective cutoff in that regime
  /// ("the baseline algorithm externally sorts the entire input", Sec
  /// 5.2), so figure benches disable this to match it.
  bool enable_early_merge = true;

  RunGenerationKind run_generation = RunGenerationKind::kReplacementSelection;

  /// Run-generation threads (Sec 4.4), at most kMaxWorkers. Above 1, the
  /// histogram operator runs that many run generators in parallel, each
  /// with an equal share of the memory budget, all filtering through its
  /// one cutoff filter. Every other operator requires 1.
  size_t workers = 1;

  /// Offset-value coding on every merge step's loser tree (Do & Graefe;
  /// see row/normalized_key.h): most tournament repairs become one integer
  /// compare. Output is byte-identical with it on or off; the switch
  /// exists for A/B benchmarks and the CI equivalence matrix. Defaults to
  /// on unless the TOPK_OVC environment variable disables it process-wide.
  bool use_ovc = DefaultOvcEnabled();

  /// Storage substrate; required by the external operators. Not owned.
  StorageEnv* env = nullptr;
  /// Directory for spill files; required by the external operators.
  std::string spill_dir;

  /// Background I/O pipeline: worker threads that flush full spill blocks
  /// and prefetch merge blocks while the operator keeps computing. On
  /// disaggregated storage (read/write latency per call) this overlaps the
  /// round trip with replacement selection / loser-tree work. 0 = fully
  /// synchronous I/O (today's deterministic path, byte-identical run
  /// files).
  size_t io_background_threads = 2;
  /// Merge-wide prefetch memory budget (bytes): how much
  /// prefetched-but-unmerged block data all runs of a merge may hold
  /// beyond their first lookahead block. Each merge apportions it over its
  /// own runs; each reader then adapts its lookahead depth to the observed
  /// round-trip / merge-rate ratio within its share, and runs abandoned by
  /// the cutoff return their share to the pool. 0 pins the fixed
  /// one-block lookahead.
  size_t prefetch_memory_budget = 8 << 20;

  /// Retry policy applied to every spill read/write/delete and manifest
  /// round trip (transient Unavailable errors only; see io/retry.h). Its
  /// deadline_nanos also bounds how long a merge read waits for a
  /// prefetched block, and its retry_budget caps retries across the whole
  /// pipeline.
  RetryPolicy io_retry;

  /// Hedge straggling prefetch reads (see PrefetchTuning::hedge_reads): a
  /// block overdue against the reader's observed round-trip EWMA is
  /// re-requested on a second handle and the first completion wins. Tames
  /// tail latency on degraded storage at the cost of some duplicate reads.
  bool io_hedge_reads = false;
  /// Issue the hedge once the wait exceeds this multiple of the EWMA.
  double io_hedge_latency_multiplier = 3.0;

  /// Cap on spill bytes simultaneously on disk, 0 = unlimited. Under
  /// pressure the histogram operator first consolidates runs through the
  /// cutoff filter to reclaim space; only when that cannot help does a
  /// spill write fail with ResourceExhausted naming the quota.
  uint64_t spill_quota_bytes = 0;

  /// When non-empty, the operator keeps a manifest of this name inside the
  /// spill directory, checkpointed after every registered run and merge
  /// step, and leaves the spill directory on disk if Finish fails — the
  /// crash-recovery contract behind ResumeFromManifest.
  std::string manifest_filename;

  /// Query lifecycle control (query_control.h). When set, every operator
  /// entry point, run-generation spill loop, merge row loop, retry
  /// backoff, and prefetch consumer wait polls this token, so the query
  /// observes RequestCancel/SetDeadline within a bounded number of
  /// row/block steps and unwinds with Cancelled/DeadlineExceeded. The
  /// shared_ptr keeps the token alive for background work; operators also
  /// thread it into io_retry (and thus the whole I/O pipeline).
  std::shared_ptr<CancellationToken> cancel;
  /// What a cancelled external operator does with its spilled runs.
  OnCancelPolicy on_cancel = OnCancelPolicy::kReleaseSpill;

  /// OptimizedExternalTopK: checkpoint input consumption every N consumed
  /// rows (0 = off). Each checkpoint flushes the current run, records
  /// (rows consumed, last run id, cutoff) in the manifest as a v3 ckpt
  /// record, and makes it durable — a crash between checkpoints replays
  /// at most N input rows on resume. Requires manifest_filename.
  uint64_t checkpoint_input_every_rows = 0;

  /// The spill pipeline configuration derived from the knobs above.
  IoPipelineOptions io_pipeline() const {
    IoPipelineOptions io;
    io.background_threads = io_background_threads;
    io.retry = io_retry;
    // The token rides inside the retry policy: RetryOp checks it before
    // attempts and during backoff, SpillManager::OpenRun copies it into
    // each reader's PrefetchTuning for the consumer wait.
    if (io.retry.cancel == nullptr) io.retry.cancel = cancel.get();
    io.prefetch_memory_budget = prefetch_memory_budget;
    io.hedge_reads = io_hedge_reads;
    io.hedge_latency_multiplier = io_hedge_latency_multiplier;
    io.spill_quota_bytes = spill_quota_bytes;
    io.arbiter = effective_arbiter();
    return io;
  }

  /// Histogram-guided OFFSET skip (Sec 4.1): when true (default) and the
  /// query has an offset, the final merge seeks each run past the prefix
  /// that provably belongs to the skipped rows instead of reading it.
  bool histogram_offset_skip = true;

  /// Approximate mode (Sec 4.5, used via ApproxTopK): when non-zero, the
  /// cutoff filter targets this many rows instead of k + offset, trading a
  /// possible shortfall of output rows for earlier, sharper cutoffs. Must
  /// be <= k + offset.
  uint64_t approx_filter_k = 0;

  /// Per-query observability context (obs_context.h). When set, the
  /// operator installs it for the duration of every entry point, so all
  /// metrics/trace/phase instrumentation — including background pool work
  /// it schedules — is attributed to this query in addition to the global
  /// registry. Null (the default) records globally only.
  std::shared_ptr<ObsContext> obs;

  /// Memory arbiter the operator leases its heap/buffer/filter/prefetch
  /// memory from (common/resource_arbiter.h). Null falls back to the
  /// process-wide GlobalMemoryArbiter() — unlimited until a budget is
  /// configured (--mem-budget-mb), so accounting is always on but
  /// admission control is opt-in. Not owned.
  MemoryArbiter* arbiter = nullptr;

  /// The arbiter every consumer of these options actually uses.
  MemoryArbiter* effective_arbiter() const {
    return arbiter != nullptr ? arbiter : GlobalMemoryArbiter();
  }

  /// Total rows the operator must keep to answer the query.
  uint64_t output_rows() const { return k + offset; }
};

/// Uniform observability across operators; the evaluation (Sec 5) is driven
/// entirely off these counters.
struct OperatorStats {
  uint64_t rows_consumed = 0;
  /// Rows dropped by the cutoff before entering the sort (Algorithm 1,
  /// line 4).
  uint64_t rows_eliminated_input = 0;
  /// Rows dropped right before being written to a run (line 11).
  uint64_t rows_eliminated_spill = 0;
  /// Input rows written to runs during run generation — the paper's "Rows"
  /// column and its principal cost metric.
  uint64_t rows_spilled = 0;
  /// Physical runs created during run generation (the "Runs" column).
  uint64_t runs_created = 0;
  /// Total run-file bytes written to secondary storage, including
  /// intermediate merge output.
  uint64_t bytes_spilled = 0;
  /// Rows written by intermediate merge steps (extra secondary-storage
  /// traffic beyond run generation).
  uint64_t merge_rows_written = 0;
  /// Rows read back by all merge steps.
  uint64_t merge_rows_read = 0;
  /// Offset rows skipped via index seeks instead of reads (Sec 4.1).
  uint64_t offset_rows_seek_skipped = 0;
  /// Peak operator memory across the row buffer.
  size_t peak_memory_bytes = 0;

  /// Final cutoff key, when one was established.
  std::optional<double> final_cutoff;
  /// Cutoff-filter internals (histogram operator only).
  uint64_t filter_buckets_inserted = 0;
  uint64_t filter_consolidations = 0;

  /// Wall time inside Consume() / Finish(). consume_nanos is estimated
  /// from one call in 64 (SampledScopeTimer) so that rows pay no clock
  /// reads; finish_nanos is measured in full.
  int64_t consume_nanos = 0;
  int64_t finish_nanos = 0;

  double total_seconds() const {
    return static_cast<double>(consume_nanos + finish_nanos) * 1e-9;
  }
  /// Total rows that touched secondary storage (spills + merge output).
  uint64_t total_rows_written() const {
    return rows_spilled + merge_rows_written;
  }
};

/// A top-k operator: push rows in any order, then Finish() returns the k
/// top rows (after `offset`) in query order. Single-use.
class TopKOperator {
 public:
  virtual ~TopKOperator() = default;

  virtual Status Consume(Row row) = 0;

  /// Consumes a whole batch (convenience; same semantics as repeated
  /// Consume).
  Status ConsumeBatch(std::vector<Row> rows) {
    for (Row& row : rows) {
      TOPK_RETURN_NOT_OK(Consume(std::move(row)));
    }
    return Status::OK();
  }

  /// Ends the input and produces the result. Must be called exactly once.
  virtual Result<std::vector<Row>> Finish() = 0;

  /// Makes the operator's state durable on disk and relinquishes it for a
  /// later manifest-based resume instead of producing a result (mutually
  /// exclusive with Finish). Only the spilling operators that support
  /// ResumeFromManifest implement this.
  virtual Status Suspend() {
    return Status::FailedPrecondition(
        name() +
        " does not support Suspend; suspend/resume is supported by the "
        "histogram, traditional-external, and optimized-external operators");
  }

  /// True when a manifest-resumed instance of this operator still accepts
  /// Consume(): the optimized operator checkpoints mid-input, so its
  /// resume replays the input tail from resume_input_offset(). The
  /// merge-phase resumers (histogram, traditional) return false — their
  /// runs already hold every surviving row.
  virtual bool resume_accepts_input() const { return false; }

  /// Number of input rows the resumed state already covers; the caller
  /// replays the input stream starting at this row (0-based). Meaningful
  /// only when resume_accepts_input() is true.
  virtual uint64_t resume_input_offset() const { return 0; }

  virtual std::string name() const = 0;
  const OperatorStats& stats() const { return stats_; }

 protected:
  OperatorStats stats_;
};

/// The in-memory result: sorts `rows` and the WITH TIES boundary
/// duplicates kept beside them (`ties`) into query order, then applies
/// `options`' offset, k and WITH TIES.
std::vector<Row> SortAndSliceTopKRows(std::vector<Row> rows,
                                      std::vector<Row> ties,
                                      const TopKOptions& options);

/// The largest TopKOptions::workers accepted: each worker is a thread with
/// its own share of the memory budget.
inline constexpr size_t kMaxWorkers = 64;

/// Validates option combinations common to all operators. workers != 1 is
/// valid only for an operator with `parallel_run_generation`.
Status ValidateTopKOptions(const TopKOptions& options, bool requires_storage,
                           bool parallel_run_generation = false);

}  // namespace topk

#endif  // TOPK_TOPK_TOPK_OPERATOR_H_
