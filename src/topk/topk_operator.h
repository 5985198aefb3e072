#ifndef TOPK_TOPK_TOPK_OPERATOR_H_
#define TOPK_TOPK_TOPK_OPERATOR_H_

#include <atomic>
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
#include "histogram/cutoff_filter.h"
#include "io/async_io.h"
#include "io/spill_manager.h"
#include "io/storage_env.h"
#include "obs/obs_context.h"
#include "row/row.h"
#include "sort/merge_planner.h"
#include "sort/merger.h"
#include "sort/run_generation.h"

namespace topk {

/// What a cancelled external operator does with spilled state it already
/// paid for (query_control.h; in-memory operators have nothing to keep).
enum class OnCancelPolicy {
  /// Release everything: the spill directory is removed as usual when the
  /// operator is destroyed. The default — a cancelled query is garbage.
  kReleaseSpill,
  /// Keep the runs for a later ResumeTopKOperator: before surfacing the
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

  /// Optimized operator: force an early merge step to establish a
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
  /// crash-recovery contract behind ResumeTopKOperator.
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

  /// Optimized operator: checkpoint input consumption every N consumed
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

  /// Approximate mode (Sec 4.5; see ApproximateTopK): when non-zero, the
  /// histogram operator's cutoff filter targets this many rows instead of
  /// k + offset, trading a possible shortfall of output rows for earlier,
  /// sharper cutoffs. Must be <= k + offset, and 0 for every other
  /// algorithm.
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
  /// Runs deleted unmerged because they lay wholly beyond the cutoff
  /// (DropRunsBeyondCutoff), during input or before a merge step.
  uint64_t runs_dropped = 0;
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
  /// Cutoff-filter internals (histogram and optimized operators).
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

/// The in-memory result: sorts `rows` and the WITH TIES boundary
/// duplicates kept beside them (`ties`) into query order, then applies
/// `options`' offset, k and WITH TIES.
std::vector<Row> SortAndSliceTopKRows(std::vector<Row> rows,
                                      std::vector<Row> ties,
                                      const TopKOptions& options);

/// The largest TopKOptions::workers accepted: each worker is a thread with
/// its own share of the memory budget.
inline constexpr size_t kMaxWorkers = 64;

/// Validates option combinations common to all operators. workers != 1 and
/// a non-zero approx_filter_k are valid only with the `histogram_filter`:
/// only its cutoff filter serves parallel run generators and takes an
/// approximate target.
Status ValidateTopKOptions(const TopKOptions& options, bool requires_storage,
                           bool histogram_filter);

class TopKOperator;
enum class TopKAlgorithm;

/// The rows a TopKOperator holds before it spills, and what they cost.
struct InMemoryRows {
  std::vector<Row> rows;
  /// WITH TIES: boundary-key duplicates a BoundedHeapPolicy keeps beside
  /// its heap in `rows`.
  std::vector<Row> ties;
  /// Bytes charged for `rows` and `ties` (footprint plus
  /// kPerRowOverheadBytes each).
  size_t bytes = 0;
  /// Arbiter lease covering `bytes`.
  MemoryLease lease;
};

/// What distinguishes the paper's four top-k algorithms. The external ones
/// are increments of one external merge sort: the traditional sort
/// (Sec 2.4) gains a run-size limit, a kth-key cutoff and an early merge
/// (Sec 2.5), then the histogram filter (Sec 3), whose in-memory phase is
/// the bounded priority queue of Sec 2.3; that heap alone, never spilling,
/// is the in-memory algorithm. TopKOperator owns the operator around the
/// sort; a policy supplies only the steps where the algorithms differ.
///
/// The defaults are the traditional sort (Sec 2.4,
/// TopKAlgorithm::kTraditionalExternal), as found in e.g. PostgreSQL: buffer
/// the whole input while it fits and sort it in place; once it exceeds
/// memory, externally sort *all* of it — no input filtering, no run-size
/// limit — merging smallest runs first and stopping after k rows. Its cost
/// is proportional to the input, which is precisely the performance cliff
/// the paper sets out to remove.
class CutoffPolicy {
 public:
  CutoffPolicy() = default;
  // The run generator and the cutoff filter's callback hold its address.
  CutoffPolicy(const CutoffPolicy&) = delete;
  CutoffPolicy& operator=(const CutoffPolicy&) = delete;
  virtual ~CutoffPolicy() = default;

  /// In-memory phase: keeps `row` in memory, or returns false — leaving
  /// `row` untouched — when memory is full and the operator must switch to
  /// run generation. Default: buffer every row.
  virtual Result<bool> KeepInMemory(Row& row) {
    return Buffer(row, &memory().rows);
  }
  /// Hands the in-memory rows (ties aside) to run generation at the
  /// external switch.
  virtual Status SpillInMemoryRows(RunGenerator* generator) {
    for (Row& row : memory().rows) {
      TOPK_RETURN_NOT_OK(generator->Add(std::move(row)));
    }
    return Status::OK();
  }

  /// Sets up the cutoff state that runs alongside run generation and
  /// adjusts the generator's options. Called when the operator switches to
  /// external mode and when a replay-resume recreates the generator. A
  /// policy that builds the cutoff filter here (BuildFilter) gets a spill
  /// observer on it for each run generator.
  virtual Status StartRunGeneration(RunGeneratorOptions* /*gen_options*/) {
    return Status::OK();
  }
  /// External phase: routes one input row into run generation.
  virtual Status ConsumeExternal(Row row) {
    return generator()->Add(std::move(row));
  }
  /// Makes the flushed run set durable in the manifest (Suspend and the
  /// keep-for-resume cancel).
  virtual Status MakeInputDurable() {
    TOPK_RETURN_NOT_OK(spill()->CheckpointManifest());
    return spill()->FlushManifest();
  }

  /// Shapes the intermediate merge steps. Default: classic external sort,
  /// smallest runs first, nothing dropped.
  virtual void ConfigureMerges(MergePlannerOptions* planner) const {
    planner->policy = MergePolicy::kSmallestRunsFirst;
  }
  /// Runs the final merge of `runs` into `sink`.
  virtual Result<MergeStats> FinalMerge(const std::vector<RunMeta>& runs,
                                        const MergeOptions& merge_options,
                                        const RowSink& sink) {
    return MergeRuns(spill(), runs, comparator(), merge_options, sink);
  }

  /// Rebuilds the policy's state from a reopened manifest. Returns the
  /// input row to replay from when the restored state accepts the input
  /// tail, nullopt when its runs already hold the whole input.
  virtual Result<std::optional<uint64_t>> Resume() {
    return std::optional<uint64_t>();
  }

  /// Current cutoff key while the operator has no cutoff filter, when one
  /// is established.
  virtual std::optional<double> cutoff() const { return std::nullopt; }

 protected:
  /// The operator state a policy works on.
  const TopKOptions& options() const;
  const RowComparator& comparator() const;
  OperatorStats& stats() const;
  InMemoryRows& memory() const;
  SpillManager* spill() const;
  RunGenerator* generator() const;

  /// The operator's cutoff filter, once BuildFilter made one.
  CutoffFilter* filter() const;
  /// How many times the cutoff filter's cutoff has moved. Any thread may
  /// move it; one relaxed load.
  uint64_t cutoff_changes() const;

  /// Charges `row` against the memory budget and moves it into `*into`;
  /// false, leaving `row` untouched, when it does not fit.
  Result<bool> Buffer(Row& row, std::vector<Row>* into);

  /// Builds the operator's one cutoff filter (Sec 3.1.2). It collects up
  /// to `buckets_per_run` histogram buckets from each run, sized for runs
  /// of `run_rows` rows, and targets approx_filter_k or else k+offset
  /// rows. The operator publishes every
  /// cutoff change (filter.cutoff_updates, the ObsContext timeline, trace
  /// instants) and seeds the filter with the histograms of the runs
  /// already registered, so after a resume it holds the cutoff the
  /// reopened runs prove.
  void BuildFilter(uint64_t buckets_per_run, uint64_t run_rows);

  /// Merges `inputs` into one committed run of at most k+offset rows (plus
  /// ties) while input is still arriving (MergeIntoCommittedRun), charging
  /// the merge to the operator's stats. The cutoff filter, when there is
  /// one, stops the merge at its cutoff and takes the kth merged key as a
  /// cutoff. The output is not a run-generation run, so runs_created
  /// leaves it out.
  Result<MergeStats> MergeDuringInput(const std::vector<RunMeta>& inputs,
                                      bool quota_exempt);

 private:
  friend class TopKOperator;
  TopKOperator* op_ = nullptr;
  /// The cutoff filter BuildFilter made, kept beside the policy's per-row
  /// probes that read it.
  std::unique_ptr<CutoffFilter> filter_;
  /// One spill observer on filter_ per run generator.
  std::vector<std::unique_ptr<SpillObserver>> observers_;
  /// Bumped by filter_'s cutoff-change callback, from whichever thread
  /// moved the cutoff.
  std::atomic<uint64_t> cutoff_changes_{0};
};

/// The bounded priority queue of Sec 2.3 as the in-memory phase: the rows
/// form a query-order max-heap (top = worst kept row) of at most k+offset
/// rows, and WITH TIES keeps the boundary key's duplicates beside it. Every
/// row that grows the footprint is checked against the memory budget
/// first; one that does not fit is left untouched for the operator to
/// spill or fail on. Rows leave the heap by move, so the bytes released are
/// the bytes that were charged.
class BoundedHeapPolicy : public CutoffPolicy {
 public:
  Result<bool> KeepInMemory(Row& row) override;
  Status SpillInMemoryRows(RunGenerator* generator) override;
  /// The heap top once the heap holds k+offset rows.
  std::optional<double> cutoff() const override;

 private:
  /// The heap holds k+offset rows.
  bool saturated_ = false;
};

/// The paper's baseline (Sec 2.5, TopKAlgorithm::kOptimizedExternal):
/// external merge sort optimized for top queries per Graefe 2008 ("A
/// general and efficient algorithm for 'top' queries"), whose cutoff is
/// the cutoff filter with one bucket of k+offset rows per run;
/// RunKthKeyPolicy in optimized_external_topk.cc.
std::unique_ptr<CutoffPolicy> MakeRunKthKeyPolicy();

/// The paper's algorithm (Sec 3, TopKAlgorithm::kHistogram): eager input
/// filtering guided by histograms; HistogramFilterPolicy in
/// histogram_topk.cc.
std::unique_ptr<CutoffPolicy> MakeHistogramFilterPolicy();

/// A top-k operator: push rows in any order, then Finish() returns the k
/// top rows (after `offset`) in query order. Single-use. Built by
/// MakeTopKOperator or ResumeTopKOperator (operator_factory.h).
///
/// It is one external merge sort for top-k queries. It owns the entry
/// points and their guards (observability scope, allocation containment,
/// the first-error latch, cancellation with the keep-for-resume handoff),
/// the in-memory phase and its result slice, the switch to run generation,
/// the flush → manifest → merge sequence that keeps a failed query
/// resumable, Suspend, and reopening a manifest. The CutoffPolicy its
/// algorithm picks decides what is filtered, how runs are cut, and how
/// they are merged.
class TopKOperator {
 public:
  Status Consume(Row row);

  /// Consumes a whole batch (convenience; same semantics as repeated
  /// Consume).
  Status ConsumeBatch(std::vector<Row> rows) {
    for (Row& row : rows) {
      TOPK_RETURN_NOT_OK(Consume(std::move(row)));
    }
    return Status::OK();
  }

  /// Ends the input and produces the result. Must be called exactly once.
  Result<std::vector<Row>> Finish();

  /// Makes the operator's state durable on disk and relinquishes it for a
  /// later ResumeTopKOperator instead of producing a result (mutually
  /// exclusive with Finish). Requires options.manifest_filename; spills
  /// what is still buffered. FailedPrecondition for the heap algorithm,
  /// which cannot spill.
  Status Suspend();

  /// True when a manifest-resumed operator still accepts Consume(): the
  /// optimized operator checkpoints mid-input, so its resume replays the
  /// input tail from resume_input_offset(). A merge-phase resume (every
  /// other one) accepts no input — its runs already hold every surviving
  /// row.
  bool resume_accepts_input() const {
    return resumed_ && generator_ != nullptr;
  }
  /// Number of input rows the resumed state already covers; the caller
  /// replays the input stream starting at this row (0-based). Meaningful
  /// only when resume_accepts_input() is true.
  uint64_t resume_input_offset() const { return resume_input_offset_; }

  const OperatorStats& stats() const { return stats_; }

  /// Current cutoff key: the cutoff filter's, else the policy's, or none.
  std::optional<double> cutoff() const {
    return filter() != nullptr ? filter()->cutoff() : policy_->cutoff();
  }

  /// True once the operator switched to external (spilling) mode.
  bool is_external() const { return generator_ != nullptr || resumed_; }

  /// The cutoff filter (histogram and optimized policies in external mode;
  /// for tests/benchmarks).
  const CutoffFilter* filter() const { return policy_->filter_.get(); }

 private:
  friend class CutoffPolicy;
  friend Result<std::unique_ptr<TopKOperator>> MakeTopKOperator(
      TopKAlgorithm algorithm, const TopKOptions& options);
  friend Result<std::unique_ptr<TopKOperator>> ResumeTopKOperator(
      TopKAlgorithm algorithm, const TopKOptions& options,
      RestoreReport* report);

  TopKOperator(TopKAlgorithm algorithm, const TopKOptions& options,
               std::unique_ptr<CutoffPolicy> policy);

  /// The body of the factory: validates `options` for `policy`, builds the
  /// operator, and for a resume (`resume`) reopens the manifest in
  /// options.manifest_filename. Runs failing verification are quarantined
  /// and reported via `report`.
  static Result<std::unique_ptr<TopKOperator>> Open(
      TopKAlgorithm algorithm, const TopKOptions& options,
      std::unique_ptr<CutoffPolicy> policy, bool resume,
      RestoreReport* report);

  Status Reopen(RestoreReport* report);

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();
  Status SuspendImpl();

  Status SwitchToExternal();
  Status CreateGenerator();
  /// Flushes run generation and makes the complete run set durable.
  Status FlushRuns();
  /// Suspend's durable handoff, short of disowning the directory: flush
  /// run generation with cancellation detached, then checkpoint and flush
  /// the manifest.
  Status MakeDurable();
  void CollectRunStats();
  /// Intermediate merge steps, then the final merge into `result`.
  Status MergeRunsInto(std::vector<Row>* result);

  /// Entry-point poll of options_.cancel; a tripped token is routed
  /// through OnCancelStatus so the on_cancel policy applies.
  Status CheckCancel();
  /// Passes `cause` through, but when it is the cancellation token
  /// tripping and on_cancel is kKeepForResume, first performs Suspend's
  /// durable handoff (flush, checkpoint, disown) so the spilled runs
  /// survive for ResumeTopKOperator. A storage error during the handoff
  /// wins over the cancellation.
  Status OnCancelStatus(Status cause);
  /// Latches the first non-cancellation error an entry point surfaced.
  void NoteError(const Status& status);

  TopKAlgorithm algorithm_;
  TopKOptions options_;
  RowComparator comparator_;
  std::unique_ptr<CutoffPolicy> policy_;
  OperatorStats stats_;

  /// In-memory phase.
  InMemoryRows memory_;

  /// External phase (created on the first overflow). The generator is
  /// declared after the spill manager and the policy so it is destroyed
  /// before them: it writes into the one and observes through the cutoff
  /// filter the other holds.
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<RunGenerator> generator_;

  /// Runs MergeDuringInput registered; not run-generation runs.
  uint64_t input_merge_runs_ = 0;

  /// Which Consume calls time themselves into stats_.consume_nanos.
  SampledScopeTimer::Schedule consume_timing_;
  bool finished_ = false;
  /// Built by ResumeTopKOperator. With a generator the operator accepts
  /// the replayed input tail; without one it is merge-phase only.
  bool resumed_ = false;
  /// Input rows the restored state already covers (resume replays from
  /// here).
  uint64_t resume_input_offset_ = 0;
  /// First non-cancellation error any entry point surfaced. Suspend
  /// returns it instead of a generic precondition failure: the real cause
  /// of the operator's demise beats "Suspend after Finish".
  Status first_error_;
  /// The keep-for-resume cancel handoff ran (it must run at most once).
  bool cancel_unwound_ = false;
};

inline const TopKOptions& CutoffPolicy::options() const {
  return op_->options_;
}
inline const RowComparator& CutoffPolicy::comparator() const {
  return op_->comparator_;
}
inline OperatorStats& CutoffPolicy::stats() const { return op_->stats_; }
inline InMemoryRows& CutoffPolicy::memory() const { return op_->memory_; }
inline SpillManager* CutoffPolicy::spill() const { return op_->spill_.get(); }
inline CutoffFilter* CutoffPolicy::filter() const { return filter_.get(); }
inline uint64_t CutoffPolicy::cutoff_changes() const {
  return cutoff_changes_.load(std::memory_order_relaxed);
}
inline RunGenerator* CutoffPolicy::generator() const {
  return op_->generator_.get();
}

}  // namespace topk

#endif  // TOPK_TOPK_TOPK_OPERATOR_H_
