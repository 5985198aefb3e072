#ifndef TOPK_IO_ASYNC_IO_H_
#define TOPK_IO_ASYNC_IO_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/resource_arbiter.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "io/retry.h"
#include "io/storage_env.h"

namespace topk {

/// Hard ceiling on the lookahead window of one PrefetchingBlockReader, no
/// matter how large the memory budget is: beyond ~32 blocks the merge is
/// bound by pool parallelism, not by queued lookahead.
inline constexpr size_t kMaxPrefetchDepth = 32;

/// Degraded-storage knobs for one PrefetchingBlockReader. Hedged reads
/// follow Dean & Barroso's "Tail at Scale" recipe: when the consumer has
/// waited `hedge_latency_multiplier` x the observed round-trip EWMA for
/// the block it needs (but at least `hedge_min_nanos`), a duplicate read
/// of the same block is issued on a second handle; the first completion
/// wins and the loser is discarded. Run files are immutable, so the
/// duplicate is always safe. `read_deadline_nanos` bounds how long one
/// consumer Read may wait for its block before surfacing Unavailable
/// ("deadline exceeded") instead of parking the merge behind a hung call.
struct PrefetchTuning {
  bool hedge_reads = false;
  double hedge_latency_multiplier = 3.0;
  int64_t hedge_min_nanos = 1'000'000;  // never hedge before 1 ms
  /// 0 = wait forever (legacy behaviour).
  int64_t read_deadline_nanos = 0;
  /// Optional query cancellation token (query_control.h). When set, the
  /// consumer wait in Read() polls it (bounded wait slices instead of an
  /// indefinite block) and returns the token's status promptly even with
  /// the fetch still in flight on a pool thread — the reader stays valid
  /// and the in-flight block is accounted via io.prefetch.blocks_cancelled
  /// when the stream is torn down. Not owned.
  const CancellationToken* cancel = nullptr;
};

/// Background I/O pipeline configuration. On disaggregated storage every
/// block write/read pays a full round trip (StorageEnv latency injection
/// emulates it); overlapping those round trips with replacement selection
/// and loser-tree merging hides most of the cost. 0 background threads =
/// the fully synchronous path (byte-identical output, deterministic call
/// ordering — what every pre-pipeline test expects).
///
/// Also carries the storage fault-tolerance policies shared by every run
/// stream of one SpillManager: the retry policy for transient failures and
/// the inline read-side checksum verification switch.
struct IoPipelineOptions {
  /// Workers shared by all streams of one SpillManager: they flush spill
  /// blocks and read merge blocks ahead. 0 disables the pipeline entirely.
  size_t background_threads = 0;
  /// Retry policy applied to every block read/write/flush/close and to
  /// manifest I/O. Retries run on the background pool threads when the
  /// pipeline is active, so backoff never stalls the producer. Default:
  /// up to 4 attempts with 1 ms initial backoff.
  RetryPolicy retry;
  /// Total bytes of prefetched-but-unconsumed block memory all readers of
  /// one SpillManager may hold *beyond* their first lookahead block. Each
  /// merge apportions it over its own runs (SpillManager::
  /// PrefetchDepthCap); each reader then grows its window only as far as
  /// it can reserve slots from the shared PrefetchBudget, and runs
  /// abandoned by the cutoff hand their slots back. 0 = fixed one-block
  /// lookahead.
  size_t prefetch_memory_budget = 8 << 20;
  /// Hedge straggling block reads on the merge path (see PrefetchTuning).
  bool hedge_reads = false;
  double hedge_latency_multiplier = 3.0;
  /// Disk-space quota for one SpillManager's directory: total bytes its
  /// run files may occupy (0 = unlimited). Breaches surface as
  /// ResourceExhausted naming spill_quota_bytes.
  uint64_t spill_quota_bytes = 0;
  /// Memory arbiter the pipeline's buffers are leased from (prefetch
  /// windows through the PrefetchBudget, double-buffered writer blocks).
  /// Null = unaccounted, the legacy behaviour. Not owned.
  MemoryArbiter* arbiter = nullptr;
};

/// Thread-safe byte pool bounding the total prefetch lookahead of one
/// SpillManager. The first lookahead block of every reader is free (that
/// is the baseline double-buffer the pipeline always had); every deeper
/// slot must be reserved here first, so concurrent merges can never queue
/// more than `total` bytes of speculative reads no matter how many runs
/// they open or what depth caps their readers got. A slot a reader no
/// longer needs (window shrank, EOF, run abandoned) returns here at once
/// and is free for any other reader still below its cap.
class PrefetchBudget {
 public:
  explicit PrefetchBudget(size_t total_bytes) : total_(total_bytes) {}

  PrefetchBudget(const PrefetchBudget&) = delete;
  PrefetchBudget& operator=(const PrefetchBudget&) = delete;

  /// Attaches a memory arbiter: every reservation is additionally leased
  /// from it (a refused grant just stops window growth — graceful), and
  /// arbiter soft pressure halves the depth caps readers derive from this
  /// budget (SetPressureShrink, flipped by the owning SpillManager's
  /// pressure responder). Call before readers share the budget.
  void AttachArbiter(MemoryArbiter* arbiter);

  /// Degradation-ladder flag: while set, the depth cap of every reader
  /// sharing this budget is halved. Lock-free.
  void SetPressureShrink(bool shrink) {
    pressure_shrink_.store(shrink, std::memory_order_relaxed);
  }
  bool pressure_shrink() const {
    return pressure_shrink_.load(std::memory_order_relaxed);
  }

  /// Reserves `bytes`; false when the pool is exhausted (the caller keeps
  /// its current window instead of growing).
  bool TryAcquire(size_t bytes);
  /// Returns a previous reservation to the pool.
  void Release(size_t bytes);

  size_t total() const { return total_; }
  size_t acquired() const;

 private:
  const size_t total_;
  std::atomic<bool> pressure_shrink_{false};
  mutable std::mutex mu_;
  size_t acquired_ = 0;
  /// Optional arbiter backing: reservations grow lease_ and a refused
  /// grant fails the TryAcquire (the window simply stops growing).
  MemoryArbiter* arbiter_ = nullptr;
  MemoryLease lease_;
};

/// How many blocks of lookahead one reader may use when `budget_bytes` of
/// prefetch memory is split evenly across `live_runs` concurrently merged
/// runs: 1 free slot + this run's share of the budget, clamped to
/// kMaxPrefetchDepth. SpillManager::PrefetchDepthCap is its one caller:
/// every merge derives its readers' cap from its own width when it opens
/// them, and the cap stays fixed for the reader's life.
size_t ApportionPrefetchDepth(size_t budget_bytes, size_t live_runs,
                              size_t block_bytes);

/// WritableFile decorator that hands full blocks to a background flusher.
/// Append copies the data and returns immediately; at most one block is in
/// flight (double buffering: the caller fills the next block while the
/// previous one rides the storage round trip). Errors from background
/// flushes are latched and surfaced on the next Append/Flush/Close — never
/// lost. Once an error is latched every later call returns it and no
/// further data is written. A cancellation is not latched: it stops a
/// flush before storage is touched (io/retry.h), so the block is kept and
/// the next Append/Flush/Close writes it first, on the caller's thread; a
/// file whose flush a cancelled query stopped still completes whole once
/// the token is shielded (CancelShield).
class DoubleBufferedWriter : public WritableFile {
 public:
  /// A non-null `arbiter` leases the in-flight block copy; when the lease
  /// is refused (hard pressure / budget exhausted) the writer degrades to
  /// synchronous write-through on the caller's thread instead of failing —
  /// slower, but no extra memory and byte-identical output (counted under
  /// mem.arbiter.writer_sync_fallback).
  DoubleBufferedWriter(std::unique_ptr<WritableFile> base, ThreadPool* pool,
                       MemoryArbiter* arbiter = nullptr);

  /// Waits for the in-flight block. A latched error that was never
  /// observed through Append/Flush/Close is logged at WARNING (the
  /// destructor cannot return Status).
  ~DoubleBufferedWriter() override;

  Status Append(std::string_view data) override;
  Status Flush() override;
  Status Close() override;

 private:
  /// Blocks until no flush is in flight; returns the latched status.
  Status WaitForInflight();
  /// Writes the block a cancellation stopped, if any. Called with no flush
  /// in flight.
  Status WriteStoppedBlock();

  std::unique_ptr<WritableFile> base_;
  ThreadPool* pool_;
  MemoryArbiter* arbiter_;
  /// Lease over the in-flight block copy (detached without an arbiter or
  /// after a refused grant put the writer in write-through mode).
  MemoryLease lease_;
  /// Latched once a lease was refused: all later Appends write through
  /// synchronously (no flapping back to buffered mode under pressure).
  bool sync_fallback_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool inflight_ = false;
  Status latched_;          // first background error, sticky
  bool error_observed_ = false;  // latched_ was returned to the caller
  std::string writing_;     // block owned by the background task
  bool stopped_block_ = false;   // writing_ holds a block a cancel stopped
  bool closed_ = false;
};

/// Opens one more SequentialFile on the same (immutable, fully written)
/// file, positioned at byte 0. PrefetchingBlockReader uses it to put more
/// than one storage round trip in flight per stream: a plain sequential
/// handle serialises its reads, but extra handles on a finished run file
/// can each ride their own round trip concurrently.
using SequentialFileFactory =
    std::function<Result<std::unique_ptr<SequentialFile>>()>;

/// SequentialFile decorator that keeps an adaptive window of block-size
/// reads in flight ahead of the consumer. The prefetch of the first block
/// starts at construction (so a K-way merge opening many runs overlaps
/// their first round trips); the *second* block, however, is only fetched
/// once the consumer actually exhausts the first — a run must survive its
/// first refill before the pipeline reads ahead. A k-limited merge
/// abandons most runs inside their first block, so this deferral removes
/// the one-wasted-block-per-run overshoot (quantified by
/// io.prefetch.blocks_unconsumed) at the cost of one unoverlapped round
/// trip per surviving run.
///
/// From the second refill on, the reader maintains a multi-slot ring of
/// in-flight reads: each slot claims the next block offset and fetches it
/// on the pool, completions land in an offset-keyed ring and are promoted
/// to the consumer strictly in file order. One sequential handle can only
/// serialise its reads, so slots beyond the first open additional handles
/// on the same file through the `reopen` factory (run files are immutable
/// once finished) and stripe themselves across block offsets with cheap
/// relative seeks — up to depth round trips genuinely overlap, and a
/// latency-bound merge drains a hot run depth times faster.
///
/// The window scales itself: the reader tracks an EWMA of the block
/// round-trip time (measured around each storage Read) and of the
/// consumer's per-block merge time (measured from one promotion to the
/// next refill *request*, so stall time is excluded), and targets
/// ceil(rtt / consume) blocks, clamped to [1, depth_cap] (halved while
/// the budget reports memory pressure). Slots beyond the first are
/// reserved from the shared PrefetchBudget and returned as the window
/// shrinks, at EOF, and on destruction — a run abandoned by the cutoff
/// hands its share back to the pool. A depth_cap of 1 is the fixed
/// one-block pipeline.
///
/// Errors from background reads are latched and surfaced on the Read/Skip
/// that would have consumed the data (ring blocks fetched before the error
/// are served first). CancelPrefetch marks the remaining lookahead as
/// deliberately discarded: the destructor then counts leftover blocks
/// under io.prefetch.blocks_cancelled instead of blocks_unconsumed, so a
/// merge stopping early at k rows does not masquerade as overshoot.
///
/// Intended to sit under a BlockReader configured with the same
/// `block_bytes`, so each Refill consumes exactly one prefetched block.
class PrefetchingBlockReader : public SequentialFile {
 public:
  /// `depth_cap` bounds the adaptive window (1 = fixed single-block
  /// lookahead). `budget` gates every slot beyond the first. `reopen`
  /// lets slots open extra handles for genuinely concurrent reads (see the
  /// class comment); it is also what hedged reads duplicate straggling
  /// fetches onto. `budget` and `reopen` are required. `tuning` carries
  /// the degraded-storage knobs (hedging, consumer deadline, cancel).
  PrefetchingBlockReader(std::unique_ptr<SequentialFile> base,
                         ThreadPool* pool, size_t block_bytes,
                         size_t depth_cap, PrefetchBudget* budget,
                         SequentialFileFactory reopen,
                         const PrefetchTuning& tuning = PrefetchTuning());

  ~PrefetchingBlockReader() override;

  Status Read(size_t n, char* scratch, size_t* bytes_read) override;
  Status Skip(uint64_t n) override;

  /// Stops the pump after its in-flight block and marks the remaining
  /// lookahead as deliberately discarded (counted under
  /// io.prefetch.blocks_cancelled). Called by the merge when it stops
  /// early at k rows / the cutoff; does not block.
  void CancelPrefetch();

  /// Current adaptive window target (blocks of lookahead). Exposed for
  /// tests and debugging.
  size_t target_depth() const;

  /// Highest window target this reader ever adapted to (the current
  /// target shrinks back to 1 at EOF). Exposed for tests and debugging.
  size_t max_target_depth() const;

 private:
  struct FetchedBlock {
    std::vector<char> data;
    size_t size = 0;
  };

  /// One sequential handle on the underlying file plus the byte offset it
  /// is positioned at. A handle is either idle (owned by idle_handles_)
  /// or checked out by exactly one in-flight fetch task.
  struct Handle {
    std::unique_ptr<SequentialFile> file;
    uint64_t pos = 0;
  };

  /// Claims the next block offset and schedules its fetch on the pool,
  /// reusing the best-positioned idle handle (or opening a new one via
  /// reopen_). False when nothing can be issued: EOF reached, error
  /// latched, or no handle is available. Not gated on stopping_ or the
  /// deferral — those belong to TopUpLocked; the consumer's demand fetch
  /// must always work. Caller holds mu_.
  bool IssueOneLocked();
  /// Issues readahead fetches until ring + in-flight reaches the usable
  /// window (deferral passed, budget slots acquired). Caller holds mu_.
  void TopUpLocked();
  /// Body of one fetch task: seeks the handle to `offset` if needed,
  /// reads one block, and lands the completion in the ring. A hedge task
  /// (`is_hedge`) is a deliberate duplicate of an in-flight fetch: the
  /// first completion for an offset supplies the block, the loser is
  /// discarded (io.hedge.wasted when the hedge lost) and its handle is
  /// recycled.
  void FetchStep(std::shared_ptr<Handle> handle, uint64_t offset,
                 uint64_t skip, bool is_hedge);
  /// Issues a duplicate fetch of the cursor block on a spare or freshly
  /// opened handle (one handle beyond the depth cap is allowed for the
  /// hedge). Caller holds mu_.
  bool IssueHedgeLocked();
  /// The effective depth cap right now: the construction-time cap,
  /// halved while the budget reports memory pressure. Caller holds mu_.
  size_t DynamicDepthCapLocked() const;
  /// Reserves budget slots up to target_depth_ - 1. Caller holds mu_.
  void AcquireForTargetLocked();
  /// Returns slots not needed by the current target or the blocks still
  /// held in memory or in flight. Caller holds mu_.
  void ReleaseExcessLocked();
  /// Recomputes target_depth_ from the EWMAs (after warmup) and records
  /// the gauge/histogram/trace instant on change. Caller holds mu_.
  void UpdateTargetLocked();
  /// Moves the ring's front block (which the caller has checked sits at
  /// consume_offset_) into the ready buffer. Caller holds mu_.
  void PromoteLocked();

  ThreadPool* pool_;
  size_t block_bytes_;
  size_t depth_cap_;
  PrefetchBudget* budget_;
  SequentialFileFactory reopen_;
  PrefetchTuning tuning_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t inflight_ = 0;     // fetch tasks currently on the pool
  bool stopping_ = false;   // destructor/cancel: no more readahead
  bool cancelled_ = false;  // leftovers are deliberate, not overshoot
  Status latched_;
  /// Next byte offset a fetch slot will claim (block_bytes_ strides).
  uint64_t fetch_offset_ = 0;
  /// Offset of the next block the consumer will promote; blocks are
  /// promoted strictly in offset order.
  uint64_t consume_offset_ = 0;
  /// End of file as discovered by a short or empty read; fetches are
  /// never issued at or past it.
  uint64_t eof_offset_ = std::numeric_limits<uint64_t>::max();
  /// Completed blocks ahead of the consumer, keyed by byte offset
  /// (completions land out of order when several slots are in flight).
  std::map<uint64_t, FetchedBlock> ring_;
  /// In-flight fetch tasks per offset (2 while a hedge races its primary).
  /// A failed fetch only latches when no other copy of its offset is in
  /// flight or already landed — the hedge's whole point.
  std::map<uint64_t, int> inflight_by_offset_;
  /// Offsets a hedge was issued for (never hedge the same block twice);
  /// pruned as the consumer moves past them.
  std::set<uint64_t> hedged_;
  /// Handles not checked out by a fetch task, each tagged with its file
  /// position. handles_total_ counts idle + checked-out, capped at
  /// depth_cap_.
  std::vector<std::shared_ptr<Handle>> idle_handles_;
  size_t handles_total_ = 0;
  /// Budget slots currently reserved (each block_bytes_ large); the first
  /// lookahead slot is free and not counted here.
  size_t reserved_slots_ = 0;
  size_t target_depth_ = 1;
  size_t max_target_depth_ = 1;

  /// EWMA of the storage round trip per block (pump-side) and of the
  /// consumer's merge time per block (promotion -> next refill request).
  double rtt_ewma_nanos_ = 0.0;
  double consume_ewma_nanos_ = 0.0;
  size_t consume_samples_ = 0;
  std::chrono::steady_clock::time_point last_promote_;
  bool last_promote_valid_ = false;

  std::vector<char> ready_;  // completed block being consumed
  size_t ready_size_ = 0;
  size_t ready_pos_ = 0;

  /// Number of blocks promoted to the consumer. Pipelining ahead only
  /// starts after the second promotion (the run survived its first
  /// refill).
  size_t blocks_promoted_ = 0;
};

}  // namespace topk

#endif  // TOPK_IO_ASYNC_IO_H_
