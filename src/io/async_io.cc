#include "io/async_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/query_control.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {

/// Smoothing factor of the round-trip / consume-interval EWMAs: heavy
/// enough on history that one slow block does not whipsaw the window.
constexpr double kEwmaAlpha = 0.3;
/// Consume-interval samples required before the window may grow past one
/// block: the first refill interval includes reader-open noise, and a run
/// that dies young (the k-limited common case) never reaches the bar.
constexpr size_t kDepthWarmupSamples = 2;

double UpdateEwma(double ewma, double sample) {
  return ewma == 0.0 ? sample : kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * ewma;
}

// Pipeline-wide metrics; the global handle is resolved once, and each
// event also lands in the current query's scoped registry when one is
// installed (ObsCounter dual recording).
ObsCounter& FlushBlocksCounter() {
  static ObsCounter counter("io.flush.blocks");
  return counter;
}
ObsHistogram& FlushBlockHistogram() {
  static ObsHistogram histogram("io.flush.block_nanos");
  return histogram;
}
ObsCounter& PrefetchBlocksCounter() {
  static ObsCounter counter("io.prefetch.blocks");
  return counter;
}
ObsHistogram& PrefetchBlockHistogram() {
  static ObsHistogram histogram("io.prefetch.block_nanos");
  return histogram;
}
ObsCounter& PrefetchUnconsumedCounter() {
  static ObsCounter counter("io.prefetch.blocks_unconsumed");
  return counter;
}
ObsCounter& PrefetchCancelledCounter() {
  static ObsCounter counter("io.prefetch.blocks_cancelled");
  return counter;
}
ObsGauge& PrefetchDepthGauge() {
  static ObsGauge gauge("io.prefetch.depth");
  return gauge;
}
ObsHistogram& PrefetchDepthHistogram() {
  static ObsHistogram histogram("io.prefetch.depth");
  return histogram;
}
ObsCounter& HedgeIssuedCounter() {
  static ObsCounter counter("io.hedge.issued");
  return counter;
}
ObsCounter& HedgeWinsCounter() {
  static ObsCounter counter("io.hedge.wins");
  return counter;
}
ObsCounter& HedgeWastedCounter() {
  static ObsCounter counter("io.hedge.wasted");
  return counter;
}
ObsCounter& ReadDeadlineCounter() {
  static ObsCounter counter("io.prefetch.deadline_exceeded");
  return counter;
}
/// Times a reader's depth cap was halved because the memory arbiter
/// reported soft pressure — the prefetch rung of the degradation ladder.
ObsCounter& PrefetchShrunkCounter() {
  static ObsCounter counter("mem.arbiter.prefetch_shrunk");
  return counter;
}
/// Appends that degraded to synchronous write-through because the arbiter
/// refused to lease the in-flight block copy.
ObsCounter& WriterSyncFallbackCounter() {
  static ObsCounter counter("mem.arbiter.writer_sync_fallback");
  return counter;
}

}  // namespace

void PrefetchBudget::AttachArbiter(MemoryArbiter* arbiter) {
  std::lock_guard<std::mutex> lock(mu_);
  arbiter_ = arbiter;
  lease_.Release();
}

bool PrefetchBudget::TryAcquire(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (acquired_ + bytes > total_) return false;
  if (arbiter_ != nullptr) {
    // A refused (or fault-injected) grant is not an error here: the window
    // simply stops growing. Contain mode=throw injections too — TryAcquire
    // runs on pool threads where an escaping bad_alloc would abort.
    try {
      if (!lease_.attached()) {
        auto acquired = arbiter_->Acquire("prefetch-budget", 0);
        if (!acquired.ok()) return false;
        lease_ = std::move(acquired).value();
      }
      if (!lease_.EnsureAtLeast(acquired_ + bytes).ok()) return false;
    } catch (const std::bad_alloc&) {
      return false;
    }
  }
  acquired_ += bytes;
  return true;
}

void PrefetchBudget::Release(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  acquired_ = bytes > acquired_ ? 0 : acquired_ - bytes;
  lease_.ShrinkTo(acquired_);
}

size_t PrefetchBudget::acquired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquired_;
}

size_t ApportionPrefetchDepth(size_t budget_bytes, size_t live_runs,
                              size_t block_bytes) {
  if (block_bytes == 0) return 1;
  if (live_runs == 0) live_runs = 1;
  const size_t extra_slots = budget_bytes / block_bytes / live_runs;
  return std::min<size_t>(1 + extra_slots, kMaxPrefetchDepth);
}

DoubleBufferedWriter::DoubleBufferedWriter(std::unique_ptr<WritableFile> base,
                                           ThreadPool* pool,
                                           MemoryArbiter* arbiter)
    : base_(std::move(base)), pool_(pool), arbiter_(arbiter) {
  TOPK_CHECK(pool_ != nullptr) << "DoubleBufferedWriter needs a thread pool";
}

DoubleBufferedWriter::~DoubleBufferedWriter() {
  WaitForInflight();
  std::lock_guard<std::mutex> lock(mu_);
  if (!latched_.ok() && !error_observed_) {
    TOPK_LOG(Warning) << "background write error dropped in destructor: "
                      << latched_.ToString();
  }
}

Status DoubleBufferedWriter::WaitForInflight() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!inflight_) return latched_;
  // Flush backpressure: the producer outran the background writer. Charge
  // the stall to the current phase as I/O wait.
  Stopwatch wait_watch;
  cv_.wait(lock, [this] { return !inflight_; });
  ObsRecordIoWait(wait_watch.ElapsedNanos());
  return latched_;
}

Status DoubleBufferedWriter::Append(std::string_view data) {
  Status latched = WaitForInflight();
  // No flush is in flight now and the background task is done touching our
  // state, so the members are safe to use without the lock.
  if (closed_) {
    return Status::FailedPrecondition("append to closed writer");
  }
  if (!latched.ok()) {
    error_observed_ = true;
    return latched;
  }
  TOPK_RETURN_NOT_OK(WriteStoppedBlock());
  if (arbiter_ != nullptr && !sync_fallback_) {
    // Lease the in-flight block copy. A refused grant (hard pressure,
    // budget exhausted, injected fault) degrades this writer to synchronous
    // write-through for good: the caller's buffer is written directly, no
    // copy is held, output stays byte-identical — just unoverlapped.
    bool leased = false;
    try {
      if (!lease_.attached()) {
        auto acquired = arbiter_->Acquire("double-buffered-writer", 0);
        if (acquired.ok()) lease_ = std::move(acquired).value();
      }
      leased = lease_.attached() && lease_.EnsureAtLeast(data.size()).ok();
    } catch (const std::bad_alloc&) {
      leased = false;
    }
    if (!leased) {
      sync_fallback_ = true;
      lease_.Release();
      WriterSyncFallbackCounter().Add(1);
    }
  }
  if (sync_fallback_) {
    return base_->Append(data);
  }
  writing_.assign(data.data(), data.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = true;
  }
  pool_->Schedule([this] {
    PhaseScope phase("io.flush");
    TraceSpan span("spill.flush_block", "io.bg");
    if (span.active()) {
      span.AddArg(TraceArg("bytes", writing_.size()));
    }
    Stopwatch watch;
    Status status = base_->Append(writing_);
    FlushBlocksCounter().Add(1);
    FlushBlockHistogram().Record(watch.ElapsedNanos());
    std::lock_guard<std::mutex> lock(mu_);
    if (IsCancellation(status.code())) {
      stopped_block_ = true;
    } else if (!status.ok() && latched_.ok()) {
      latched_ = status;
    }
    inflight_ = false;
    cv_.notify_all();
  });
  return Status::OK();
}

Status DoubleBufferedWriter::Flush() {
  Status latched = WaitForInflight();
  if (closed_) {
    return Status::FailedPrecondition("flush of closed writer");
  }
  if (!latched.ok()) {
    error_observed_ = true;
    return latched;
  }
  TOPK_RETURN_NOT_OK(WriteStoppedBlock());
  return base_->Flush();
}

Status DoubleBufferedWriter::Close() {
  Status latched = WaitForInflight();
  if (closed_) return latched;
  if (!latched.ok()) {
    closed_ = true;
    error_observed_ = true;
    base_->Close();  // release the handle either way; keep the first error
    return latched;
  }
  // A cancellation touches no storage: a later Close finishes the file.
  Status status = WriteStoppedBlock();
  if (IsCancellation(status.code())) return status;
  if (!status.ok()) {
    closed_ = true;
    base_->Close();  // release the handle either way; keep the first error
    return status;
  }
  status = base_->Close();
  closed_ = !IsCancellation(status.code());
  return status;
}

Status DoubleBufferedWriter::WriteStoppedBlock() {
  // No flush is in flight, so the background task holds none of this.
  if (!stopped_block_) return Status::OK();
  Status status = base_->Append(writing_);
  if (IsCancellation(status.code())) return status;
  stopped_block_ = false;
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    latched_ = status;
    error_observed_ = true;
  }
  return status;
}

PrefetchingBlockReader::PrefetchingBlockReader(
    std::unique_ptr<SequentialFile> base, ThreadPool* pool, size_t block_bytes,
    size_t depth_cap, PrefetchBudget* budget, SequentialFileFactory reopen,
    const PrefetchTuning& tuning)
    : pool_(pool),
      block_bytes_(block_bytes),
      depth_cap_(std::clamp<size_t>(depth_cap, 1, kMaxPrefetchDepth)),
      budget_(budget),
      reopen_(std::move(reopen)),
      tuning_(tuning) {
  TOPK_CHECK(pool_ != nullptr) << "PrefetchingBlockReader needs a thread pool";
  TOPK_CHECK(budget_ != nullptr) << "PrefetchingBlockReader needs a budget";
  TOPK_CHECK(reopen_ != nullptr)
      << "PrefetchingBlockReader needs a reopen factory";
  TOPK_CHECK(block_bytes_ > 0) << "block size must be positive";
  auto handle = std::make_shared<Handle>();
  handle->file = std::move(base);
  // Fetch the first block immediately: when a merge opens many runs, their
  // first blocks ride the storage round trip concurrently instead of one
  // after another.
  std::lock_guard<std::mutex> lock(mu_);
  idle_handles_.push_back(std::move(handle));
  handles_total_ = 1;
  IssueOneLocked();
}

PrefetchingBlockReader::~PrefetchingBlockReader() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  cv_.wait(lock, [this] { return inflight_ == 0; });
  // Blocks fetched off storage but never handed to the consumer. After a
  // deliberate CancelPrefetch (merge stopped at k rows / the cutoff) they
  // are accounted as cancelled; otherwise they are overshoot — wasted
  // round trips the adaptive window should have avoided.
  uint64_t leftover = ring_.size();
  if (ready_size_ > 0 && ready_pos_ == 0) ++leftover;
  if (leftover > 0) {
    (cancelled_ ? PrefetchCancelledCounter() : PrefetchUnconsumedCounter())
        .Add(leftover);
  }
  if (reserved_slots_ > 0) {
    budget_->Release(reserved_slots_ * block_bytes_);
    reserved_slots_ = 0;
  }
}

void PrefetchingBlockReader::CancelPrefetch() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  stopping_ = true;  // in-flight fetches finish, but no new readahead
  // An abandoned run will never grow its window again: hand the budget
  // share back right now instead of waiting for this reader's destruction.
  target_depth_ = 1;
  ReleaseExcessLocked();
}

size_t PrefetchingBlockReader::DynamicDepthCapLocked() const {
  if (depth_cap_ > 1 && budget_->pressure_shrink()) {
    // Memory-arbiter soft pressure: halve the lookahead this reader may
    // target. Excess slots drain back to the budget (and its lease) via
    // ReleaseExcessLocked.
    PrefetchShrunkCounter().Add(1);
    return depth_cap_ / 2;
  }
  return depth_cap_;
}

size_t PrefetchingBlockReader::target_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return target_depth_;
}

size_t PrefetchingBlockReader::max_target_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_target_depth_;
}

bool PrefetchingBlockReader::IssueOneLocked() {
  if (!latched_.ok()) return false;
  if (fetch_offset_ >= eof_offset_) return false;
  // Prefer the idle handle closest behind the claim (usually exactly at
  // it: the handle that completed the previous stripe).
  size_t best = idle_handles_.size();
  for (size_t i = 0; i < idle_handles_.size(); ++i) {
    if (idle_handles_[i]->pos > fetch_offset_) continue;
    if (best == idle_handles_.size() ||
        idle_handles_[i]->pos > idle_handles_[best]->pos) {
      best = i;
    }
  }
  std::shared_ptr<Handle> handle;
  if (best < idle_handles_.size()) {
    handle = std::move(idle_handles_[best]);
    idle_handles_.erase(idle_handles_.begin() + best);
  } else if (handles_total_ < DynamicDepthCapLocked()) {
    auto opened = reopen_();
    if (!opened.ok()) return false;  // fewer slots, not a stream error
    handle = std::make_shared<Handle>();
    handle->file = std::move(*opened);
    ++handles_total_;
  } else {
    return false;  // every handle is busy; a completion re-issues
  }
  const uint64_t offset = fetch_offset_;
  const uint64_t skip = offset - handle->pos;
  fetch_offset_ += block_bytes_;
  ++inflight_;
  ++inflight_by_offset_[offset];
  pool_->Schedule([this, handle = std::move(handle), offset, skip]() mutable {
    FetchStep(std::move(handle), offset, skip, /*is_hedge=*/false);
  });
  return true;
}

bool PrefetchingBlockReader::IssueHedgeLocked() {
  const uint64_t offset = consume_offset_;
  // Any handle at or before the block can serve the duplicate (forward
  // Skip only); prefer the furthest-advanced one.
  size_t best = idle_handles_.size();
  for (size_t i = 0; i < idle_handles_.size(); ++i) {
    if (idle_handles_[i]->pos > offset) continue;
    if (best == idle_handles_.size() ||
        idle_handles_[i]->pos > idle_handles_[best]->pos) {
      best = i;
    }
  }
  std::shared_ptr<Handle> handle;
  if (best < idle_handles_.size()) {
    handle = std::move(idle_handles_[best]);
    idle_handles_.erase(idle_handles_.begin() + best);
  } else if (handles_total_ < DynamicDepthCapLocked() + 1) {
    // One handle beyond the window cap is reserved for the hedge: the
    // whole window may legitimately be in flight when the straggler hits.
    auto opened = reopen_();
    if (!opened.ok()) return false;
    handle = std::make_shared<Handle>();
    handle->file = std::move(*opened);
    ++handles_total_;
  } else {
    return false;
  }
  hedged_.insert(offset);
  HedgeIssuedCounter().Add(1);
  if (TracingEnabled()) {
    TraceInstant("io.hedge", "io",
                 {TraceArg("offset", offset),
                  TraceArg("rtt_ewma_nanos", rtt_ewma_nanos_)});
  }
  const uint64_t skip = offset - handle->pos;
  ++inflight_;
  ++inflight_by_offset_[offset];
  pool_->Schedule([this, handle = std::move(handle), offset, skip]() mutable {
    FetchStep(std::move(handle), offset, skip, /*is_hedge=*/true);
  });
  return true;
}

void PrefetchingBlockReader::TopUpLocked() {
  if (stopping_ || !latched_.ok()) return;
  if (fetch_offset_ >= eof_offset_) {
    // Every remaining byte is claimed or consumed: the window is done
    // growing, so shed reservations instead of re-acquiring them.
    target_depth_ = 1;
    ReleaseExcessLocked();
    return;
  }
  // Pipelining ahead only starts once the run survived its first refill.
  // Most runs of a k-limited merge die inside block one; prefetching their
  // second block is the overshoot the io.prefetch.blocks_unconsumed
  // counter measures.
  if (blocks_promoted_ < 2) return;
  AcquireForTargetLocked();
  const size_t usable = std::min(target_depth_, 1 + reserved_slots_);
  while (ring_.size() + inflight_ < usable) {
    if (!IssueOneLocked()) break;
  }
}

void PrefetchingBlockReader::FetchStep(std::shared_ptr<Handle> handle,
                                       uint64_t offset, uint64_t skip,
                                       bool is_hedge) {
  PhaseScope phase("io.prefetch");
  FetchedBlock block;
  block.data.resize(block_bytes_);
  Status status;
  int64_t nanos = 0;
  if (skip > 0) {
    // Reposition a reused (or freshly opened) handle onto this slot's
    // stripe: a relative seek, no storage round trip.
    status = handle->file->Skip(skip);
  }
  if (status.ok()) {
    TraceSpan span("merge.prefetch_block", "io.bg");
    Stopwatch watch;
    status = handle->file->Read(block_bytes_, block.data.data(), &block.size);
    nanos = watch.ElapsedNanos();
    if (span.active()) {
      span.AddArg(TraceArg("bytes", block.size));
    }
    PrefetchBlocksCounter().Add(1);
    PrefetchBlockHistogram().Record(nanos);
  }

  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  auto of_it = inflight_by_offset_.find(offset);
  if (of_it != inflight_by_offset_.end() && --(of_it->second) <= 0) {
    inflight_by_offset_.erase(of_it);
  }
  // Did the other copy of this offset already deliver (hedge raced its
  // primary)? Then this completion — success or failure — is moot.
  const bool covered =
      offset < consume_offset_ || ring_.count(offset) > 0;
  const bool duplicate_in_flight = inflight_by_offset_.count(offset) > 0;
  if (!status.ok()) {
    // The handle's position is unknown after a failed seek/read; drop it.
    --handles_total_;
    // Only latch when no other copy of the block can still arrive: a dead
    // hedge (or a dead primary whose hedge won) is not a stream error.
    if (!covered && !duplicate_in_flight && latched_.ok()) latched_ = status;
  } else {
    handle->pos = offset + block.size;
    if (covered) {
      // Lost the race; the block already reached the consumer path.
      if (is_hedge) HedgeWastedCounter().Add(1);
    } else {
      if (block.size < block_bytes_) {
        // Short or empty read: the end of the file is at offset + size,
        // and no claim at or past it can produce data.
        eof_offset_ = std::min(eof_offset_, offset + block.size);
      }
      if (block.size > 0) {
        rtt_ewma_nanos_ =
            UpdateEwma(rtt_ewma_nanos_, static_cast<double>(nanos));
        ring_.emplace(offset, std::move(block));
        if (is_hedge) HedgeWinsCounter().Add(1);
      }
    }
    idle_handles_.push_back(std::move(handle));
  }
  if (fetch_offset_ >= eof_offset_ || !latched_.ok()) {
    if (inflight_ == 0) {
      // No further fetches can happen; shed reservations the held blocks
      // do not need so sibling runs can deepen.
      target_depth_ = 1;
      ReleaseExcessLocked();
    }
  } else if (!stopping_) {
    TopUpLocked();
  }
  cv_.notify_all();
}

void PrefetchingBlockReader::AcquireForTargetLocked() {
  while (reserved_slots_ + 1 < target_depth_ &&
         budget_->TryAcquire(block_bytes_)) {
    ++reserved_slots_;
  }
}

void PrefetchingBlockReader::ReleaseExcessLocked() {
  // Reservations must keep covering blocks physically held in memory (the
  // ring plus every in-flight fetch buffer), minus the free first slot.
  const size_t held = ring_.size() + inflight_;
  const size_t needed =
      std::max(target_depth_ - 1, held > 0 ? held - 1 : 0);
  if (reserved_slots_ > needed) {
    budget_->Release((reserved_slots_ - needed) * block_bytes_);
    reserved_slots_ = needed;
  }
}

void PrefetchingBlockReader::UpdateTargetLocked() {
  if (consume_samples_ < kDepthWarmupSamples) return;
  if (rtt_ewma_nanos_ <= 0.0 || consume_ewma_nanos_ <= 0.0) return;
  const double ratio = rtt_ewma_nanos_ / consume_ewma_nanos_;
  const size_t want = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(ratio)), 1, DynamicDepthCapLocked());
  if (want == target_depth_) return;
  const size_t old = target_depth_;
  target_depth_ = want;
  max_target_depth_ = std::max(max_target_depth_, want);
  PrefetchDepthGauge().Set(static_cast<int64_t>(want));
  PrefetchDepthHistogram().Record(static_cast<int64_t>(want));
  if (TracingEnabled()) {
    TraceInstant("prefetch.depth_change", "io",
                 {TraceArg("old", old), TraceArg("new", want),
                  TraceArg("rtt_ewma_nanos", rtt_ewma_nanos_),
                  TraceArg("consume_ewma_nanos", consume_ewma_nanos_)});
  }
}

void PrefetchingBlockReader::PromoteLocked() {
  auto it = ring_.begin();
  ready_ = std::move(it->second.data);
  ready_size_ = it->second.size;
  ready_pos_ = 0;
  ring_.erase(it);
  consume_offset_ += ready_size_;
  ++blocks_promoted_;
  hedged_.erase(hedged_.begin(), hedged_.lower_bound(consume_offset_));
  last_promote_ = std::chrono::steady_clock::now();
  last_promote_valid_ = true;
  ReleaseExcessLocked();
  TopUpLocked();
}

Status PrefetchingBlockReader::Read(size_t n, char* scratch,
                                    size_t* bytes_read) {
  *bytes_read = 0;
  if (ready_pos_ == ready_size_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (last_promote_valid_ && ready_size_ > 0) {
      // The time from the last promotion to this refill *request* is the
      // consumer's pure merge time for one block — sampled before any
      // waiting below, so storage stalls never inflate it.
      const double delta = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - last_promote_)
              .count());
      consume_ewma_nanos_ = UpdateEwma(consume_ewma_nanos_, delta);
      ++consume_samples_;
      UpdateTargetLocked();
    }
    Stopwatch wait_watch;
    for (;;) {
      // Blocks are promoted strictly in offset order; out-of-order
      // completions park in the ring until the cursor reaches them.
      if (!ring_.empty() && ring_.begin()->first == consume_offset_) break;
      if (consume_offset_ >= eof_offset_) {
        ready_size_ = 0;
        ready_pos_ = 0;
        ObsRecordIoWait(wait_watch.ElapsedNanos());
        return Status::OK();  // clean EOF
      }
      if (inflight_ == 0) {
        // Every claim has completed. A missing cursor block now means its
        // fetch failed (ring blocks before the error were served first).
        if (!latched_.ok()) {
          ObsRecordIoWait(wait_watch.ElapsedNanos());
          return latched_;
        }
        // Demand fetch: a Skip may have drained everything, or the
        // deferral kept the pipeline idle after the first block. Allowed
        // even after CancelPrefetch — a cancelled reader still serves its
        // consumer, one un-chained block per refill.
        if (!IssueOneLocked()) {
          return Status::IoError("prefetch pipeline has no readable handle");
        }
      }
      if (tuning_.cancel != nullptr && tuning_.cancel->ShouldStop()) {
        // Caller-initiated: surface promptly without waiting for the
        // in-flight fetch, and do NOT latch it as a stream error — the
        // pool-thread completion still lands in the ring and is released
        // (blocks_cancelled) at teardown.
        ObsRecordIoWait(wait_watch.ElapsedNanos());
        return tuning_.cancel->status();
      }
      const auto pred = [this] {
        return (!ring_.empty() && ring_.begin()->first == consume_offset_) ||
               inflight_ == 0 || consume_offset_ >= eof_offset_;
      };
      // Bounded waits, two reasons: a hedge threshold (duplicate the
      // straggling cursor fetch on a second handle) and the consumer
      // deadline (a hung storage call must surface as Unavailable, not
      // park the merge forever).
      const bool hedge_eligible =
          tuning_.hedge_reads && hedged_.count(consume_offset_) == 0 &&
          inflight_by_offset_.count(consume_offset_) > 0;
      int64_t hedge_wait_nanos = -1;
      if (hedge_eligible) {
        hedge_wait_nanos = std::max<int64_t>(
            tuning_.hedge_min_nanos,
            static_cast<int64_t>(tuning_.hedge_latency_multiplier *
                                 rtt_ewma_nanos_));
      }
      int64_t wait_nanos = hedge_wait_nanos;
      if (tuning_.read_deadline_nanos > 0) {
        const int64_t remaining =
            tuning_.read_deadline_nanos - wait_watch.ElapsedNanos();
        if (remaining <= 0) {
          ReadDeadlineCounter().Add(1);
          Status deadline = Status::Unavailable(
              "deadline exceeded waiting for block at offset " +
              std::to_string(consume_offset_));
          if (latched_.ok()) latched_ = deadline;
          ObsRecordIoWait(wait_watch.ElapsedNanos());
          return deadline;
        }
        wait_nanos =
            wait_nanos < 0 ? remaining : std::min(wait_nanos, remaining);
      }
      if (tuning_.cancel != nullptr) {
        // With a cancellation token armed, never park indefinitely: wait
        // in bounded slices so the top-of-loop poll observes a cancel
        // within one slice even when storage has hung.
        constexpr int64_t kCancelPollNanos = 10'000'000;  // 10 ms
        wait_nanos = wait_nanos < 0 ? kCancelPollNanos
                                    : std::min(wait_nanos, kCancelPollNanos);
      }
      if (wait_nanos < 0) {
        cv_.wait(lock, pred);
      } else if (!cv_.wait_for(lock, std::chrono::nanoseconds(wait_nanos),
                               pred)) {
        if (hedge_eligible && hedge_wait_nanos >= 0 &&
            wait_watch.ElapsedNanos() >= hedge_wait_nanos &&
            hedged_.count(consume_offset_) == 0 &&
            inflight_by_offset_.count(consume_offset_) > 0) {
          // Only hedge once the full hedge threshold has elapsed — a
          // cancel-poll slice waking early must not duplicate the fetch.
          IssueHedgeLocked();
        }
        // A deadline overrun is caught by the remaining-time check above
        // on the next iteration.
      }
    }
    ObsRecordIoWait(wait_watch.ElapsedNanos());
    PromoteLocked();
  }
  const size_t take = std::min(n, ready_size_ - ready_pos_);
  std::memcpy(scratch, ready_.data() + ready_pos_, take);
  ready_pos_ += take;
  *bytes_read = take;
  return Status::OK();
}

Status PrefetchingBlockReader::Skip(uint64_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return inflight_ == 0; });
  if (!latched_.ok()) return latched_;
  uint64_t remaining = n;
  const uint64_t from_ready =
      std::min<uint64_t>(remaining, ready_size_ - ready_pos_);
  ready_pos_ += from_ready;
  remaining -= from_ready;
  while (remaining > 0 && !ring_.empty() &&
         ring_.begin()->first == consume_offset_) {
    // Consume completed prefetches before moving the cursor. Skips are
    // not promotions: the deferral still applies to the first block the
    // consumer actually reads.
    auto it = ring_.begin();
    FetchedBlock block = std::move(it->second);
    ring_.erase(it);
    consume_offset_ += block.size;
    const uint64_t use = std::min<uint64_t>(remaining, block.size);
    remaining -= use;
    if (use < block.size) {
      ready_ = std::move(block.data);
      ready_size_ = block.size;
      ready_pos_ = use;
    }
  }
  ReleaseExcessLocked();
  if (remaining > 0) {
    // Nothing buffered covers the rest: just advance the cursor. The next
    // fetch repositions whichever handle it picks with a relative seek, so
    // no storage call happens here.
    consume_offset_ += remaining;
    if (fetch_offset_ < consume_offset_) fetch_offset_ = consume_offset_;
  }
  if (ready_pos_ == ready_size_ && ring_.empty() &&
      consume_offset_ < eof_offset_) {
    // Buffers drained past the seek point: restart the eager first fetch.
    IssueOneLocked();
  }
  return Status::OK();
}

}  // namespace topk
