#ifndef TOPK_COMMON_QUERY_CONTROL_H_
#define TOPK_COMMON_QUERY_CONTROL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"

namespace topk {

/// Cooperative cancellation and query-wide deadline for one query.
///
/// One token is shared (by plain pointer) between the thread driving the
/// query and any number of controller/pool threads. The controller calls
/// `RequestCancel` (or arms a deadline with `SetDeadline`); every long
/// loop in the query — per-row consume, run-generation spill, merge-step,
/// retry backoff, prefetch consumer wait — polls `ShouldStop`/`Check` and
/// unwinds with the token's terminal status.
///
/// Cost when idle: `ShouldStop` is one relaxed atomic load when no
/// deadline is armed, plus one steady-clock read when one is. A null
/// token pointer is always legal and means "not cancellable".
///
/// The first cause wins: once the token trips (cancel or deadline), the
/// terminal status is latched and later causes are ignored, so a query
/// reports one consistent reason everywhere.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token with Status::Cancelled. `reason` is folded into the
  /// message. Idempotent; wakes every `WaitFor` sleeper.
  void RequestCancel(std::string reason = "");

  /// Arms a query-wide deadline `nanos_from_now` from now. The token
  /// trips with Status::DeadlineExceeded the first time any poller looks
  /// at it past the deadline. Calling again re-arms (last call wins).
  void SetDeadline(uint64_t nanos_from_now);

  /// True once the token has tripped (checks the deadline as a side
  /// effect). The fast path for per-row polling.
  bool ShouldStop() const;

  /// OK while live; the latched Cancelled/DeadlineExceeded afterwards.
  Status Check() const { return ShouldStop() ? status() : Status::OK(); }

  /// The latched terminal status, or OK if the token has not tripped.
  /// Does not check the deadline.
  Status status() const;

  /// True once `RequestCancel`/deadline expiry has latched (no deadline
  /// re-check; pure flag read).
  bool cancelled() const { return stop_.load(std::memory_order_relaxed); }

  /// Sleeps up to `nanos` (bounded further by the deadline), waking
  /// early if the token trips. Returns true if the full wait elapsed
  /// with the token still live; false means "stop now" — the caller
  /// should return `status()`. Interruptible replacement for the blind
  /// sleep_for in retry backoff.
  bool WaitFor(uint64_t nanos) const;

 private:
  friend class CancelShield;

  void LatchDeadline() const;

  mutable std::atomic<bool> stop_{false};
  std::atomic<uint64_t> deadline_nanos_{0};  // vs watch_; 0 = unarmed
  /// While > 0 the token reports "live" to every poller (see CancelShield).
  mutable std::atomic<int> shield_depth_{0};
  Stopwatch watch_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable Status terminal_;  // guarded by mu_, readable once stop_ is set
};

/// Masks a tripped token for the lifetime of the scope: while at least one
/// shield is alive, ShouldStop()/Check()/WaitFor() behave as if the token
/// were live (status() still reports the latched cause). The durable
/// cancel handoff (keep-for-resume, Suspend after a cancel) needs this:
/// its final run flush and manifest writes are query work performed
/// *because of* the cancellation, and would otherwise be rejected by the
/// very token that prompted them — through the retry layer's fail-fast
/// check if nowhere else. A null token is legal and makes the shield a
/// no-op.
class CancelShield {
 public:
  explicit CancelShield(const CancellationToken* token) : token_(token) {
    if (token_ != nullptr) {
      token_->shield_depth_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~CancelShield() {
    if (token_ != nullptr) {
      token_->shield_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  CancelShield(const CancelShield&) = delete;
  CancelShield& operator=(const CancelShield&) = delete;

 private:
  const CancellationToken* token_;
};

/// True for the two caller-initiated terminal codes a tripped token
/// yields. Retry loops, storage-health accounting, and operator
/// first-error latches all treat these as "the caller changed their
/// mind", never as damage.
inline bool IsCancellation(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded;
}

/// Returns `token->status()` from the enclosing function if `token` is
/// non-null and has tripped (deadline included). The standard per-row /
/// per-step poll.
#define TOPK_RETURN_IF_CANCELLED(token_ptr)                      \
  do {                                                           \
    const ::topk::CancellationToken* _topk_tok = (token_ptr);    \
    if (_topk_tok != nullptr && _topk_tok->ShouldStop())         \
      return _topk_tok->status();                                \
  } while (false)

/// ---------------------------------------------------------------------
/// Deterministic crash points.
///
/// Named points are placed at phase boundaries where all state needed for
/// resume is durable (manifest flushed). Disarmed, `HitCrashPoint` is one
/// relaxed atomic load. Armed in process mode the process dies with
/// `_exit(kCrashExitCode)` — no destructors, no manifest cleanup — which
/// is exactly what a crash looks like to the resume path. Tests can arm
/// an in-process handler instead.
///
/// The environment variable `TOPK_CRASH_AT=<point>` arms process mode at
/// first use, so any binary (CLI, tests) can be crashed from a harness.

/// Process exit code used by armed crash points, asserted by the chaos
/// drivers to distinguish a deliberate crash from a real failure.
inline constexpr int kCrashExitCode = 42;

/// All registered crash point names:
///   post-run-flush           after run generation flushed + manifest durable
///   pre-merge-step           before an intermediate merge step starts
///   post-merge-step          after an intermediate merge step committed
///   post-drop-checkpoint     merge phase: runs beyond the cutoff released,
///                            manifest flushed, files not yet deleted
///   post-manifest-checkpoint end of Suspend, manifest flushed, dir kept
///   optimized.mid-input      after the optimized operator checkpointed
///                            input
///   optimized.resume-drop    optimized mid-input resume: replay-duplicated
///                            runs released, manifest flushed, files not
///                            yet deleted
const std::vector<std::string>& KnownCrashPoints();

/// Arms `point` in process mode (`_exit(kCrashExitCode)` when hit).
/// InvalidArgument (naming the known points) if `point` is not registered.
Status ArmCrashPoint(const std::string& point);

/// Arms `point` with an in-process handler (tests). The handler runs on
/// the thread that hits the point.
Status ArmCrashPointForTest(const std::string& point,
                            std::function<void()> handler);

/// Disarms any armed crash point (also suppresses TOPK_CRASH_AT).
void DisarmCrashPoints();

/// Fires if `point` is the armed crash point; otherwise near-free.
void HitCrashPoint(const char* point);

}  // namespace topk

#endif  // TOPK_COMMON_QUERY_CONTROL_H_
