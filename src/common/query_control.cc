#include "common/query_control.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {

ObsCounter& CancelRequestedCounter() {
  static ObsCounter counter("query.cancel.requested");
  return counter;
}
ObsCounter& DeadlineExpiredCounter() {
  static ObsCounter counter("query.deadline.expired");
  return counter;
}
ObsCounter& CrashPointHitCounter() {
  static ObsCounter counter("query.crash_point.hit");
  return counter;
}

}  // namespace

void CancellationToken::RequestCancel(std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_.load(std::memory_order_relaxed)) return;  // first cause wins
  terminal_ = Status::Cancelled(
      reason.empty() ? "query cancelled" : "query cancelled: " + reason);
  CancelRequestedCounter().Add(1);
  TraceInstant("query.cancelled", "query");
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void CancellationToken::SetDeadline(uint64_t nanos_from_now) {
  uint64_t absolute = watch_.ElapsedNanos() + nanos_from_now;
  if (absolute == 0) absolute = 1;  // 0 means "unarmed"
  deadline_nanos_.store(absolute, std::memory_order_relaxed);
}

void CancellationToken::LatchDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_.load(std::memory_order_relaxed)) return;  // first cause wins
  terminal_ = Status::DeadlineExceeded("query deadline exceeded");
  DeadlineExpiredCounter().Add(1);
  TraceInstant("query.deadline_exceeded", "query");
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
}

bool CancellationToken::ShouldStop() const {
  if (shield_depth_.load(std::memory_order_relaxed) > 0) return false;
  if (stop_.load(std::memory_order_relaxed)) return true;
  const uint64_t deadline = deadline_nanos_.load(std::memory_order_relaxed);
  if (deadline != 0 &&
      static_cast<uint64_t>(watch_.ElapsedNanos()) >= deadline) {
    LatchDeadline();
    return true;
  }
  return false;
}

Status CancellationToken::status() const {
  if (!stop_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return terminal_;
}

bool CancellationToken::WaitFor(uint64_t nanos) const {
  if (shield_depth_.load(std::memory_order_relaxed) > 0) {
    // Shielded waits are indistinguishable from a live token's: sleep the
    // full request (the shield holder wants the work to proceed normally).
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::nanoseconds(nanos),
                 [] { return false; });
    return true;
  }
  if (ShouldStop()) return false;
  uint64_t wait = nanos;
  const uint64_t deadline = deadline_nanos_.load(std::memory_order_relaxed);
  if (deadline != 0) {
    const uint64_t elapsed = watch_.ElapsedNanos();
    if (elapsed >= deadline) {
      LatchDeadline();
      return false;
    }
    wait = std::min(wait, deadline - elapsed);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::nanoseconds(wait), [this] {
      return stop_.load(std::memory_order_relaxed);
    });
  }
  // Re-check (and latch a deadline that expired during the sleep).
  return !ShouldStop();
}

/// ---------------------------------------------------------------------
/// Crash points.

namespace {

struct CrashState {
  std::atomic<bool> armed{false};
  std::mutex mu;
  std::string point;
  std::function<void()> handler;  // null = process-kill mode
};

CrashState& GlobalCrashState() {
  // Env arming happens on first touch of any crash-point API, so a binary
  // run under TOPK_CRASH_AT=<point> needs no code changes to be crashable.
  static CrashState* state = [] {
    auto* s = new CrashState();
    const char* env = std::getenv("TOPK_CRASH_AT");
    if (env != nullptr && env[0] != '\0') {
      bool known = false;
      for (const std::string& name : KnownCrashPoints()) {
        if (name == env) known = true;
      }
      if (known) {
        s->point = env;
        s->armed.store(true, std::memory_order_release);
      } else {
        std::fprintf(stderr,
                     "TOPK_CRASH_AT: unknown crash point '%s' (ignored)\n",
                     env);
      }
    }
    return s;
  }();
  return *state;
}

Status ValidateCrashPoint(const std::string& point) {
  for (const std::string& name : KnownCrashPoints()) {
    if (name == point) return Status::OK();
  }
  std::string known;
  for (const std::string& name : KnownCrashPoints()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  return Status::InvalidArgument("unknown crash point '" + point +
                                 "'; known points: " + known);
}

}  // namespace

const std::vector<std::string>& KnownCrashPoints() {
  static const std::vector<std::string>* points = new std::vector<std::string>{
      "post-run-flush",
      "pre-merge-step",
      "post-merge-step",
      "post-drop-checkpoint",
      "post-manifest-checkpoint",
      "optimized.mid-input",
      "optimized.resume-drop",
  };
  return *points;
}

Status ArmCrashPoint(const std::string& point) {
  TOPK_RETURN_NOT_OK(ValidateCrashPoint(point));
  CrashState& state = GlobalCrashState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.point = point;
  state.handler = nullptr;
  state.armed.store(true, std::memory_order_release);
  return Status::OK();
}

Status ArmCrashPointForTest(const std::string& point,
                            std::function<void()> handler) {
  TOPK_RETURN_NOT_OK(ValidateCrashPoint(point));
  CrashState& state = GlobalCrashState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.point = point;
  state.handler = std::move(handler);
  state.armed.store(true, std::memory_order_release);
  return Status::OK();
}

void DisarmCrashPoints() {
  CrashState& state = GlobalCrashState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.point.clear();
  state.handler = nullptr;
  state.armed.store(false, std::memory_order_release);
}

void HitCrashPoint(const char* point) {
  CrashState& state = GlobalCrashState();
  if (!state.armed.load(std::memory_order_acquire)) return;
  std::function<void()> handler;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.armed.load(std::memory_order_relaxed)) return;
    if (state.point != point) return;
    handler = state.handler;
  }
  CrashPointHitCounter().Add(1);
  TraceInstant("crash_point", "query", {TraceArg("point", point)});
  if (handler != nullptr) {
    handler();
    return;
  }
  std::fprintf(stderr, "TOPK_CRASH_AT: crashing at point '%s'\n", point);
  std::fflush(stderr);
  std::_Exit(kCrashExitCode);
}

}  // namespace topk
