#include "obs/obs_context.h"

#include <chrono>

#include "obs/trace.h"

namespace topk {
namespace {

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread observability cursor: which context is installed and which
/// phase node new work lands in. Both raw pointers, so an install touches
/// no reference count: whoever installed the scope (the CLI, a test, an
/// operator entry point, the pool-task wrapper) holds the owning shared_ptr
/// for strictly longer than the scope lives.
struct ObsTls {
  ObsContext* context = nullptr;
  PhaseNode* node = nullptr;
};

ObsTls& Tls() {
  thread_local ObsTls tls;
  return tls;
}

}  // namespace

PhaseTimeline::PhaseTimeline() {
  root_ = std::make_unique<PhaseNode>();
  root_->name = "query";
  background_ = std::make_unique<PhaseNode>();
  background_->name = "background";
}

PhaseNode* PhaseTimeline::EnterChild(PhaseNode* parent, const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& child : parent->children) {
    if (child->name == name) return child.get();
  }
  auto node = std::make_unique<PhaseNode>();
  node->name = name;
  node->parent = parent;
  PhaseNode* raw = node.get();
  parent->children.push_back(std::move(node));
  return raw;
}

ObsContext::ObsContext(std::string label)
    : label_(std::move(label)),
      epoch_nanos_(SteadyNowNanos()),
      tracer_(&GlobalTracer()) {}

std::shared_ptr<ObsContext> ObsContext::Create(std::string label) {
  return std::shared_ptr<ObsContext>(new ObsContext(std::move(label)));
}

int64_t ObsContext::ElapsedNanos() const {
  const int64_t frozen = frozen_elapsed_nanos_.load(std::memory_order_relaxed);
  if (frozen >= 0) return frozen;
  return SteadyNowNanos() - epoch_nanos_;
}

void ObsContext::MarkQueryComplete() {
  int64_t expected = -1;
  frozen_elapsed_nanos_.compare_exchange_strong(
      expected, SteadyNowNanos() - epoch_nanos_, std::memory_order_relaxed);
}

void ObsContext::RecordCutoffEvent(const CutoffEvent& event) {
  std::lock_guard<std::mutex> lock(cutoff_mu_);
  if (cutoff_events_.size() >= kMaxCutoffEvents) {
    cutoff_events_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  cutoff_events_.push_back(event);
}

std::vector<ObsContext::CutoffEvent> ObsContext::cutoff_events() const {
  std::lock_guard<std::mutex> lock(cutoff_mu_);
  return cutoff_events_;
}

void ObsContext::NoteMemoryBytes(uint64_t bytes) {
  uint64_t seen = peak_memory_bytes_.load(std::memory_order_relaxed);
  while (bytes > seen && !peak_memory_bytes_.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

void ObsContext::NoteSpillBytes(uint64_t bytes) {
  uint64_t seen = peak_spill_bytes_.load(std::memory_order_relaxed);
  while (bytes > seen && !peak_spill_bytes_.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

ObsContext* CurrentObsContext() { return Tls().context; }

std::shared_ptr<ObsContext> CurrentObsContextShared() {
  ObsContext* context = Tls().context;
  return context == nullptr ? nullptr : context->shared_from_this();
}

ObsScope::ObsScope(const std::shared_ptr<ObsContext>& context,
                   bool background) {
  if (context == nullptr) return;
  ObsTls& tls = Tls();
  if (tls.context == context.get()) return;
  installed_ = true;
  saved_context_ = tls.context;
  saved_node_ = tls.node;
  tls.context = context.get();
  PhaseNode* entry = background ? context->timeline().background()
                                : context->timeline().root();
  entry->entered.fetch_add(1, std::memory_order_relaxed);
  tls.node = entry;
}

ObsScope::~ObsScope() {
  if (!installed_) return;
  ObsTls& tls = Tls();
  tls.context = saved_context_;
  tls.node = saved_node_;
}

PhaseScope::PhaseScope(const char* name) {
  ObsTls& tls = Tls();
  if (tls.context == nullptr) return;
  node_ = tls.context->timeline().EnterChild(tls.node, name);
  node_->entered.fetch_add(1, std::memory_order_relaxed);
  saved_ = tls.node;
  tls.node = node_;
  start_nanos_ = SteadyNowNanos();
}

PhaseScope::~PhaseScope() {
  if (node_ == nullptr) return;
  node_->wall_nanos.fetch_add(SteadyNowNanos() - start_nanos_,
                              std::memory_order_relaxed);
  Tls().node = saved_;
}

void ObsRecordIoWait(int64_t nanos) {
  PhaseNode* node = Tls().node;
  if (node == nullptr) return;
  node->io_wait_nanos.fetch_add(nanos, std::memory_order_relaxed);
}

void ObsRecordStorageRead(uint64_t bytes, int64_t nanos) {
  PhaseNode* node = Tls().node;
  if (node == nullptr) return;
  node->bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  node->io_wait_nanos.fetch_add(nanos, std::memory_order_relaxed);
}

void ObsRecordStorageWrite(uint64_t bytes, int64_t nanos) {
  PhaseNode* node = Tls().node;
  if (node == nullptr) return;
  node->bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  node->io_wait_nanos.fetch_add(nanos, std::memory_order_relaxed);
}

void ObsNoteSpillBytes(uint64_t bytes) {
  if (ObsContext* obs = CurrentObsContext()) obs->NoteSpillBytes(bytes);
}

}  // namespace topk
