#include "sort/fan_out_run_generator.h"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

#include "common/query_control.h"
#include "obs/trace.h"

namespace topk {

namespace {

/// The bytes of rows in flight, as a share of the memory budget. One
/// worker gets a quarter, which under a 1 MiB budget is one arbiter lease
/// chunk, on top of its generator's budget. More workers get an eighth,
/// out of their generators' budget.
constexpr size_t kOneWorkerInFlightDivisor = 4;
constexpr size_t kInFlightShareDivisor = 8;

static_assert(FanOutRunGenerator::kWakeBatches <=
                  FanOutRunGenerator::kQueueBatches,
              "a full queue must wake its worker");

}  // namespace

FanOutRunGenerator::FanOutRunGenerator(RunGenerationKind kind,
                                       SpillManager* spill,
                                       const RowComparator& comparator,
                                       const RunGeneratorOptions& options,
                                       RowAdmission* admission)
    : arbiter_(options.arbiter),
      admission_(admission),
      obs_(CurrentObsContextShared()) {
  const size_t workers = std::max<size_t>(options.workers, 1);
  // Queued and spent batches together stay within a full queue per worker;
  // add the open batch, and one batch of slack for the rows that carry
  // batches past the limit.
  const size_t in_flight =
      options.memory_limit_bytes /
      (workers == 1 ? kOneWorkerInFlightDivisor : kInFlightShareDivisor);
  batch_bytes_limit_ =
      std::max<size_t>(in_flight / (kQueueBatches * workers + 2), 1);
  RunGeneratorOptions worker_options = options;
  worker_options.workers = 1;
  worker_options.worker_observers.clear();
  const size_t generators_bytes = workers == 1
                                      ? options.memory_limit_bytes
                                      : options.memory_limit_bytes - in_flight;
  worker_options.memory_limit_bytes =
      std::max<size_t>(generators_bytes / workers, 1);
  for (size_t i = 0; i < workers; ++i) {
    worker_options.observer = i < options.worker_observers.size()
                                  ? options.worker_observers[i]
                                  : nullptr;
    auto worker = std::make_unique<Worker>();
    worker->generator =
        MakeRunGenerator(kind, spill, comparator, worker_options);
    workers_.push_back(std::move(worker));
  }
  open_.entries.reserve(kBatchRows);
  // Spent batches never outnumber a full queue per worker; with room for
  // them, a worker hands a batch back without allocating.
  spent_.reserve(kQueueBatches * workers);
  freeing_.reserve(kQueueBatches * workers);
}

FanOutRunGenerator::~FanOutRunGenerator() {
  // The admission may be gone already; its state is of no use now.
  (void)StopWorkers(/*drain=*/false);
}

Status FanOutRunGenerator::Offer(Row&& row, const InputProgress& at) {
  // A batch is still full only when its hand-off failed; retry that first
  // so the open batch stays bounded.
  if (BatchFull()) TOPK_RETURN_NOT_OK(HandOff());
  open_.bytes += HeldRowBytes(row);
  open_.entries.push_back(Entry{std::move(row), at});
  ++stats_.rows_added;
  if (BatchFull()) return HandOff();
  return Status::OK();
}

Status FanOutRunGenerator::Add(const Row& row) {
  if (!Idle()) {
    return Status::FailedPrecondition(
        "run-generation rows are added only while none are offered");
  }
  // No worker thread touches the generators while they are stopped.
  ++stats_.rows_added;
  TOPK_RETURN_NOT_OK(workers_[next_worker_]->generator->Add(row));
  if (++direct_rows_ % kBatchRows == 0) {
    next_worker_ = (next_worker_ + 1) % workers_.size();
  }
  return Status::OK();
}

bool FanOutRunGenerator::Idle() {
  if (running_ || !open_.entries.empty()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return std::all_of(workers_.begin(), workers_.end(),
                     [](const auto& worker) { return worker->queue.empty(); });
}

Status FanOutRunGenerator::HandOff() {
  TOPK_RETURN_NOT_OK(StartWorkers());
  if (arbiter_ != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter_->Acquire("rungen-in-flight", 0));
  }
  Worker* worker = workers_[next_worker_].get();
  size_t in_flight = 0;
  size_t spent_bytes = 0;
  bool wake = false;
  bool failed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return !error_.ok() || worker->queue.size() < kQueueBatches;
    });
    failed = !error_.ok();
    if (!failed) {
      in_flight_bytes_ += open_.bytes;
      in_flight = in_flight_bytes_;
      worker->queue.push_back(std::move(open_));
      wake = worker->queue.size() >= kWakeBatches;
      // Take the spent batches; freeing keeps both vectors' capacity.
      freeing_.swap(spent_);
      for (const Batch& batch : freeing_) spent_bytes += batch.bytes;
      in_flight_bytes_ -= spent_bytes;
    }
  }
  // A worker failed: stop the others, which folds what they counted.
  if (failed) return JoinWorkers(/*drain=*/false);
  if (wake) worker->work_cv.notify_one();
  open_ = Batch();
  open_.entries.reserve(kBatchRows);
  next_worker_ = (next_worker_ + 1) % workers_.size();
  // Their rows are freed here, on the thread that consumed them.
  freeing_.clear();
  in_flight_peak_ = std::max(in_flight_peak_, in_flight);
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(in_flight));
  lease_.ShrinkTo(in_flight - spent_bytes);
  return Status::OK();
}

Status FanOutRunGenerator::StartWorkers() {
  if (running_) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    TOPK_RETURN_NOT_OK(error_);
  }
  running_ = true;
  for (auto& worker : workers_) {
    try {
      worker->thread =
          std::thread([this, w = worker.get()] { WorkerLoop(w); });
    } catch (const std::system_error& e) {
      // Stop the workers that did start; the next call tries again.
      (void)JoinWorkers(/*drain=*/false);
      return Status::ResourceExhausted(
          std::string("cannot start a run-generation worker: ") + e.what());
    }
  }
  return Status::OK();
}

bool FanOutRunGenerator::StopWorkers(bool drain) {
  if (!running_) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    (drain ? draining_ : stopping_) = true;
  }
  for (auto& worker : workers_) worker->work_cv.notify_one();
  drained_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  running_ = false;
  return true;
}

Status FanOutRunGenerator::JoinWorkers(bool drain) {
  if (StopWorkers(drain) && admission_ != nullptr) admission_->Stopped();
  std::lock_guard<std::mutex> lock(mu_);
  for (const Batch& batch : spent_) in_flight_bytes_ -= batch.bytes;
  spent_.clear();
  draining_ = false;
  stopping_ = false;
  queues_drained_ = 0;
  input_drained_ = false;
  return error_;
}

void FanOutRunGenerator::WorkerLoop(Worker* worker) {
  ObsScope obs_scope(obs_, /*background=*/true);
  TraceSpan span("rungen.worker", "sort");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (worker->queue.empty()) {
      if (draining_) break;
      worker->work_cv.wait(lock, [&] {
        return stopping_ || draining_ ||
               worker->queue.size() >= kWakeBatches;
      });
      continue;
    }
    // The front batch, which only this worker touches.
    Batch* batch = &worker->queue.front();
    lock.unlock();
    const Status status = RunWithAllocGuard(
        "a run-generation worker", [&] { return Drain(worker, batch); });
    lock.lock();
    if (!status.ok()) return Fail(status);
    spent_.push_back(std::move(worker->queue.front()));
    worker->queue.pop_front();
    if (worker->queue.size() <= kQueueBatches - kWakeBatches) {
      space_cv_.notify_one();
    }
  }
  // Every queue drains before any generator flushes, so the cutoff changes
  // of the flushes come after the last admission, as with one worker. The
  // last worker to drain ends the input for all of them.
  if (++queues_drained_ == workers_.size()) {
    lock.unlock();
    const Status status =
        RunWithAllocGuard("a run-generation worker", [&]() -> Status {
          if (admission_ != nullptr) admission_->Drained();
          return Status::OK();
        });
    lock.lock();
    if (!status.ok()) return Fail(status);
    input_drained_ = true;
    drained_cv_.notify_all();
  } else {
    drained_cv_.wait(
        lock, [&] { return stopping_ || input_drained_ || !error_.ok(); });
    if (!input_drained_) return;
  }
  lock.unlock();
  const Status status =
      RunWithAllocGuard("a run-generation worker", [&]() -> Status {
        PhaseScope phase("rungen.worker");
        return worker->generator->Flush();
      });
  lock.lock();
  if (!status.ok()) Fail(status);
}

void FanOutRunGenerator::Fail(const Status& status) {
  if (error_.ok()) error_ = status;
  // Wake the producer and any worker waiting for the others to drain.
  space_cv_.notify_all();
  drained_cv_.notify_all();
}

Status FanOutRunGenerator::Drain(Worker* worker, Batch* batch) {
  // The worker's own phase: its time overlaps the caller's.
  PhaseScope phase("rungen.worker");
  // Read once: the members share cache lines the producer writes per row.
  RowAdmission* const admission = admission_;
  RunGenerator* const generator = worker->generator.get();
  while (batch->next < batch->entries.size()) {
    const Entry& entry = batch->entries[batch->next];
    if (admission != nullptr) {
      bool admitted = false;
      TOPK_ASSIGN_OR_RETURN(admitted, admission->Admit(entry.row, entry.at));
      if (!admitted) {
        ++batch->next;
        continue;
      }
    }
    // Counted before the call: a generator that stops on a cancellation
    // keeps the row it was given.
    ++batch->next;
    TOPK_RETURN_NOT_OK(generator->Add(entry.row));
  }
  return Status::OK();
}

Status FanOutRunGenerator::Flush() {
  if (!open_.entries.empty()) TOPK_RETURN_NOT_OK(HandOff());
  TOPK_RETURN_NOT_OK(StartWorkers());
  Status status = JoinWorkers(/*drain=*/true);
  CollectStats();
  if (status.ok()) lease_.Release();
  return status;
}

void FanOutRunGenerator::SetCancel(const CancellationToken* cancel) {
  (void)JoinWorkers(/*drain=*/false);
  for (auto& worker : workers_) worker->generator->SetCancel(cancel);
  std::lock_guard<std::mutex> lock(mu_);
  if (IsCancellation(error_.code())) error_ = Status::OK();
}

void FanOutRunGenerator::CollectStats() {
  RunGeneratorStats total;
  total.rows_added = stats_.rows_added;
  for (const auto& worker : workers_) {
    const RunGeneratorStats& s = worker->generator->stats();
    total.rows_eliminated_at_spill += s.rows_eliminated_at_spill;
    total.rows_spilled += s.rows_spilled;
    total.peak_memory_bytes += s.peak_memory_bytes;
    total.rows_in_memory += s.rows_in_memory;
  }
  total.peak_memory_bytes = std::max(stats_.peak_memory_bytes,
                                     total.peak_memory_bytes + in_flight_peak_);
  stats_ = total;
}

}  // namespace topk
