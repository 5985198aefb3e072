#include "sort/fan_out_run_generator.h"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

#include "common/query_control.h"
#include "obs/trace.h"

namespace topk {

namespace {

/// The share of the memory budget kept for rows in flight: 1/8.
constexpr size_t kInFlightShareDivisor = 8;

}  // namespace

FanOutRunGenerator::FanOutRunGenerator(RunGenerationKind kind,
                                       SpillManager* spill,
                                       const RowComparator& comparator,
                                       const RunGeneratorOptions& options)
    : arbiter_(options.arbiter), obs_(CurrentObsContextShared()) {
  const size_t workers = options.workers;
  const size_t reserve = options.memory_limit_bytes / kInFlightShareDivisor;
  batch_bytes_limit_ =
      std::max<size_t>(reserve / (kBatchesPerWorker * workers + 1), 1);
  RunGeneratorOptions worker_options = options;
  worker_options.workers = 1;
  worker_options.worker_observers.clear();
  worker_options.memory_limit_bytes =
      std::max<size_t>((options.memory_limit_bytes - reserve) / workers, 1);
  for (size_t i = 0; i < workers; ++i) {
    worker_options.observer = i < options.worker_observers.size()
                                  ? options.worker_observers[i]
                                  : nullptr;
    auto worker = std::make_unique<Worker>();
    worker->generator =
        MakeRunGenerator(kind, spill, comparator, worker_options);
    workers_.push_back(std::move(worker));
  }
  open_.rows.reserve(kBatchRows);
}

FanOutRunGenerator::~FanOutRunGenerator() {
  (void)JoinWorkers(/*drain=*/false);
}

Status FanOutRunGenerator::Add(Row row) {
  // A batch is still full only when its hand-off failed; retry that first
  // so the open batch stays bounded.
  if (BatchFull()) TOPK_RETURN_NOT_OK(HandOff());
  open_.bytes += HeldRowBytes(row);
  open_.rows.push_back(std::move(row));
  ++stats_.rows_added;
  if (BatchFull()) return HandOff();
  return Status::OK();
}

Status FanOutRunGenerator::HandOff() {
  TOPK_RETURN_NOT_OK(StartWorkers());
  if (arbiter_ != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter_->Acquire("rungen-in-flight", 0));
  }
  Worker* worker = workers_[next_worker_].get();
  size_t in_flight = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return !error_.ok() || worker->queue.size() < kBatchesPerWorker;
    });
    if (!error_.ok()) return error_;
    in_flight_bytes_ += open_.bytes;
    in_flight = in_flight_bytes_;
    worker->queue.push_back(std::move(open_));
  }
  work_cv_.notify_all();
  open_ = Batch();
  open_.rows.reserve(kBatchRows);
  next_worker_ = (next_worker_ + 1) % workers_.size();
  in_flight_peak_ = std::max(in_flight_peak_, in_flight);
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(in_flight));
  lease_.ShrinkTo(in_flight);
  return Status::OK();
}

Status FanOutRunGenerator::StartWorkers() {
  if (running_) return Status::OK();
  running_ = true;
  for (auto& worker : workers_) {
    try {
      worker->thread =
          std::thread([this, w = worker.get()] { WorkerLoop(w); });
    } catch (const std::system_error& e) {
      // Stop the workers that did start; the next Add or Flush tries again.
      (void)JoinWorkers(/*drain=*/false);
      return Status::ResourceExhausted(
          std::string("cannot start a run-generation worker: ") + e.what());
    }
  }
  return Status::OK();
}

Status FanOutRunGenerator::JoinWorkers(bool drain) {
  if (running_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      (drain ? draining_ : stopping_) = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    running_ = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = false;
  stopping_ = false;
  return error_;
}

void FanOutRunGenerator::WorkerLoop(Worker* worker) {
  ObsScope obs_scope(obs_, /*background=*/true);
  TraceSpan span("rungen.worker", "sort");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || draining_ || !worker->queue.empty();
    });
    if (stopping_) return;
    // Draining with nothing left: end this worker's last run. Otherwise
    // drain the front batch, which only this worker touches.
    Batch* batch = worker->queue.empty() ? nullptr : &worker->queue.front();
    lock.unlock();
    const Status status =
        RunWithAllocGuard("a run-generation worker", [&]() -> Status {
          if (batch == nullptr) return worker->generator->Flush();
          while (batch->next < batch->rows.size()) {
            // Counted before the call: a generator that stops on a
            // cancellation keeps the row it was given.
            TOPK_RETURN_NOT_OK(worker->generator->Add(
                std::move(batch->rows[batch->next++])));
          }
          return Status::OK();
        });
    lock.lock();
    if (!status.ok() && error_.ok()) error_ = status;
    if (batch == nullptr || !status.ok()) {
      space_cv_.notify_all();
      return;
    }
    in_flight_bytes_ -= batch->bytes;
    worker->queue.pop_front();
    space_cv_.notify_all();
  }
}

Status FanOutRunGenerator::Flush() {
  if (!open_.rows.empty()) TOPK_RETURN_NOT_OK(HandOff());
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
