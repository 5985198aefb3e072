#include "sort/external_sorter.h"

#include <algorithm>

#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sort/merge_planner.h"

namespace topk {

ExternalSorter::ExternalSorter(const Options& options)
    : options_(options), comparator_(options.direction) {}

Result<std::unique_ptr<ExternalSorter>> ExternalSorter::Make(
    const Options& options) {
  if (options.memory_limit_bytes == 0) {
    return Status::InvalidArgument("memory limit must be positive");
  }
  if (options.env == nullptr || options.spill_dir.empty()) {
    return Status::InvalidArgument(
        "external sorter needs a StorageEnv and a spill directory");
  }
  if (options.merge_fan_in < 2) {
    return Status::InvalidArgument("merge fan-in must be at least 2");
  }
  return std::unique_ptr<ExternalSorter>(new ExternalSorter(options));
}

Status ExternalSorter::SwitchToExternal() {
  IoPipelineOptions io;
  io.background_threads = options_.io_background_threads;
  io.enable_prefetch = options_.enable_io_prefetch;
  io.prefetch_memory_budget = options_.prefetch_memory_budget;
  io.retry.cancel = options_.cancel;
  TOPK_ASSIGN_OR_RETURN(
      spill_, SpillManager::Create(options_.env, options_.spill_dir, io));
  RunGeneratorOptions gen_options;
  gen_options.memory_limit_bytes = options_.memory_limit_bytes;
  gen_options.cancel = options_.cancel;
  generator_ = MakeRunGenerator(options_.run_generation, spill_.get(),
                                comparator_, gen_options);
  for (Row& row : buffer_) {
    TOPK_RETURN_NOT_OK(generator_->Add(std::move(row)));
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
  buffered_bytes_ = 0;
  return Status::OK();
}

Status ExternalSorter::Add(Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Add after Sort");
  }
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    return options_.cancel->status();
  }
  ObsScope obs_scope(options_.obs);
  ++rows_added_;
  if (generator_ != nullptr) {
    return generator_->Add(std::move(row));
  }
  const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
  if (buffered_bytes_ + cost <= options_.memory_limit_bytes) {
    buffered_bytes_ += cost;
    buffer_.push_back(std::move(row));
    return Status::OK();
  }
  TOPK_RETURN_NOT_OK(SwitchToExternal());
  return generator_->Add(std::move(row));
}

Status ExternalSorter::Sort(const RowSink& sink) {
  if (finished_) {
    return Status::FailedPrecondition("Sort called twice");
  }
  ObsScope obs_scope(options_.obs);
  finished_ = true;
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    return options_.cancel->status();
  }
  if (generator_ == nullptr) {
    std::sort(buffer_.begin(), buffer_.end(), comparator_);
    for (Row& row : buffer_) {
      TOPK_RETURN_NOT_OK(sink(std::move(row)));
    }
    buffer_.clear();
    return Status::OK();
  }
  {
    PhaseScope flush_phase("rungen.flush");
    TraceSpan flush_span("rungen.flush", "sort");
    TOPK_RETURN_NOT_OK(generator_->Flush());
  }
  MergePlannerOptions planner_options;
  planner_options.fan_in = options_.merge_fan_in;
  planner_options.policy = MergePolicy::kSmallestRunsFirst;
  planner_options.cancel = options_.cancel;
  std::vector<RunMeta> final_runs;
  TOPK_ASSIGN_OR_RETURN(
      final_runs,
      ReduceRunsForFinalMerge(spill_.get(), comparator_, planner_options));
  MergeStats merge_stats;
  {
    PhaseScope merge_phase("merge.final");
    MergeOptions merge_options;
    merge_options.cancel = options_.cancel;
    TOPK_ASSIGN_OR_RETURN(merge_stats,
                          MergeRuns(spill_.get(), final_runs, comparator_,
                                    merge_options, sink));
  }
  return Status::OK();
}

Result<std::vector<Row>> ExternalSorter::SortToVector() {
  std::vector<Row> out;
  out.reserve(rows_added_);
  TOPK_RETURN_NOT_OK(Sort([&](Row&& row) {
    out.push_back(std::move(row));
    return Status::OK();
  }));
  return out;
}

}  // namespace topk
