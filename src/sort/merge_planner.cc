#include "sort/merge_planner.h"

#include <algorithm>

#include "common/query_control.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

void OrderRunsForMerge(std::vector<RunMeta>* runs,
                       const RowComparator& comparator, MergePolicy policy) {
  switch (policy) {
    case MergePolicy::kSmallestRunsFirst:
      std::sort(runs->begin(), runs->end(),
                [](const RunMeta& a, const RunMeta& b) {
                  if (a.rows != b.rows) return a.rows < b.rows;
                  return a.id < b.id;
                });
      break;
    case MergePolicy::kLowestKeysFirst:
      std::sort(runs->begin(), runs->end(),
                [&](const RunMeta& a, const RunMeta& b) {
                  // Best (lowest, for ascending) keys first; compare by the
                  // run's last key — a recently produced, sharply filtered
                  // run ends early in the key domain.
                  if (a.last_key != b.last_key) {
                    return comparator.KeyLess(a.last_key, b.last_key);
                  }
                  if (a.first_key != b.first_key) {
                    return comparator.KeyLess(a.first_key, b.first_key);
                  }
                  return a.id < b.id;
                });
      break;
  }
}

Result<MergeStats> MergeIntoCommittedRun(SpillManager* spill,
                                         const std::vector<RunMeta>& inputs,
                                         const RowComparator& comparator,
                                         const MergeOptions& options,
                                         bool quota_exempt) {
  std::unique_ptr<RunWriter> writer;
  TOPK_ASSIGN_OR_RETURN(
      writer, spill->NewRun(comparator, kDefaultIndexStride, quota_exempt));
  MergeStats merge_stats;
  TOPK_ASSIGN_OR_RETURN(
      merge_stats, MergeRuns(spill, inputs, comparator, options,
                             [&](Row&& row) { return writer->Append(row); }));
  RunMeta merged;
  TOPK_ASSIGN_OR_RETURN(merged, writer->Finish());
  // Crash-safe ordering: deregister the inputs but keep their files,
  // register the output (which checkpoints the manifest when the spill
  // manager runs in auto-manifest mode), make that checkpoint durable, and
  // only then delete the input files. A crash at any point leaves a
  // manifest whose runs — old inputs or the merged output — all still
  // exist on disk, so the merge can resume from it.
  std::vector<std::string> consumed_paths;
  consumed_paths.reserve(inputs.size());
  for (const RunMeta& consumed : inputs) {
    std::string path;
    TOPK_ASSIGN_OR_RETURN(path, spill->ReleaseRun(consumed.id));
    consumed_paths.push_back(std::move(path));
  }
  if (merged.rows > 0) {
    TOPK_RETURN_NOT_OK(spill->AddRun(merged));
  } else {
    // Nothing survived the cutoff filter; the registry still shrank, so
    // checkpoint explicitly before the inputs disappear.
    TOPK_RETURN_NOT_OK(spill->CheckpointManifest());
    consumed_paths.push_back(merged.path);
  }
  if (spill->auto_manifest_enabled()) {
    TOPK_RETURN_NOT_OK(spill->FlushManifest());
  }
  for (const std::string& path : consumed_paths) {
    TOPK_RETURN_NOT_OK(spill->DeleteSpillFile(path));
  }
  return merge_stats;
}

Result<uint64_t> DropRunsBeyondCutoff(SpillManager* spill,
                                      const CutoffFilter& filter,
                                      uint64_t output_rows,
                                      bool input_complete) {
  if (filter.k() < output_rows) return 0;
  const std::vector<RunMeta> dead = spill->ReleaseRunsIf(
      [&](const RunMeta& run) { return filter.EliminateKey(run.first_key); });
  if (dead.empty()) return 0;
  uint64_t bytes = 0;
  for (const RunMeta& run : dead) bytes += run.bytes;
  TraceInstant("merge.drop_runs", "sort",
               {TraceArg("runs", dead.size()), TraceArg("bytes", bytes)});
  // Crash-safe ordering, as in MergeIntoCommittedRun: the runs leave the
  // registry, the manifest without them is made durable, and only then
  // are their files deleted.
  TOPK_RETURN_NOT_OK(spill->CheckpointManifest());
  if (spill->auto_manifest_enabled()) {
    TOPK_RETURN_NOT_OK(spill->FlushManifest());
  }
  // Crash point: the manifest no longer names the dropped runs, whose files
  // are still on disk.
  if (input_complete) HitCrashPoint("post-drop-checkpoint");
  for (const RunMeta& run : dead) {
    TOPK_RETURN_NOT_OK(spill->DeleteSpillFile(run.path));
  }
  return dead.size();
}

Result<std::vector<RunMeta>> ReduceRunsForFinalMerge(
    SpillManager* spill, const RowComparator& comparator,
    const MergePlannerOptions& options, MergePlanStats* stats) {
  if (options.fan_in < 2) {
    return Status::InvalidArgument("merge fan-in must be at least 2");
  }
  const auto drop_dead_runs = [&]() -> Status {
    if (options.filter == nullptr) return Status::OK();
    uint64_t dropped = 0;
    TOPK_ASSIGN_OR_RETURN(
        dropped, DropRunsBeyondCutoff(spill, *options.filter,
                                      options.intermediate_limit,
                                      /*input_complete=*/true));
    if (stats != nullptr) stats->runs_dropped += dropped;
    return Status::OK();
  };
  TOPK_RETURN_NOT_OK(drop_dead_runs());
  std::vector<RunMeta> runs = spill->runs();
  while (runs.size() > options.fan_in) {
    // Between steps is the cheapest place to stop: the previous step is
    // fully committed (manifest flushed, inputs deleted), so cancellation
    // here leaves a cleanly resumable run set.
    TOPK_RETURN_IF_CANCELLED(options.cancel);
    OrderRunsForMerge(&runs, comparator, options.policy);
    // Crash point: the ordered plan exists only in memory; everything
    // durable is the previous step's committed state.
    HitCrashPoint("pre-merge-step");
    // Merge enough runs that the final pass can cover the rest: prefer the
    // largest useful step (full fan-in) unless fewer suffice.
    const size_t excess = runs.size() - options.fan_in;
    const size_t step = std::min(options.fan_in, excess + 1);
    std::vector<RunMeta> inputs(runs.begin(), runs.begin() + step);
    PhaseScope phase("merge.intermediate");
    TraceSpan step_span("merge.intermediate_step", "sort",
                        {TraceArg("fan_in", step),
                         TraceArg("runs_remaining", runs.size())});

    MergeOptions merge_options;
    merge_options.limit = options.intermediate_limit;
    merge_options.with_ties = options.with_ties;
    merge_options.stop_filter = options.filter;
    merge_options.refine_filter = options.filter;
    merge_options.use_ovc = options.use_ovc;
    merge_options.cancel = options.cancel;
    MergeStats merge_stats;
    TOPK_ASSIGN_OR_RETURN(merge_stats,
                          MergeIntoCommittedRun(spill, inputs, comparator,
                                                merge_options));
    // Crash point: the step is fully committed — output registered,
    // manifest durable, inputs gone.
    HitCrashPoint("post-merge-step");
    if (stats != nullptr) {
      ++stats->intermediate_steps;
      stats->intermediate_rows_written += merge_stats.rows_emitted;
      stats->intermediate_rows_read += merge_stats.rows_read;
    }
    TOPK_RETURN_NOT_OK(drop_dead_runs());
    runs = spill->runs();
  }
  return runs;
}

}  // namespace topk
