/// Quickstart: run a top-k query whose output is far larger than the
/// operator's memory budget, and watch the histogram cutoff filter discard
/// most of the input before it ever reaches a sorted run.
///
///   SELECT * FROM events ORDER BY score LIMIT 50000;   -- 50k >> memory

#include <cstdio>
#include <filesystem>

#include "gen/generator.h"
#include "topk/operator_factory.h"

int main() {
  using namespace topk;

  // 1. A storage environment (local files standing in for the spill
  //    service) and a scratch directory for runs.
  StorageEnv env;
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "topk_quickstart").string();

  // 2. Configure the query: top 50,000 of 2,000,000 rows, but only ~2 MB of
  //    operator memory — the output cannot be held in memory, so the
  //    operator will spill... as little as it can get away with.
  TopKOptions options;
  options.k = 50000;
  options.memory_limit_bytes = 2 << 20;
  options.histogram_buckets_per_run = 50;  // the paper's default
  options.env = &env;
  options.spill_dir = spill_dir;

  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  if (!op.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 op.status().ToString().c_str());
    return 1;
  }

  // 3. Feed an unsorted stream of rows (synthetic: uniform random scores
  //    with a 40-byte payload).
  DatasetSpec spec;
  spec.WithRows(2000000).WithPayload(40, 40).WithSeed(7);
  RowGenerator gen(spec);
  Row row;
  while (gen.Next(&row)) {
    Status status = (*op)->Consume(std::move(row));
    if (!status.ok()) {
      std::fprintf(stderr, "consume failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // 4. Finish: merge the surviving runs until k rows are produced.
  auto result = (*op)->Finish();
  if (!result.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const OperatorStats& stats = (*op)->stats();
  std::printf("top-%zu computed (first key %.6f, last key %.6f)\n",
              result->size(), result->front().key, result->back().key);
  std::printf("input rows:                  %llu\n",
              static_cast<unsigned long long>(stats.rows_consumed));
  std::printf("eliminated before sorting:   %llu (%.1f%%)\n",
              static_cast<unsigned long long>(stats.rows_eliminated_input),
              100.0 * stats.rows_eliminated_input / stats.rows_consumed);
  std::printf("eliminated right before I/O: %llu\n",
              static_cast<unsigned long long>(stats.rows_eliminated_spill));
  std::printf("rows actually spilled:       %llu in %llu runs\n",
              static_cast<unsigned long long>(stats.rows_spilled),
              static_cast<unsigned long long>(stats.runs_created));
  if (stats.final_cutoff.has_value()) {
    std::printf("final cutoff key:            %.6f (ideal %.6f)\n",
                *stats.final_cutoff, 50000.0 / 2000000.0);
  }
  std::printf("a traditional external sort would have spilled all %llu "
              "rows.\n",
              static_cast<unsigned long long>(stats.rows_consumed));
  return 0;
}
