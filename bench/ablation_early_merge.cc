/// Ablation: the [14] early-merge step in the optimized baseline.
///
/// With k larger than any run, the optimized external sort has three
/// behaviours worth separating:
///   (a) no early merge  — no cutoff is ever established; the entire input
///       is sorted (what the paper's production baseline did, Sec 5.2);
///   (b) one early merge — a cutoff appears after the early merge's fan-in
///       of 10 runs, at the price of an interrupted pipeline and a low-fan-in
///       merge (the [14] recommendation, Sec 2.5);
///   (c) the histogram filter — a cutoff appears *while runs are written*,
///       with no merge effort at all (Sec 3).

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Ablation: early merge step in the optimized baseline");

  const uint64_t input_rows = Scaled(2000000);
  const uint64_t k = Scaled(60000);
  const uint64_t memory_rows = Scaled(14000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;

  BenchDir dir("ab_em");
  DatasetSpec spec;
  spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(11);

  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = memory_rows * row_bytes;
  StorageEnv env;
  options.env = &env;

  std::printf("N=%llu, k=%llu, memory=%llu rows, uniform keys.\n\n",
              static_cast<unsigned long long>(input_rows),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(memory_rows));
  std::printf("%-26s | %-8s %-11s %-12s %-10s\n", "variant", "time_s",
              "rows_spill", "merge_write", "cutoff");

  auto report = [&](const char* name, const RunResult& result) {
    char cutoff[32];
    if (result.stats.final_cutoff.has_value()) {
      std::snprintf(cutoff, sizeof(cutoff), "%.5f",
                    *result.stats.final_cutoff);
    } else {
      std::snprintf(cutoff, sizeof(cutoff), "none");
    }
    std::printf("%-26s | %-8.3f %-11llu %-12llu %-10s\n", name,
                result.seconds,
                static_cast<unsigned long long>(result.stats.rows_spilled),
                static_cast<unsigned long long>(
                    result.stats.merge_rows_written),
                cutoff);
  };

  options.enable_early_merge = false;
  options.spill_dir = dir.Sub("a");
  report("optimized, no early merge",
         MeasureTopK(TopKAlgorithm::kOptimizedExternal, options, spec));

  options.enable_early_merge = true;
  options.spill_dir = dir.Sub("b");
  report("optimized, early merge",
         MeasureTopK(TopKAlgorithm::kOptimizedExternal, options, spec));

  options.spill_dir = dir.Sub("c");
  report("histogram filter",
         MeasureTopK(TopKAlgorithm::kHistogram, options, spec));

  std::printf(
      "\nExpected ordering: (a) spills everything; (b) spills a constant "
      "fraction set by the first merge's cutoff; (c) spills the least and "
      "performs no extra merges during run generation.\n");
  return 0;
}
