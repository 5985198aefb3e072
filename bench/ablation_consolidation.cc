/// Ablation: the histogram priority queue's memory budget (Sec 5.1.2,
/// default 1 MB) and its consolidation fallback. When the queue outgrows
/// the budget, all buckets collapse into one — the model gets coarser but
/// never invalid. This sweep shows how small the budget can get before
/// filtering quality suffers.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Ablation: histogram memory budget and consolidation");

  const uint64_t input_rows = Scaled(2000000);
  const uint64_t k = Scaled(60000);
  const uint64_t memory_rows = Scaled(14000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;
  const size_t budgets[] = {1 << 20, 16 << 10, 4 << 10, 1 << 10, 256, 64};

  BenchDir dir("ab_consolidation");
  std::printf(
      "N=%llu, k=%llu, memory=%llu rows, 50 buckets/run, uniform keys.\n\n",
      static_cast<unsigned long long>(input_rows),
      static_cast<unsigned long long>(k),
      static_cast<unsigned long long>(memory_rows));
  std::printf("%-12s %-10s | %-9s %-11s %-14s %-10s\n", "budget_B",
              "policy", "time_s", "rows_spill", "consolidations", "cutoff");

  int run_id = 0;
  for (size_t budget : budgets) {
    for (auto policy : {CutoffFilter::ConsolidationPolicy::kFull,
                        CutoffFilter::ConsolidationPolicy::kAdaptive}) {
      DatasetSpec spec;
      spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(19);

      TopKOptions options;
      options.k = k;
      options.memory_limit_bytes = memory_rows * row_bytes;
      options.histogram_memory_limit_bytes = budget;
      options.histogram_consolidation = policy;
      StorageEnv env;
      options.env = &env;
      options.spill_dir =
          dir.Sub(std::string("b").append(std::to_string(run_id++)));

      RunResult result =
          MeasureTopK(TopKAlgorithm::kHistogram, options, spec);
      std::printf(
          "%-12zu %-10s | %-9.3f %-11llu %-14llu %-10.6f\n", budget,
          policy == CutoffFilter::ConsolidationPolicy::kFull ? "full"
                                                             : "adaptive",
          result.seconds,
          static_cast<unsigned long long>(result.stats.rows_spilled),
          static_cast<unsigned long long>(
              result.stats.filter_consolidations),
          result.stats.final_cutoff.value_or(1.0));
    }
  }
  std::printf(
      "\nThe paper's 1 MB default never consolidates at this scale. Under "
      "tiny budgets, FULL consolidation freezes the cutoff: the merged "
      "bucket can only be popped once the *other* buckets prove k rows, "
      "which a tiny queue of fine buckets never does. The ADAPTIVE policy "
      "(merge the worst half, double the bucket width) keeps refining — a "
      "measured finding this repo adds beyond the paper; both policies "
      "remain provably safe.\n");
  return 0;
}
