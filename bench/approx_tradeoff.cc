/// Sec 4.5: approximate top-k. Allowing the row count to fall short by a
/// tolerance lets the filter target fewer rows, establishing and
/// sharpening the cutoff earlier — less spill for fewer guaranteed rows.

#include <cstdio>

#include "bench/bench_util.h"
#include "gen/generator.h"
#include "topk/operator_factory.h"

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Sec 4.5: approximate top-k trade-off");

  const uint64_t input_rows = Scaled(1000000);
  const uint64_t k = Scaled(50000);
  const uint64_t memory_rows = Scaled(10000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;
  const double tolerances[] = {0.0, 0.05, 0.1, 0.25, 0.5};

  BenchDir dir("approx");
  std::printf("N=%llu, k=%llu, memory=%llu rows, uniform keys.\n\n",
              static_cast<unsigned long long>(input_rows),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(memory_rows));
  std::printf("%-10s | %-10s %-10s | %-9s %-11s %-10s\n", "tolerance",
              "guaranteed", "returned", "time_s", "rows_spill", "cutoff");

  int run_id = 0;
  for (double tolerance : tolerances) {
    DatasetSpec spec;
    spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(41);

    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_rows * row_bytes;
    StorageEnv env;
    options.env = &env;
    options.spill_dir =
        dir.Sub(std::string("t").append(std::to_string(run_id++)));

    auto approx = ApproximateTopK(options, tolerance);
    TOPK_CHECK(approx.ok()) << approx.status().ToString();
    // k' = approx_filter_k - offset rows are guaranteed.
    const uint64_t guaranteed = approx->approx_filter_k - approx->offset;
    const RunResult run = MeasureTopK(TopKAlgorithm::kHistogram, *approx, spec);
    std::printf("%-10.2f | %-10llu %-10llu | %-9.3f %-11llu %-10.6f\n",
                tolerance,
                static_cast<unsigned long long>(guaranteed),
                static_cast<unsigned long long>(run.result_rows), run.seconds,
                static_cast<unsigned long long>(run.stats.rows_spilled),
                run.stats.final_cutoff.value_or(1.0));
  }
  std::printf(
      "\nEvery returned set is an exact prefix of the true order at least "
      "`guaranteed` rows long; looser tolerances buy earlier cutoffs and "
      "less spill (\"even a conservatively estimated final cutoff key may "
      "lead to fewer final result rows than requested\").\n");
  return 0;
}
