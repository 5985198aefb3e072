/// Regenerates the Sec 5.5 overhead experiment: an adversarial input that
/// keeps sharpening the cutoff filter but never lets it eliminate anything
/// (strictly descending keys under an ascending query). The cost of
/// maintaining the histogram priority queue should be a few percent.
///
/// The filter's cutoff also lets the operator delete runs that lie wholly
/// beyond it, during input and before the merges, which the filter-off
/// side never does. So the headline overhead compares the consume phase
/// alone, where the filter is maintained; the finish phase is reported
/// apart, with the runs each side dropped.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Sec 5.5: cutoff filter overhead on an adversarial input");

  const uint64_t input_rows = Scaled(800000);
  const uint64_t k = Scaled(40000);
  const uint64_t memory_rows = Scaled(14000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;
  const int repetitions = 5;

  BenchDir dir("overhead");
  DatasetSpec spec;
  spec.WithRows(input_rows)
      .WithDistribution(KeyDistribution::kDescending)
      .WithPayload(payload, payload)
      .WithSeed(3);

  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = memory_rows * row_bytes;
  StorageEnv env;
  options.env = &env;

  // One side's consume and finish seconds per repetition, and the runs it
  // dropped unmerged.
  struct Side {
    std::vector<double> consume_s;
    std::vector<double> finish_s;
    uint64_t runs_dropped = 0;

    void Add(const RunResult& run) {
      consume_s.push_back(static_cast<double>(run.stats.consume_nanos) * 1e-9);
      finish_s.push_back(static_cast<double>(run.stats.finish_nanos) * 1e-9);
      runs_dropped = run.stats.runs_dropped;
    }
  };
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  Side with, without;
  uint64_t eliminated = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    options.histogram_buckets_per_run = 50;
    options.spill_dir = dir.Sub("with" + std::to_string(rep));
    RunResult on = MeasureTopK(TopKAlgorithm::kHistogram, options, spec);
    options.histogram_buckets_per_run = 0;  // same operator, filter off
    options.spill_dir = dir.Sub("without" + std::to_string(rep));
    RunResult off = MeasureTopK(TopKAlgorithm::kHistogram, options, spec);
    TOPK_CHECK(on.last_key == off.last_key);
    with.Add(on);
    without.Add(off);
    eliminated =
        on.stats.rows_eliminated_input + on.stats.rows_eliminated_spill;
  }
  const auto overhead = [](double on, double off) {
    return 100.0 * (on - off) / off;
  };

  std::printf(
      "N=%llu descending rows, k=%llu, memory=%llu rows, median of %d "
      "reps.\n",
      static_cast<unsigned long long>(input_rows),
      static_cast<unsigned long long>(k),
      static_cast<unsigned long long>(memory_rows), repetitions);
  std::printf("rows eliminated by the filter: %llu (adversarial: 0)\n\n",
              static_cast<unsigned long long>(eliminated));
  std::printf("%-15s %10s %10s %13s\n", "", "consume_s", "finish_s",
              "runs_dropped");
  for (const auto& [label, side] :
       {std::pair<const char*, const Side*>{"with filter", &with},
        {"without filter", &without}}) {
    std::printf("%-15s %10.3f %10.3f %13llu\n", label,
                median(side->consume_s), median(side->finish_s),
                static_cast<unsigned long long>(side->runs_dropped));
  }
  std::printf("\nconsume overhead: %+.1f%%  (paper: ~3%%)\n",
              overhead(median(with.consume_s), median(without.consume_s)));
  std::printf("finish change:    %+.1f%%\n",
              overhead(median(with.finish_s), median(without.finish_s)));
  std::printf(
      "Consume is where the filter is maintained; it also includes the runs\n"
      "the moving cutoff passed during input, deleted unmerged. Finish\n"
      "differs mostly by the runs each side dropped, not by the filter.\n");
  return 0;
}
