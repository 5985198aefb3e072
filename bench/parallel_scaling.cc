/// Sec 4.4 measurement: the histogram operator's parallel run generation
/// (TopKOptions::workers), whose workers share one cutoff filter, against
/// independent filters. The paper's claim: threads sharing one histogram
/// priority queue retain "basically the same number of input rows as a
/// single thread", while independent threads each have to prove k rows on
/// their own input slice before eliminating anything — retaining many more
/// rows as the worker count grows.
///
/// The independent column runs N separate histogram operators over
/// round-robin slices of the input, each with 1/N of the memory, one after
/// another on the calling thread; its time is their sum. The retained-row
/// counts are the reproduced claim; wall clock is reported, not a speedup.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "gen/generator.h"
#include "topk/operator_factory.h"

namespace {

using namespace topk;

struct Measured {
  double seconds = 0;
  uint64_t spilled = 0;
  uint64_t eliminated = 0;
};

TopKOptions Options(uint64_t k, size_t memory_bytes, StorageEnv* env,
                    const std::string& dir) {
  TopKOptions options;
  options.k = k;
  options.memory_limit_bytes = memory_bytes;
  options.env = env;
  options.spill_dir = dir;
  return options;
}

void Accumulate(const TopKOperator& op, Measured* out) {
  const OperatorStats& stats = op.stats();
  out->spilled += stats.rows_spilled;
  out->eliminated += stats.rows_eliminated_input + stats.rows_eliminated_spill;
}

}  // namespace

int main() {
  using namespace topk::bench;
  PrintHeader("Sec 4.4: parallel top-k, shared vs independent filters");

  const uint64_t input_rows = Scaled(1000000);
  const uint64_t k = Scaled(30000);
  const uint64_t memory_rows = Scaled(14000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;
  const size_t memory_bytes = memory_rows * row_bytes;

  BenchDir dir("parallel");
  std::printf("N=%llu, k=%llu, total memory=%llu rows (split across "
              "workers), uniform keys.\n\n",
              static_cast<unsigned long long>(input_rows),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(memory_rows));
  std::printf("%-8s %-12s | %-9s %-11s %-11s\n", "workers", "filter",
              "time_s", "rows_spill", "eliminated");

  DatasetSpec spec;
  spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(31);
  int run_id = 0;
  for (size_t workers : {1, 2, 4}) {
    // One operator, `workers` run generators sharing its cutoff filter.
    {
      StorageEnv env;
      TopKOptions options = Options(k, memory_bytes, &env,
                                    dir.Sub("run" + std::to_string(run_id++)));
      options.workers = workers;
      auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
      TOPK_CHECK(op.ok()) << op.status().ToString();
      RowGenerator gen(spec);
      Row row;
      Stopwatch watch;
      while (gen.Next(&row)) {
        Status status = (*op)->Consume(std::move(row));
        TOPK_CHECK(status.ok()) << status.ToString();
      }
      auto result = (*op)->Finish();
      TOPK_CHECK(result.ok()) << result.status().ToString();
      TOPK_CHECK(result->size() == k);
      Measured shared;
      shared.seconds = watch.ElapsedSeconds();
      Accumulate(**op, &shared);
      std::printf("%-8zu %-12s | %-9.3f %-11llu %-11llu\n", workers,
                  "shared", shared.seconds,
                  static_cast<unsigned long long>(shared.spilled),
                  static_cast<unsigned long long>(shared.eliminated));
    }
    // `workers` operators over round-robin slices, a filter each.
    {
      StorageEnv env;
      std::vector<std::unique_ptr<TopKOperator>> ops;
      for (size_t i = 0; i < workers; ++i) {
        auto op = MakeTopKOperator(
            TopKAlgorithm::kHistogram,
            Options(k, memory_bytes / workers, &env,
                    dir.Sub("run" + std::to_string(run_id++))));
        TOPK_CHECK(op.ok()) << op.status().ToString();
        ops.push_back(std::move(*op));
      }
      RowGenerator gen(spec);
      Row row;
      Stopwatch watch;
      for (uint64_t i = 0; gen.Next(&row); ++i) {
        Status status = ops[i % workers]->Consume(std::move(row));
        TOPK_CHECK(status.ok()) << status.ToString();
      }
      Measured independent;
      for (auto& op : ops) {
        auto result = op->Finish();
        TOPK_CHECK(result.ok()) << result.status().ToString();
        Accumulate(*op, &independent);
      }
      independent.seconds = watch.ElapsedSeconds();
      std::printf("%-8zu %-12s | %-9.3f %-11llu %-11llu\n", workers,
                  "independent", independent.seconds,
                  static_cast<unsigned long long>(independent.spilled),
                  static_cast<unsigned long long>(independent.eliminated));
    }
  }
  std::printf(
      "\nExpected: with the shared filter, spilled rows stay near the "
      "1-worker level as workers increase; with independent filters they "
      "grow with the worker count.\n");
  return 0;
}
