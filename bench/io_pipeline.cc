/// Background I/O pipeline on emulated disaggregated storage: every 256 KiB
/// storage call pays an injected round-trip latency, so a spill-heavy
/// configuration spends most of its wall clock riding those round trips.
/// With io_background_threads > 0 the DoubleBufferedWriter overlaps run
/// generation with the previous block's write, and the PrefetchingBlockReader
/// overlaps merging with the next block's read. This bench compares the
/// synchronous path (io_background_threads=0) against the pipelined default
/// (2 threads) at several per-call latencies.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "io/spill_manager.h"
#include "obs/metrics.h"
#include "sort/merger.h"

namespace {

using namespace topk;
using namespace topk::bench;

/// Timed MergeRuns drain of every registered run; the manager's prefetch
/// budget sets each reader's window cap.
RunResult MeasureMergeDrain(SpillManager* spill) {
  const RowComparator cmp;
  const MergeOptions options;
  RunResult out;
  Stopwatch watch;
  auto stats = MergeRuns(spill, spill->runs(), cmp, options, [&out](Row&& row) {
    out.last_key = row.key;
    ++out.result_rows;
    return Status::OK();
  });
  TOPK_CHECK(stats.ok()) << stats.status().ToString();
  out.seconds = watch.ElapsedSeconds();
  return out;
}

/// Prefetch-depth sweep over the merge read path: the same spilled runs
/// are drained under three prefetch memory budgets, each on its own spill
/// manager: 0 (a fixed one-block window), 6 blocks (a two-block window
/// over 6 runs) and the 8 MiB default (adaptive). Runs carry near-disjoint
/// key ranges, so the loser tree drains them one after another — the
/// latency-bound case where a deep window's concurrent in-flight reads
/// pay off.
void RunPrefetchDepthSweep(const BenchDir& dir) {
  PrintHeader("Adaptive prefetch depth: merge drain of 6 spilled runs");

  const size_t num_runs = 6;
  const uint64_t rows_per_run = Scaled(50000);
  const int64_t latencies_us[] = {100, 500, 1000, 2000};
  const int reps = 3;

  std::printf("6 runs x %llu rows, near-disjoint key ranges, 4 io threads. "
              "depth1 = budget 0 (fixed one-block lookahead), depth2 = "
              "budget of 6 blocks, adaptive = 8 MiB budget apportioned "
              "(depth 6 here).\n\n",
              static_cast<unsigned long long>(rows_per_run));
  std::printf("%-12s | %-9s %-9s %-9s %-18s\n", "latency_us", "depth1_s",
              "depth2_s", "adaptive_s", "adaptive_speedup");

  for (int64_t latency_us : latencies_us) {
    StorageEnv::Options env_options;
    env_options.read_latency_nanos = latency_us * 1000;
    StorageEnv env(env_options);  // writes are free: only reads are swept

    // Each column drains its own copy of the runs, through a spill manager
    // whose prefetch budget gives the column's depth cap.
    const size_t budgets[] = {0, num_runs * kDefaultBlockBytes, 8 << 20};
    std::unique_ptr<SpillManager> spills[3];
    for (size_t column = 0; column < 3; ++column) {
      IoPipelineOptions io;
      io.background_threads = 4;
      io.prefetch_memory_budget = budgets[column];
      auto spill = SpillManager::Create(
          &env,
          dir.Sub("depth" + std::to_string(latency_us) + "_" +
                  std::to_string(column)),
          io);
      TOPK_CHECK(spill.ok()) << spill.status().ToString();
      spills[column] = std::move(*spill);
      const RowComparator cmp;
      // Wide rows keep the per-block merge time well under the round trip,
      // so the EWMA ratio asks for a deep window — the regime the adaptive
      // depth exists for.
      const std::string payload(120, 'x');
      for (size_t r = 0; r < num_runs; ++r) {
        auto writer = spills[column]->NewRun(cmp);
        TOPK_CHECK(writer.ok()) << writer.status().ToString();
        const double base = static_cast<double>(r) * rows_per_run;
        for (uint64_t i = 0; i < rows_per_run; ++i) {
          Status status = (*writer)->Append(
              Row(base + static_cast<double>(i), i, payload));
          TOPK_CHECK(status.ok()) << status.ToString();
        }
        auto meta = (*writer)->Finish();
        TOPK_CHECK(meta.ok()) << meta.status().ToString();
        Status added = spills[column]->AddRun(*meta);
        TOPK_CHECK(added.ok()) << added.ToString();
      }
    }

    RunResult results[3];
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t column = 0; column < 3; ++column) {
        RunResult r = MeasureMergeDrain(spills[column].get());
        if (rep == 0 || r.seconds < results[column].seconds) {
          results[column] = r;
        }
      }
    }
    const RunResult& fixed = results[0];
    const RunResult& capped = results[1];
    const RunResult& adaptive = results[2];

    // Depth must never change the merged stream.
    TOPK_CHECK(fixed.result_rows == num_runs * rows_per_run);
    TOPK_CHECK(capped.result_rows == fixed.result_rows);
    TOPK_CHECK(adaptive.result_rows == fixed.result_rows);
    TOPK_CHECK(capped.last_key == fixed.last_key);
    TOPK_CHECK(adaptive.last_key == fixed.last_key);
    std::printf("%-12lld | %-9.3f %-9.3f %-9.3f %-18.2f\n",
                static_cast<long long>(latency_us), fixed.seconds,
                capped.seconds, adaptive.seconds,
                Ratio(fixed.seconds, adaptive.seconds));
  }
  std::printf(
      "\nWith near-disjoint runs the merge hammers one reader at a time; a "
      "one-block window serialises that run's round trips while a deeper "
      "window stripes them across extra handles. The win saturates once "
      "depth reaches the pool's thread count.\n");
}

/// Hedged reads against a spiky storage service: the same 6 spilled runs
/// are drained with hedging off and on while 2% of reads stall for 50x the
/// base round trip. Without hedging every spike lands on the merge's
/// critical path; with hedging a duplicate read on a second handle races
/// the straggler and the first completion wins — byte-identically.
void RunHedgeSweep(const BenchDir& dir) {
  PrintHeader("Hedged reads: merge drain of 6 runs under latency spikes");

  const size_t num_runs = 6;
  const uint64_t rows_per_run = Scaled(50000);
  const int64_t latencies_us[] = {200, 500, 1000};
  const double spike_rate = 0.02;
  const int reps = 3;

  MetricsCounter* issued = GlobalMetrics().GetCounter("io.hedge.issued");
  MetricsCounter* wins = GlobalMetrics().GetCounter("io.hedge.wins");
  MetricsCounter* wasted = GlobalMetrics().GetCounter("io.hedge.wasted");

  std::printf("6 runs x %llu rows, 4 io threads, adaptive prefetch. 2%% of "
              "reads spike to 50x the base latency; hedge threshold is 3x "
              "the EWMA round trip.\n\n",
              static_cast<unsigned long long>(rows_per_run));
  std::printf("%-12s | %-11s %-9s %-9s | %-7s %-5s %-6s\n", "latency_us",
              "unhedged_s", "hedged_s", "speedup", "issued", "wins",
              "wasted");

  for (int64_t latency_us : latencies_us) {
    StorageEnv::Options env_options;
    env_options.read_latency_nanos = latency_us * 1000;

    RunResult unhedged, hedged;
    uint64_t issued_delta = 0, wins_delta = 0, wasted_delta = 0;
    for (const bool hedge : {false, true}) {
      StorageEnv env(env_options);
      FaultProfile profile;
      profile.latency_spike_rate = spike_rate;
      profile.latency_spike_nanos = 50 * latency_us * 1000;
      profile.seed = 0x5eed;  // same spike sequence for both configs
      env.SetFaultProfile(profile);

      IoPipelineOptions io;
      io.background_threads = 4;
      io.hedge_reads = hedge;
      auto spill = SpillManager::Create(
          &env,
          dir.Sub(std::string(hedge ? "hedged" : "unhedged") +
                  std::to_string(latency_us)),
          io);
      TOPK_CHECK(spill.ok()) << spill.status().ToString();
      const RowComparator cmp;
      const std::string payload(120, 'x');
      for (size_t r = 0; r < num_runs; ++r) {
        auto writer = (*spill)->NewRun(cmp);
        TOPK_CHECK(writer.ok()) << writer.status().ToString();
        const double base = static_cast<double>(r) * rows_per_run;
        for (uint64_t i = 0; i < rows_per_run; ++i) {
          Status status = (*writer)->Append(
              Row(base + static_cast<double>(i), i, payload));
          TOPK_CHECK(status.ok()) << status.ToString();
        }
        auto meta = (*writer)->Finish();
        TOPK_CHECK(meta.ok()) << meta.status().ToString();
        Status added = (*spill)->AddRun(*meta);
        TOPK_CHECK(added.ok()) << added.ToString();
      }

      const uint64_t issued_before = issued->value();
      const uint64_t wins_before = wins->value();
      const uint64_t wasted_before = wasted->value();
      RunResult best;
      for (int rep = 0; rep < reps; ++rep) {
        RunResult r = MeasureMergeDrain(spill->get());
        if (rep == 0 || r.seconds < best.seconds) best = r;
      }
      if (hedge) {
        hedged = best;
        issued_delta = issued->value() - issued_before;
        wins_delta = wins->value() - wins_before;
        wasted_delta = wasted->value() - wasted_before;
      } else {
        unhedged = best;
      }
    }

    // Hedging must never change the merged stream.
    TOPK_CHECK(unhedged.result_rows == num_runs * rows_per_run);
    TOPK_CHECK(hedged.result_rows == unhedged.result_rows);
    TOPK_CHECK(hedged.last_key == unhedged.last_key);
    // Late stragglers are dropped, not double-counted: every hedge either
    // won or was wasted, and the wasted share stays below what was issued.
    TOPK_CHECK(wasted_delta <= issued_delta);
    std::printf("%-12lld | %-11.3f %-9.3f %-9.2f | %-7llu %-5llu %-6llu\n",
                static_cast<long long>(latency_us), unhedged.seconds,
                hedged.seconds, Ratio(unhedged.seconds, hedged.seconds),
                static_cast<unsigned long long>(issued_delta),
                static_cast<unsigned long long>(wins_delta),
                static_cast<unsigned long long>(wasted_delta));
  }
  std::printf(
      "\nA 50x spike on the merge's critical read stalls the whole loser "
      "tree; the hedge bounds the stall at roughly one extra round trip. "
      "At 2%% spike incidence most blocks never hedge, so the wasted-read "
      "overhead stays negligible.\n");
}

}  // namespace

int main() {
  using namespace topk;
  using namespace topk::bench;
  PrintHeader("Background I/O pipeline: sync vs 2 background threads");

  const uint64_t input_rows = Scaled(600000);
  const uint64_t k = Scaled(20000);
  const uint64_t memory_rows = Scaled(10000);
  const size_t payload = 56;
  const size_t row_bytes = sizeof(Row) + payload + 32;
  // Latency per 256 KiB storage call (the interesting regime is >= 100 us).
  const int64_t latencies_us[] = {0, 100, 500, 1000, 2000};
  const TopKAlgorithm algorithms[] = {TopKAlgorithm::kTraditionalExternal,
                                      TopKAlgorithm::kHistogram};
  // Best-of-N to suppress scheduler noise (each config is re-run from a
  // fresh spill dir; the dataset is regenerated identically every time).
  const int reps = 3;

  BenchDir dir("io_pipeline");
  std::printf("N=%llu, k=%llu, memory=%llu rows, uniform keys. Latency is "
              "per 256 KiB storage call.\n\n",
              static_cast<unsigned long long>(input_rows),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(memory_rows));
  std::printf("%-22s %-12s | %-9s %-9s %-9s\n", "algorithm", "latency_us",
              "sync_s", "async_s", "speedup");

  int run_id = 0;
  for (TopKAlgorithm algorithm : algorithms) {
    for (int64_t latency_us : latencies_us) {
      DatasetSpec spec;
      spec.WithRows(input_rows).WithPayload(payload, payload).WithSeed(29);

      StorageEnv::Options env_options;
      env_options.write_latency_nanos = latency_us * 1000;
      env_options.read_latency_nanos = latency_us * 1000;

      TopKOptions options;
      options.k = k;
      options.memory_limit_bytes = memory_rows * row_bytes;

      RunResult sync, async;
      for (int rep = 0; rep < reps; ++rep) {
        StorageEnv sync_env(env_options);
        options.env = &sync_env;
        options.spill_dir = dir.Sub("sync" + std::to_string(run_id));
        options.io_background_threads = 0;
        RunResult s = MeasureTopK(algorithm, options, spec);
        if (rep == 0 || s.seconds < sync.seconds) sync = s;

        StorageEnv async_env(env_options);
        options.env = &async_env;
        options.spill_dir = dir.Sub("async" + std::to_string(run_id));
        options.io_background_threads = 2;
        RunResult a = MeasureTopK(algorithm, options, spec);
        if (rep == 0 || a.seconds < async.seconds) async = a;
        ++run_id;
      }

      // The pipeline must not change the answer (or the spill volume).
      TOPK_CHECK(sync.last_key == async.last_key);
      TOPK_CHECK(sync.result_rows == async.result_rows);
      std::printf("%-22s %-12lld | %-9.3f %-9.3f %-9.2f\n",
                  TopKAlgorithmName(algorithm).c_str(),
                  static_cast<long long>(latency_us), sync.seconds,
                  async.seconds, Ratio(sync.seconds, async.seconds));
    }
  }
  std::printf(
      "\nAt low latencies the per-block handoff (copy + worker wakeup) can "
      "cost as much as the round trip it hides, so the pipeline is roughly "
      "neutral; as the per-call round trip grows, the overlap win grows "
      "with it. The spill-heavy traditional operator benefits most — the "
      "histogram operator eliminates most spills before they happen, which "
      "is the paper's point.\n");

  RunPrefetchDepthSweep(dir);
  RunHedgeSweep(dir);
  return 0;
}
