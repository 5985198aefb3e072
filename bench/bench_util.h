#ifndef TOPK_BENCH_BENCH_UTIL_H_
#define TOPK_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "gen/generator.h"
#include "io/storage_env.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"
#include "topk/operator_factory.h"

namespace topk {
namespace bench {

/// Scale knob: TOPK_BENCH_SCALE multiplies every row count (default 1.0).
/// TOPK_BENCH_SCALE=0.1 gives a quick smoke pass; =10 approaches paper
/// scale if you have the time and disk.
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("TOPK_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

inline uint64_t Scaled(uint64_t rows) {
  const double scaled = static_cast<double>(rows) * Scale();
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

/// Scratch directory for one bench process; removed at exit.
class BenchDir {
 public:
  explicit BenchDir(const std::string& name) {
    path_ = std::filesystem::temp_directory_path() /
            ("topk_bench_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string Sub(const std::string& sub) const {
    return (path_ / sub).string();
  }

 private:
  std::filesystem::path path_;
};

/// Result of one measured operator execution.
struct RunResult {
  double seconds = 0.0;
  OperatorStats stats;
  uint64_t result_rows = 0;
  double first_key = 0.0;
  double last_key = 0.0;
};

/// TOPK_TRACE_OUT=FILE: every MeasureTopK execution is traced and the
/// Chrome trace JSON written to FILE (each run overwrites it, so the file
/// holds the most recent execution — rerun a bench filtered to the case of
/// interest).
inline const char* TraceOutPath() {
  static const char* path = std::getenv("TOPK_TRACE_OUT");
  return path;
}

/// TOPK_STATS_JSONL=FILE: one unified stats JSON document (operator stats +
/// storage traffic + per-execution metrics delta) appended per measured
/// execution. The metrics section is the delta of the global registry over
/// the measured run, so back-to-back benches in one process don't bleed
/// counters into each other's documents.
inline const char* StatsJsonlPath() {
  static const char* path = std::getenv("TOPK_STATS_JSONL");
  return path;
}

/// Streams `spec`'s rows through a fresh operator of `algorithm` and
/// measures wall time end-to-end (consume + finish). Aborts the process on
/// error — benches have no recovery story.
inline RunResult MeasureTopK(TopKAlgorithm algorithm,
                             const TopKOptions& options,
                             const DatasetSpec& spec) {
  if (TraceOutPath() != nullptr) {
    GlobalTracer().Start();
  }
  RegistrySnapshot baseline;
  if (StatsJsonlPath() != nullptr) {
    baseline = GlobalMetrics().TakeSnapshot();
  }
  auto op = MakeTopKOperator(algorithm, options);
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
  RunResult out;
  out.seconds = watch.ElapsedSeconds();
  out.stats = (*op)->stats();
  out.result_rows = result->size();
  if (!result->empty()) {
    out.first_key = result->front().key;
    out.last_key = result->back().key;
  }
  if (TraceOutPath() != nullptr) {
    GlobalTracer().Stop();
    Status status = GlobalTracer().WriteJsonFile(TraceOutPath());
    TOPK_CHECK(status.ok()) << status.ToString();
  }
  if (StatsJsonlPath() != nullptr) {
    StatsExport exported;
    exported.operator_name = TopKAlgorithmName(algorithm);
    exported.operator_stats = out.stats;
    if (options.env != nullptr) {
      exported.io = options.env->stats()->snapshot();
    }
    exported.metrics = GlobalMetrics().TakeSnapshot().DeltaSince(baseline);
    std::FILE* file = std::fopen(StatsJsonlPath(), "a");
    TOPK_CHECK(file != nullptr) << "cannot open " << StatsJsonlPath();
    const std::string line = FormatStatsJson(exported);
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
  }
  return out;
}

/// Rows written to secondary storage by a run (spills + intermediate merge
/// output) — the paper's "spilled rows" metric for Figures 2-5.
inline uint64_t RowsWritten(const RunResult& result) {
  return result.stats.rows_spilled + result.stats.merge_rows_written;
}

inline double Ratio(double base, double ours) {
  return ours > 0 ? base / ours : 0.0;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
  if (Scale() != 1.0) {
    std::printf("(TOPK_BENCH_SCALE=%.3g)\n", Scale());
  }
}

}  // namespace bench
}  // namespace topk

#endif  // TOPK_BENCH_BENCH_UTIL_H_
