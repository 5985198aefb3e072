/// Google-benchmark microbenchmarks for the library's hot components: the
/// cutoff filter's per-row operations, the loser tree, replacement
/// selection, row (de)serialization, and the observability scope.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/query_control.h"
#include "common/random.h"
#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "row/serialization.h"
#include "sort/loser_tree.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

namespace topk {
namespace {

void BM_CutoffFilterEliminate(benchmark::State& state) {
  CutoffFilter::Options options;
  options.k = 10000;
  options.target_buckets_per_run = 50;
  options.target_run_rows = 20000;
  CutoffFilter filter(options);
  Random rng(1);
  std::vector<double> keys(20000);
  for (double& key : keys) key = rng.NextDouble();
  std::sort(keys.begin(), keys.end());
  for (double key : keys) filter.RowSpilled(key);
  filter.RunFinished();

  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.EliminateKey(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_CutoffFilterEliminate);

void BM_CutoffFilterRowSpilled(benchmark::State& state) {
  CutoffFilter::Options options;
  options.k = 1 << 20;
  options.target_buckets_per_run = static_cast<uint64_t>(state.range(0));
  options.target_run_rows = 100000;
  CutoffFilter filter(options);
  Random rng(2);
  double key = 0.0;
  for (auto _ : state) {
    key += rng.NextDouble() * 1e-9;  // keep run order ascending
    filter.RowSpilled(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CutoffFilterRowSpilled)->Arg(1)->Arg(50)->Arg(1000);

void BM_LoserTreeReplay(benchmark::State& state) {
  const size_t ways = static_cast<size_t>(state.range(0));
  Random rng(3);
  std::vector<double> current(ways);
  for (double& v : current) v = rng.NextDouble();
  LoserTree tree(ways, [&](size_t a, size_t b) {
    return current[a] < current[b];
  });
  tree.Build();
  for (auto _ : state) {
    const size_t w = tree.winner();
    current[w] += rng.NextDouble();  // advance the winning way
    tree.ReplayWinner();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoserTreeReplay)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_RowSerialize(benchmark::State& state) {
  Row row(0.5, 42, std::string(static_cast<size_t>(state.range(0)), 'x'));
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    SerializeRow(row, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(row.SerializedSize()));
}
BENCHMARK(BM_RowSerialize)->Arg(0)->Arg(64)->Arg(512);

void BM_RowDeserialize(benchmark::State& state) {
  Row row(0.5, 42, std::string(static_cast<size_t>(state.range(0)), 'x'));
  std::string buf;
  SerializeRow(row, &buf);
  Row out;
  for (auto _ : state) {
    size_t offset = 0;
    benchmark::DoNotOptimize(
        DeserializeRow(buf.data(), buf.size(), &offset, &out));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_RowDeserialize)->Arg(0)->Arg(64)->Arg(512);

void BM_ReplacementSelectionAdd(benchmark::State& state) {
  const std::string dir = "/tmp/topk_micro_rs";
  std::filesystem::create_directories(dir);
  StorageEnv env;
  auto spill = SpillManager::Create(&env, dir);
  TOPK_CHECK(spill.ok());
  RunGeneratorOptions options;
  options.memory_limit_bytes = 4 << 20;
  ReplacementSelectionRunGenerator gen(spill->get(), RowComparator(),
                                       options);
  Random rng(7);
  std::string payload(static_cast<size_t>(state.range(0)), 'b');
  for (auto _ : state) {
    Status status = gen.Add(Row(rng.NextDouble(), 0, payload));
    TOPK_CHECK(status.ok());
  }
  TOPK_CHECK(gen.Flush().ok());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplacementSelectionAdd)->Arg(0)->Arg(64)->Arg(256);

/// Replacement selection's spill path as the operators drive it, one Add
/// per iteration: the selection step, the spill of one row, and the run
/// writer's handoff to 2 background I/O threads, under a 1 MiB budget.
/// Rows (64-byte payloads) are built outside the timed region and moved
/// in, so unlike BM_ReplacementSelectionAdd no payload malloc is timed.
/// Arg(0): uniform keys. Arg(1): descending keys under an ascending sort,
/// so every row is deferred to the next run.
void BM_ReplacementSelectionSpill(benchmark::State& state) {
  const bool descending = state.range(0) != 0;
  const std::string dir = "/tmp/topk_micro_rs_spill";
  std::filesystem::remove_all(dir);
  StorageEnv env;
  IoPipelineOptions io;
  io.background_threads = 2;
  auto spill = SpillManager::Create(&env, dir, io);
  TOPK_CHECK(spill.ok());
  RunGeneratorOptions options;
  options.memory_limit_bytes = 1 << 20;
  ReplacementSelectionRunGenerator gen(spill->get(), RowComparator(),
                                       options);
  Random rng(17);
  const std::string payload(64, 's');
  std::vector<Row> rows(1 << 16);
  size_t next = rows.size();
  uint64_t id = 0;
  for (auto _ : state) {
    if (next == rows.size()) {
      state.PauseTiming();
      for (Row& row : rows) {
        const double key =
            descending ? -static_cast<double>(id) : rng.NextDouble();
        row = Row(key, id++, payload);
      }
      next = 0;
      state.ResumeTiming();
    }
    Status status = gen.Add(std::move(rows[next++]));
    TOPK_CHECK(status.ok());
  }
  TOPK_CHECK(gen.Flush().ok());
  state.SetItemsProcessed(state.iterations());
  spill->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplacementSelectionSpill)->Arg(0)->Arg(1);

/// The same spill-heavy stream through load-sort-store run generation:
/// Arg(0) uniform keys, Arg(1) descending keys. Each Add serializes a row
/// into the load's buffer; one Add per memory load sorts and spills it.
void BM_QuicksortSpill(benchmark::State& state) {
  const bool descending = state.range(0) != 0;
  const std::string dir = "/tmp/topk_micro_qs_spill";
  std::filesystem::remove_all(dir);
  StorageEnv env;
  IoPipelineOptions io;
  io.background_threads = 2;
  auto spill = SpillManager::Create(&env, dir, io);
  TOPK_CHECK(spill.ok());
  RunGeneratorOptions options;
  options.memory_limit_bytes = 1 << 20;
  QuicksortRunGenerator gen(spill->get(), RowComparator(), options);
  Random rng(17);
  const std::string payload(64, 's');
  std::vector<Row> rows(1 << 16);
  size_t next = rows.size();
  uint64_t id = 0;
  for (auto _ : state) {
    if (next == rows.size()) {
      state.PauseTiming();
      for (Row& row : rows) {
        const double key =
            descending ? -static_cast<double>(id) : rng.NextDouble();
        row = Row(key, id++, payload);
      }
      next = 0;
      state.ResumeTiming();
    }
    Status status = gen.Add(std::move(rows[next++]));
    TOPK_CHECK(status.ok());
  }
  TOPK_CHECK(gen.Flush().ok());
  state.SetItemsProcessed(state.iterations());
  spill->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_QuicksortSpill)->Arg(0)->Arg(1);

/// What an operator entry point pays per call to install its query's
/// observability context when the caller has not installed it already
/// (Consume is called once per row).
void BM_ObsScopeEnter(benchmark::State& state) {
  const std::shared_ptr<ObsContext> obs = ObsContext::Create("bench");
  for (auto _ : state) {
    ObsScope scope(obs);
    benchmark::DoNotOptimize(CurrentObsContext());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopeEnter);

void BM_RunWriterAppend(benchmark::State& state) {
  const std::string dir = "/tmp/topk_micro_rw";
  std::filesystem::create_directories(dir);
  StorageEnv env;
  auto writer = RunWriter::Create(&env, dir + "/run", 0, RowComparator());
  TOPK_CHECK(writer.ok());
  std::string payload(static_cast<size_t>(state.range(0)), 'c');
  double key = 0;
  uint64_t id = 0;
  for (auto _ : state) {
    key += 1.0;
    Status status = (*writer)->Append(Row(key, id++, payload));
    TOPK_CHECK(status.ok());
  }
  TOPK_CHECK((*writer)->Finish().ok());
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(kRowHeaderBytes + payload.size()));
}
BENCHMARK(BM_RunWriterAppend)->Arg(0)->Arg(64)->Arg(256);

/// The tentpole A/B: a 6-run merge with offset-value coding on vs off.
/// Arg(1) carries OVC codes through the loser tree (most repairs decide on
/// one integer compare), Arg(0) runs the legacy full-row comparator.
/// Output is byte-identical either way; the win shows up as wall clock and
/// as the full_cmp_per_row counter collapsing.
void BM_MergeSixRunsOvc(benchmark::State& state) {
  const bool use_ovc = state.range(0) != 0;
  const std::string dir = "/tmp/topk_micro_merge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StorageEnv env;
  auto spill = SpillManager::Create(&env, dir);
  TOPK_CHECK(spill.ok());
  const RowComparator comparator;
  constexpr size_t kRuns = 6;
  constexpr size_t kRowsPerRun = 20000;
  Random rng(13);
  for (size_t r = 0; r < kRuns; ++r) {
    std::vector<double> keys(kRowsPerRun);
    for (double& key : keys) key = rng.NextDouble();
    std::sort(keys.begin(), keys.end());
    auto writer = spill->get()->NewRun(comparator);
    TOPK_CHECK(writer.ok());
    uint64_t id = r;
    for (double key : keys) {
      TOPK_CHECK((*writer)->Append(Row(key, id, "payload")).ok());
      id += kRuns;
    }
    auto meta = (*writer)->Finish();
    TOPK_CHECK(meta.ok());
    TOPK_CHECK(spill->get()->AddRun(std::move(*meta)).ok());
  }
  const std::vector<RunMeta> runs = spill->get()->runs();

  MetricsCounter* full = GlobalMetrics().GetCounter("sort.compare.count");
  MetricsCounter* hits = GlobalMetrics().GetCounter("sort.compare.ovc_hits");
  const uint64_t full_before = full->value();
  const uint64_t hits_before = hits->value();
  uint64_t rows_merged = 0;
  for (auto _ : state) {
    MergeOptions options;
    options.use_ovc = use_ovc;
    auto stats = MergeRuns(spill->get(), runs, comparator, options,
                           [](Row&&) { return Status::OK(); });
    TOPK_CHECK(stats.ok());
    rows_merged += stats->rows_emitted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows_merged));
  const double rows = rows_merged > 0 ? static_cast<double>(rows_merged) : 1;
  state.counters["full_cmp_per_row"] =
      static_cast<double>(full->value() - full_before) / rows;
  state.counters["ovc_hits_per_row"] =
      static_cast<double>(hits->value() - hits_before) / rows;
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MergeSixRunsOvc)->Arg(0)->Arg(1);

/// The cancellation poll every operator runs on its row hot path: a null
/// check plus one relaxed atomic load when a token is installed. Arg(0) is
/// the non-cancellable query (null token, branch only), Arg(1) a live
/// token. Both must price out as ~1 ns/row — bench_compare against the
/// committed baseline guards the surrounding row-work benches
/// (ReplacementSelectionAdd, RunWriterAppend) against the poll leaking
/// real cost into them.
void BM_CancelTokenPoll(benchmark::State& state) {
  CancellationToken token;
  const CancellationToken* cancel = state.range(0) != 0 ? &token : nullptr;
  bool stop = false;
  for (auto _ : state) {
    stop = cancel != nullptr && cancel->ShouldStop();
    benchmark::DoNotOptimize(stop);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CancelTokenPoll)->Arg(0)->Arg(1);

/// Checksums `state.range(0)` bytes per iteration with `crc32c`. Arg 84 is
/// one spilled row: a 64-byte payload plus its 20-byte header.
template <uint32_t (*crc32c)(uint32_t, const void*, size_t)>
void RunCrc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'd');
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}

void BM_Crc32c(benchmark::State& state) { RunCrc32c<&Crc32c>(state); }
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(84)->Arg(4096);

/// The table-driven fallback Crc32c uses on CPUs without SSE4.2.
void BM_Crc32cPortable(benchmark::State& state) {
  RunCrc32c<&internal::Crc32cPortable>(state);
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(84)->Arg(4096);

}  // namespace
}  // namespace topk

BENCHMARK_MAIN();
