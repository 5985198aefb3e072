/// Benchmark driver: runs one named top-k workload as a closed loop with one
/// client — one query at a time through MakeTopKOperator -> Consume ->
/// Finish — on input generated in memory from --seed before timing starts,
/// checks every result against a reference top-k, and prints one JSON
/// document with every metric, its unit and its sample count.
///
///   perfbench --workload=hist-uniform --seed=1 --seconds=20 --trace=0
///             --spill-dir=DIR [--revision=STR] [--corrupt-reference=true]
///
/// --trace=0 reports the query-level metrics. --trace=1 alternates untraced
/// queries with queries run under the global tracer, reports the counters
/// the program exports, and replays each module's public calls on the
/// workload's rows (layers.cc) to time the layers. Exit status: 0 when every
/// query returned the reference rows, 1 when any failed, 2 on bad flags.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/resource_arbiter.h"
#include "gen/generator.h"
#include "io/storage_env.h"
#include "layers.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "topk/operator_factory.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using topk::Row;
using topk::Status;

/// Consume calls per timed batch (the unit of consume_batch_*_us): a run
/// holds thousands of batches, so its p99 has far more than ten samples
/// beyond it, and the clock pair costs < 0.1% of a batch. At this size
/// 2-16% of batches close a run, so the p99 lies inside the population of
/// spill stalls rather than on its edge.
constexpr size_t kConsumeBatch = 1024;
/// Rows per timed RowGenerator::Next batch.
constexpr size_t kGenBatch = 4096;
/// Queries per run at least, however long they take: enough for a traced
/// run to pool 1000 batches over its traced queries.
constexpr int kMinQueries = 6;
/// The operator's default background I/O threads; with the client thread
/// the query uses 3 threads.
constexpr size_t kIoThreads = 2;

struct Workload {
  const char* name;
  topk::TopKAlgorithm algorithm;
  topk::KeyDistribution distribution;
  uint64_t rows;
  uint64_t k;
  size_t memory_bytes;
  size_t payload_bytes;
};

/// README.md explains each choice. Sizes keep the ratios of the paper-scale
/// shapes (n/k = 20 and 19 runs on uniform input, 77 runs on descending
/// input) at a quarter of their row counts and memory, so that one run
/// holds 30 or more queries and its medians are steady.
constexpr Workload kWorkloads[] = {
    {"hist-uniform", topk::TopKAlgorithm::kHistogram,
     topk::KeyDistribution::kUniform, 1'000'000, 50'000, 1 << 20, 64},
    {"opt-uniform", topk::TopKAlgorithm::kOptimizedExternal,
     topk::KeyDistribution::kUniform, 1'000'000, 50'000, 1 << 20, 64},
    {"hist-descending", topk::TopKAlgorithm::kHistogram,
     topk::KeyDistribution::kDescending, 500'000, 50'000, 1 << 20, 64},
};

/// Moves the calling thread round-robin over the CPUs it may use. On a VM
/// whose vCPUs share host cores with other guests, vCPU speeds differ by
/// up to a third and change over minutes, while a busy thread stays on the
/// vCPU it started on; moving the client thread every few milliseconds
/// makes every query sample the whole machine instead of one vCPU. Each
/// move pins the thread to the next CPU and then widens its mask again, so
/// threads the operator starts later (its I/O pool) may run anywhere.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  uint64_t next_ = 0;
};

/// Batches (of either kind) between two moves of the client thread.
constexpr size_t kBatchesPerMove = 16;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100).
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// One workload input: the rows, in input order, and the ids of the
/// reference top k in query order.
struct Input {
  std::vector<Row> rows;
  std::vector<uint64_t> reference;
};

/// Generates the workload's rows and computes the reference top k by a
/// partial sort on (normalized key, id) — the total order every operator
/// implements. With `gen_nanos` set, RowGenerator::Next is timed per batch.
Input Setup(const Workload& w, uint64_t seed, CpuRotation* rotation,
            int64_t* gen_nanos) {
  topk::DatasetSpec spec;
  spec.WithRows(w.rows)
      .WithDistribution(w.distribution)
      .WithPayload(w.payload_bytes, w.payload_bytes)
      .WithSeed(seed);
  topk::RowGenerator gen(spec);
  Input input;
  input.rows.resize(w.rows);
  for (size_t begin = 0; begin < w.rows; begin += kGenBatch) {
    if (begin / kGenBatch % kBatchesPerMove == 0) rotation->Next();
    const size_t end = std::min<size_t>(w.rows, begin + kGenBatch);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) gen.Next(&input.rows[i]);
    if (gen_nanos != nullptr) {
      *gen_nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> order;
  order.reserve(w.rows);
  for (const Row& row : input.rows) {
    order.emplace_back(
        topk::NormalizeDoubleKey(row.key, topk::SortDirection::kAscending),
        row.id);
  }
  const size_t k = std::min<size_t>(w.k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end());
  input.reference.reserve(k);
  for (size_t i = 0; i < k; ++i) input.reference.push_back(order[i].second);
  return input;
}

/// Everything measured about one query.
struct Query {
  bool ok = false;
  bool traced = false;
  std::string error;
  double query_s = 0, consume_s = 0, finish_s = 0;
  double cpu_s = 0, background_cpu_s = 0;
  std::vector<double> batch_us;
  topk::OperatorStats stats;
  /// Merge rows read when the input ended (the optimized baseline's early
  /// merges run inside Consume).
  uint64_t merge_rows_read_in_consume = 0;
  topk::IoStats::Snapshot io;
  uint64_t spill_peak_bytes = 0;
  uint64_t mem_peak_bytes = 0;
  std::map<std::string, uint64_t, std::less<>> counters;
  uint64_t rows_to_first_cutoff = 0;
};

/// Runs one query, moving `rows` into the operator. Timing covers only the
/// operator's calls; building and destroying the operator is outside it.
Query RunQuery(const Workload& w, std::vector<Row> rows,
               const std::vector<uint64_t>& reference,
               const std::string& spill_dir, bool traced,
               CpuRotation* rotation) {
  Query q;
  q.traced = traced;
  topk::StorageEnv env;
  topk::MemoryArbiter arbiter;
  std::shared_ptr<topk::ObsContext> obs = topk::ObsContext::Create(w.name);
  topk::TopKOptions options;
  options.k = w.k;
  options.memory_limit_bytes = w.memory_bytes;
  options.io_background_threads = kIoThreads;
  options.env = &env;
  options.spill_dir = spill_dir;
  options.obs = obs;
  options.arbiter = &arbiter;
  auto op = topk::MakeTopKOperator(w.algorithm, options);
  if (!op.ok()) {
    q.error = op.status().ToString();
    return q;
  }
  if (traced) topk::GlobalTracer().Start();
  q.batch_us.reserve(rows.size() / kConsumeBatch + 1);
  Status status;
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  const double thread_cpu0 = CpuSeconds(RUSAGE_THREAD);
  const Clock::time_point start = Clock::now();
  Clock::time_point consumed = start;
  for (size_t begin = 0; begin < rows.size() && status.ok();
       begin += kConsumeBatch) {
    if (begin / kConsumeBatch % kBatchesPerMove == 0) rotation->Next();
    const size_t end = std::min(rows.size(), begin + kConsumeBatch);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end && status.ok(); ++i) {
      status = (*op)->Consume(std::move(rows[i]));
    }
    consumed = Clock::now();
    q.batch_us.push_back(Seconds(consumed - t0) * 1e6);
    q.consume_s += Seconds(consumed - t0);
  }
  q.merge_rows_read_in_consume = (*op)->stats().merge_rows_read;
  topk::Result<std::vector<Row>> result =
      status.ok() ? (*op)->Finish() : topk::Result<std::vector<Row>>(status);
  const Clock::time_point finished = Clock::now();
  q.cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  q.background_cpu_s = q.cpu_s - (CpuSeconds(RUSAGE_THREAD) - thread_cpu0);
  if (traced) {
    topk::GlobalTracer().Stop();
    topk::GlobalTracer().Clear();
  }
  q.query_s = Seconds(finished - start);
  q.finish_s = Seconds(finished - consumed);
  if (!result.ok()) {
    q.error = result.status().ToString();
    return q;
  }
  obs->MarkQueryComplete();
  q.stats = (*op)->stats();
  q.io = env.stats()->snapshot();
  q.spill_peak_bytes = obs->peak_spill_bytes();
  const topk::RegistrySnapshot metrics = obs->metrics().TakeSnapshot();
  for (const auto& [name, value] : metrics.counters) q.counters[name] = value;
  const auto peak = metrics.gauges.find("mem.arbiter.peak_bytes");
  q.mem_peak_bytes = peak != metrics.gauges.end()
                         ? static_cast<uint64_t>(peak->second)
                         : arbiter.peak_bytes();
  const std::vector<topk::ObsContext::CutoffEvent> cutoffs =
      obs->cutoff_events();
  if (!cutoffs.empty()) q.rows_to_first_cutoff = cutoffs.front().rows_consumed;

  bool same = result->size() == reference.size();
  for (size_t i = 0; same && i < reference.size(); ++i) {
    same = (*result)[i].id == reference[i];
  }
  if (!same) {
    q.error = "result differs from the reference top-k";
    return q;
  }
  q.ok = true;
  return q;
}

uint64_t Counter(const Query& q, std::string_view name) {
  const auto it = q.counters.find(name);
  return it == q.counters.end() ? 0 : it->second;
}

/// The counts a query must reproduce exactly for a given seed, traced or
/// not. Read-side counts are listed too, although read-ahead that a
/// k-limited merge abandons could make them differ; the report says which
/// repeated.
std::vector<std::pair<std::string, uint64_t>> Counts(const Query& q) {
  return {
      {"rows_eliminated_input", q.stats.rows_eliminated_input},
      {"rows_eliminated_spill", q.stats.rows_eliminated_spill},
      {"rows_spilled", q.stats.rows_spilled},
      {"runs_created", q.stats.runs_created},
      {"merge_rows_read", q.stats.merge_rows_read},
      {"merge_rows_written", q.stats.merge_rows_written},
      {"filter_buckets_inserted", q.stats.filter_buckets_inserted},
      {"filter_consolidations", q.stats.filter_consolidations},
      {"cutoff_updates", Counter(q, "filter.cutoff_updates")},
      {"compare_full", Counter(q, "sort.compare.count")},
      {"compare_ovc_hits", Counter(q, "sort.compare.ovc_hits")},
      {"bytes_written", q.io.bytes_written},
      {"write_calls", q.io.write_calls},
      {"spill_peak_bytes", q.spill_peak_bytes},
      {"bytes_read", q.io.bytes_read},
      {"read_calls", q.io.read_calls},
  };
}

/// Collects named metrics and writes them as one JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, bool applies = true) {
    // A layer the workload never calls reports 0, never a stale count.
    metrics_.push_back({name, applies ? value : 0.0, unit, samples, applies});
  }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %zu, \"applies\": %s}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                    m.samples, m.applies ? "true" : "false");
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
    bool applies;
  };
  std::vector<Metric> metrics_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool corrupt_reference = false;
  std::string spill_root;
  std::string revision;
};

topk::Result<Args> ParseArgs(int argc, char** argv) {
  topk::Flags flags;
  TOPK_ASSIGN_OR_RETURN(flags, topk::Flags::Parse(argc, argv));
  Args args;
  const std::string name = flags.GetString("workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) args.workload = &w;
  }
  if (args.workload == nullptr) {
    return Status::InvalidArgument("unknown --workload '" + name + "'");
  }
  int64_t seed = 0;
  TOPK_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 1));
  TOPK_ASSIGN_OR_RETURN(args.seconds, flags.GetDouble("seconds", 30));
  if (seed < 0 || args.seconds <= 0) {
    return Status::InvalidArgument("--seed must be >= 0, --seconds > 0");
  }
  args.seed = static_cast<uint64_t>(seed);
  TOPK_ASSIGN_OR_RETURN(args.trace, flags.GetBool("trace", false));
  TOPK_ASSIGN_OR_RETURN(args.corrupt_reference,
                        flags.GetBool("corrupt-reference", false));
  args.spill_root = flags.GetString("spill-dir", "");
  if (args.spill_root.empty()) {
    return Status::InvalidArgument("--spill-dir is required");
  }
  args.revision = flags.GetString("revision", "unknown");
  if (const auto unread = flags.UnreadFlags(); !unread.empty()) {
    return Status::InvalidArgument("unknown flag --" + unread.front());
  }
  return args;
}

/// What one run measured: a set-up time per query, the queries, and (in a
/// traced run) RowGenerator::Next time over every row set up.
struct Run {
  std::vector<double> setup_s;
  std::vector<Query> queries;
  int64_t gen_nanos = 0;
  uint64_t gen_rows = 0;

  /// The queries that returned the reference rows, traced or not.
  std::vector<const Query*> Good(bool traced) const {
    std::vector<const Query*> good;
    for (const Query& q : queries) {
      if (q.ok && q.traced == traced) good.push_back(&q);
    }
    return good;
  }
};

/// The closed loop: set up, run one query, repeat until the time is spent
/// (at least kMinQueries). In a traced run untraced and traced queries
/// alternate.
Run RunLoop(const Args& args) {
  const Workload& w = *args.workload;
  Run run;
  CpuRotation rotation;
  const Clock::time_point run_start = Clock::now();
  double last_cycle_s = 0;
  for (int i = 0;; ++i) {
    const double elapsed = Seconds(Clock::now() - run_start);
    if (i >= kMinQueries && elapsed + last_cycle_s > args.seconds) break;
    const Clock::time_point cycle_start = Clock::now();
    Input input = Setup(w, args.seed, &rotation,
                        args.trace ? &run.gen_nanos : nullptr);
    run.setup_s.push_back(Seconds(Clock::now() - cycle_start));
    if (args.trace) run.gen_rows += w.rows;
    if (args.corrupt_reference && !input.reference.empty()) {
      input.reference.back() ^= 1;
    }
    run.queries.push_back(RunQuery(w, std::move(input.rows), input.reference,
                                   args.spill_root + "/q" + std::to_string(i),
                                   args.trace && i % 2 == 1, &rotation));
    last_cycle_s = Seconds(Clock::now() - cycle_start);
  }
  return run;
}

/// The exact counts of `queries` as JSON, each flagged with whether every
/// query agreed. Sets `*repeat` to false when a count that must repeat did
/// not (read-side counts only warn, see Counts).
std::string CountsJson(const std::vector<const Query*>& queries,
                       bool* repeat) {
  *repeat = true;
  if (queries.empty()) return "{}";
  const auto first = Counts(*queries.front());
  std::string out = "{";
  for (size_t c = 0; c < first.size(); ++c) {
    bool same = true;
    for (const Query* q : queries) same &= Counts(*q)[c] == first[c];
    out += (c == 0 ? "" : ", ") + JsonString(first[c].first) +
           ": {\"value\": " + std::to_string(first[c].second) +
           ", \"repeats\": " + (same ? "true" : "false") + "}";
    if (!same) {
      std::fprintf(stderr, "warning: count %s differs between queries\n",
                   first[c].first.c_str());
      if (first[c].first != "bytes_read" && first[c].first != "read_calls") {
        *repeat = false;
      }
    }
  }
  return out + "}";
}

std::string QueriesJson(const std::vector<Query>& queries) {
  std::string out = "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"traced\": %s, \"query_s\": %.6f, \"consume_s\": "
                  "%.6f, \"finish_s\": %.6f, \"cpu_s\": %.6f}",
                  i == 0 ? "" : ", ", q.traced ? "true" : "false", q.query_s,
                  q.consume_s, q.finish_s, q.cpu_s);
    out += buf;
  }
  return out + "]";
}

/// A percentile of the Consume batch latencies pooled over `queries`.
struct BatchPercentile {
  double us = 0;
  size_t samples = 0;
};

/// Fails when fewer than ten samples would lie beyond percentile `p`.
topk::Result<BatchPercentile> PooledBatchPercentile(
    const std::vector<const Query*>& queries, double p) {
  std::vector<double> batches;
  for (const Query* q : queries) {
    batches.insert(batches.end(), q->batch_us.begin(), q->batch_us.end());
  }
  if (static_cast<double>(batches.size()) * (100 - p) / 100 < 10) {
    return Status::FailedPrecondition("too few consume batches for a p" +
                                      std::to_string(p));
  }
  std::sort(batches.begin(), batches.end());
  return BatchPercentile{Percentile(batches, p), batches.size()};
}

template <typename Field>
double MedianOf(const std::vector<const Query*>& queries, Field field) {
  std::vector<double> values;
  for (const Query* q : queries) values.push_back(field(*q));
  return Median(std::move(values));
}

double InputBytes(const Workload& w) {
  return static_cast<double>(w.rows) *
         static_cast<double>(topk::kRowHeaderBytes + w.payload_bytes);
}

/// The query-level metrics of an untraced run.
Status AddEndToEnd(const Workload& w, const Run& run,
                   const std::vector<const Query*>& qs, Report* report) {
  const size_t n = qs.size();
  const double rows = static_cast<double>(w.rows);
  const double input_bytes = InputBytes(w);
  report->Add("query_s", MedianOf(qs, [](auto& q) { return q.query_s; }),
              "s", n);
  report->Add("rows_per_s",
              MedianOf(qs, [&](auto& q) { return rows / q.query_s; }), "1/s",
              n);
  report->Add("consume_s", MedianOf(qs, [](auto& q) { return q.consume_s; }),
              "s", n);
  report->Add("finish_s", MedianOf(qs, [](auto& q) { return q.finish_s; }),
              "s", n);
  BatchPercentile p50, p99;
  TOPK_ASSIGN_OR_RETURN(p50, PooledBatchPercentile(qs, 50));
  TOPK_ASSIGN_OR_RETURN(p99, PooledBatchPercentile(qs, 99));
  report->Add("consume_batch_p50_us", p50.us, "us", p50.samples);
  report->Add("consume_batch_p99_us", p99.us, "us", p99.samples);
  report->Add("cpu_s", MedianOf(qs, [](auto& q) { return q.cpu_s; }), "s", n);
  report->Add("write_bytes_per_input_byte",
              MedianOf(qs, [&](auto& q) {
                return static_cast<double>(q.io.bytes_written) / input_bytes;
              }),
              "ratio", n);
  report->Add("read_bytes_per_input_byte",
              MedianOf(qs, [&](auto& q) {
                return static_cast<double>(q.io.bytes_read) / input_bytes;
              }),
              "ratio", n);
  report->Add("spill_peak_bytes_per_input_byte",
              MedianOf(qs, [&](auto& q) {
                return static_cast<double>(q.spill_peak_bytes) / input_bytes;
              }),
              "ratio", n);
  report->Add("mem_peak_bytes",
              MedianOf(qs, [](auto& q) {
                return static_cast<double>(q.mem_peak_bytes);
              }),
              "bytes", n);
  report->Add("setup_s", Median(run.setup_s), "s", run.setup_s.size());
  return Status::OK();
}

/// The per-layer metrics of a traced run: counts from the traced queries,
/// layer costs from the drivers in layers.cc replayed on the same input,
/// and each timed layer's share of consume_s or finish_s.
Status AddLayers(const Args& args, const Run& run,
                 const std::vector<const Query*>& plain,
                 const std::vector<const Query*>& traced, Report* report) {
  const Workload& w = *args.workload;
  const bool hist = w.algorithm == topk::TopKAlgorithm::kHistogram;
  LayerSetup setup;
  setup.histogram = hist;
  setup.k = w.k;
  setup.memory_bytes = w.memory_bytes;
  setup.io_threads = kIoThreads;
  setup.spill_dir = args.spill_root + "/layers";
  LayerCosts c;
  CpuRotation rotation;
  Input replay = Setup(w, args.seed, &rotation, nullptr);
  TOPK_ASSIGN_OR_RETURN(c, MeasureLayers(setup, std::move(replay.rows)));

  const Query& q = *traced.front();  // counts repeat across queries
  const size_t n = traced.size();
  const double rows = static_cast<double>(w.rows);
  const double consume_s =
      MedianOf(traced, [](auto& x) { return x.consume_s; });
  const double finish_s = MedianOf(traced, [](auto& x) { return x.finish_s; });
  const double rows_added = static_cast<double>(q.stats.rows_consumed -
                                                q.stats.rows_eliminated_input);
  const double spilled = static_cast<double>(q.stats.rows_spilled);
  const double read_in_consume =
      static_cast<double>(q.merge_rows_read_in_consume);
  const double read_in_finish =
      static_cast<double>(q.stats.merge_rows_read) - read_in_consume;
  const auto count = [&](std::string_view name) {
    return static_cast<double>(Counter(q, name));
  };
  const double compares =
      count("sort.compare.count") + count("sort.compare.ovc_hits");
  const double spilled_bytes =
      spilled * static_cast<double>(topk::kRowHeaderBytes + w.payload_bytes);
  // Share of a phase: per-row cost times the rows the real query passed
  // through the layer, over the phase's median time.
  const auto share = [](double ns_per_row, double rows_through,
                        double phase_s) {
    return ns_per_row * 1e-9 * rows_through / phase_s;
  };

  report->Add("gen.ns_per_row",
              static_cast<double>(run.gen_nanos) /
                  static_cast<double>(run.gen_rows),
              "ns", run.setup_s.size());
  report->Add("topk.consume_ns_per_row", consume_s * 1e9 / rows, "ns", n);
  BatchPercentile p99;
  TOPK_ASSIGN_OR_RETURN(p99, PooledBatchPercentile(traced, 99));
  report->Add("topk.consume_batch_p99_us", p99.us, "us", p99.samples);
  report->Add("topk.stats_consume_ratio", MedianOf(traced, [](auto& x) {
                return static_cast<double>(x.stats.consume_nanos) * 1e-9 /
                       x.consume_s;
              }),
              "ratio", n);
  report->Add("histogram.eliminated_input_frac",
              static_cast<double>(q.stats.rows_eliminated_input) / rows,
              "frac", 1, hist);
  report->Add("histogram.eliminated_spill_rows",
              static_cast<double>(q.stats.rows_eliminated_spill), "count", 1,
              hist);
  report->Add("histogram.probe_ns", c.probe_ns, "ns", 1, hist);
  report->Add("histogram.probe_share_of_consume",
              share(c.probe_ns, rows, consume_s), "frac", 1, hist);
  report->Add("histogram.account_ns", c.account_ns, "ns", 1, hist);
  report->Add("histogram.account_share_of_consume",
              share(c.account_ns, spilled, consume_s), "frac", 1, hist);
  report->Add("histogram.buckets_inserted",
              static_cast<double>(q.stats.filter_buckets_inserted), "count",
              1, hist);
  report->Add("histogram.consolidations",
              static_cast<double>(q.stats.filter_consolidations), "count", 1,
              hist);
  report->Add("histogram.cutoff_updates", count("filter.cutoff_updates"),
              "count", 1, hist);
  report->Add("histogram.rows_to_first_cutoff",
              static_cast<double>(q.rows_to_first_cutoff), "rows", 1, hist);
  report->Add("sort.rows_spilled_frac", spilled / rows, "frac", 1);
  report->Add("sort.runs_created", static_cast<double>(q.stats.runs_created),
              "count", 1);
  report->Add("sort.rungen_ns_per_row", c.rungen_ns, "ns", 1);
  report->Add("sort.rungen_self_ns_per_row",
              c.rungen_ns - c.append_ns * c.rungen_spill_frac, "ns", 1);
  report->Add("sort.rungen_share_of_consume",
              share(c.rungen_ns, rows_added, consume_s), "frac", 1);
  report->Add("sort.merge_ns_per_row", c.merge_ns, "ns", 1);
  report->Add("sort.merge_share_of_finish",
              share(c.merge_ns, read_in_finish, finish_s), "frac", 1);
  report->Add("sort.early_merge_share_of_consume",
              share(c.merge_ns, read_in_consume, consume_s), "frac", 1, !hist);
  report->Add("sort.merge_rows_read",
              static_cast<double>(q.stats.merge_rows_read), "count", 1);
  report->Add("sort.merge_rows_written",
              static_cast<double>(q.stats.merge_rows_written), "count", 1);
  report->Add("sort.compare_full", count("sort.compare.count"), "count", 1);
  report->Add("sort.ovc_hit_frac",
              compares == 0 ? 0.0 : count("sort.compare.ovc_hits") / compares,
              "frac", 1);
  report->Add("row.serialize_ns", c.serialize_ns, "ns", 1);
  report->Add("row.serialize_share_of_consume",
              share(c.serialize_ns, spilled, consume_s), "frac", 1);
  report->Add("common.crc32c_mb_per_s", c.crc_mb_per_s, "MB/s", 1);
  report->Add("common.crc32c_share_of_consume",
              c.crc_mb_per_s == 0
                  ? 0.0
                  : spilled_bytes / (c.crc_mb_per_s * 1e6) / consume_s,
              "frac", 1);
  report->Add("common.arbiter_grants", count("mem.arbiter.grants"), "count",
              1);
  report->Add("io.append_ns_per_row", c.append_ns, "ns", 1);
  report->Add("io.append_share_of_consume",
              share(c.append_ns, spilled, consume_s), "frac", 1);
  report->Add("io.write_calls", static_cast<double>(q.io.write_calls),
              "count", 1);
  report->Add("io.read_ns_per_row", c.read_ns, "ns", 1);
  report->Add("io.read_share_of_finish",
              share(c.read_ns, read_in_finish, finish_s), "frac", 1);
  report->Add("io.read_calls", static_cast<double>(q.io.read_calls), "count",
              1);
  report->Add("io.prefetch_unconsumed_blocks",
              count("io.prefetch.blocks_unconsumed"), "count", 1);
  report->Add("io.background_cpu_s",
              MedianOf(traced, [](auto& x) { return x.background_cpu_s; }),
              "s", n);
  report->Add("obs.trace_overhead_frac",
              MedianOf(traced, [](auto& x) { return x.query_s; }) /
                      MedianOf(plain, [](auto& x) { return x.query_s; }) -
                  1.0,
              "frac", std::min(n, plain.size()));
  return Status::OK();
}

int Main(int argc, char** argv) {
  topk::Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = *parsed;
  const Workload& w = *args.workload;
  std::error_code ec;
  std::filesystem::create_directories(args.spill_root, ec);
  const std::string spill_fs = FilesystemType(args.spill_root);
  if (spill_fs != "tmpfs") {
    std::fprintf(stderr,
                 "warning: spill directory %s is on %s, not tmpfs; spill "
                 "timings include the page cache and disk\n",
                 args.spill_root.c_str(), spill_fs.c_str());
  }

  const Run run = RunLoop(args);
  std::vector<std::string> errors;
  for (const Query& q : run.queries) {
    if (!q.ok) errors.push_back(q.error);
  }
  const std::vector<const Query*> plain = run.Good(false);
  const std::vector<const Query*> traced = run.Good(true);
  std::vector<const Query*> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  bool counts_repeat = true;
  const std::string counts_json = CountsJson(all, &counts_repeat);

  Report report;
  Status measured = Status::OK();
  if (!args.trace && !plain.empty()) {
    measured = AddEndToEnd(w, run, plain, &report);
  } else if (args.trace && !plain.empty() && !traced.empty()) {
    measured = AddLayers(args, run, plain, traced, &report);
  }
  if (!measured.ok()) errors.push_back(measured.ToString());
  std::filesystem::remove_all(args.spill_root, ec);

  const int attempted = static_cast<int>(run.queries.size());
  const int failed = attempted - static_cast<int>(all.size());
  const bool correct = errors.empty() && counts_repeat;
  std::string errors_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(stderr, "error: %s\n", errors[i].c_str());
    errors_json += (i == 0 ? "" : ", ") + JsonString(errors[i]);
  }
  errors_json += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %d, "
      "\"failed\": %d, \"failed_frac\": %.17g, \"correct\": %s, "
      "\"counts_repeat\": %s, \"counts\": %s, \"queries\": %s, "
      "\"errors\": %s, \"environment\": {\"cores\": %u, \"cpu_model\": %s, "
      "\"revision\": %s, \"build_type\": %s, \"spill_fs\": %s, "
      "\"threads\": %zu, \"client\": \"closed loop, 1 client\", "
      "\"rows\": %llu, \"k\": %llu, \"memory_bytes\": %zu, "
      "\"payload_bytes\": %zu}, \"metrics\": %s}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, attempted, failed,
      static_cast<double>(failed) / attempted, correct ? "true" : "false",
      counts_repeat ? "true" : "false", counts_json.c_str(),
      QueriesJson(run.queries).c_str(), errors_json.c_str(),
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(args.revision).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(spill_fs).c_str(),
      1 + kIoThreads, static_cast<unsigned long long>(w.rows),
      static_cast<unsigned long long>(w.k), w.memory_bytes, w.payload_bytes,
      report.MetricsJson().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
