#include "obs/stats_export.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"

namespace topk {
namespace {

/// The unified-stats schema: every consumer (bench JSONL readers,
/// tools/trace_summary.py companions, downstream notebooks) keys on these
/// names. Removing or renaming one is a breaking change and must bump
/// StatsExport::kSchemaVersion.
const std::vector<std::string>& OperatorStatsKeys() {
  static const std::vector<std::string> keys = {
      "rows_consumed",       "rows_eliminated_input",
      "rows_eliminated_spill", "rows_spilled",
      "runs_created",        "runs_dropped",
      "bytes_spilled",
      "merge_rows_written",  "merge_rows_read",
      "offset_rows_seek_skipped", "peak_memory_bytes",
      "final_cutoff",        "filter_buckets_inserted",
      "filter_consolidations", "consume_nanos",
      "finish_nanos",        "total_seconds"};
  return keys;
}

const std::vector<std::string>& IoKeys() {
  static const std::vector<std::string> keys = {
      "bytes_written", "bytes_read",    "write_calls",   "read_calls",
      "write_nanos",   "read_nanos",    "files_created", "files_deleted"};
  return keys;
}

StatsExport SampleExport() {
  StatsExport exported;
  exported.operator_name = "histogram";
  exported.operator_stats.rows_consumed = 300000;
  exported.operator_stats.rows_eliminated_input = 250000;
  exported.operator_stats.rows_spilled = 50000;
  exported.operator_stats.runs_created = 8;
  exported.operator_stats.runs_dropped = 3;
  exported.operator_stats.final_cutoff = 0.0625;
  exported.operator_stats.consume_nanos = 1000000;
  exported.operator_stats.finish_nanos = 500000;
  exported.io.bytes_written = 1 << 20;
  exported.io.write_calls = 24;
  return exported;
}

TEST(StatsExportTest, SchemaRoundTrip) {
  const StatsExport exported = SampleExport();
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ASSERT_NE(parsed->Find("schema_version"), nullptr);
  EXPECT_EQ(parsed->Find("schema_version")->number_value(),
            StatsExport::kSchemaVersion);
  ASSERT_NE(parsed->Find("operator"), nullptr);
  EXPECT_EQ(parsed->Find("operator")->string_value(), "histogram");

  const JsonValue* op = parsed->Find("operator_stats");
  ASSERT_NE(op, nullptr);
  for (const std::string& key : OperatorStatsKeys()) {
    EXPECT_NE(op->Find(key), nullptr) << "missing operator_stats." << key;
  }
  EXPECT_EQ(op->Find("rows_consumed")->number_value(), 300000.0);
  EXPECT_EQ(op->Find("runs_dropped")->number_value(), 3.0);
  EXPECT_EQ(op->Find("final_cutoff")->number_value(), 0.0625);
  EXPECT_DOUBLE_EQ(op->Find("total_seconds")->number_value(), 0.0015);

  const JsonValue* io = parsed->Find("io");
  ASSERT_NE(io, nullptr);
  for (const std::string& key : IoKeys()) {
    EXPECT_NE(io->Find(key), nullptr) << "missing io." << key;
  }
  EXPECT_EQ(io->Find("bytes_written")->number_value(), 1048576.0);

  // No registry attached: the metrics section is omitted entirely rather
  // than emitted empty.
  EXPECT_EQ(parsed->Find("metrics"), nullptr);
}

TEST(StatsExportTest, AbsentCutoffSerializesAsNull) {
  StatsExport exported = SampleExport();
  exported.operator_stats.final_cutoff.reset();
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* cutoff = parsed->Find("operator_stats")->Find("final_cutoff");
  ASSERT_NE(cutoff, nullptr);
  EXPECT_TRUE(cutoff->is_null());
}

TEST(StatsExportTest, MetricsSectionMirrorsRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("io.flush.blocks")->Add(24);
  registry.GetHistogram("storage.write_nanos")->Record(1000);

  StatsExport exported = SampleExport();
  exported.registry = &registry;
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("io.flush.blocks")->number_value(), 24.0);
  const JsonValue* hist =
      metrics->Find("histograms")->Find("storage.write_nanos");
  ASSERT_NE(hist, nullptr);
  for (const char* key : {"count", "sum_nanos", "min_nanos", "max_nanos",
                          "mean_nanos", "p50_nanos", "p95_nanos",
                          "p99_nanos"}) {
    EXPECT_NE(hist->Find(key), nullptr) << "missing histogram field " << key;
  }
  EXPECT_EQ(hist->Find("count")->number_value(), 1.0);
}

TEST(StatsExportTest, SchemaVersionIsPinned) {
  // The profile section and snapshot-backed metrics are schema v2. Bump
  // this expectation ONLY together with a deliberate schema change — every
  // JSONL consumer keys on it.
  EXPECT_EQ(StatsExport::kSchemaVersion, 2);
}

TEST(StatsExportTest, SnapshotBackedMetricsTakePrecedence) {
  MetricsRegistry live;
  live.GetCounter("io.flush.blocks")->Add(999);

  MetricsRegistry scoped;
  scoped.GetCounter("io.flush.blocks")->Add(24);

  StatsExport exported = SampleExport();
  exported.registry = &live;
  exported.metrics = scoped.TakeSnapshot();
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The pre-taken snapshot wins over the live registry: per-query exports
  // must never leak another query's numbers through the global registry.
  const JsonValue* counters = parsed->Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("io.flush.blocks")->number_value(), 24.0);
}

TEST(StatsExportTest, ProfileSectionGoldenKeys) {
  auto obs = ObsContext::Create("golden");
  {
    ObsScope scope(obs);
    PhaseScope consume("consume");
    ObsRecordStorageWrite(4096, 1000);
    obs->NoteMemoryBytes(1 << 20);
    ObsContext::CutoffEvent event;
    event.cutoff = 0.5;
    event.rows_consumed = 100;
    obs->RecordCutoffEvent(event);
  }
  obs->MarkQueryComplete();

  StatsExport exported = SampleExport();
  exported.obs = obs.get();
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The profile schema: downstream readers (docs/operations.md documents
  // these names) key on every one of them.
  const JsonValue* profile = parsed->Find("profile");
  ASSERT_NE(profile, nullptr);
  for (const char* key :
       {"label", "total_wall_nanos", "phases", "background",
        "cutoff_events", "cutoff_events_dropped", "peak_memory_bytes",
        "peak_spill_bytes", "trace_events_dropped"}) {
    EXPECT_NE(profile->Find(key), nullptr) << "missing profile." << key;
  }
  EXPECT_EQ(profile->Find("label")->string_value(), "golden");
  EXPECT_EQ(profile->Find("peak_memory_bytes")->number_value(),
            static_cast<double>(1 << 20));

  const JsonValue* root = profile->Find("phases");
  for (const char* key :
       {"name", "wall_nanos", "self_nanos", "io_wait_nanos", "bytes_read",
        "bytes_written", "entered", "children"}) {
    EXPECT_NE(root->Find(key), nullptr) << "missing phase field " << key;
  }
  EXPECT_EQ(root->Find("name")->string_value(), "query");
  const JsonValue* children = root->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array().size(), 1u);
  const JsonValue& consume_phase = children->array()[0];
  EXPECT_EQ(consume_phase.Find("name")->string_value(), "consume");
  EXPECT_EQ(consume_phase.Find("bytes_written")->number_value(), 4096.0);
  EXPECT_EQ(consume_phase.Find("io_wait_nanos")->number_value(), 1000.0);

  const JsonValue* events = profile->Find("cutoff_events");
  ASSERT_EQ(events->array().size(), 1u);
  for (const char* key : {"at_nanos", "cutoff", "tightened", "rows_consumed",
                          "rows_eliminated_input"}) {
    EXPECT_NE(events->array()[0].Find(key), nullptr)
        << "missing cutoff event field " << key;
  }
  EXPECT_EQ(events->array()[0].Find("cutoff")->number_value(), 0.5);
}

TEST(StatsExportTest, OperatorNameIsEscaped) {
  StatsExport exported = SampleExport();
  exported.operator_name = "odd\"name\nwith controls";
  auto parsed = JsonValue::Parse(FormatStatsJson(exported));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("operator")->string_value(),
            "odd\"name\nwith controls");
}

}  // namespace
}  // namespace topk
