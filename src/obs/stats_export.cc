#include "obs/stats_export.h"

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace topk {

namespace {

void WriteOperatorStats(const OperatorStats& stats, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("rows_consumed");
  writer->Number(stats.rows_consumed);
  writer->Key("rows_eliminated_input");
  writer->Number(stats.rows_eliminated_input);
  writer->Key("rows_eliminated_spill");
  writer->Number(stats.rows_eliminated_spill);
  writer->Key("rows_spilled");
  writer->Number(stats.rows_spilled);
  writer->Key("runs_created");
  writer->Number(stats.runs_created);
  writer->Key("runs_dropped");
  writer->Number(stats.runs_dropped);
  writer->Key("bytes_spilled");
  writer->Number(stats.bytes_spilled);
  writer->Key("merge_rows_written");
  writer->Number(stats.merge_rows_written);
  writer->Key("merge_rows_read");
  writer->Number(stats.merge_rows_read);
  writer->Key("offset_rows_seek_skipped");
  writer->Number(stats.offset_rows_seek_skipped);
  writer->Key("peak_memory_bytes");
  writer->Number(static_cast<uint64_t>(stats.peak_memory_bytes));
  writer->Key("final_cutoff");
  if (stats.final_cutoff.has_value()) {
    writer->Number(*stats.final_cutoff);
  } else {
    writer->Null();
  }
  writer->Key("filter_buckets_inserted");
  writer->Number(stats.filter_buckets_inserted);
  writer->Key("filter_consolidations");
  writer->Number(stats.filter_consolidations);
  writer->Key("consume_nanos");
  writer->Number(stats.consume_nanos);
  writer->Key("finish_nanos");
  writer->Number(stats.finish_nanos);
  writer->Key("total_seconds");
  writer->Number(stats.total_seconds());
  writer->EndObject();
}

void WriteIoSnapshot(const IoStats::Snapshot& io, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("bytes_written");
  writer->Number(io.bytes_written);
  writer->Key("bytes_read");
  writer->Number(io.bytes_read);
  writer->Key("write_calls");
  writer->Number(io.write_calls);
  writer->Key("read_calls");
  writer->Number(io.read_calls);
  writer->Key("write_nanos");
  writer->Number(io.write_nanos);
  writer->Key("read_nanos");
  writer->Number(io.read_nanos);
  writer->Key("files_created");
  writer->Number(io.files_created);
  writer->Key("files_deleted");
  writer->Number(io.files_deleted);
  writer->EndObject();
}

}  // namespace

std::string FormatStatsJson(const StatsExport& stats) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema_version");
  writer.Number(static_cast<int64_t>(StatsExport::kSchemaVersion));
  writer.Key("operator");
  writer.String(stats.operator_name);
  writer.Key("operator_stats");
  WriteOperatorStats(stats.operator_stats, &writer);
  writer.Key("io");
  WriteIoSnapshot(stats.io, &writer);
  if (stats.metrics.has_value()) {
    writer.Key("metrics");
    stats.metrics->WriteJson(&writer);
  } else if (stats.registry != nullptr) {
    writer.Key("metrics");
    stats.registry->WriteJson(&writer);
  }
  if (stats.obs != nullptr) {
    writer.Key("profile");
    WriteProfileJson(BuildProfileReport(*stats.obs), &writer);
  }
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace topk
