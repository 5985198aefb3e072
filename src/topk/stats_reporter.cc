#include "topk/stats_reporter.h"

#include <cstdio>

namespace topk {

std::string FormatCount(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) {
      out += ',';
    }
    out += digits[i];
  }
  return out;
}

namespace {

void AppendLine(std::string* out, const char* label,
                const std::string& value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-28s %s\n", label, value.c_str());
  *out += buf;
}

std::string Percent(uint64_t part, uint64_t whole) {
  if (whole == 0) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), " (%.1f%%)",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

}  // namespace

std::string FormatOperatorStats(const OperatorStats& stats) {
  std::string out;
  AppendLine(&out, "rows consumed", FormatCount(stats.rows_consumed));
  AppendLine(&out, "eliminated at input",
             FormatCount(stats.rows_eliminated_input) +
                 Percent(stats.rows_eliminated_input, stats.rows_consumed));
  AppendLine(&out, "eliminated at spill",
             FormatCount(stats.rows_eliminated_spill));
  AppendLine(&out, "rows spilled to runs",
             FormatCount(stats.rows_spilled) +
                 Percent(stats.rows_spilled, stats.rows_consumed));
  AppendLine(&out, "runs created", FormatCount(stats.runs_created));
  if (stats.runs_dropped > 0) {
    AppendLine(&out, "runs dropped beyond cutoff",
               FormatCount(stats.runs_dropped));
  }
  AppendLine(&out, "intermediate merge writes",
             FormatCount(stats.merge_rows_written));
  AppendLine(&out, "merge rows read", FormatCount(stats.merge_rows_read));
  if (stats.offset_rows_seek_skipped > 0) {
    AppendLine(&out, "offset rows seek-skipped",
               FormatCount(stats.offset_rows_seek_skipped));
  }
  AppendLine(&out, "run bytes written", FormatCount(stats.bytes_spilled));
  AppendLine(&out, "peak memory bytes", FormatCount(stats.peak_memory_bytes));
  if (stats.final_cutoff.has_value()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", *stats.final_cutoff);
    AppendLine(&out, "final cutoff key", buf);
  } else {
    AppendLine(&out, "final cutoff key", "(none)");
  }
  if (stats.filter_buckets_inserted > 0) {
    AppendLine(&out, "histogram buckets inserted",
               FormatCount(stats.filter_buckets_inserted));
    AppendLine(&out, "filter consolidations",
               FormatCount(stats.filter_consolidations));
  }
  char timing[96];
  std::snprintf(timing, sizeof(timing), "%.3fs consume + %.3fs finish",
                stats.consume_nanos * 1e-9, stats.finish_nanos * 1e-9);
  AppendLine(&out, "wall time", timing);
  return out;
}

}  // namespace topk
