#ifndef TOPK_OBS_STATS_EXPORT_H_
#define TOPK_OBS_STATS_EXPORT_H_

#include <optional>
#include <string>

#include "io/io_stats.h"
#include "obs/metrics.h"
#include "topk/topk_operator.h"

namespace topk {

class ObsContext;

/// Everything one operator execution produced, gathered for machine-readable
/// export: the operator's own counters, the storage substrate's traffic,
/// a metrics section (live registry or pre-taken snapshot), and optionally
/// the per-query profile.
struct StatsExport {
  /// Schema version stamped into the document; bump on breaking changes.
  /// v2: added the optional "profile" section (per-query phase tree,
  /// cutoff evolution, high-water marks) and snapshot-backed metrics.
  static constexpr int kSchemaVersion = 2;

  std::string operator_name;
  OperatorStats operator_stats;
  IoStats::Snapshot io;
  /// Registry whose live state is appended under "metrics"; ignored when
  /// `metrics` below is set, omitted (with `metrics` unset) when null.
  const MetricsRegistry* registry = nullptr;
  /// Pre-taken metrics snapshot for the "metrics" section — the right
  /// choice for per-query exports (a scoped registry's snapshot, or a
  /// global delta from RegistrySnapshot::DeltaSince) since it needs no
  /// destructive reset between queries.
  std::optional<RegistrySnapshot> metrics;
  /// Per-query observability context; when non-null its profile report is
  /// appended under "profile".
  const ObsContext* obs = nullptr;
};

/// Single JSON document:
///
///   {"schema_version": 2,
///    "operator": "histogram",
///    "operator_stats": {rows_consumed, rows_eliminated_input, ...},
///    "io": {bytes_written, bytes_read, ...},
///    "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
///    "profile": {"label", "total_wall_nanos", "phases": {...}, ...}}
///
/// Consumed by bench tooling and `topk_cli --metrics-json`; the layout is a
/// contract checked by tests/stats_export_test.
std::string FormatStatsJson(const StatsExport& stats);

}  // namespace topk

#endif  // TOPK_OBS_STATS_EXPORT_H_
