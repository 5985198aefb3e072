#include "topk/stats_reporter.h"

#include <string>

#include <gtest/gtest.h>

namespace topk {
namespace {

TEST(FormatCountTest, ThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(7), "7");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(12345), "12,345");
  EXPECT_EQ(FormatCount(123456), "123,456");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(12345678), "12,345,678");
  EXPECT_EQ(FormatCount(18446744073709551615ull),
            "18,446,744,073,709,551,615");
}

TEST(FormatOperatorStatsTest, MentionsKeyFields) {
  OperatorStats stats;
  stats.rows_consumed = 1000;
  stats.rows_eliminated_input = 600;
  stats.rows_spilled = 300;
  stats.final_cutoff = 0.25;
  stats.filter_buckets_inserted = 42;
  const std::string report = FormatOperatorStats(stats);
  EXPECT_NE(report.find("rows consumed"), std::string::npos);
  EXPECT_NE(report.find("1,000"), std::string::npos);
  EXPECT_NE(report.find("(60.0%)"), std::string::npos);
  EXPECT_NE(report.find("0.25"), std::string::npos);
  EXPECT_NE(report.find("buckets inserted"), std::string::npos);
}

TEST(FormatOperatorStatsTest, NoCutoffPrintsNone) {
  OperatorStats stats;
  const std::string report = FormatOperatorStats(stats);
  EXPECT_NE(report.find("(none)"), std::string::npos);
}

TEST(FormatOperatorStatsTest, ZeroRowsHasNoPercentagesOrDivisionByZero) {
  OperatorStats stats;
  const std::string report = FormatOperatorStats(stats);
  // No rows consumed: every Percent() suffix must be suppressed, not
  // "(nan%)" or "(inf%)".
  EXPECT_EQ(report.find('%'), std::string::npos) << report;
  EXPECT_NE(report.find("rows consumed"), std::string::npos);
  EXPECT_NE(report.find("final cutoff key"), std::string::npos);
  EXPECT_NE(report.find("(none)"), std::string::npos);
  // Optional sections stay hidden when their counters are zero.
  EXPECT_EQ(report.find("offset rows seek-skipped"), std::string::npos);
  EXPECT_EQ(report.find("runs dropped beyond cutoff"), std::string::npos);
  EXPECT_EQ(report.find("histogram buckets inserted"), std::string::npos);
}

TEST(FormatOperatorStatsTest, FullEliminationReportsHundredPercent) {
  OperatorStats stats;
  stats.rows_consumed = 50000;
  stats.rows_eliminated_input = 50000;
  const std::string report = FormatOperatorStats(stats);
  EXPECT_NE(report.find("50,000 (100.0%)"), std::string::npos) << report;
  EXPECT_NE(report.find("rows spilled to runs"), std::string::npos);
  // Zero spilled out of 50k consumed renders as 0.0%, not blank.
  EXPECT_NE(report.find("0 (0.0%)"), std::string::npos) << report;
}

TEST(FormatOperatorStatsTest, NoSpillRunShowsInMemoryShape) {
  OperatorStats stats;
  stats.rows_consumed = 1234;
  stats.peak_memory_bytes = 65536;
  stats.consume_nanos = 1500000000;  // 1.5s
  stats.finish_nanos = 250000000;    // 0.25s
  const std::string report = FormatOperatorStats(stats);
  EXPECT_NE(report.find("rows consumed"), std::string::npos);
  EXPECT_NE(report.find("1,234"), std::string::npos);
  EXPECT_NE(report.find("runs created"), std::string::npos);
  EXPECT_NE(report.find("65,536"), std::string::npos);
  EXPECT_NE(report.find("1.500s consume + 0.250s finish"),
            std::string::npos)
      << report;
}

TEST(FormatOperatorStatsTest, OptionalSectionsAppearWhenPopulated) {
  OperatorStats stats;
  stats.rows_consumed = 100;
  stats.offset_rows_seek_skipped = 42;
  stats.runs_dropped = 7;
  stats.filter_buckets_inserted = 7;
  stats.filter_consolidations = 2;
  stats.final_cutoff = 0.125;
  const std::string report = FormatOperatorStats(stats);
  EXPECT_NE(report.find("offset rows seek-skipped"), std::string::npos);
  EXPECT_NE(report.find("runs dropped beyond cutoff"), std::string::npos);
  EXPECT_NE(report.find("histogram buckets inserted"), std::string::npos);
  EXPECT_NE(report.find("filter consolidations"), std::string::npos);
  EXPECT_NE(report.find("0.125"), std::string::npos);
  EXPECT_EQ(report.find("(none)"), std::string::npos);
}

}  // namespace
}  // namespace topk
