#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::MaterializeDataset;
using testing_util::RunOperator;
using testing_util::ScratchDir;

/// Starts a fresh recording on the global tracer and guarantees Stop() even
/// when a test fails mid-way (later tests expect the tracer disabled).
class ScopedTracing {
 public:
  ScopedTracing() { GlobalTracer().Start(); }
  ~ScopedTracing() {
    GlobalTracer().Stop();
    GlobalTracer().Clear();
  }
};

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.RecordComplete("span", "cat", 0, 100);
  tracer.RecordInstant("event", "cat");
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, StartClearsPriorEvents) {
  Tracer tracer;
  tracer.Start();
  tracer.RecordInstant("first", "cat");
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.Start();
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.RecordInstant("second", "cat");
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(TracerTest, JsonIsWellFormedChromeTrace) {
  Tracer tracer;
  tracer.Start();
  const int64_t start = tracer.NowNanos();
  tracer.RecordComplete("work", "test", start, 2500,
                        {TraceArg("bytes", uint64_t{4096}),
                         TraceArg("label", "alpha \"quoted\"")});
  tracer.RecordInstant("tick", "test", {TraceArg("value", 1.5)});
  tracer.Stop();

  auto parsed = JsonValue::Parse(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 2u);

  const JsonValue& span = events->array()[0];
  EXPECT_EQ(span.Find("name")->string_value(), "work");
  EXPECT_EQ(span.Find("cat")->string_value(), "test");
  EXPECT_EQ(span.Find("ph")->string_value(), "X");
  EXPECT_EQ(span.Find("dur")->number_value(), 2.5);  // microseconds
  ASSERT_NE(span.Find("ts"), nullptr);
  ASSERT_NE(span.Find("pid"), nullptr);
  EXPECT_GE(span.Find("tid")->number_value(), 1.0);
  const JsonValue* args = span.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("bytes")->number_value(), 4096.0);
  EXPECT_EQ(args->Find("label")->string_value(), "alpha \"quoted\"");

  const JsonValue& instant = events->array()[1];
  EXPECT_EQ(instant.Find("ph")->string_value(), "i");
  EXPECT_EQ(instant.Find("s")->string_value(), "t");
  EXPECT_EQ(instant.Find("args")->Find("value")->number_value(), 1.5);
}

TEST(TracerTest, ThreadsGetDistinctTids) {
  Tracer tracer;
  tracer.Start();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 100; ++i) {
        tracer.RecordInstant("tick", "test");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), kThreads * 100u);

  auto parsed = JsonValue::Parse(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::set<double> tids;
  for (const JsonValue& event : parsed->Find("traceEvents")->array()) {
    tids.insert(event.Find("tid")->number_value());
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(TracerTest, WriteJsonFileRoundTrips) {
  ScratchDir scratch;
  Tracer tracer;
  tracer.Start();
  tracer.RecordInstant("tick", "test");
  tracer.Stop();
  const std::string path = scratch.str() + "/trace.json";
  ASSERT_TRUE(tracer.WriteJsonFile(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  auto parsed = JsonValue::Parse(contents);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("traceEvents")->array().size(), 1u);

  EXPECT_FALSE(tracer.WriteJsonFile(scratch.str() + "/no/such/dir/t.json")
                   .ok());
}

TEST(TraceSpanTest, NoOpWhenGlobalTracerDisabled) {
  ASSERT_FALSE(TracingEnabled());
  TraceSpan span("idle", "test");
  EXPECT_FALSE(span.active());
  span.AddArg(TraceArg("ignored", 1));
  span.End();
  EXPECT_EQ(GlobalTracer().event_count(), 0u);
}

TEST(TraceSpanTest, RecordsCompleteEventWithArgs) {
  ScopedTracing tracing;
  {
    TraceSpan span("outer", "test", {TraceArg("rows", uint64_t{7})});
    ASSERT_TRUE(span.active());
    span.AddArg(TraceArg("bytes", uint64_t{512}));
    TraceSpan inner("inner", "test");
  }
  TraceInstant("marker", "test");
  EXPECT_EQ(GlobalTracer().event_count(), 3u);

  auto parsed = JsonValue::Parse(GlobalTracer().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& events = parsed->Find("traceEvents")->array();
  const JsonValue* outer = nullptr;
  for (const JsonValue& event : events) {
    if (event.Find("name")->string_value() == "outer") outer = &event;
  }
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->Find("ph")->string_value(), "X");
  EXPECT_EQ(outer->Find("args")->Find("rows")->number_value(), 7.0);
  EXPECT_EQ(outer->Find("args")->Find("bytes")->number_value(), 512.0);
}

TEST(TraceEndToEndTest, SpillingTopKProducesSpansAndCutoffTimeline) {
  // The ISSUE acceptance shape: a spilling histogram top-k run must leave
  // spans from at least two threads (operator thread + background I/O) and
  // at least one cutoff-tightening instant in the trace.
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options;
  options.k = 2000;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str() + "/spill";

  ScopedTracing tracing;
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(11);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE((*op)->is_external());

  auto parsed = JsonValue::Parse(GlobalTracer().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& events = parsed->Find("traceEvents")->array();
  ASSERT_FALSE(events.empty());

  std::set<double> span_tids;
  size_t cutoff_instants = 0;
  bool saw_flush = false;
  bool saw_final_merge = false;
  for (const JsonValue& event : events) {
    const std::string& name = event.Find("name")->string_value();
    const std::string& ph = event.Find("ph")->string_value();
    if (ph == "X") span_tids.insert(event.Find("tid")->number_value());
    if (name == "cutoff.tighten") {
      ++cutoff_instants;
      EXPECT_EQ(ph, "i");
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->Find("cutoff"), nullptr);
      EXPECT_NE(args->Find("rows_consumed"), nullptr);
      EXPECT_NE(args->Find("bucket_count"), nullptr);
      EXPECT_NE(args->Find("input_pass_rate"), nullptr);
    }
    if (name == "spill.flush_block") saw_flush = true;
    if (name == "merge.final") saw_final_merge = true;
  }
  EXPECT_GE(span_tids.size(), 2u) << "expected operator + background I/O";
  EXPECT_GE(cutoff_instants, 1u);
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(saw_final_merge);
}

}  // namespace
}  // namespace topk
