// Schema validation of every machine-readable artifact the
// observability layer emits: Chrome trace JSON (well-formed, required
// event keys, spans properly nested per track), csce.metrics.v1 files,
// and csce.bench.v1 documents. Each artifact is serialized by the real
// writer and parsed back through the strict JsonParse — the same
// round-trip the CI bench-smoke job performs on the produced files.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "tests/test_util.h"

namespace csce {
namespace obs {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A real enumeration with tracing on, from two threads, so the trace
// has multiple tracks and nested spans (match.query > engine.run).
JsonValue RecordedTraceDoc(TraceRecorder* recorder) {
  TraceRecorder::Install(recorder);
  Ccsr gc = Ccsr::Build(testing::Clique(6));
  CsceMatcher matcher(&gc);
  auto run = [&] {
    MatchOptions options;
    options.variant = MatchVariant::kEdgeInduced;
    MatchResult result;
    ASSERT_TRUE(matcher.Match(testing::Cycle(3), options, &result).ok());
  };
  std::thread other(run);
  run();
  other.join();
  TraceRecorder::Install(nullptr);
  return recorder->ToChromeJson();
}

TEST(TraceSchemaTest, ChromeJsonRoundTripsAndHasRequiredKeys) {
  TraceRecorder recorder;
  JsonValue doc = RecordedTraceDoc(&recorder);
  ASSERT_GT(recorder.NumEvents(), 0u);

  // Round-trip through the strict parser.
  JsonValue parsed;
  ASSERT_TRUE(JsonParse(doc.Dump(1), &parsed).ok());
  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t complete_events = 0;
  size_t metadata_events = 0;
  for (const JsonValue& event : events->items()) {
    ASSERT_TRUE(event.is_object());
    for (const char* key : {"name", "ph", "pid", "tid"}) {
      EXPECT_TRUE(event.Has(key)) << event.Dump();
    }
    const std::string& ph = event.Find("ph")->AsString();
    if (ph == "X") {
      ++complete_events;
      ASSERT_TRUE(event.Has("ts"));
      ASSERT_TRUE(event.Has("dur"));
      EXPECT_GE(event.Find("ts")->AsDouble(), 0.0);
      EXPECT_GE(event.Find("dur")->AsDouble(), 0.0);
    } else {
      ASSERT_EQ(ph, "M");
      ++metadata_events;
      EXPECT_EQ(event.Find("name")->AsString(), "thread_name");
    }
  }
  EXPECT_EQ(complete_events, recorder.NumEvents());
  // Two enumeration threads -> at least two named tracks.
  EXPECT_GE(metadata_events, 2u);
}

TEST(TraceSchemaTest, SpansAreProperlyNestedPerTrack) {
  TraceRecorder recorder;
  JsonValue doc = RecordedTraceDoc(&recorder);

  struct SpanInterval {
    int64_t tid;
    double begin;
    double end;
  };
  std::vector<SpanInterval> spans;
  for (const JsonValue& event : doc.Find("traceEvents")->items()) {
    if (event.Find("ph")->AsString() != "X") continue;
    double ts = event.Find("ts")->AsDouble();
    spans.push_back({event.Find("tid")->AsInt(), ts,
                     ts + event.Find("dur")->AsDouble()});
  }
  ASSERT_GT(spans.size(), 1u);
  // On one thread's track, any two spans are disjoint or nested —
  // a scope timer cannot partially overlap another.
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[i].tid != spans[j].tid) continue;
      const SpanInterval& a = spans[i];
      const SpanInterval& b = spans[j];
      bool disjoint = a.end <= b.begin || b.end <= a.begin;
      bool a_in_b = b.begin <= a.begin && a.end <= b.end;
      bool b_in_a = a.begin <= b.begin && b.end <= a.end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "[" << a.begin << "," << a.end << ") vs [" << b.begin << ","
          << b.end << ") on tid " << a.tid;
    }
  }
}

TEST(TraceSchemaTest, PlanPhaseSpansNestUnderPlanMake) {
  TraceRecorder recorder;
  TraceRecorder::Install(&recorder);
  Ccsr gc = Ccsr::Build(testing::Clique(6));
  Plan plan;
  Status st = Planner(&gc).MakePlan(testing::Path(5),
                                    MatchVariant::kVertexInduced,
                                    PlanOptions(), &plan);
  TraceRecorder::Install(nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();

  struct Interval {
    int64_t tid;
    double begin;
    double end;
  };
  std::vector<Interval> make;
  std::map<std::string, std::vector<Interval>> phases;
  const JsonValue doc = recorder.ToChromeJson();
  for (const JsonValue& event : doc.Find("traceEvents")->items()) {
    if (event.Find("ph")->AsString() != "X") continue;
    const std::string& name = event.Find("name")->AsString();
    const double ts = event.Find("ts")->AsDouble();
    Interval span{event.Find("tid")->AsInt(), ts,
                  ts + event.Find("dur")->AsDouble()};
    if (name == "plan.make") {
      make.push_back(span);
    } else if (name.rfind("plan.", 0) == 0) {
      phases[name].push_back(span);
    }
  }
  ASSERT_EQ(make.size(), 1u);
  // GCF, one LDSF pass, the compile step and the NEC cache sharing
  // once; the DAG is built on the GCF order and again on the final
  // order.
  const std::map<std::string, size_t> expected = {
      {"plan.gcf", 1},     {"plan.dag", 2}, {"plan.ldsf", 1},
      {"plan.compile", 1}, {"plan.nec", 1}};
  ASSERT_EQ(phases.size(), expected.size());
  constexpr double kSlackUs = 1e-3;  // float rounding of ts + dur
  for (const auto& [name, count] : expected) {
    ASSERT_EQ(phases[name].size(), count) << name;
    for (const Interval& s : phases[name]) {
      EXPECT_EQ(s.tid, make[0].tid) << name;
      EXPECT_GE(s.begin + kSlackUs, make[0].begin) << name;
      EXPECT_LE(s.end, make[0].end + kSlackUs) << name;
    }
  }
  // NEC sharing reads the compiled positions: it follows the compile
  // step rather than nesting in it.
  EXPECT_GE(phases["plan.nec"][0].begin + kSlackUs,
            phases["plan.compile"][0].end);
}

TEST(TraceSchemaTest, WriteFileProducesParseableJson) {
  TraceRecorder recorder;
  TraceRecorder::Install(&recorder);
  { Span span("test.span"); }
  TraceRecorder::Install(nullptr);
  std::string path = ::testing::TempDir() + "/trace_schema_test.trace.json";
  ASSERT_TRUE(recorder.WriteFile(path).ok());
  JsonValue parsed;
  EXPECT_TRUE(JsonParse(ReadWholeFile(path), &parsed).ok());
  EXPECT_TRUE(parsed.Has("traceEvents"));
  std::remove(path.c_str());
}

TEST(MetricsSchemaTest, MetricsFileMatchesSchema) {
  MetricRegistry registry;
  registry.counter("test.counter").Add(3);
  registry.gauge("test.gauge").Set(1.5);
  registry.histogram("test.hist").Record(2.0);

  std::string path = ::testing::TempDir() + "/trace_schema_test.metrics.json";
  ASSERT_TRUE(WriteMetricsFile(registry, path).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonParse(ReadWholeFile(path), &doc).ok());
  std::remove(path.c_str());

  ASSERT_TRUE(doc.Has("schema"));
  EXPECT_EQ(doc.Find("schema")->AsString(), "csce.metrics.v1");
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* section : {"counters", "gauges", "histograms"}) {
    ASSERT_TRUE(metrics->Has(section)) << section;
    EXPECT_TRUE(metrics->Find(section)->is_object());
  }
  EXPECT_EQ(metrics->Find("counters")->Find("test.counter")->AsUint(), 3u);
  const JsonValue* hist = metrics->Find("histograms")->Find("test.hist");
  ASSERT_NE(hist, nullptr);
  for (const char* key : {"count", "sum", "mean", "min", "max"}) {
    ASSERT_TRUE(hist->Has(key)) << key;
    EXPECT_GE(hist->Find(key)->AsDouble(), 0.0) << key;
  }
}

TEST(BenchSchemaTest, BenchDocMatchesEnvelope) {
  bench::BenchJson json("schema_test");
  json.Config("knob", 7);
  JsonValue row = JsonValue::Object();
  row.Set("pattern_size", 8u);
  row.Set("seconds", 0.25);
  json.AddRow(std::move(row));
  ASSERT_EQ(json.NumRows(), 1u);

  JsonValue parsed;
  ASSERT_TRUE(JsonParse(json.ToJson().Dump(1), &parsed).ok());
  ASSERT_TRUE(parsed.Has("schema"));
  EXPECT_EQ(parsed.Find("schema")->AsString(), "csce.bench.v1");
  EXPECT_EQ(parsed.Find("bench")->AsString(), "schema_test");
  ASSERT_TRUE(parsed.Has("quick"));
  ASSERT_TRUE(parsed.Find("config")->is_object());
  const JsonValue* rows = parsed.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->items()[0].Find("pattern_size")->AsUint(), 8u);

  // Write to a temp dir and round-trip the file form too.
  std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("CSCE_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  ASSERT_TRUE(json.Write().ok());
  ASSERT_EQ(unsetenv("CSCE_BENCH_JSON_DIR"), 0);
  std::string path = dir + "/BENCH_schema_test.json";
  JsonValue from_file;
  EXPECT_TRUE(JsonParse(ReadWholeFile(path), &from_file).ok());
  EXPECT_EQ(from_file.Find("schema")->AsString(), "csce.bench.v1");
  std::remove(path.c_str());
}

TEST(BenchSchemaTest, WriteToggleDisablesOutput) {
  ASSERT_EQ(setenv("CSCE_BENCH_JSON", "0", 1), 0);
  ASSERT_EQ(setenv("CSCE_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1),
            0);
  {
    bench::BenchJson json("schema_toggle_test");
    ASSERT_TRUE(json.Write().ok());
  }
  ASSERT_EQ(unsetenv("CSCE_BENCH_JSON"), 0);
  std::string path =
      ::testing::TempDir() + "/BENCH_schema_toggle_test.json";
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "file written despite CSCE_BENCH_JSON=0";
  ASSERT_EQ(unsetenv("CSCE_BENCH_JSON_DIR"), 0);
}

}  // namespace
}  // namespace obs
}  // namespace csce
