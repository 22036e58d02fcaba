// End-to-end observability: EXPLAIN ANALYZE profiles (est vs. actual rows
// with Q-error per operator), span tracing with Chrome-trace export, the
// Prometheus metrics registry, and the JSONL trace escaping guarantees.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/span.h"
#include "core/explain.h"
#include "core/pop.h"
#include "runtime/metrics_registry.h"
#include "runtime/query_log.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::BuildToyCatalog;

/// Correlated-predicate trap (see runtime_test.cc): the static optimizer
/// multiplies the two predicate selectivities, underestimates badly, and
/// the first progressive run re-optimizes at least once.
void BuildTrapCatalog(Catalog* catalog) {
  Rng rng(5);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"clazz", ValueType::kInt},
                                 {"subclass", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t sub = rng.UniformInt(0, 199);
    orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table items("items", Schema({{"i_order", ValueType::kInt},
                               {"qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 12000; ++i) {
    items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                     Value::Int(rng.UniformInt(1, 50))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(items)).ok());
  catalog->AnalyzeAll();
}

QuerySpec TrapQuery(const std::string& name = "trap") {
  QuerySpec q(name);
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddGroupBy({o, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Depth-first search for a profile node matching (name prefix, detail).
const PlanProfileNode* FindNode(const PlanProfileNode& node,
                                const std::string& name_prefix,
                                const std::string& detail) {
  if (node.name.rfind(name_prefix, 0) == 0 &&
      (detail.empty() || node.detail.find(detail) != std::string::npos)) {
    return &node;
  }
  for (const PlanProfileNode& child : node.children) {
    if (const PlanProfileNode* hit = FindNode(child, name_prefix, detail)) {
      return hit;
    }
  }
  return nullptr;
}

// ------------------------------------------------------- EXPLAIN ANALYZE.

TEST(ExplainAnalyzeTest, ScanEstimateMatchesActualOnAnalyzedTable) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("scan_dept");
  q.AddTable("dept");

  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(q, &stats).ok());
  ASSERT_EQ(1u, stats.attempts.size());
  ASSERT_TRUE(stats.attempts[0].has_profile);

  const PlanProfileNode* scan =
      FindNode(stats.attempts[0].profile, "TBSCAN", "dept");
  ASSERT_NE(nullptr, scan);
  EXPECT_TRUE(scan->completed);
  EXPECT_EQ(8, scan->actual_rows);  // dept has exactly 8 rows.
  ASSERT_TRUE(scan->has_estimates());
  // ANALYZE collected the exact table cardinality, so the estimate is
  // perfect and the Q-error is 1.
  EXPECT_NEAR(1.0, scan->QError(), 1e-9);
  EXPECT_GT(scan->next_calls, 0);
}

TEST(ExplainAnalyzeTest, KnownCardinalityJoinHasLowQError) {
  Catalog catalog;
  BuildToyCatalog(&catalog);  // Every emp row matches exactly one dept.
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("fk_join");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});

  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(200u, rows.value().size());
  ASSERT_TRUE(stats.attempts.back().has_profile);

  // The topmost join produced the full FK-join result; with uniform keys
  // the estimator should be close to exact.
  const PlanProfileNode* join = FindNode(stats.attempts.back().profile, "", "");
  ASSERT_NE(nullptr, join);  // Root.
  const PlanProfileNode* join_node = nullptr;
  for (const std::string name : {"NLJN", "HSJN", "MGJN"}) {
    if ((join_node = FindNode(stats.attempts.back().profile, name, ""))) break;
  }
  ASSERT_NE(nullptr, join_node);
  EXPECT_TRUE(join_node->completed);
  EXPECT_EQ(200, join_node->actual_rows);
  ASSERT_TRUE(join_node->has_estimates());
  EXPECT_LE(join_node->QError(), 2.0);
}

TEST(ExplainAnalyzeTest, RendersEveryAttemptWithCheckFiring) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  ExecutionStats stats;
  Result<std::string> text = exec.ExplainAnalyze(TrapQuery(), &stats);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_GE(stats.reopts, 1);

  // Every attempt carries a profile, including the aborted first one.
  for (const AttemptInfo& a : stats.attempts) {
    EXPECT_TRUE(a.has_profile);
  }

  const std::string& out = text.value();
  EXPECT_NE(std::string::npos, out.find("=== Attempt 1"));
  EXPECT_NE(std::string::npos, out.find("=== Attempt 2"));
  EXPECT_NE(std::string::npos, out.find("CHECK fired"));
  EXPECT_NE(std::string::npos, out.find("re-optimizing"));
  EXPECT_NE(std::string::npos, out.find("est_rows="));
  EXPECT_NE(std::string::npos, out.find("act_rows="));
  EXPECT_NE(std::string::npos, out.find("q="));
  EXPECT_NE(std::string::npos, out.find("=== Done"));
}

TEST(ExplainAnalyzeTest, ProfileJsonIsWellFormed) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("json_probe");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});
  q.AddGroupBy({d, 1});
  q.AddAgg(AggFunc::kCount);

  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(q, &stats).ok());
  ASSERT_TRUE(stats.attempts[0].has_profile);
  const std::string json = ProfileToJsonString(stats.attempts[0].profile);
  EXPECT_EQ('{', json.front());
  EXPECT_EQ('}', json.back());
  EXPECT_NE(std::string::npos, json.find("\"op\":"));
  EXPECT_NE(std::string::npos, json.find("\"est_rows\":"));
  EXPECT_NE(std::string::npos, json.find("\"act_rows\":"));
  EXPECT_NE(std::string::npos, json.find("\"children\":["));
}

// ------------------------------------------------------------ span tracer.

TEST(SpanTracerTest, SpansNestAcrossReoptimization) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);

  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  tracer.Disable();
  ASSERT_GE(stats.reopts, 1);

  const std::vector<SpanEvent> events = tracer.Snapshot();
  int optimize_spans = 0, attempt_spans = 0, check_fired = 0, exec_spans = 0;
  for (const SpanEvent& ev : events) {
    const std::string name = ev.name;
    if (name == "optimize") ++optimize_spans;
    if (name == "execute_attempt") ++attempt_spans;
    if (name == "check_fired") {
      ++check_fired;
      EXPECT_TRUE(ev.IsInstant());
      ASSERT_NE(nullptr, ev.arg_name);
      EXPECT_EQ(std::string("observed_rows"), ev.arg_name);
    }
    if (std::string(ev.category) == "exec" && !ev.IsInstant()) ++exec_spans;
  }
  // One optimize + one execute span per attempt; the re-optimization left
  // an instant marking why.
  EXPECT_GE(optimize_spans, 2);
  EXPECT_GE(attempt_spans, 2);
  EXPECT_GE(check_fired, 1);
  EXPECT_GT(exec_spans, 0);

  // Nesting: every operator span lies entirely inside some execute_attempt
  // span. (The snapshot sort puts parents first, but a root operator span
  // can tie with its attempt span at microsecond granularity, so enclosure
  // is checked over all events rather than only preceding ones.)
  for (const SpanEvent& ev : events) {
    if (std::string(ev.category) != "exec" || ev.IsInstant()) continue;
    bool enclosed = false;
    for (const SpanEvent& parent : events) {
      if (std::string(parent.name) == "execute_attempt" &&
          parent.Encloses(ev)) {
        enclosed = true;
        break;
      }
    }
    EXPECT_TRUE(enclosed) << "operator span '" << ev.name
                          << "' not enclosed by any execute_attempt";
  }
  tracer.Clear();
}

TEST(SpanTracerTest, ChromeTraceExportIsValidTraceEventJson) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    TRACE_SPAN_NAMED(outer, "outer", "test");
    TRACE_SPAN("inner", "test");
    TRACE_INSTANT_ARG("marker", "test", "count", 3);
  }
  tracer.Disable();

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_EQ('[', json.front());
  EXPECT_EQ(']', json[json.find_last_not_of('\n')]);
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"X\""));  // Complete spans.
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"i\""));  // Instant.
  EXPECT_NE(std::string::npos, json.find("\"name\":\"outer\""));
  EXPECT_NE(std::string::npos, json.find("\"args\":{\"count\":3}"));

  const std::string jsonl = tracer.ExportJsonl();
  int lines = 0;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    if (!line.empty()) {
      EXPECT_EQ('{', line.front());
      EXPECT_EQ('}', line.back());
      ++lines;
    }
    pos = end + 1;
  }
  EXPECT_EQ(3, lines);
  tracer.Clear();
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Disable();
  {
    TRACE_SPAN("ignored", "test");
    TRACE_INSTANT("ignored_too", "test");
  }
  EXPECT_EQ(0, tracer.event_count());
}

// ------------------------------------------------------- metrics registry.

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry reg;
  reg.GetCounter("demo_requests_total", "Requests served.")->Increment(3);
  reg.GetCounter("demo_errors_total", "Errors by kind.", "kind=\"parse\"")
      ->Increment(2);
  reg.GetCounter("demo_errors_total", "Errors by kind.", "kind=\"io\"");
  reg.GetGauge("demo_in_flight", "In-flight requests.")->Set(7);
  Histogram* h = reg.GetHistogram("demo_latency_ms", "Request latency.",
                                  {1.0, 10.0, 100.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(500.0);

  const std::string expected =
      "# HELP demo_requests_total Requests served.\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total 3\n"
      "# HELP demo_errors_total Errors by kind.\n"
      "# TYPE demo_errors_total counter\n"
      "demo_errors_total{kind=\"parse\"} 2\n"
      "demo_errors_total{kind=\"io\"} 0\n"
      "# HELP demo_in_flight In-flight requests.\n"
      "# TYPE demo_in_flight gauge\n"
      "demo_in_flight 7\n"
      "# HELP demo_latency_ms Request latency.\n"
      "# TYPE demo_latency_ms histogram\n"
      "demo_latency_ms_bucket{le=\"1\"} 1\n"
      "demo_latency_ms_bucket{le=\"10\"} 2\n"
      "demo_latency_ms_bucket{le=\"100\"} 3\n"
      "demo_latency_ms_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_ms_sum 555.5\n"
      "demo_latency_ms_count 4\n";
  EXPECT_EQ(expected, reg.RenderPrometheus());
}

TEST(MetricsRegistryTest, HistogramQuantilesAndEmptyWindow) {
  MetricsRegistry reg;
  Histogram& h = *reg.GetHistogram(
      "q_hist", "h", Histogram::LogBuckets(1.0, 2.0, 6));  // 1,2,...,32.
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.Quantile(0.95)));

  for (int i = 0; i < 90; ++i) h.Observe(1.5);  // -> le="2" bucket.
  for (int i = 0; i < 10; ++i) h.Observe(30.0);  // -> le="32" bucket.
  EXPECT_EQ(100, h.count());
  EXPECT_DOUBLE_EQ(2.0, h.Quantile(0.5));
  EXPECT_DOUBLE_EQ(32.0, h.Quantile(0.95));
  // Beyond the last finite bound the largest finite boundary is reported.
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(32.0, h.Quantile(1.0));
}

TEST(MetricsRegistryTest, SameNameSameLabelsReturnsSameInstance) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("c_total", "c");
  Counter* b = reg.GetCounter("c_total", "c");
  EXPECT_EQ(a, b);
  // Same name with a different type is rejected rather than clobbered.
  EXPECT_EQ(nullptr, reg.GetGauge("c_total", "c"));
}

// ---------------------------------------------------- service-level wiring.

TEST(ServiceObservabilityTest, MetricsTextExposesServiceAndEngineMetrics) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);

  ASSERT_TRUE(service.ExecuteSync(TrapQuery("t1")).status.ok());
  ASSERT_TRUE(service.ExecuteSync(TrapQuery("t2")).status.ok());
  service.Shutdown();

  const ServiceStatsSnapshot stats = service.Stats();
  ASSERT_GE(stats.checks_fired, 1);  // The trap fired at least once.

  const std::string text = service.MetricsText();
  EXPECT_NE(std::string::npos,
            text.find("# TYPE popdb_queries_submitted_total counter"));
  EXPECT_NE(std::string::npos, text.find("popdb_queries_submitted_total 2"));
  EXPECT_NE(std::string::npos, text.find("popdb_queries_completed_total 2"));
  // Check firings broken out by flavor; the trap fires at least one LC or
  // LCEM checkpoint.
  EXPECT_NE(std::string::npos,
            text.find("popdb_checks_fired_by_flavor_total{flavor=\"LC\"}"));
  EXPECT_NE(std::string::npos,
            text.find("popdb_checks_fired_by_flavor_total{flavor=\"ECB\"}"));
  // Latency histogram with both queries accounted for.
  EXPECT_NE(std::string::npos,
            text.find("popdb_query_latency_ms_bucket{le=\""));
  EXPECT_NE(std::string::npos, text.find("popdb_query_latency_ms_count 2"));
  // Q-errors harvested from the EXPLAIN ANALYZE profiles.
  EXPECT_NE(std::string::npos, text.find("# TYPE popdb_operator_qerror"));
  // Feedback-store effectiveness: both compilations consulted the store,
  // the second was seeded from the first run's harvest.
  EXPECT_NE(std::string::npos, text.find("popdb_feedback_seed_lookups 2"));
  EXPECT_NE(std::string::npos, text.find("popdb_admission_queue_depth 0"));

  // The Q-error histogram saw at least one observation.
  Histogram* qerr = service.metrics_registry().GetHistogram(
      "popdb_operator_qerror", "", Histogram::LogBuckets(1.0, 2.0, 20));
  ASSERT_NE(nullptr, qerr);
  EXPECT_GT(qerr->count(), 0);
}

TEST(ServiceObservabilityTest, QueryLogRecordsTrapReoptimization) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);
  ASSERT_TRUE(service.ExecuteSync(TrapQuery("logged")).status.ok());
  service.Shutdown();

  ASSERT_NE(nullptr, service.query_log());
  const std::vector<QueryTrace> tail = service.query_log()->Tail(0);
  ASSERT_EQ(1u, tail.size());
  const QueryTrace& e = tail[0];
  EXPECT_EQ("query", e.kind);
  EXPECT_EQ("logged", e.query_name);
  EXPECT_EQ("ok", e.outcome);
  EXPECT_GE(e.reopts, 1);  // The trap re-optimized.
  EXPECT_GE(e.checks_fired, 1);
  int64_t flavor_sum = 0;
  for (int f = 0; f < 6; ++f) flavor_sum += e.flavor_fired[f];
  EXPECT_EQ(e.checks_fired, flavor_sum);
  EXPECT_NE(0u, e.plan_digest);  // The final plan was digested.
  EXPECT_GT(e.result_rows, 0);
  EXPECT_GT(e.total_ms, 0.0);
  // The trap's misestimate shows up as a large peak Q-error.
  EXPECT_GE(e.peak_qerror, 2.0);
  EXPECT_FALSE(e.distributed());
  EXPECT_TRUE(e.attempts.empty());  // The log keeps no plan text/profiles.
}

TEST(ServiceObservabilityTest, QueryLogCanBeDisabled) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ServiceConfig config;
  config.query_log_entries = 0;
  QueryService service(catalog, config);
  EXPECT_EQ(nullptr, service.query_log());
  service.Shutdown();
}

TEST(ServiceObservabilityTest, PercentilesAreNaNWithNoCompletedQueries) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  QueryService service(catalog, ServiceConfig{});
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_TRUE(std::isnan(stats.p50_latency_ms));
  EXPECT_TRUE(std::isnan(stats.p95_latency_ms));
  service.Shutdown();
}

// ------------------------------------------------- JSONL trace escaping.

TEST(TraceJsonTest, EscapesQuotesNewlinesAndBackslashes) {
  QueryTrace trace;
  trace.query_id = 7;
  trace.query_name = "q\"uote\nline\\slash";
  trace.outcome = "error";
  trace.status_message = "tab\there";

  const std::string json = trace.ToJson();
  // A JSONL consumer reads one object per line: no raw control characters.
  EXPECT_EQ(std::string::npos, json.find('\n'));
  EXPECT_EQ(std::string::npos, json.find('\t'));
  EXPECT_NE(std::string::npos, json.find("q\\\"uote\\nline\\\\slash"));
  EXPECT_NE(std::string::npos, json.find("tab\\there"));
}

// Golden bytes of a full trace: two attempts, the first re-optimized by
// an LCEM CHECK and carrying an EXPLAIN ANALYZE profile, the second
// distributed with a per-shard breakdown.
TEST(TraceJsonTest, GoldenFullTrace) {
  QueryTrace trace;
  trace.query_id = 12;
  trace.query_name = "golden";
  trace.session_id = 3;
  trace.priority = "high";
  trace.outcome = "ok";
  trace.shared_feedback = true;
  trace.queue_ms = 0.5;
  trace.optimize_ms = 1.25;
  trace.execute_ms = 6.5;
  trace.total_ms = 8.5;
  trace.work = 1200;
  trace.morsels = 4;
  trace.parallel_work = 800;
  trace.result_rows = 7;
  trace.reopts = 1;
  trace.check_events = 3;
  trace.checks_fired = 1;
  trace.plan_cache = "hit";
  trace.plan_cache_age_ms = 42.5;

  AttemptInfo first;
  first.plan_text = "NLJN(orders, items)";
  first.optimize_ms = 0.75;
  first.execute_ms = 2.5;
  first.work = 700;
  first.reoptimized = true;
  first.signal.flavor = CheckFlavor::kLazyEagerMat;
  first.profile.name = "CHECK";
  first.profile.detail = "LCEM [0,10]";
  first.profile.est_rows = 10;
  first.profile.est_cost = 55.5;
  first.profile.actual_rows = 40;
  first.profile.next_calls = 41;
  first.profile.next_ms = 1.5;
  PlanProfileNode scan;
  scan.name = "TBSCAN";
  scan.detail = "orders";
  scan.est_rows = 10;
  scan.actual_rows = 40;
  scan.completed = true;
  scan.batches = 2;
  first.profile.children.push_back(scan);
  first.has_profile = true;
  trace.attempts.push_back(first);

  AttemptInfo second;
  second.plan_text = "HSJN(items, orders)";
  second.optimize_ms = 0.5;
  second.execute_ms = 4;
  second.work = 500;
  second.rows_returned = 7;
  ShardAttemptInfo shard;
  shard.shard = 0;
  shard.execute_ms = 3.25;
  shard.rows = 4;
  shard.outcome = "ok";
  second.shards.push_back(shard);
  shard.shard = 1;
  shard.rows = 3;
  second.shards.push_back(shard);
  trace.attempts.push_back(second);

  EXPECT_EQ(
      R"json({"query_id":12,"query":"golden","session":3,)json"
      R"json("priority":"high","outcome":"ok","shared_feedback":true,)json"
      R"json("latency_ms":{"queue":0.5,"optimize":1.25,"execute":6.5,)json"
      R"json("total":8.5},"work":1200,"morsels":4,"parallel_work":800,)json"
      R"json("result_rows":7,"reopts":1,"check_events":3,)json"
      R"json("checks_fired":1,"plan_cache":"hit",)json"
      R"json("plan_cache_age_ms":42.5,"attempts":[{"plan":"NLJN(orders,)json"
      R"json( items)","optimize_ms":0.75,"execute_ms":2.5,"work":700,)json"
      R"json("rows_returned":0,"reoptimized":true,"reopt_flavor":"LCEM",)json"
      R"json("profile":{"op":"CHECK","detail":"LCEM [0,10]",)json"
      R"json("est_rows":10,"est_cost":55.5,"act_rows":40,)json"
      R"json("completed":false,"next_calls":41,"batches":0,"open_ms":0,)json"
      R"json("next_ms":1.5,"close_ms":0,"children":[{"op":"TBSCAN",)json"
      R"json("detail":"orders","est_rows":10,"est_cost":-1,"act_rows":40,)json"
      R"json("completed":true,"next_calls":0,"batches":2,"open_ms":0,)json"
      R"json("next_ms":0,"close_ms":0,"qerror":3.72727,"children":[]}]}},)json"
      R"json({"plan":"HSJN(items, orders)","optimize_ms":0.5,)json"
      R"json("execute_ms":4,"work":500,"rows_returned":7,)json"
      R"json("reoptimized":false,"shards":[{"shard":0,"execute_ms":3.25,)json"
      R"json("rows":4,"outcome":"ok"},{"shard":1,"execute_ms":3.25,)json"
      R"json("rows":3,"outcome":"ok"}]}]})json",
      trace.ToJson());
}

// ------------------------------------------------- multithreaded hammer.

TEST(ObservabilityConcurrencyTest, RegistryAndTracerHammer) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("hammer_total", "Hammered counter.");
  Gauge* gauge = reg.GetGauge("hammer_gauge", "Hammered gauge.");
  Histogram* hist = reg.GetHistogram("hammer_hist", "Hammered histogram.",
                                     Histogram::LogBuckets(1.0, 2.0, 10));

  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<int64_t> renders{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Increment();
        hist->Observe(static_cast<double>(i % 37));
        gauge->Decrement();
        // Re-registration from many threads must return the same cell.
        if (i % 64 == 0) {
          Counter* again = reg.GetCounter("hammer_total", "Hammered counter.");
          if (again != counter) std::abort();
        }
        const int64_t t0 = tracer.NowUs();
        tracer.RecordSpan("hammer_span", "test", t0, 1, "iter", i);
        if (i % 512 == t) {
          renders += static_cast<int64_t>(reg.RenderPrometheus().size());
          renders += static_cast<int64_t>(tracer.Snapshot().size());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.Disable();

  EXPECT_EQ(kThreads * kIters, counter->value());
  EXPECT_EQ(0, gauge->value());
  EXPECT_EQ(kThreads * kIters, hist->count());
  EXPECT_EQ(kThreads * kIters, tracer.event_count());
  EXPECT_GT(renders.load(), 0);
  tracer.Clear();
}

// ------------------------------------------------- span labels (interning).

TEST(SpanTracerTest, InternReturnsStablePointerForEqualContents) {
  SpanTracer& tracer = SpanTracer::Global();
  const std::string token = "q12345";
  const char* a = tracer.Intern(token);
  const char* b = tracer.Intern(std::string("q") + "12345");
  EXPECT_EQ(a, b);  // Same contents, same pointer.
  EXPECT_STREQ("q12345", a);
  const char* c = tracer.Intern("q12346");
  EXPECT_NE(a, c);
}

TEST(SpanTracerTest, LabelsRenderInChromeTraceArgs) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    TRACE_SPAN_NAMED(span, "labeled_work", "test");
    span.SetLabel(std::string_view("q777"));
    span.SetArg("rows", 42);
  }
  TRACE_INSTANT_TAGGED("tagged_instant", "test", "q777", "shard", 3);
  tracer.Disable();

  const std::vector<SpanEvent> events = tracer.Snapshot();
  ASSERT_EQ(2u, events.size());
  for (const SpanEvent& e : events) {
    ASSERT_NE(nullptr, e.label);
    EXPECT_STREQ("q777", e.label);
  }
  // Both events carry the same interned pointer.
  EXPECT_EQ(events[0].label, events[1].label);

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(std::string::npos, json.find("\"label\":\"q777\""));
  // The exported trace is valid JSON a viewer can load.
  Result<JsonValue> parsed = JsonParse(json, {64, 4000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  tracer.Clear();
}

TEST(SpanTracerTest, SetLabelIsANoOpWhenDisabled) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Disable();
  {
    TRACE_SPAN_NAMED(span, "dead_span", "test");
    span.SetLabel(std::string_view("never_interned"));
  }
  TRACE_INSTANT_TAGGED("dead_instant", "test", "never_interned", "x", 1);
  EXPECT_EQ(0, tracer.event_count());
}

// ------------------------------------------------- peak profile Q-error.

TEST(ExplainAnalyzeTest, PeakProfileQErrorPicksWorstOperator) {
  PlanProfileNode root;
  root.name = "ROOT";
  root.est_rows = 100.0;
  root.actual_rows = 100;
  root.completed = true;
  PlanProfileNode bad;
  bad.name = "BAD";
  bad.est_rows = 10.0;
  bad.actual_rows = 1000;
  bad.completed = true;
  PlanProfileNode unfinished;  // Not completed: must not contribute.
  unfinished.name = "PARTIAL";
  unfinished.est_rows = 1.0;
  unfinished.actual_rows = 500000;
  unfinished.completed = false;
  bad.children.push_back(unfinished);
  root.children.push_back(bad);

  const double peak = PeakProfileQError(root);
  EXPECT_NEAR((1000.0 + 1.0) / (10.0 + 1.0), peak, 1e-9);

  PlanProfileNode empty;  // No completed+estimated operator anywhere.
  empty.name = "EMPTY";
  EXPECT_DOUBLE_EQ(-1.0, PeakProfileQError(empty));
}

// ------------------------------------------------- structured query log.

TEST(QueryLogTest, RingEvictsOldestAndTracksTotals) {
  QueryLog log(/*capacity=*/3);
  EXPECT_EQ(3, log.capacity());
  for (int64_t i = 0; i < 5; ++i) {
    QueryTrace e;
    e.query_id = i;
    e.query_name = "q" + std::to_string(i);
    log.Append(std::move(e));
  }
  EXPECT_EQ(3, log.size());
  EXPECT_EQ(5, log.total());

  // Oldest first; the first two entries were evicted.
  const std::vector<QueryTrace> all = log.Tail(0);
  ASSERT_EQ(3u, all.size());
  EXPECT_EQ(2, all[0].query_id);
  EXPECT_EQ(4, all[2].query_id);

  const std::vector<QueryTrace> last = log.Tail(2);
  ASSERT_EQ(2u, last.size());
  EXPECT_EQ(3, last[0].query_id);
  EXPECT_EQ(4, last[1].query_id);
}

// The log line of each kind, byte for byte: a distributed read, a write
// (affected_rows), and a shard's subplan (a CHECK fired, no plan cache).
TEST(QueryLogTest, ToJsonArrayIsParseableAndCarriesDigest) {
  QueryLog log(8);
  QueryTrace e;
  e.query_id = 41;
  e.kind = "query";
  e.query_name = "trap";
  e.signature = "sig-abc";
  e.plan_digest = PlanTextDigest("HSJN(orders, items)");
  e.outcome = "ok";
  e.plan_cache = "miss";
  e.reopts = 2;
  e.checks_fired = 2;
  e.flavor_fired[0] = 1;  // LC
  e.flavor_fired[2] = 1;  // ECB
  e.result_rows = 7;
  e.peak_qerror = 12.5;
  ShardAttemptInfo shard;
  shard.shard = 1;
  shard.execute_ms = 3.25;
  shard.rows = 4;
  shard.outcome = "reoptimize";
  e.attempts.emplace_back().shards.push_back(shard);
  log.Append(std::move(e));

  QueryTrace write;
  write.query_id = 9;
  write.end_ms = 100.5;
  write.kind = "write";
  write.query_name = "INSERT orders";
  write.outcome = "ok";
  write.execute_ms = 1.5;
  write.total_ms = 1.5;
  write.affected_rows = 3;
  log.Append(std::move(write));

  QueryTrace subplan;
  subplan.query_id = 10;
  subplan.end_ms = 101.25;
  subplan.kind = "subplan";
  subplan.query_name = "trap";
  subplan.outcome = "reoptimize";
  subplan.checks_fired = 1;
  subplan.flavor_fired[1] = 1;  // LCEM
  subplan.execute_ms = 2;
  subplan.total_ms = 2;
  subplan.result_rows = 5;
  subplan.peak_qerror = 4;
  log.Append(std::move(subplan));

  const std::string array = log.ToJsonArray(0);
  Result<JsonValue> parsed = JsonParse(array, {16, 1000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Digest renders as a fixed-width hex string, never 0 for non-empty text.
  EXPECT_NE(std::string::npos, array.find("\"plan_digest\":\""));
  EXPECT_EQ(std::string::npos, array.find("\"plan_digest\":\"0\""));
  EXPECT_NE(std::string::npos, array.find("\"reopts\":2"));
  EXPECT_NE(std::string::npos, array.find("\"LC\":1"));
  EXPECT_NE(std::string::npos, array.find("\"ECB\":1"));
  EXPECT_NE(std::string::npos, array.find("\"distributed\":true"));
  EXPECT_NE(std::string::npos, array.find("\"shard\":1"));
  EXPECT_NE(std::string::npos, array.find("\"outcome\":\"reoptimize\""));
  EXPECT_EQ(
      R"json([{"query_id":41,"end_ms":0,"kind":"query","query":"trap",)json"
      R"json("signature":"sig-abc","plan_digest":"86bea2b871006c68",)json"
      R"json("outcome":"ok","plan_cache":"miss","reopts":2,)json"
      R"json("checks_fired":2,"fired_by_flavor":{"LC":1,"ECB":1},)json"
      R"json("queue_ms":0,"optimize_ms":0,"execute_ms":0,"total_ms":0,)json"
      R"json("result_rows":7,"peak_qerror":12.5,"distributed":true,)json"
      R"json("shards":[{"shard":1,"execute_ms":3.25,"rows":4,)json"
      R"json("outcome":"reoptimize"}]},{"query_id":9,"end_ms":100.5,)json"
      R"json("kind":"write","query":"INSERT orders","outcome":"ok",)json"
      R"json("plan_cache":"none","reopts":0,"checks_fired":0,)json"
      R"json("queue_ms":0,"optimize_ms":0,"execute_ms":1.5,)json"
      R"json("total_ms":1.5,"result_rows":0,"affected_rows":3,)json"
      R"json("distributed":false},{"query_id":10,"end_ms":101.25,)json"
      R"json("kind":"subplan","query":"trap","outcome":"reoptimize",)json"
      R"json("plan_cache":"none","reopts":0,"checks_fired":1,)json"
      R"json("fired_by_flavor":{"LCEM":1},"queue_ms":0,"optimize_ms":0,)json"
      R"json("execute_ms":2,"total_ms":2,"result_rows":5,"peak_qerror":4,)json"
      R"json("distributed":false}])json",
      array);
}

TEST(QueryLogTest, PlanTextDigestDistinguishesPlans) {
  const uint64_t a = PlanTextDigest("HSJN(orders, items)");
  const uint64_t b = PlanTextDigest("NLJN(items, orders)");
  EXPECT_NE(a, b);
  EXPECT_NE(0u, a);
  EXPECT_NE(0u, PlanTextDigest(""));  // Offset basis: 0 means "no plan".
}

// Concurrent writers + readers over the bounded ring; run under TSan via
// the ci.sh sanitizer stage. Invariants: size never exceeds capacity,
// total is exact, snapshots are internally consistent.
TEST(ObservabilityConcurrencyTest, QueryLogHammer) {
  QueryLog log(/*capacity=*/64);
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::atomic<int64_t> read_bytes{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      for (int i = 0; i < kPerWriter; ++i) {
        QueryTrace e;
        e.query_id = w * kPerWriter + i;
        e.query_name = "hammer";
        e.plan_digest = PlanTextDigest("plan" + std::to_string(i % 7));
        e.outcome = (i % 13 == 0) ? "error" : "ok";
        e.reopts = i % 3;
        if (i % 5 == 0) {
          ShardAttemptInfo s;
          s.shard = i % 4;
          s.rows = i;
          e.attempts.emplace_back().shards.push_back(s);
        }
        log.Append(std::move(e));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    // do/while: every reader snapshots at least once, even when the
    // writers finish before it is scheduled.
    threads.emplace_back([&]() {
      do {
        const std::vector<QueryTrace> tail = log.Tail(16);
        if (tail.size() > 16u) std::abort();
        if (log.size() > log.capacity()) std::abort();
        read_bytes += static_cast<int64_t>(log.ToJsonArray(8).size());
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(kWriters * kPerWriter, log.total());
  EXPECT_EQ(64, log.size());
  EXPECT_GT(read_bytes.load(), 0);
}

}  // namespace
}  // namespace popdb
