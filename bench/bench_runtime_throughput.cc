// Throughput scaling of the concurrent QueryService: a fixed batch of
// three-way join queries is pushed through the service at growing worker
// pool sizes, and queries/sec is compared against the single-worker
// baseline. Each query carries a simulated storage stall
// (ServiceConfig::io_stall_ms) so the experiment measures the scheduler's
// ability to overlap waits -- the regime the paper's DB2 host operates in
// -- rather than raw core count.
//
// A second table isolates the value of the shared re-optimization
// feedback store: the orders/items cardinality trap is executed
// repeatedly with sharing on (one store for the whole service) and off
// (one store per session, one session per query). With sharing, only the
// first query pays the re-optimization; without it, every query walks
// into the trap again.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "runtime/query_service.h"

namespace popdb {
namespace {

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- catalogs.

/// dept/emp/sale star, same shape as the toy test catalog.
void BuildStarCatalog(Catalog* catalog) {
  Rng rng(3);
  Table dept("dept", Schema({{"d_id", ValueType::kInt},
                             {"d_name", ValueType::kString},
                             {"d_region", ValueType::kInt}}));
  for (int64_t i = 0; i < 8; ++i) {
    dept.AppendRow({Value::Int(i), Value::String("dept" + std::to_string(i)),
                    Value::Int(i % 3)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(dept)).ok());
  Table emp("emp", Schema({{"e_id", ValueType::kInt},
                           {"e_dept", ValueType::kInt},
                           {"e_age", ValueType::kInt}}));
  for (int64_t i = 0; i < 300; ++i) {
    emp.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 7)),
                   Value::Int(rng.UniformInt(20, 65))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(emp)).ok());
  Table sale("sale", Schema({{"s_emp", ValueType::kInt},
                             {"s_amount", ValueType::kDouble},
                             {"s_year", ValueType::kInt}}));
  for (int64_t i = 0; i < 2000; ++i) {
    sale.AppendRow({Value::Int(rng.UniformInt(0, 299)),
                    Value::Double(rng.UniformDouble() * 1000.0),
                    Value::Int(rng.UniformInt(2019, 2024))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(sale)).ok());
  catalog->AnalyzeAll();
}

QuerySpec StarQuery(int variant) {
  QuerySpec q("star" + std::to_string(variant));
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  q.AddPred({e, 2}, PredKind::kLt, Value::Int(30 + (variant % 6) * 5));
  q.AddGroupBy({d, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Orders/items cardinality trap (correlated predicates; see pop_test.cc).
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

QuerySpec TrapQuery(int i) {
  QuerySpec q("trap" + std::to_string(i));
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddGroupBy({o, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

// -------------------------------------------------------------- scaling.

struct ScalingPoint {
  int workers = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

ScalingPoint RunBatch(const Catalog& catalog, int workers, int num_queries,
                      double io_stall_ms) {
  ServiceConfig config;
  config.num_workers = workers;
  config.queue_capacity = num_queries + 8;
  config.io_stall_ms = io_stall_ms;
  QueryService service(catalog, config);

  const double t0 = WallMs();
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    Result<std::shared_ptr<QueryTicket>> t = service.Submit(StarQuery(i));
    POPDB_DCHECK(t.ok());
    tickets.push_back(t.value());
  }
  for (const auto& t : tickets) {
    POPDB_DCHECK(t->Wait().status.ok());
  }
  const double elapsed_ms = WallMs() - t0;
  service.Shutdown();

  const ServiceStatsSnapshot stats = service.Stats();
  POPDB_DCHECK(stats.completed == num_queries);
  ScalingPoint point;
  point.workers = workers;
  point.qps = 1000.0 * num_queries / elapsed_ms;
  point.p50_ms = stats.p50_latency_ms;
  point.p95_ms = stats.p95_latency_ms;
  return point;
}

void RunScaling(JsonWriter* json) {
  bench::PrintHeader(
      "QueryService throughput scaling (worker pool size sweep)",
      "the runtime companion to Markl et al., SIGMOD 2004");

  Catalog catalog;
  BuildStarCatalog(&catalog);

  const int num_queries = static_cast<int>(
      bench::EnvScale("POPDB_RUNTIME_BATCH", 160));
  // Not EnvScale: 0 is a valid setting (disables the stall entirely).
  double io_stall_ms = 8.0;
  if (const char* v = std::getenv("POPDB_RUNTIME_STALL_MS")) {
    io_stall_ms = std::strtod(v, nullptr);
  }
  std::printf("batch=%d queries, simulated I/O stall=%.1f ms/query\n",
              num_queries, io_stall_ms);

  json->Key("config")
      .BeginObject()
      .Key("batch")
      .Int(num_queries)
      .Key("io_stall_ms")
      .Double(io_stall_ms)
      .EndObject();
  json->Key("scaling").BeginArray();
  TablePrinter tp({"workers", "qps", "speedup_vs_1", "p50_ms", "p95_ms"});
  double base_qps = 0.0;
  double speedup_at_8 = 0.0;
  for (int workers : {1, 2, 4, 8, 16}) {
    const ScalingPoint p = RunBatch(catalog, workers, num_queries,
                                    io_stall_ms);
    if (workers == 1) base_qps = p.qps;
    const double speedup = base_qps > 0 ? p.qps / base_qps : 0.0;
    if (workers == 8) speedup_at_8 = speedup;
    tp.AddRow({std::to_string(workers), StrFormat("%.1f", p.qps),
               StrFormat("%.2fx", speedup), StrFormat("%.2f", p.p50_ms),
               StrFormat("%.2f", p.p95_ms)});
    json->BeginObject()
        .Key("workers")
        .Int(workers)
        .Key("qps")
        .Double(p.qps)
        .Key("speedup_vs_1")
        .Double(speedup)
        .Key("p50_ms")
        .Double(p.p50_ms)
        .Key("p95_ms")
        .Double(p.p95_ms)
        .EndObject();
  }
  json->EndArray();
  std::printf("%s\n", tp.ToString().c_str());
  const std::string source =
      io_stall_ms > 0
          ? StrFormat("from an injected %.1f ms/query sleep, not engine speed",
                      io_stall_ms)
          : std::string("CPU-bound, no injected sleep");
  std::printf("scaling 1 -> 8 workers (%s): %.2fx queries/sec (target > 3x)\n",
              source.c_str(), speedup_at_8);
}

// ------------------------------------------------- shared-feedback value.

void RunFeedbackAblation(JsonWriter* json) {
  bench::PrintHeader(
      "Shared re-optimization feedback: one store vs per-session stores",
      "LEO-style cross-query learning, Sec. 6 'exploiting feedback'");

  Catalog catalog;
  BuildTrapCatalog(&catalog);
  const int repeats = 12;

  TablePrinter tp({"feedback", "queries", "reopt_queries", "reopt_attempts",
                   "total_ms", "ms/query"});
  json->Key("feedback_ablation").BeginArray();
  for (const bool shared : {true, false}) {
    ServiceConfig config;
    config.num_workers = 1;  // Serialize so learning order is deterministic.
    config.queue_capacity = repeats + 8;
    config.share_feedback = shared;
    QueryService service(catalog, config);

    const double t0 = WallMs();
    for (int i = 0; i < repeats; ++i) {
      SubmitOptions opts;
      // Distinct sessions: with sharing off, nobody benefits from anyone
      // else's discoveries.
      opts.session_id = static_cast<uint64_t>(i);
      const QueryResult r = service.ExecuteSync(TrapQuery(i), opts);
      POPDB_DCHECK(r.status.ok());
    }
    const double elapsed_ms = WallMs() - t0;
    service.Shutdown();

    const ServiceStatsSnapshot stats = service.Stats();
    tp.AddRow({shared ? "shared" : "per-session", std::to_string(repeats),
               std::to_string(stats.reoptimized_queries),
               std::to_string(stats.reopt_attempts),
               StrFormat("%.1f", elapsed_ms),
               StrFormat("%.2f", elapsed_ms / repeats)});
    json->BeginObject()
        .Key("mode")
        .String(shared ? "shared" : "per-session")
        .Key("queries")
        .Int(repeats)
        .Key("reopt_queries")
        .Int(stats.reoptimized_queries)
        .Key("reopt_attempts")
        .Int(stats.reopt_attempts)
        .Key("total_ms")
        .Double(elapsed_ms)
        .EndObject();
  }
  json->EndArray();
  std::printf("%s\n", tp.ToString().c_str());
}

void Run() {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("runtime_throughput");
  RunScaling(&json);
  RunFeedbackAblation(&json);
  json.EndObject();
  bench::WriteBenchJson("runtime_throughput", json.str());
}

}  // namespace
}  // namespace popdb

int main() {
  popdb::Run();
  return 0;
}
