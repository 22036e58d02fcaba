#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/feedback.h"
#include "runtime/query_service.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::BuildToyCatalog;
using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;

// ------------------------------------------------------------ fixtures.

/// Same three-table join workload as concurrency_test.cc.
QuerySpec ToyQuery(int variant) {
  QuerySpec q("toy" + std::to_string(variant));
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  q.AddPred({e, 2}, PredKind::kLt, Value::Int(30 + variant * 5));
  q.AddGroupBy({d, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Two tables whose equi-join explodes to rows^2 / 50 output rows: a query
/// slow enough to still be running when the test cancels it or queues work
/// behind it, but with a COUNT on top so memory stays bounded.
void BuildSlowCatalog(Catalog* catalog, int64_t rows) {
  Rng rng(11);
  Table a("big_a", Schema({{"k", ValueType::kInt}, {"va", ValueType::kInt}}));
  for (int64_t i = 0; i < rows; ++i) {
    a.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(a)).ok());
  Table b("big_b", Schema({{"k", ValueType::kInt}, {"vb", ValueType::kInt}}));
  for (int64_t i = 0; i < rows; ++i) {
    b.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(b)).ok());
  catalog->AnalyzeAll();
}

QuerySpec SlowQuery(const std::string& name = "slow") {
  QuerySpec q(name);
  const int a = q.AddTable("big_a");
  const int b = q.AddTable("big_b");
  q.AddJoin({a, 0}, {b, 0});
  q.AddGroupBy({a, 0});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Orders/items cardinality trap (see extensions_test.cc): correlated
/// predicates fool the static optimizer, so the first progressive run
/// re-optimizes at least once.
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

// --------------------------------------------------------- basic service.

TEST(QueryServiceTest, ExecutesQueriesAndMatchesReference) {
  Catalog catalog;
  BuildToyCatalog(&catalog, /*emp_rows=*/400, /*sale_rows=*/3000);

  CollectingTraceSink sink;
  ServiceConfig config;
  config.num_workers = 4;
  config.trace_sink = &sink;
  QueryService service(catalog, config);

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int v = 0; v < 6; ++v) {
    Result<std::shared_ptr<QueryTicket>> t = service.Submit(ToyQuery(v));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tickets.push_back(t.value());
  }
  for (int v = 0; v < 6; ++v) {
    const QueryResult& r = tickets[static_cast<size_t>(v)]->Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, ToyQuery(v))),
              Canonicalize(r.rows));
    EXPECT_EQ("ok", r.trace.outcome);
    EXPECT_GE(r.trace.total_ms, r.trace.execute_ms);
  }
  service.Shutdown();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(6, stats.submitted);
  EXPECT_EQ(6, stats.admitted);
  EXPECT_EQ(6, stats.completed);
  EXPECT_EQ(0, stats.rejected);
  EXPECT_EQ(0, stats.queries_in_flight);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
  EXPECT_EQ(6, sink.count());
}

TEST(QueryServiceTest, ExecuteSyncReturnsTraceJson) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);
  QueryResult r = service.ExecuteSync(ToyQuery(0));
  ASSERT_TRUE(r.status.ok());
  const std::string json = r.trace.ToJson();
  EXPECT_NE(std::string::npos, json.find("\"outcome\":\"ok\""));
  EXPECT_NE(std::string::npos, json.find("\"query\":\"toy0\""));
  EXPECT_NE(std::string::npos, json.find("\"attempts\":["));
}

TEST(QueryServiceTest, SubmitAfterShutdownFails) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  QueryService service(catalog, ServiceConfig{});
  service.Shutdown();
  Result<std::shared_ptr<QueryTicket>> t = service.Submit(ToyQuery(0));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, t.status().code());
}

TEST(QueryServiceTest, ShutdownDrainsQueuedQueries) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int v = 0; v < 5; ++v) {
    Result<std::shared_ptr<QueryTicket>> t = service.Submit(ToyQuery(v));
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  service.Shutdown(/*drain=*/true);
  for (const auto& t : tickets) {
    EXPECT_TRUE(t->done());
    EXPECT_TRUE(t->Wait().status.ok());
  }
}

// ----------------------------------------------------- admission control.

TEST(QueryServiceTest, RejectsWhenAdmissionQueueFull) {
  Catalog catalog;
  BuildSlowCatalog(&catalog, /*rows=*/6000);

  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  QueryService service(catalog, config);

  // One blocker plus three more submissions: whether or not the worker has
  // already popped the blocker, at least one of the three exceeds the
  // 2-slot queue and must bounce with ResourceExhausted.
  std::vector<std::shared_ptr<QueryTicket>> admitted;
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    Result<std::shared_ptr<QueryTicket>> t =
        service.Submit(SlowQuery("slow" + std::to_string(i)));
    if (t.ok()) {
      admitted.push_back(t.value());
    } else {
      EXPECT_EQ(StatusCode::kResourceExhausted, t.status().code());
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_LE(static_cast<int>(admitted.size()), 3);

  for (const auto& t : admitted) t->Cancel();
  service.Shutdown();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(4, stats.submitted);
  EXPECT_EQ(rejected, stats.rejected);
  EXPECT_EQ(0, stats.queries_in_flight);
}

// ------------------------------------------- cancellation and deadlines.

TEST(QueryServiceTest, DeadlineCancelsMidPipeline) {
  Catalog catalog;
  BuildSlowCatalog(&catalog, /*rows=*/6000);

  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);

  SubmitOptions opts;
  opts.deadline_ms = 25.0;
  QueryResult r = service.ExecuteSync(SlowQuery(), opts);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, r.status.code());
  EXPECT_EQ("deadline", r.trace.outcome);
  EXPECT_TRUE(r.rows.empty());
  service.Shutdown();
  EXPECT_EQ(1, service.Stats().deadline_expired);
}

TEST(QueryServiceTest, ServiceDefaultDeadlineApplies) {
  Catalog catalog;
  BuildSlowCatalog(&catalog, /*rows=*/6000);

  ServiceConfig config;
  config.num_workers = 1;
  config.default_deadline_ms = 25.0;
  QueryService service(catalog, config);
  QueryResult r = service.ExecuteSync(SlowQuery());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, r.status.code());
  service.Shutdown();
}

TEST(QueryServiceTest, ExplicitCancelUnwindsRunningQuery) {
  Catalog catalog;
  BuildSlowCatalog(&catalog, /*rows=*/6000);

  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);

  Result<std::shared_ptr<QueryTicket>> running = service.Submit(SlowQuery("r"));
  ASSERT_TRUE(running.ok());
  // Second query sits in the queue behind the first; cancelling it must
  // finish it without ever executing.
  Result<std::shared_ptr<QueryTicket>> queued = service.Submit(SlowQuery("q"));
  ASSERT_TRUE(queued.ok());
  queued.value()->Cancel();

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running.value()->Cancel();

  const QueryResult& rr = running.value()->Wait();
  EXPECT_EQ(StatusCode::kCancelled, rr.status.code());
  EXPECT_EQ("cancelled", rr.trace.outcome);

  const QueryResult& qr = queued.value()->Wait();
  EXPECT_EQ(StatusCode::kCancelled, qr.status.code());
  EXPECT_TRUE(qr.trace.attempts.empty());  // Never started executing.

  service.Shutdown();
  EXPECT_EQ(2, service.Stats().cancelled);
}

// -------------------------------------------------------- priority lanes.

TEST(QueryServiceTest, HighPriorityLaneDispatchesFirst) {
  Catalog catalog;
  BuildSlowCatalog(&catalog, /*rows=*/3000);

  CollectingTraceSink sink;
  ServiceConfig config;
  config.num_workers = 1;
  config.trace_sink = &sink;
  QueryService service(catalog, config);

  // The blocker occupies the single worker while the rest are queued, so
  // dispatch order is decided purely by lane + FIFO position.
  Result<std::shared_ptr<QueryTicket>> blocker =
      service.Submit(SlowQuery("blocker"));
  ASSERT_TRUE(blocker.ok());

  std::vector<std::shared_ptr<QueryTicket>> rest;
  for (int i = 0; i < 3; ++i) {
    auto t = service.Submit(SlowQuery("normal" + std::to_string(i)));
    ASSERT_TRUE(t.ok());
    rest.push_back(t.value());
  }
  SubmitOptions high;
  high.priority = QueryPriority::kHigh;
  for (int i = 0; i < 2; ++i) {
    auto t = service.Submit(SlowQuery("high" + std::to_string(i)), high);
    ASSERT_TRUE(t.ok());
    rest.push_back(t.value());
  }
  // Cancel the queued queries so the test doesn't run five slow joins;
  // cancelled tickets still finish (and emit traces) in dispatch order.
  for (const auto& t : rest) t->Cancel();
  blocker.value()->Wait();
  for (const auto& t : rest) t->Wait();
  service.Shutdown();

  std::vector<QueryTrace> traces = sink.Drain();
  ASSERT_EQ(6u, traces.size());
  auto pos = [&traces](const std::string& name) {
    for (size_t i = 0; i < traces.size(); ++i) {
      if (traces[i].query_name == name) return i;
    }
    ADD_FAILURE() << "missing trace for " << name;
    return traces.size();
  };
  // The worker grabs either the blocker or high0 before the rest are
  // queued; every later dispatch decision is lane + FIFO, so: highs keep
  // FIFO order and beat every normal, and normals keep FIFO order behind
  // the blocker (the normal lane's head).
  EXPECT_LT(pos("high0"), pos("high1"));
  EXPECT_LT(pos("high1"), pos("normal0"));
  EXPECT_LT(pos("blocker"), pos("normal0"));
  EXPECT_LT(pos("normal0"), pos("normal1"));
  EXPECT_LT(pos("normal1"), pos("normal2"));
}

// ------------------------------------------------- shared feedback memory.

TEST(QueryServiceTest, SharedFeedbackConvergesAcrossQueries) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);

  ServiceConfig config;
  config.num_workers = 1;
  config.share_feedback = true;
  QueryService service(catalog, config);

  // First run hits the correlated-predicate trap and re-optimizes; the
  // actual cardinalities it learns land in the shared store, so the second
  // identical query plans with exact numbers and runs straight through.
  QueryResult first = service.ExecuteSync(TrapQuery("trap_a"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_GE(first.trace.reopts, 1);

  QueryResult second = service.ExecuteSync(TrapQuery("trap_b"));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(0, second.trace.reopts);
  EXPECT_EQ(Canonicalize(first.rows), Canonicalize(second.rows));
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, TrapQuery())),
            Canonicalize(second.rows));

  service.Shutdown();
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(1, stats.reoptimized_queries);
  EXPECT_GE(stats.reopt_attempts, 1);

  // The firing checkpoint left a record in the shared check history.
  int64_t total_fires = 0;
  for (const auto& [sig, fires] : service.CheckHistory()) total_fires += fires;
  EXPECT_GE(total_fires, 1);
}

TEST(QueryServiceTest, FeedbackIsolatedPerSessionWhenSharingDisabled) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);

  ServiceConfig config;
  config.num_workers = 1;
  config.share_feedback = false;
  QueryService service(catalog, config);

  SubmitOptions session1;
  session1.session_id = 1;
  SubmitOptions session2;
  session2.session_id = 2;

  QueryResult a = service.ExecuteSync(TrapQuery("s1_first"), session1);
  ASSERT_TRUE(a.status.ok());
  EXPECT_GE(a.trace.reopts, 1);

  // A different session must not see session 1's feedback: it walks into
  // the same trap.
  QueryResult b = service.ExecuteSync(TrapQuery("s2_first"), session2);
  ASSERT_TRUE(b.status.ok());
  EXPECT_GE(b.trace.reopts, 1);

  // Session 1's own memory still works.
  QueryResult c = service.ExecuteSync(TrapQuery("s1_second"), session1);
  ASSERT_TRUE(c.status.ok());
  EXPECT_EQ(0, c.trace.reopts);

  service.Shutdown();
}

// ------------------------------------------------------------------ soak.

TEST(QueryServiceTest, MixedEightThreadSoak) {
  Catalog catalog;
  BuildToyCatalog(&catalog, /*emp_rows=*/400, /*sale_rows=*/3000);

  constexpr int kVariants = 6;
  std::vector<std::vector<std::string>> expected;
  for (int v = 0; v < kVariants; ++v) {
    expected.push_back(Canonicalize(ReferenceExecute(catalog, ToyQuery(v))));
  }

  CollectingTraceSink sink;
  ServiceConfig config;
  config.num_workers = 8;
  config.queue_capacity = 256;
  config.trace_sink = &sink;
  QueryService service(catalog, config);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const int variant = (i + t) % kVariants;
        SubmitOptions opts;
        opts.priority =
            (i % 3 == 0) ? QueryPriority::kHigh : QueryPriority::kNormal;
        Result<std::shared_ptr<QueryTicket>> ticket =
            service.Submit(ToyQuery(variant), opts);
        if (!ticket.ok()) {
          ++failures;
          continue;
        }
        const QueryResult& r = ticket.value()->Wait();
        if (!r.status.ok()) {
          ++failures;
        } else if (Canonicalize(r.rows) !=
                   expected[static_cast<size_t>(variant)]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.Shutdown();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, mismatches.load());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(kSubmitters * kPerThread, stats.submitted);
  EXPECT_EQ(kSubmitters * kPerThread, stats.completed);
  EXPECT_EQ(0, stats.queries_in_flight);
  EXPECT_EQ(kSubmitters * kPerThread, sink.count());
}

// ------------------------------------------------------------ plan cache.

TEST(QueryServiceTest, PlanCacheServesRepeatsAndReportsInTrace) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  const std::vector<std::string> expected =
      Canonicalize(ReferenceExecute(catalog, ToyQuery(1)));

  QueryService service(catalog, ServiceConfig{});  // Cache on by default.
  ASSERT_NE(nullptr, service.plan_cache());

  std::vector<std::string> outcomes;
  for (int i = 0; i < 6; ++i) {
    QueryResult r = service.ExecuteSync(ToyQuery(1));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(expected, Canonicalize(r.rows));
    outcomes.push_back(r.trace.plan_cache);
  }
  // Warm-up: cold install, then digest-stale reinstalls while the shared
  // store converges, then steady-state hits.
  EXPECT_EQ("miss_cold", outcomes[0]);
  EXPECT_EQ("hit", outcomes[4]);
  EXPECT_EQ("hit", outcomes[5]);
  EXPECT_NE(std::string::npos,
            service.ExecuteSync(ToyQuery(1)).trace.ToJson().find(
                "\"plan_cache\":\"hit\""));

  const std::string metrics = service.MetricsText();
  EXPECT_NE(std::string::npos, metrics.find("popdb_plan_cache_hits"));
  EXPECT_NE(std::string::npos, metrics.find("popdb_plan_cache_hit_age_ms"));
  EXPECT_GE(service.plan_cache()->stats().hits, 2);
  service.Shutdown();
}

TEST(QueryServiceTest, PlanCacheCanBeDisabled) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ServiceConfig config;
  config.plan_cache_entries = 0;
  QueryService service(catalog, config);
  EXPECT_EQ(nullptr, service.plan_cache());

  QueryResult r = service.ExecuteSync(ToyQuery(0));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ("none", r.trace.plan_cache);
  EXPECT_EQ(std::string::npos,
            service.MetricsText().find("popdb_plan_cache"));
  service.Shutdown();
}

/// N submitters hammer one query signature while a writer thread re-runs
/// RUNSTATS on one of its tables every millisecond, so every stats-version
/// bump races a real invalidation against readers: no torn entries,
/// consistent counters, correct results throughout. Run under TSan in CI.
TEST(QueryServiceTest, PlanCacheConcurrentHammerWithStatsWriter) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  const std::vector<std::string> expected =
      Canonicalize(ReferenceExecute(catalog, ToyQuery(2)));

  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 256;
  QueryService service(catalog, config);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    while (!stop.load()) {
      ASSERT_TRUE(catalog.AnalyzeTable("emp").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryResult r = service.ExecuteSync(ToyQuery(2));
        if (!r.status.ok()) {
          ++failures;
        } else if (Canonicalize(r.rows) != expected) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  stop.store(true);
  writer.join();
  service.Shutdown();

  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, mismatches.load());
  const PlanCache::Stats stats = service.plan_cache()->stats();
  EXPECT_EQ(kSubmitters * kPerThread, stats.lookups);
  EXPECT_EQ(stats.lookups,
            stats.hits + stats.validity_hits + stats.misses());
  // The stats writer forces invalidations but can never corrupt entries;
  // at most one entry exists for the single signature.
  EXPECT_LE(service.plan_cache()->size(), 1);
}

// -------------------------------------------- FeedbackCache thread safety.

TEST(FeedbackCacheConcurrencyTest, ConcurrentRecordAndSnapshot) {
  FeedbackCache cache;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kIters = 2000;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cache, w]() {
      for (int i = 0; i < kIters; ++i) {
        const TableSet set = TableSet{1} << (i % 8);
        if ((i + w) % 2 == 0) {
          cache.RecordExact(set, 100.0 + i % 7);
        } else {
          cache.RecordLowerBound(set, static_cast<double>(i));
        }
      }
    });
  }
  std::atomic<int64_t> observed{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, &observed]() {
      for (int i = 0; i < kIters; ++i) {
        const FeedbackMap snap = cache.Snapshot();
        observed += static_cast<int64_t>(snap.size());
        (void)cache.empty();
        (void)cache.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const FeedbackMap final_map = cache.Snapshot();
  EXPECT_EQ(8u, final_map.size());
  for (const auto& [set, fb] : final_map) {
    // Exact observations were recorded for every set and dominate.
    EXPECT_GE(fb.exact, 100.0);
    EXPECT_LE(fb.exact, 106.0);
  }
  EXPECT_GE(observed.load(), 0);
}

}  // namespace
}  // namespace popdb
