// Plan-cache unit tests: signature canonicalization (marker abstraction,
// normalized predicate order), the catalog stats version, the Lookup
// gating ladder (hit / cold / stale / stats version / validity), LRU and
// sharded capacity bounds, reinstall semantics, and the warm-up sequence
// of an executor-attached cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/leo.h"
#include "core/pop.h"
#include "opt/plan_cache.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::BuildToyCatalog;
using ::popdb::testing::Canonicalize;

// ------------------------------------------------------- signature shape

/// emp JOIN sale with one literal and one marker restriction.
QuerySpec MarkerQuery(Value bound) {
  QuerySpec q("marker");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 0}, {s, 0});
  q.AddPred({e, 2}, PredKind::kLt, Value::Int(40));
  q.AddParamPred({s, 2}, PredKind::kEq, /*param_index=*/0);
  q.BindParam(std::move(bound));
  q.AddGroupBy({e, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

TEST(PlanCacheSignatureTest, StableAcrossIdenticalRebuilds) {
  EXPECT_EQ(QueryCacheSignature(MarkerQuery(Value::Int(2020))),
            QueryCacheSignature(MarkerQuery(Value::Int(2020))));
}

TEST(PlanCacheSignatureTest, MarkerBindingsShareOneSignature) {
  // The whole point of caching prepared statements: re-binding a marker
  // must map to the same entry.
  EXPECT_EQ(QueryCacheSignature(MarkerQuery(Value::Int(2020))),
            QueryCacheSignature(MarkerQuery(Value::Int(1999))));
}

TEST(PlanCacheSignatureTest, LiteralsAndClausesDistinguish) {
  const std::string base = QueryCacheSignature(MarkerQuery(Value::Int(1)));

  {
    // A different literal can change the plan, so it changes the key.
    QuerySpec q = MarkerQuery(Value::Int(1));
    QuerySpec q2("marker");
    const int e = q2.AddTable("emp");
    const int s = q2.AddTable("sale");
    q2.AddJoin({e, 0}, {s, 0});
    q2.AddPred({e, 2}, PredKind::kLt, Value::Int(65));  // 40 -> 65
    q2.AddParamPred({s, 2}, PredKind::kEq, 0);
    q2.BindParam(Value::Int(1));
    q2.AddGroupBy({e, 1});
    q2.AddAgg(AggFunc::kCount);
    EXPECT_NE(base, QueryCacheSignature(q2));
  }
  {
    QuerySpec q = MarkerQuery(Value::Int(1));
    q.SetLimit(10);
    EXPECT_NE(base, QueryCacheSignature(q));
  }
  {
    QuerySpec q = MarkerQuery(Value::Int(1));
    q.SetDistinct(true);
    EXPECT_NE(base, QueryCacheSignature(q));
  }
  {
    QuerySpec q = MarkerQuery(Value::Int(1));
    q.AddOrderBy(0, /*descending=*/true);
    EXPECT_NE(base, QueryCacheSignature(q));
  }
}

TEST(PlanCacheSignatureTest, InListOrderIsNormalized) {
  QuerySpec a("in");
  a.AddTable("emp");
  a.AddInPred({0, 2}, {Value::Int(3), Value::Int(1), Value::Int(2)});
  QuerySpec b("in");
  b.AddTable("emp");
  b.AddInPred({0, 2}, {Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_EQ(QueryCacheSignature(a), QueryCacheSignature(b));
}

TEST(PlanCacheSignatureTest, DigestDependsOnContentOnly) {
  FeedbackMap a;
  a[1] = CardFeedback{/*exact=*/100.0, /*lower_bound=*/-1.0};
  a[3] = CardFeedback{/*exact=*/-1.0, /*lower_bound=*/50.0};
  FeedbackMap b = a;
  EXPECT_EQ(DigestFeedback(a), DigestFeedback(b));
  EXPECT_NE(DigestFeedback(a), DigestFeedback(FeedbackMap{}));
  b[3].lower_bound = 51.0;
  EXPECT_NE(DigestFeedback(a), DigestFeedback(b));
}

// ------------------------------------------------------- stats version

TEST(PlanCacheGateTest, CatalogStatsVersionBumps) {
  Catalog catalog;
  const int64_t v0 = catalog.stats_version();
  Table t("t", Schema({{"a", ValueType::kInt}}));
  t.AppendRow({Value::Int(1)});
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());
  const int64_t v1 = catalog.stats_version();
  EXPECT_GT(v1, v0);
  catalog.AnalyzeAll();
  const int64_t v2 = catalog.stats_version();
  EXPECT_GT(v2, v1);
  ASSERT_TRUE(catalog.CreateIndex("t", "a").ok());
  EXPECT_GT(catalog.stats_version(), v2);
}

// ------------------------------------------------------- direct cache API

std::shared_ptr<PlanNode> ScanPlan(int table_id = 0) {
  auto scan = std::make_shared<PlanNode>();
  scan->kind = PlanOpKind::kTableScan;
  scan->set = TableSet{1} << table_id;
  scan->table_id = table_id;
  scan->table_name = "t";
  return scan;
}

/// Installs `plan` as both the skeleton and the placed plan (no checks).
void InstallPlan(PlanCache* cache, const std::string& sig,
                 std::shared_ptr<const PlanNode> plan, int64_t catalog_version,
                 uint64_t digest, double est_cost = 0.0) {
  cache->Install(sig, plan, plan, PlacedCheckCounts{}, catalog_version, digest,
                 /*candidates=*/0, est_cost, /*est_card=*/0.0);
}

/// Temp(Scan) with a narrowed validity range [10, 100] on the scan edge.
std::shared_ptr<PlanNode> GuardedPlan() {
  auto root = std::make_shared<PlanNode>();
  root->kind = PlanOpKind::kTemp;
  root->children.push_back(ScanPlan());
  root->child_validity.push_back(ValidityRange{10.0, 100.0});
  root->set = 1;
  return root;
}

TEST(PlanCacheTest, HitRequiresAllGatesToMatch) {
  PlanCache cache;
  std::shared_ptr<const PlanNode> skeleton = ScanPlan();
  std::shared_ptr<const PlanNode> placed = GuardedPlan();
  PlacedCheckCounts checks;
  checks.lc = 1;
  cache.Install("sig", skeleton, placed, checks, /*catalog_version=*/7,
                /*feedback_digest=*/99, /*candidates=*/3, /*est_cost=*/1.0,
                /*est_card=*/2.0);

  PlanCache::LookupResult hit = cache.Lookup("sig", 7, 99, {});
  EXPECT_EQ(PlanCacheOutcome::kHit, hit.outcome);
  EXPECT_EQ(skeleton.get(), hit.plan.get());
  EXPECT_EQ(placed.get(), hit.placed_plan.get());
  EXPECT_EQ(1, hit.placed_checks.lc);
  EXPECT_EQ(3, hit.candidates);
  EXPECT_DOUBLE_EQ(1.0, hit.est_cost);
  EXPECT_GE(hit.age_ms, 0.0);

  EXPECT_EQ(PlanCacheOutcome::kMissCold,
            cache.Lookup("other", 7, 99, {}).outcome);
  // Digest moved, no validity data recorded: conservative stale miss.
  EXPECT_EQ(PlanCacheOutcome::kMissStale,
            cache.Lookup("sig", 7, 100, {}).outcome);
  // Stale misses keep the entry resident (it may match again later).
  EXPECT_EQ(PlanCacheOutcome::kHit, cache.Lookup("sig", 7, 99, {}).outcome);

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(4, stats.lookups);
  EXPECT_EQ(2, stats.hits);
  EXPECT_EQ(1, stats.misses_cold);
  EXPECT_EQ(1, stats.misses_stale);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses());
}

TEST(PlanCacheTest, StatsVersionMismatchEvicts) {
  PlanCache cache;
  InstallPlan(&cache, "sig", ScanPlan(), /*catalog_version=*/1, 42);
  // The statistics moved (RUNSTATS, index or table creation, stats fold):
  // hard invalidation.
  EXPECT_EQ(PlanCacheOutcome::kMissEpoch,
            cache.Lookup("sig", 2, 42, {}).outcome);
  EXPECT_EQ(0, cache.size());
  // The entry is gone even for the original version.
  EXPECT_EQ(PlanCacheOutcome::kMissCold,
            cache.Lookup("sig", 1, 42, {}).outcome);
  EXPECT_EQ(1, cache.stats().evictions_invalid);
  EXPECT_EQ(1, cache.stats().evictions_stale_stats);
}

TEST(PlanCacheTest, ValidityViolationEvictsStrictAndRelaxed) {
  for (const bool relaxed : {false, true}) {
    PlanCacheConfig config;
    config.validity_hits = relaxed;
    PlanCache cache(config);
    InstallPlan(&cache, "sig", GuardedPlan(), 0, 42);

    // Exact cardinality outside [10, 100]: provably suboptimal plan.
    FeedbackMap outside;
    outside[1] = CardFeedback{/*exact=*/500.0, /*lower_bound=*/-1.0};
    EXPECT_EQ(PlanCacheOutcome::kMissValidity,
              cache.Lookup("sig", 0, /*digest=*/7, outside).outcome)
        << "relaxed=" << relaxed;
    EXPECT_EQ(0, cache.size());

    // A lower bound above hi violates too (the count can only grow).
    InstallPlan(&cache, "sig", GuardedPlan(), 0, 42);
    FeedbackMap bound;
    bound[1] = CardFeedback{/*exact=*/-1.0, /*lower_bound=*/101.0};
    EXPECT_EQ(PlanCacheOutcome::kMissValidity,
              cache.Lookup("sig", 0, 7, bound).outcome);
    EXPECT_EQ(0, cache.size());
  }
}

TEST(PlanCacheTest, InRangeFeedbackHitsOnlyInRelaxedMode) {
  FeedbackMap inside;
  inside[1] = CardFeedback{/*exact=*/50.0, /*lower_bound=*/-1.0};

  PlanCache strict;
  InstallPlan(&strict, "sig", GuardedPlan(), 0, 42);
  EXPECT_EQ(PlanCacheOutcome::kMissStale,
            strict.Lookup("sig", 0, /*digest=*/7, inside).outcome);

  PlanCacheConfig config;
  config.validity_hits = true;
  PlanCache relaxed(config);
  InstallPlan(&relaxed, "sig", GuardedPlan(), 0, 42);
  PlanCache::LookupResult r = relaxed.Lookup("sig", 0, 7, inside);
  EXPECT_EQ(PlanCacheOutcome::kValidityHit, r.outcome);
  EXPECT_TRUE(r.hit());
  ASSERT_NE(nullptr, r.plan);
  // Moved feedback can change check ranges: the placed plan is not served.
  EXPECT_EQ(nullptr, r.placed_plan);
  EXPECT_EQ(1, relaxed.stats().validity_hits);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCacheConfig config;
  config.max_entries = 2;
  config.shards = 1;  // One LRU list so the order is fully observable.
  PlanCache cache(config);

  InstallPlan(&cache, "a", ScanPlan(), 0, 1);
  InstallPlan(&cache, "b", ScanPlan(), 0, 1);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_EQ(PlanCacheOutcome::kHit, cache.Lookup("a", 0, 1, {}).outcome);
  InstallPlan(&cache, "c", ScanPlan(), 0, 1);

  EXPECT_EQ(2, cache.size());
  EXPECT_EQ(PlanCacheOutcome::kMissCold, cache.Lookup("b", 0, 1, {}).outcome);
  EXPECT_EQ(PlanCacheOutcome::kHit, cache.Lookup("a", 0, 1, {}).outcome);
  EXPECT_EQ(PlanCacheOutcome::kHit, cache.Lookup("c", 0, 1, {}).outcome);
  EXPECT_EQ(1, cache.stats().evictions_lru);
}

TEST(PlanCacheTest, ShardedCapBoundsTotalResidency) {
  // Caps that are not a multiple of the shard count (and caps below it)
  // must still bound the total: each shard gets its exact share.
  for (const int64_t max_entries : {1, 3, 4, 10}) {
    PlanCacheConfig config;
    config.max_entries = max_entries;  // Default 8 shards.
    PlanCache cache(config);
    for (int i = 0; i < 64; ++i) {
      InstallPlan(&cache, "sig" + std::to_string(i), ScanPlan(), 0, 1);
    }
    EXPECT_LE(cache.size(), max_entries) << "max_entries=" << max_entries;
    EXPECT_GE(cache.size(), 1) << "max_entries=" << max_entries;
  }
}

TEST(PlanCacheTest, ReinstallServesTheNewPlan) {
  PlanCache cache;
  InstallPlan(&cache, "sig", ScanPlan(), 0, 1, /*est_cost=*/1.0);
  std::shared_ptr<const PlanNode> second = ScanPlan();
  InstallPlan(&cache, "sig", second, 0, 2, /*est_cost=*/2.0);
  EXPECT_EQ(1, cache.size());

  PlanCache::LookupResult r = cache.Lookup("sig", 0, 2, {});
  EXPECT_EQ(PlanCacheOutcome::kHit, r.outcome);
  EXPECT_EQ(second.get(), r.plan.get());
  EXPECT_DOUBLE_EQ(2.0, r.est_cost);
}

TEST(PlanCacheTest, MatviewPlansAndOversizedPlansAreNotInstalled) {
  PlanCacheConfig config;
  config.max_plan_nodes = 2;
  PlanCache cache(config);

  auto mv = std::make_shared<PlanNode>();
  mv->kind = PlanOpKind::kMatViewScan;
  InstallPlan(&cache, "mv", mv, 0, 1);
  EXPECT_EQ(0, cache.size());

  auto big = std::make_shared<PlanNode>();
  big->children.push_back(ScanPlan());
  big->children.push_back(ScanPlan(1));
  big->child_validity.resize(2);
  InstallPlan(&cache, "big", big, 0, 1);
  // A small skeleton whose placed plan outgrows the cap is skipped too.
  cache.Install("placed", ScanPlan(), big, PlacedCheckCounts{}, 0, 1, 0, 0.0,
                0.0);
  EXPECT_EQ(0, cache.size());
  EXPECT_EQ(0, cache.stats().installs);
}

// ------------------------------------------------- executor integration

class PlanCacheExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildToyCatalog(&catalog_); }

  QuerySpec JoinQuery() {
    QuerySpec q("join");
    const int e = q.AddTable("emp");
    const int s = q.AddTable("sale");
    q.AddJoin({e, 0}, {s, 0});
    q.AddPred({e, 2}, PredKind::kLt, Value::Int(45));
    q.AddGroupBy({e, 1});
    q.AddAgg(AggFunc::kCount);
    return q;
  }

  PlanCacheOutcome RunOnce(ProgressiveExecutor* exec,
                           std::vector<std::string>* rows_out = nullptr,
                           std::string* plan_out = nullptr) {
    ExecutionStats stats;
    Result<std::vector<Row>> rows = exec->Execute(JoinQuery(), &stats);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows_out != nullptr) *rows_out = Canonicalize(rows.value());
    if (plan_out != nullptr) *plan_out = stats.attempts[0].plan_text;
    return stats.plan_cache;
  }

  Catalog catalog_;
};

TEST_F(PlanCacheExecutorTest, WarmupThenSteadyStateHits) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  QueryFeedbackStore store;
  PlanCache cache;
  exec.set_cross_query_store(&store);
  exec.set_plan_cache(&cache);

  std::vector<std::string> rows1, rows2, rows3;
  std::string plan1, plan2, plan3;
  // Run 1 installs under the empty-seed digest; its completion feeds the
  // store, so run 2 is seeded differently (stale), reinstalls, and run 3
  // reaches the steady state where every resubmission hits.
  EXPECT_EQ(PlanCacheOutcome::kMissCold, RunOnce(&exec, &rows1, &plan1));
  EXPECT_EQ(PlanCacheOutcome::kMissStale, RunOnce(&exec, &rows2, &plan2));
  EXPECT_EQ(PlanCacheOutcome::kHit, RunOnce(&exec, &rows3, &plan3));
  EXPECT_EQ(PlanCacheOutcome::kHit, RunOnce(&exec));

  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows3);
  // A hit reproduces the exact plan the miss path would have chosen.
  EXPECT_EQ(plan2, plan3);
  EXPECT_EQ(2, cache.stats().installs);
  EXPECT_EQ(2, cache.stats().hits);
}

TEST_F(PlanCacheExecutorTest, StatsRefreshInvalidates) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  QueryFeedbackStore store;
  PlanCache cache;
  exec.set_cross_query_store(&store);
  exec.set_plan_cache(&cache);

  EXPECT_EQ(PlanCacheOutcome::kMissCold, RunOnce(&exec));
  EXPECT_EQ(PlanCacheOutcome::kMissStale, RunOnce(&exec));
  EXPECT_EQ(PlanCacheOutcome::kHit, RunOnce(&exec));

  catalog_.AnalyzeAll();  // stats_version moves: plans under the old
                          // statistics must never be served again.
  EXPECT_EQ(PlanCacheOutcome::kMissEpoch, RunOnce(&exec));
  EXPECT_EQ(PlanCacheOutcome::kHit, RunOnce(&exec));
}

TEST_F(PlanCacheExecutorTest, StaticExecutionNeverConsultsCache) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  PlanCache cache;
  exec.set_plan_cache(&cache);
  ExecutionStats stats;
  ASSERT_TRUE(exec.ExecuteStatic(JoinQuery(), &stats).ok());
  EXPECT_EQ(PlanCacheOutcome::kNone, stats.plan_cache);
  EXPECT_EQ(0, cache.stats().lookups);
  EXPECT_EQ(0, cache.size());
}

TEST_F(PlanCacheExecutorTest, DifferentOptimizerConfigsDoNotShareEntries) {
  QueryFeedbackStore store;
  PlanCache cache;

  ProgressiveExecutor a(catalog_, OptimizerConfig{}, PopConfig{});
  a.set_cross_query_store(&store);
  a.set_plan_cache(&cache);
  OptimizerConfig other;
  other.methods.enable_mgjn = false;
  ProgressiveExecutor b(catalog_, other, PopConfig{});
  b.set_cross_query_store(&store);
  b.set_plan_cache(&cache);

  EXPECT_EQ(PlanCacheOutcome::kMissCold, RunOnce(&a));
  // Same query, same shared cache — but a different config fingerprint, so
  // executor b starts cold instead of inheriting a's plan.
  EXPECT_EQ(PlanCacheOutcome::kMissCold, RunOnce(&b));
  EXPECT_EQ(2, cache.size());
}

TEST_F(PlanCacheExecutorTest, ExactHitReusesCheckpointPlacement) {
  // Place on every eligible edge (the toy plan's ranges are not narrowed
  // enough for the default placement restriction to fire).
  PopConfig pop;
  pop.require_narrowed_range = false;
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
  QueryFeedbackStore store;
  PlanCache cache;
  exec.set_cross_query_store(&store);
  exec.set_plan_cache(&cache);

  // Observe the attempt-0 plan handed to the executor builder: on a
  // placed hit it must already carry the cached CHECK operators.
  std::string attempt0_plan;
  exec.set_plan_hook([&](const PlanNode* root, int attempt) {
    if (attempt == 0) attempt0_plan = root->ToString();
  });

  // dept -> emp with a selective dept predicate: its NLJN outer and
  // materialization points give the placement pass real work.
  const auto query = [] {
    QuerySpec q("placed");
    const int d = q.AddTable("dept");
    const int e = q.AddTable("emp");
    q.AddJoin({d, 0}, {e, 1});
    q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));
    q.AddGroupBy({e, 1});
    q.AddAgg(AggFunc::kCount);
    return q;
  };

  std::vector<std::string> rows_miss, rows_hit;
  ExecutionStats miss_stats, hit_stats;

  // Warm up to the steady state (cold, then stale while feedback settles).
  {
    ExecutionStats cold_stats;
    ASSERT_TRUE(exec.Execute(query(), &cold_stats).ok());
    ASSERT_EQ(PlanCacheOutcome::kMissCold, cold_stats.plan_cache);
  }
  {
    Result<std::vector<Row>> rows = exec.Execute(query(), &miss_stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    rows_miss = Canonicalize(rows.value());
  }
  ASSERT_EQ(PlanCacheOutcome::kMissStale, miss_stats.plan_cache);
  const std::string plan_after_miss_placement = attempt0_plan;
  // Both miss runs optimized, placed checkpoints and installed once each.
  EXPECT_EQ(2, cache.stats().installs);

  {
    Result<std::vector<Row>> rows = exec.Execute(query(), &hit_stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    rows_hit = Canonicalize(rows.value());
  }
  ASSERT_EQ(PlanCacheOutcome::kHit, hit_stats.plan_cache);
  // No re-install on the hit.
  EXPECT_EQ(2, cache.stats().installs);

  // The served placed plan is exactly what the placement pass produced on
  // the installing run: same plan text (checkpoints included), same
  // per-flavor check counts, same rows.
  EXPECT_EQ(plan_after_miss_placement, attempt0_plan);
  EXPECT_EQ(miss_stats.attempts[0].plan_text,
            hit_stats.attempts[0].plan_text);
  const PlacementStats& miss_checks = miss_stats.attempts[0].checks;
  const PlacementStats& hit_checks = hit_stats.attempts[0].checks;
  EXPECT_GT(hit_checks.total(), 0);
  EXPECT_EQ(miss_checks.lc, hit_checks.lc);
  EXPECT_EQ(miss_checks.lcem, hit_checks.lcem);
  EXPECT_EQ(miss_checks.ecb, hit_checks.ecb);
  EXPECT_EQ(miss_checks.ecwc, hit_checks.ecwc);
  EXPECT_EQ(miss_checks.ecdc, hit_checks.ecdc);
  EXPECT_EQ(miss_checks.work_bound, hit_checks.work_bound);
  EXPECT_EQ(rows_miss, rows_hit);
}

TEST_F(PlanCacheExecutorTest, ConcurrentHammerKeepsCountersConsistent) {
  QueryFeedbackStore store;
  PlanCache cache;
  constexpr int kThreads = 4;
  constexpr int kRuns = 25;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
      exec.set_cross_query_store(&store);
      exec.set_plan_cache(&cache);
      for (int i = 0; i < kRuns; ++i) {
        QuerySpec q("join");
        const int e = q.AddTable("emp");
        const int s = q.AddTable("sale");
        q.AddJoin({e, 0}, {s, 0});
        q.AddPred({e, 2}, PredKind::kLt, Value::Int(45));
        q.AddGroupBy({e, 1});
        q.AddAgg(AggFunc::kCount);
        ExecutionStats stats;
        ASSERT_TRUE(exec.Execute(q, &stats).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(kThreads * kRuns, stats.lookups);
  EXPECT_EQ(stats.lookups,
            stats.hits + stats.validity_hits + stats.misses());
  EXPECT_GT(stats.hits, 0);
  EXPECT_EQ(1, cache.size());  // One signature: all threads share it.
}

}  // namespace
}  // namespace popdb
