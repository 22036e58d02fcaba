#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/json.h"
#include "common/rng.h"
#include "core/pop.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;

/// Randomized end-to-end property test: generate a random SPJ(+agg) query
/// over a small star schema with engineered correlations, run it under a
/// random POP configuration, and compare against the brute-force oracle.
/// Seeds are test parameters so failures are reproducible.
///
/// Schema:
///   fact(f_id, f_dim1, f_dim2, f_a, f_b)   -- f_b correlated with f_a
///   dim1(d1_id, d1_x, d1_name)
///   dim2(d2_id, d2_y)
class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Rng rng(4242);
    {
      Table dim1("dim1", Schema({{"d1_id", ValueType::kInt},
                                 {"d1_x", ValueType::kInt},
                                 {"d1_name", ValueType::kString}}));
      for (int64_t i = 0; i < 60; ++i) {
        dim1.AppendRow({Value::Int(i), Value::Int(i % 6),
                        Value::String("dim" + std::to_string(i % 10))});
      }
      ASSERT_TRUE(catalog_->AddTable(std::move(dim1)).ok());
    }
    {
      Table dim2("dim2", Schema({{"d2_id", ValueType::kInt},
                                 {"d2_y", ValueType::kInt}}));
      for (int64_t i = 0; i < 40; ++i) {
        dim2.AppendRow({Value::Int(i), Value::Int(i % 4)});
      }
      ASSERT_TRUE(catalog_->AddTable(std::move(dim2)).ok());
    }
    {
      Table fact("fact", Schema({{"f_id", ValueType::kInt},
                                 {"f_dim1", ValueType::kInt},
                                 {"f_dim2", ValueType::kInt},
                                 {"f_a", ValueType::kInt},
                                 {"f_b", ValueType::kInt}}));
      for (int64_t i = 0; i < 1200; ++i) {
        const int64_t a = rng.UniformInt(0, 29);
        // f_b is determined by f_a 80% of the time: a correlation trap.
        const int64_t b =
            rng.Bernoulli(0.8) ? (a * 3) % 20 : rng.UniformInt(0, 19);
        fact.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 59)),
                        Value::Int(rng.UniformInt(0, 39)), Value::Int(a),
                        Value::Int(b)});
      }
      ASSERT_TRUE(catalog_->AddTable(std::move(fact)).ok());
    }
    catalog_->AnalyzeAll();
    ASSERT_TRUE(catalog_->CreateIndex("dim1", "d1_id").ok());
    // dim2 deliberately unindexed: NLJN into it scans.
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  /// Builds a random query; always includes fact.
  static QuerySpec RandomQuery(Rng* rng) {
    QuerySpec q("fuzz");
    const int f = q.AddTable("fact");
    int d1 = -1, d2 = -1;
    if (rng->Bernoulli(0.7)) {
      d1 = q.AddTable("dim1");
      q.AddJoin({f, 1}, {d1, 0});
    }
    if (rng->Bernoulli(0.5)) {
      d2 = q.AddTable("dim2");
      q.AddJoin({f, 2}, {d2, 0});
    }
    // Random fact predicates, sometimes the correlated pair.
    const int64_t a = rng->UniformInt(0, 29);
    switch (rng->UniformInt(0, 3)) {
      case 0:
        q.AddPred({f, 3}, PredKind::kEq, Value::Int(a));
        break;
      case 1:  // Correlated pair: heavy underestimate.
        q.AddPred({f, 3}, PredKind::kEq, Value::Int(a));
        q.AddPred({f, 4}, PredKind::kEq, Value::Int((a * 3) % 20));
        break;
      case 2:
        q.AddPred({f, 3}, PredKind::kBetween, Value::Int(a / 2),
                  Value::Int(a));
        break;
      default:
        if (rng->Bernoulli(0.5)) {
          q.AddParamPred({f, 3}, PredKind::kLt, 0);
          q.BindParam(Value::Int(rng->UniformInt(0, 30)));
        }
        break;
    }
    if (d1 >= 0 && rng->Bernoulli(0.5)) {
      switch (rng->UniformInt(0, 2)) {
        case 0:
          q.AddPred({d1, 1}, PredKind::kEq,
                    Value::Int(rng->UniformInt(0, 5)));
          break;
        case 1:
          q.AddInPred({d1, 1}, {Value::Int(0), Value::Int(2)});
          break;
        default:
          q.AddPred({d1, 2}, PredKind::kLike, Value::String("dim1%"));
          break;
      }
    }
    if (d2 >= 0 && rng->Bernoulli(0.5)) {
      q.AddPred({d2, 1}, PredKind::kGe, Value::Int(rng->UniformInt(0, 3)));
    }
    // Output shape: aggregation or projection.
    if (rng->Bernoulli(0.5)) {
      q.AddGroupBy({f, 3});
      bool has_count = false;
      if (rng->Bernoulli(0.5)) {
        q.AddAgg(AggFunc::kCount);
        has_count = true;
      }
      q.AddAgg(AggFunc::kSum, {f, 4});  // Int column: exact in double.
      if (d1 >= 0 && rng->Bernoulli(0.3)) q.AddGroupBy({d1, 1});
      if (has_count && rng->Bernoulli(0.4)) {
        // HAVING COUNT(*) >= k over the first aggregate column.
        const int count_pos = static_cast<int>(q.group_by().size());
        q.AddHaving(count_pos, PredKind::kGe,
                    Value::Int(rng->UniformInt(1, 4)));
      }
    } else {
      q.AddProjection({f, 0});
      if (d1 >= 0) q.AddProjection({d1, 2});
      if (rng->Bernoulli(0.3)) q.AddProjection({f, 4});
      if (rng->Bernoulli(0.3)) q.SetDistinct(true);
    }
    return q;
  }

  static PopConfig RandomPopConfig(Rng* rng) {
    PopConfig pop;
    pop.enable_lc = rng->Bernoulli(0.7);
    pop.enable_lcem = rng->Bernoulli(0.7);
    pop.enable_ecb = rng->Bernoulli(0.3);
    pop.enable_ecwc = rng->Bernoulli(0.2);
    pop.enable_ecdc = rng->Bernoulli(0.3);
    pop.require_narrowed_range = rng->Bernoulli(0.8);
    pop.max_reopts = static_cast<int>(rng->UniformInt(0, 3));
    pop.reuse_matviews = rng->Bernoulli(0.8);
    pop.reuse_hsjn_builds = rng->Bernoulli(0.3);
    if (rng->Bernoulli(0.3)) pop.work_bound_factor = 2.0;
    if (rng->Bernoulli(0.2)) pop.min_assumptions_for_checks = 1;
    return pop;
  }

  static Catalog* catalog_;
};

Catalog* FuzzTest::catalog_ = nullptr;

TEST_P(FuzzTest, PopMatchesOracleUnderRandomConfig) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  for (int round = 0; round < 6; ++round) {
    const QuerySpec q = RandomQuery(&rng);
    OptimizerConfig opt;
    opt.methods.enable_nljn = rng.Bernoulli(0.9);
    opt.methods.enable_hsjn = rng.Bernoulli(0.9);
    opt.methods.enable_mgjn = rng.Bernoulli(0.9);
    if (!opt.methods.enable_nljn && !opt.methods.enable_hsjn &&
        !opt.methods.enable_mgjn) {
      opt.methods.enable_hsjn = true;
    }
    if (rng.Bernoulli(0.3)) opt.cost.mem_rows = 64;  // Spill everywhere.

    const std::vector<Row> expected = ReferenceExecute(*catalog_, q);
    ProgressiveExecutor exec(*catalog_, opt, RandomPopConfig(&rng));
    ExecutionStats stats;
    Result<std::vector<Row>> rows = exec.Execute(q, &stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()))
        << "seed=" << GetParam() << " round=" << round << "\n"
        << q.ToString();
  }
}

/// Differential fuzz for the plan cache: every random query runs through a
/// cached world and an uncached world (each with its own persistent
/// feedback store evolving identically), twice per round so repeats can be
/// served from the cache. One PlanCache instance is shared across all
/// rounds and optimizer configs of a seed — a signature-canonicalization
/// collision between two structurally different random queries (or two
/// configs) would surface as a result mismatch here.
TEST_P(FuzzTest, PlanCacheOnOffAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 9001);
  PlanCache cache;
  QueryFeedbackStore store_on, store_off;
  for (int round = 0; round < 6; ++round) {
    const QuerySpec q = RandomQuery(&rng);
    OptimizerConfig opt;
    opt.methods.enable_nljn = rng.Bernoulli(0.9);
    opt.methods.enable_hsjn = rng.Bernoulli(0.9);
    opt.methods.enable_mgjn = rng.Bernoulli(0.9);
    if (!opt.methods.enable_nljn && !opt.methods.enable_hsjn &&
        !opt.methods.enable_mgjn) {
      opt.methods.enable_hsjn = true;
    }
    if (rng.Bernoulli(0.3)) opt.cost.mem_rows = 64;
    const PopConfig pop = RandomPopConfig(&rng);

    const std::vector<std::string> expected =
        Canonicalize(ReferenceExecute(*catalog_, q));
    ProgressiveExecutor exec_off(*catalog_, opt, pop);
    exec_off.set_cross_query_store(&store_off);
    ProgressiveExecutor exec_on(*catalog_, opt, pop);
    exec_on.set_cross_query_store(&store_on);
    exec_on.set_plan_cache(&cache);

    for (int repeat = 0; repeat < 2; ++repeat) {
      ExecutionStats stats_off, stats_on;
      Result<std::vector<Row>> rows_off = exec_off.Execute(q, &stats_off);
      Result<std::vector<Row>> rows_on = exec_on.Execute(q, &stats_on);
      ASSERT_TRUE(rows_off.ok()) << rows_off.status().ToString();
      ASSERT_TRUE(rows_on.ok()) << rows_on.status().ToString();
      const std::string label = "seed=" + std::to_string(GetParam()) +
                                " round=" + std::to_string(round) +
                                " repeat=" + std::to_string(repeat) + "\n" +
                                q.ToString();
      EXPECT_EQ(expected, Canonicalize(rows_on.value())) << label;
      EXPECT_EQ(Canonicalize(rows_off.value()),
                Canonicalize(rows_on.value()))
          << label;
      EXPECT_EQ(stats_off.reopts, stats_on.reopts) << label;
      EXPECT_EQ(stats_off.attempts.size(), stats_on.attempts.size())
          << label;
    }
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups,
            stats.hits + stats.validity_hits + stats.misses());
}

/// Differential fuzz over execution batch sizes: each random query (under
/// a random POP configuration, so CHECK flavors, work bounds and re-opt
/// budgets vary) runs at batch size 1 (one row per batch) and at batch
/// sizes 3 and 1024. Rows, CHECK firings by flavor, re-opt/attempt counts
/// and absorbed feedback must be identical — batch-boundary checks decide
/// exactly like per-row checks.
TEST_P(FuzzTest, BatchSizesAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 777);
  for (int round = 0; round < 4; ++round) {
    const QuerySpec q = RandomQuery(&rng);
    OptimizerConfig opt;
    opt.methods.enable_nljn = rng.Bernoulli(0.9);
    opt.methods.enable_hsjn = rng.Bernoulli(0.9);
    opt.methods.enable_mgjn = rng.Bernoulli(0.9);
    if (!opt.methods.enable_nljn && !opt.methods.enable_hsjn &&
        !opt.methods.enable_mgjn) {
      opt.methods.enable_hsjn = true;
    }
    if (rng.Bernoulli(0.3)) opt.cost.mem_rows = 64;  // Spill everywhere.
    const PopConfig pop = RandomPopConfig(&rng);

    const auto run = [&](int64_t batch_rows, QueryFeedbackStore* store,
                         ExecutionStats* stats) {
      ProgressiveExecutor exec(*catalog_, opt, pop);
      exec.set_cross_query_store(store);
      ParallelPolicy policy;
      policy.batch_rows = batch_rows;
      exec.set_parallel(nullptr, policy);
      return exec.Execute(q, stats);
    };

    QueryFeedbackStore store_one;
    ExecutionStats stats_one;
    Result<std::vector<Row>> rows_one = run(1, &store_one, &stats_one);
    ASSERT_TRUE(rows_one.ok()) << rows_one.status().ToString();

    for (const int64_t batch_rows : {int64_t{3}, int64_t{1024}}) {
      QueryFeedbackStore store_batch;
      ExecutionStats stats_batch;
      Result<std::vector<Row>> rows_batch =
          run(batch_rows, &store_batch, &stats_batch);
      const std::string label =
          "seed=" + std::to_string(GetParam()) +
          " round=" + std::to_string(round) +
          " batch_rows=" + std::to_string(batch_rows) + "\n" + q.ToString();
      ASSERT_TRUE(rows_batch.ok())
          << label << ": " << rows_batch.status().ToString();
      EXPECT_EQ(Canonicalize(rows_one.value()),
                Canonicalize(rows_batch.value()))
          << label;
      EXPECT_EQ(stats_one.reopts, stats_batch.reopts) << label;
      EXPECT_EQ(stats_one.attempts.size(), stats_batch.attempts.size())
          << label;
      ASSERT_EQ(stats_one.check_events.size(),
                stats_batch.check_events.size())
          << label;
      for (size_t i = 0; i < stats_one.check_events.size(); ++i) {
        const CheckEvent& a = stats_one.check_events[i];
        const CheckEvent& b = stats_batch.check_events[i];
        EXPECT_EQ(a.edge_set, b.edge_set) << label << " event " << i;
        EXPECT_EQ(a.flavor, b.flavor) << label << " event " << i;
        EXPECT_EQ(a.site, b.site) << label << " event " << i;
        EXPECT_EQ(a.count, b.count) << label << " event " << i;
        EXPECT_EQ(a.fired, b.fired) << label << " event " << i;
      }
      // Absorbed feedback: identical signatures and cardinalities.
      const auto dump_row = store_one.Dump();
      const auto dump_batch = store_batch.Dump();
      ASSERT_EQ(dump_row.size(), dump_batch.size()) << label;
      for (const auto& [sig, fb] : dump_row) {
        const auto it = dump_batch.find(sig);
        ASSERT_TRUE(it != dump_batch.end()) << label << " missing " << sig;
        EXPECT_EQ(fb.exact, it->second.exact) << label << " " << sig;
        EXPECT_EQ(fb.lower_bound, it->second.lower_bound)
            << label << " " << sig;
      }
    }
  }
}

/// Differential fuzz for incremental re-optimization: random star queries
/// under one persistent IncrementalMemo, with random cardinality
/// perturbations (exact values, lower bounds, retractions) and occasional
/// epoch bumps (memo reset) between optimizations. After every delta the
/// memo-backed optimization must be bit-identical — plan digest, cost and
/// cardinality — to a from-scratch full DP under the same feedback. Query
/// shape changes mid-stream exercise the fingerprint gate (a memo
/// committed for one query never leaks into another).
TEST_P(FuzzTest, IncrementalReoptMatchesFullDp) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 555);
  OptimizerConfig opt_config;
  opt_config.methods.enable_nljn = rng.Bernoulli(0.9);
  opt_config.methods.enable_hsjn = rng.Bernoulli(0.9);
  opt_config.methods.enable_mgjn = rng.Bernoulli(0.9);
  if (!opt_config.methods.enable_nljn && !opt_config.methods.enable_hsjn &&
      !opt_config.methods.enable_mgjn) {
    opt_config.methods.enable_hsjn = true;
  }
  // One memo per optimizer configuration: plans costed under one config
  // must never seed an enumeration under another.
  Optimizer opt(*catalog_, opt_config);
  IncrementalMemo memo;
  FeedbackMap fb;
  QuerySpec q = RandomQuery(&rng);
  int64_t reused_total = 0;

  for (int round = 0; round < 12; ++round) {
    if (rng.Bernoulli(0.15)) {
      // New query shape: the fingerprint gate must discard the memo.
      q = RandomQuery(&rng);
      fb.clear();
    }
    if (rng.Bernoulli(0.1)) memo.Reset();  // Epoch bump.

    // Random nonempty subset of the query's tables.
    std::vector<TableSet> bits;
    for (TableSet s = q.AllTables(); s != 0; s &= s - 1) {
      bits.push_back(s & ~(s - 1));
    }
    TableSet edge = 0;
    for (const TableSet b : bits) {
      if (rng.Bernoulli(0.5)) edge |= b;
    }
    if (edge == 0) edge = bits[0];
    switch (rng.UniformInt(0, 3)) {
      case 0:
        break;  // No-op delta.
      case 1:
        fb.erase(edge);
        break;
      case 2:
        fb[edge].lower_bound = 1.0 + rng.UniformDouble() * 2000.0;
        break;
      default:
        fb[edge].exact = 1.0 + rng.UniformDouble() * 2000.0;
        break;
    }

    Result<OptimizedPlan> fresh = opt.Optimize(q, &fb);
    Result<OptimizedPlan> inc = opt.Optimize(q, &fb, nullptr, nullptr, &memo);
    const std::string label = "seed=" + std::to_string(GetParam()) +
                              " round=" + std::to_string(round) + "\n" +
                              q.ToString();
    ASSERT_EQ(fresh.ok(), inc.ok()) << label;
    ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().ToString();
    EXPECT_EQ(PlanDigest(*fresh.value().root),
              PlanDigest(*inc.value().root))
        << label << "\nfull DP:\n"
        << fresh.value().root->ToString() << "\nincremental:\n"
        << inc.value().root->ToString();
    EXPECT_EQ(fresh.value().est_cost, inc.value().est_cost) << label;
    EXPECT_EQ(fresh.value().est_card, inc.value().est_card) << label;
    reused_total += inc.value().memo_reused;
  }
  // Across 12 rounds of mostly-stable queries some entries must have been
  // reused, or the differential above compared full DP against full DP.
  EXPECT_GT(reused_total, 0) << "seed=" << GetParam();
}

/// parse → WriteTo → parse fuzz over random writer-built documents: the
/// wire protocol and the dist subplan encoding both rely on re-serialized
/// JSON being a semantic fixpoint.
TEST_P(FuzzTest, JsonReserializationIsAFixpoint) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 31337);
  for (int round = 0; round < 20; ++round) {
    JsonWriter w;
    // Random tree, scalars past depth 5.
    std::function<void(int)> emit = [&](int depth) {
      switch (depth >= 5 ? rng.UniformInt(0, 3) : rng.UniformInt(0, 5)) {
        case 0:
          w.Null();
          break;
        case 1:
          w.Int(rng.UniformInt(-1000000, 1000000));
          break;
        case 2:
          w.Double((rng.UniformDouble() - 0.5) * 1e12);
          break;
        case 3: {
          std::string s;
          for (int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
            s += static_cast<char>(rng.UniformInt(1, 126));
          }
          w.String(s);
          break;
        }
        case 4: {
          w.BeginArray();
          for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
            emit(depth + 1);
          }
          w.EndArray();
          break;
        }
        default: {
          w.BeginObject();
          for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
            w.Key("f" + std::to_string(i));
            emit(depth + 1);
          }
          w.EndObject();
          break;
        }
      }
    };
    emit(0);
    Result<JsonValue> first = JsonParse(w.str());
    ASSERT_TRUE(first.ok())
        << "seed=" << GetParam() << " round=" << round << ": " << w.str()
        << ": " << first.status().ToString();
    const std::string canonical = first.value().ToJsonString();
    Result<JsonValue> second = JsonParse(canonical);
    ASSERT_TRUE(second.ok())
        << "seed=" << GetParam() << " round=" << round << ": " << canonical;
    EXPECT_EQ(canonical, second.value().ToJsonString())
        << "seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace popdb
