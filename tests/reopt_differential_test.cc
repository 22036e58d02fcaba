// Differential oracle for incremental re-optimization: every query runs
// through two worlds — one re-optimizing incrementally (the persistent DP
// memo reuses entries untouched by the feedback delta) and one running
// full DP from scratch on every attempt. The worlds must be
// indistinguishable: identical result rows, re-optimization counts,
// per-attempt plan texts, checkpoint placements, CHECK firings, and
// learned feedback, over the TPC-H paper corpus (plain and
// parameter-marker variants) and the DMV workload.
//
// A second leg drives the optimizer directly: randomized feedback
// perturbations (and matview offers) applied to a persistent memo, with
// plan identity asserted after every delta via PlanDigest — a bit-exact
// FNV-1a digest over every field of the plan tree, stricter than the
// printed plan text.
//
// Set POPDB_EQUIV_LIGHT=1 to run a reduced corpus (used by the sanitizer
// CI stages, where the full sweep is too slow).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;

bool LightMode() {
  const char* v = std::getenv("POPDB_EQUIV_LIGHT");
  return v != nullptr && *v != '\0' && *v != '0';
}

/// Everything about one execution that must be invariant under
/// incremental vs. from-scratch re-optimization.
struct Outcome {
  bool ok = false;
  std::string status;
  std::vector<std::string> rows;  // Canonicalized (sorted) result set.
  int reopts = 0;
  size_t attempts = 0;
  std::vector<std::string> plan_texts;  // One per attempt.
  /// Checkpoints placed per attempt: (lc, lcem, ecb, ecwc, ecdc, bound).
  std::vector<std::tuple<int, int, int, int, int, int>> placements;
  /// (edge_set, flavor, site, count, fired) per checkpoint evaluation.
  std::vector<std::tuple<TableSet, int, int, int64_t, bool>> check_events;
  /// Learned cardinalities by subplan signature: (exact, lower_bound).
  std::map<std::string, std::pair<double, double>> learned;
};

/// One executor + feedback store with incremental re-optimization on or
/// off, optionally with a plan cache, persistent across the whole replay.
struct World {
  World(const Catalog& catalog, bool incremental, bool with_cache = false) {
    PopConfig pop;
    pop.incremental_reopt = incremental;
    exec = std::make_unique<ProgressiveExecutor>(catalog, OptimizerConfig{},
                                                 pop);
    exec->set_cross_query_store(&store);
    if (with_cache) {
      cache = std::make_unique<PlanCache>();
      exec->set_plan_cache(cache.get());
    }
  }

  QueryFeedbackStore store;
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<ProgressiveExecutor> exec;
  /// Accumulated over every run of this world.
  int64_t reopts = 0;
  int64_t memo_reused = 0;
  int64_t memo_invalidated = 0;
};

Outcome RunOnce(World* world, const QuerySpec& query) {
  ExecutionStats stats;
  Result<std::vector<Row>> rows = world->exec->Execute(query, &stats);

  Outcome o;
  o.ok = rows.ok();
  o.status = rows.ok() ? "" : rows.status().ToString();
  if (rows.ok()) o.rows = Canonicalize(rows.value());
  o.reopts = stats.reopts;
  o.attempts = stats.attempts.size();
  for (const AttemptInfo& a : stats.attempts) {
    o.plan_texts.push_back(a.plan_text);
    o.placements.emplace_back(a.checks.lc, a.checks.lcem, a.checks.ecb,
                              a.checks.ecwc, a.checks.ecdc,
                              a.checks.work_bound);
  }
  for (const CheckEvent& ev : stats.check_events) {
    o.check_events.emplace_back(ev.edge_set, static_cast<int>(ev.flavor),
                                static_cast<int>(ev.site), ev.count,
                                ev.fired);
  }
  for (const auto& [sig, fb] : world->store.Dump()) {
    o.learned.emplace(sig, std::make_pair(fb.exact, fb.lower_bound));
  }
  world->reopts += stats.reopts;
  world->memo_reused += stats.memo_entries_reused;
  world->memo_invalidated += stats.memo_entries_invalidated;
  return o;
}

void ExpectSameOutcome(const Outcome& full, const Outcome& inc,
                       const std::string& label) {
  ASSERT_EQ(full.ok, inc.ok)
      << label << ": " << full.status << " vs " << inc.status;
  if (!full.ok) return;
  EXPECT_EQ(full.rows, inc.rows) << label << ": result rows differ";
  EXPECT_EQ(full.reopts, inc.reopts)
      << label << ": re-optimization count differs";
  EXPECT_EQ(full.attempts, inc.attempts)
      << label << ": attempt count differs";
  EXPECT_EQ(full.plan_texts, inc.plan_texts)
      << label << ": chosen plans differ";
  EXPECT_EQ(full.placements, inc.placements)
      << label << ": checkpoint placements differ";
  EXPECT_EQ(full.check_events, inc.check_events)
      << label << ": CHECK decisions differ";
  EXPECT_EQ(full.learned, inc.learned)
      << label << ": harvested feedback differs";
}

/// Replays `corpus` for several passes through a from-scratch world and an
/// incremental world, comparing every run. The cross-query stores make the
/// feedback seeding of later passes depend on earlier CHECK firings, so
/// re-optimizing queries exercise the memo invalidation path repeatedly.
void SweepCorpus(const Catalog& catalog,
                 const std::vector<QuerySpec>& corpus, const char* tag,
                 bool expect_reopts) {
  const int passes = LightMode() ? 3 : 4;
  World full(catalog, /*incremental=*/false);
  World inc(catalog, /*incremental=*/true);

  for (int pass = 0; pass < passes; ++pass) {
    for (const QuerySpec& q : corpus) {
      SCOPED_TRACE(std::string(tag) + "/" + q.name() + " pass=" +
                   std::to_string(pass));
      ExpectSameOutcome(RunOnce(&full, q), RunOnce(&inc, q),
                        std::string(tag) + "/" + q.name());
    }
  }

  // The equivalence must not hold vacuously: the from-scratch world never
  // touches a memo, and whenever the incremental world actually
  // re-optimized a multi-table query some untouched memo entries must have
  // been reused (a sweep where every re-optimization rebuilt everything
  // would mean the invalidation rule degenerated to "drop all").
  EXPECT_EQ(0, full.memo_reused) << tag;
  EXPECT_EQ(0, full.memo_invalidated) << tag;
  if (expect_reopts) {
    EXPECT_GT(inc.reopts, 0)
        << tag << ": corpus never re-optimized, the oracle tested nothing";
  }
  if (inc.reopts > 0) {
    EXPECT_GT(inc.memo_reused + inc.memo_invalidated, 0)
        << tag << ": re-optimizations never consulted the memo";
  }
}

TEST(ReoptDifferentialTest, TpchPaperQueries) {
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  // Light mode keeps only the join-heavy Q8/Q9 pair — the queries whose
  // marker variants reliably re-optimize, so the memo path stays covered.
  std::vector<QuerySpec> corpus;
  for (int qnum : tpch::PaperQueries()) {
    if (LightMode() && qnum != 8 && qnum != 9) continue;
    corpus.push_back(tpch::MakeQuery(qnum));
  }
  // Parameter-marker variants: default selectivities make estimates wrong,
  // checks fire, and every re-optimization runs through the memo.
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    if (LightMode() && qnum != 8 && qnum != 9) continue;
    corpus.push_back(tpch::MakeQuery(qnum, marked));
  }
  // The marker variants guarantee firing checks: default selectivities
  // misestimate, so the sweep re-optimizes and the memo is exercised.
  SweepCorpus(catalog, corpus, "tpch", /*expect_reopts=*/true);
}

TEST(ReoptDifferentialTest, DmvWorkload) {
  Catalog catalog;
  dmv::GenConfig gen;
  gen.scale = 0.2;
  ASSERT_TRUE(dmv::BuildCatalog(gen, &catalog).ok());

  dmv::WorkloadConfig wl;
  if (LightMode()) wl.num_queries = 4;
  // The DMV generator's correlated columns are the paper's motivating
  // misestimation; whether a given light-mode subset re-optimizes is
  // workload-dependent, so only the full corpus requires it.
  SweepCorpus(catalog, dmv::MakeWorkload(wl), "dmv",
              /*expect_reopts=*/!LightMode());
}

TEST(ReoptDifferentialTest, CacheAndMemoMatchNeither) {
  // Both plan-reuse paths at once: the world under test serves attempt 0
  // from a plan cache where it can and re-optimizes through the
  // incremental memo; the baseline world has neither cache nor memo. Every
  // run must be indistinguishable.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  std::vector<QuerySpec> corpus;
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    // Light mode: join-heavy queries only, so re-optimizations leave
    // reusable memo entries (a 2-table query's delta can dirty its whole
    // memo).
    if (LightMode() && qnum != 8 && qnum != 9) continue;
    corpus.push_back(tpch::MakeQuery(qnum, marked));
  }

  World full(catalog, /*incremental=*/false);
  World inc(catalog, /*incremental=*/true, /*with_cache=*/true);
  const int passes = 3;
  for (int pass = 0; pass < passes; ++pass) {
    for (const QuerySpec& q : corpus) {
      SCOPED_TRACE(q.name() + " pass=" + std::to_string(pass));
      ExpectSameOutcome(RunOnce(&full, q), RunOnce(&inc, q), q.name());
    }
  }

  // The oracle must not pass vacuously: marker queries learn cardinalities
  // into the shared store, so some re-submissions find their entry stale,
  // others are served from the cache once the feedback settles, and the
  // re-optimizations reuse memo entries.
  const PlanCache::Stats stats = inc.cache->stats();
  EXPECT_GT(stats.hits, 0) << "no lookup was ever served from the cache";
  EXPECT_GT(stats.misses_stale, 0) << "no lookup ever found a stale entry";
  EXPECT_GT(inc.memo_reused, 0);
}

/// Bit-exact comparison of one optimization under a persistent memo
/// against a from-scratch optimization with identical inputs.
void ExpectIdenticalPlans(const Catalog& catalog, const QuerySpec& q,
                          const FeedbackMap& fb,
                          const std::vector<AvailableMatView>* mvs,
                          IncrementalMemo* memo, const std::string& label,
                          int64_t* reused_total) {
  Optimizer opt(catalog, OptimizerConfig{});
  Result<OptimizedPlan> fresh = opt.Optimize(q, &fb, mvs, nullptr, nullptr);
  Result<OptimizedPlan> inc = opt.Optimize(q, &fb, mvs, nullptr, memo);
  ASSERT_EQ(fresh.ok(), inc.ok()) << label;
  ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().ToString();
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root))
      << label << ":\nfull DP:\n"
      << fresh.value().root->ToString() << "\nincremental:\n"
      << inc.value().root->ToString();
  // Costs and cardinalities must match to the last bit, not just to the
  // printed precision.
  EXPECT_EQ(fresh.value().est_cost, inc.value().est_cost) << label;
  EXPECT_EQ(fresh.value().est_card, inc.value().est_card) << label;
  *reused_total += inc.value().memo_reused;
}

TEST(ReoptDifferentialTest, RandomizedPerturbationsKeepPlanIdentity) {
  // Optimizer-level fuzz: Q8/Q9-class TPC-H queries under a persistent
  // memo, with a random edge cardinality perturbed (or dropped), a
  // matview offer toggled, or nothing changed between optimizations.
  // After every delta the incremental plan must be bit-identical to full
  // DP under the same inputs.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  const std::vector<Row> mv_rows;  // Never executed; identity only.
  const int rounds = LightMode() ? 12 : 40;
  for (const int qnum : {8, 9}) {
    const QuerySpec q = tpch::MakeQuery(qnum);
    std::vector<TableSet> bits;
    for (TableSet s = q.AllTables(); s != 0; s &= s - 1) {
      bits.push_back(s & ~(s - 1));
    }

    Rng rng(0xC0FFEE + static_cast<uint64_t>(qnum));
    IncrementalMemo memo;
    FeedbackMap fb;
    std::vector<AvailableMatView> mvs;
    int64_t reused_total = 0;
    for (int round = 0; round < rounds; ++round) {
      // Random nonempty subset of the query's tables: the perturbed edge.
      TableSet edge = 0;
      for (const TableSet b : bits) {
        if (rng.Bernoulli(0.4)) edge |= b;
      }
      if (edge == 0) edge = bits[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bits.size()) - 1))];

      switch (rng.UniformInt(0, 5)) {
        case 0:  // No-op round: everything must be reused.
          break;
        case 1:
          fb.erase(edge);
          break;
        case 2:
          fb[edge].lower_bound = 1.0 + rng.UniformDouble() * 10000.0;
          break;
        case 3:  // Toggle a matview offer for a random singleton.
          if (mvs.empty()) {
            AvailableMatView mv;
            mv.name = "mv_fuzz";
            mv.set = bits[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(bits.size()) - 1))];
            mv.card = 1.0 + rng.UniformDouble() * 50.0;
            mv.rows = &mv_rows;
            mvs.push_back(std::move(mv));
          } else {
            mvs.clear();
          }
          break;
        default:
          fb[edge].exact = 1.0 + rng.UniformDouble() * 10000.0;
          break;
      }

      ExpectIdenticalPlans(catalog, q, fb, mvs.empty() ? nullptr : &mvs,
                           &memo,
                           "q" + std::to_string(qnum) + " round=" +
                               std::to_string(round),
                           &reused_total);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Perturbing one edge leaves the disjoint part of the memo reusable;
    // a sweep that never reused anything would be testing nothing.
    EXPECT_GT(reused_total, 0) << "q" << qnum;
  }
}

TEST(ReoptDifferentialTest, FingerprintMismatchFallsBackToFullDp) {
  // A memo committed for one query must never leak entries into a
  // different query's optimization: the canonical-signature fingerprint
  // gates reuse, and the second query's plan is still bit-identical to
  // its from-scratch optimization.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  Optimizer opt(catalog, OptimizerConfig{});
  IncrementalMemo memo;
  const QuerySpec q8 = tpch::MakeQuery(8);
  const QuerySpec q9 = tpch::MakeQuery(9);
  ASSERT_TRUE(opt.Optimize(q8, nullptr, nullptr, nullptr, &memo).ok());
  ASSERT_GT(memo.entries(), 0);

  Result<OptimizedPlan> fresh = opt.Optimize(q9);
  Result<OptimizedPlan> inc = opt.Optimize(q9, nullptr, nullptr, nullptr,
                                           &memo);
  ASSERT_TRUE(fresh.ok() && inc.ok());
  EXPECT_EQ(0, inc.value().memo_reused)
      << "memo entries leaked across query fingerprints";
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root));
}

}  // namespace
}  // namespace popdb
