// Batch-size differential oracle (the headline test for batch
// execution): every query of the TPC-H paper subset (plain + parameter
// marker) and the DMV workload runs once at batch size 1 — one row per
// batch, where every batch boundary is a row boundary — and once per
// tested execution batch size, including randomized sizes. Every size must
// be bit-identical to batch size 1 in:
//   - the returned row multiset,
//   - every CHECK evaluation (edge set, flavor, site, observed count,
//     fired or not) — i.e. batch-boundary checks decide exactly like
//     per-row checks,
//   - the number of re-optimizations and attempts,
//   - the feedback cardinalities harvested into the cross-query store,
//   - the work units of every attempt and the work positions of every
//     CHECK evaluation (first row and decision, the axis of Figure 14).
// Each corpus runs with the default checkpoint flavors, with the eager
// flavors (ECB, ECWC, ECDC: streaming CHECKs above joins and filters) and
// with a WORKBOUND budget. The plan-cache execution path is covered by a
// dedicated test below; the dist subplan path has its own differential in
// dist_test.cc.
//
// Set POPDB_EQUIV_LIGHT=1 to run a reduced corpus (used by the TSan CI
// stage, where the full sweep is too slow).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
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

/// Everything about one execution that must be batch-size-invariant.
struct Outcome {
  bool ok = false;
  std::string status;
  std::vector<std::string> rows;  // Canonicalized (sorted) result set.
  int reopts = 0;
  size_t attempts = 0;
  /// (edge_set, flavor, site, count, fired) per checkpoint evaluation.
  std::vector<std::tuple<TableSet, int, int, int64_t, bool>> check_events;
  /// Learned cardinalities by subplan signature: (exact, lower_bound).
  std::map<std::string, std::pair<double, double>> learned;
  /// Work units per attempt.
  std::vector<int64_t> attempt_work;
  /// (work_first, work_eval) per checkpoint evaluation.
  std::vector<std::pair<int64_t, int64_t>> check_event_work;
};

/// The eager flavors: streaming CHECKs in pipelines and above joins.
PopConfig EagerChecks() {
  PopConfig pop;
  pop.enable_ecb = true;
  pop.enable_ecwc = true;
  pop.enable_ecdc = true;
  return pop;
}

/// The default flavors plus a work budget of twice the estimated cost.
PopConfig WorkBound() {
  PopConfig pop;
  pop.work_bound_factor = 2;
  return pop;
}

Outcome RunOnce(const Catalog& catalog, const QuerySpec& query,
                int64_t batch_rows, const PopConfig& pop = PopConfig{},
                PlanCache* cache = nullptr,
                QueryFeedbackStore* persistent_store = nullptr) {
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  QueryFeedbackStore local_store;
  QueryFeedbackStore* store =
      persistent_store != nullptr ? persistent_store : &local_store;
  exec.set_cross_query_store(store);
  if (cache != nullptr) exec.set_plan_cache(cache);
  ParallelPolicy policy;
  policy.batch_rows = batch_rows;
  exec.set_parallel(nullptr, policy);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(query, &stats);

  Outcome o;
  o.ok = rows.ok();
  o.status = rows.ok() ? "" : rows.status().ToString();
  if (rows.ok()) o.rows = Canonicalize(rows.value());
  o.reopts = stats.reopts;
  o.attempts = stats.attempts.size();
  for (const CheckEvent& ev : stats.check_events) {
    o.check_events.emplace_back(ev.edge_set, static_cast<int>(ev.flavor),
                                static_cast<int>(ev.site), ev.count,
                                ev.fired);
    o.check_event_work.emplace_back(ev.work_first, ev.work_eval);
  }
  for (const AttemptInfo& a : stats.attempts) o.attempt_work.push_back(a.work);
  for (const auto& [sig, fb] : store->Dump()) {
    o.learned.emplace(sig, std::make_pair(fb.exact, fb.lower_bound));
  }
  return o;
}

void ExpectSameOutcome(const Outcome& reference, const Outcome& batched,
                       const std::string& label) {
  ASSERT_EQ(reference.ok, batched.ok)
      << label << ": " << reference.status << " vs " << batched.status;
  if (!reference.ok) return;
  EXPECT_EQ(reference.rows, batched.rows)
      << label << ": result rows differ";
  EXPECT_EQ(reference.reopts, batched.reopts)
      << label << ": re-optimization count differs";
  EXPECT_EQ(reference.attempts, batched.attempts)
      << label << ": attempt count differs";
  EXPECT_EQ(reference.check_events, batched.check_events)
      << label << ": CHECK decisions differ";
  EXPECT_EQ(reference.learned, batched.learned)
      << label << ": harvested feedback differs";
  EXPECT_EQ(reference.attempt_work, batched.attempt_work)
      << label << ": per-attempt work differs";
  EXPECT_EQ(reference.check_event_work, batched.check_event_work)
      << label << ": CHECK work positions differ";
}

/// Batch sizes per query: pathological small sizes that land CHECK
/// thresholds mid-batch, the production default, and a randomized size.
std::vector<int64_t> BatchSizes(Rng* rng) {
  if (LightMode()) return {3, 1024};
  return {2, 3, 7, 1024, rng->UniformInt(2, 2048)};
}

void SweepCorpus(const Catalog& catalog,
                 const std::vector<QuerySpec>& corpus, const char* tag,
                 const PopConfig& pop = PopConfig{}) {
  Rng rng(0x51ed2705);
  for (const QuerySpec& q : corpus) {
    const Outcome reference = RunOnce(catalog, q, /*batch_rows=*/1, pop);
    for (int64_t batch : BatchSizes(&rng)) {
      SCOPED_TRACE(std::string(tag) + "/" + q.name() +
                   " batch_rows=" + std::to_string(batch));
      const Outcome batched = RunOnce(catalog, q, batch, pop);
      ExpectSameOutcome(reference, batched,
                        std::string(tag) + "/" + q.name());
    }
  }
}

/// The TPC-H paper subset, plain and with parameter markers; the marker
/// variants inject estimation errors so checks actually fire and
/// re-optimization runs at every batch size.
void SweepTpch(const char* tag, const PopConfig& pop) {
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  std::vector<QuerySpec> corpus;
  for (int qnum : tpch::PaperQueries()) {
    corpus.push_back(tpch::MakeQuery(qnum));
    if (LightMode()) break;
  }
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    corpus.push_back(tpch::MakeQuery(qnum, marked));
    if (LightMode()) break;
  }
  SweepCorpus(catalog, corpus, tag, pop);
}

void SweepDmv(const char* tag, const PopConfig& pop) {
  Catalog catalog;
  dmv::GenConfig gen;
  gen.scale = 0.2;
  ASSERT_TRUE(dmv::BuildCatalog(gen, &catalog).ok());

  dmv::WorkloadConfig wl;
  if (LightMode()) wl.num_queries = 4;
  SweepCorpus(catalog, dmv::MakeWorkload(wl), tag, pop);
}

TEST(BatchDifferentialTest, TpchPaperQueriesPlainAndMarker) {
  SweepTpch("tpch", PopConfig{});
}

TEST(BatchDifferentialTest, TpchPaperQueriesEagerChecks) {
  SweepTpch("tpch_eager", EagerChecks());
}

TEST(BatchDifferentialTest, TpchPaperQueriesWorkBound) {
  SweepTpch("tpch_workbound", WorkBound());
}

TEST(BatchDifferentialTest, DmvWorkload) { SweepDmv("dmv", PopConfig{}); }

TEST(BatchDifferentialTest, DmvWorkloadEagerChecks) {
  SweepDmv("dmv_eager", EagerChecks());
}

TEST(BatchDifferentialTest, DmvWorkloadWorkBound) {
  SweepDmv("dmv_workbound", WorkBound());
}

TEST(BatchDifferentialTest, Q10SelectivitySweepAgreesAtEverySize) {
  // The Figure 11 misestimated-marker query is the canonical "CHECK
  // fires, plan changes" scenario; every selectivity point must fire the
  // same checks and re-optimize the same number of times at any batch
  // size — including sizes that put the threshold row mid-batch.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  Rng rng(0xabcd1234);
  const std::vector<int> sels =
      LightMode() ? std::vector<int>{50} : std::vector<int>{1, 10, 50, 90};
  for (int sel : sels) {
    const QuerySpec q = tpch::MakeQ10Selectivity(sel, /*use_marker=*/true);
    const Outcome reference = RunOnce(catalog, q, /*batch_rows=*/1);
    for (int64_t batch : BatchSizes(&rng)) {
      SCOPED_TRACE("q10 sel=" + std::to_string(sel) +
                   " batch_rows=" + std::to_string(batch));
      const Outcome batched = RunOnce(catalog, q, batch);
      ExpectSameOutcome(reference, batched, "q10");
    }
  }
}

TEST(BatchDifferentialTest, PlanCachePathAgrees) {
  // Two worlds (batch size 1, batch size 1024), each with its own plan
  // cache and persistent feedback store. Every query runs three times per
  // world: the cache key digests the seeded feedback, so the first repeat
  // misses, the second installs under the post-feedback digest, and the
  // third is served through the cached-plan path; all repeats must match
  // across the worlds.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  std::vector<QuerySpec> corpus;
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    corpus.push_back(tpch::MakeQuery(qnum, marked));
    if (LightMode()) break;
  }

  PlanCache cache_one, cache_batch;
  QueryFeedbackStore store_one, store_batch;
  for (const QuerySpec& q : corpus) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      SCOPED_TRACE("plan_cache/" + q.name() +
                   " repeat=" + std::to_string(repeat));
      const Outcome reference = RunOnce(catalog, q, /*batch_rows=*/1,
                                        PopConfig{}, &cache_one, &store_one);
      const Outcome batched = RunOnce(catalog, q, /*batch_rows=*/1024,
                                      PopConfig{}, &cache_batch,
                                      &store_batch);
      ExpectSameOutcome(reference, batched, "plan_cache/" + q.name());
    }
  }
  // The cached world actually exercised the cache.
  EXPECT_GT(cache_batch.stats().hits + cache_batch.stats().validity_hits,
            0u);
}

}  // namespace
}  // namespace popdb
