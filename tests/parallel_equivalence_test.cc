// Differential test: the full TPC-H paper-query subset and the DMV
// workload executed serially and morsel-parallel at dop 1/2/4/8 (with
// randomized morsel sizes) must produce identical sorted result sets,
// identical CHECK-fire decisions and re-optimization attempt counts, and
// identical harvested feedback cardinalities. Work counters and wall
// times are deliberately NOT compared (they are mode-dependent only in
// where the work happens, which the morsel_test covers at unit level).
//
// The serial baseline runs at batch size 1 (one row per batch) while the
// parallel legs alternate batch size 1 and a randomized larger size, so
// this suite is simultaneously the morsel-parallel and the batch-size
// equivalence oracle (batch_differential_test covers serial batch-size
// sweeps).
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
#include "runtime/morsel_dispatcher.h"
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

/// Everything about one execution that must be mode-invariant.
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
};

Outcome RunOnce(const Catalog& catalog, const QuerySpec& query,
                TaskRunner* runner, ParallelPolicy policy) {
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  QueryFeedbackStore store;
  exec.set_cross_query_store(&store);
  // Always install the policy: a null runner keeps execution serial but
  // policy.batch_rows still sets the execution batch size.
  exec.set_parallel(runner, policy);
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
  }
  for (const auto& [sig, fb] : store.Dump()) {
    o.learned.emplace(sig, std::make_pair(fb.exact, fb.lower_bound));
  }
  return o;
}

void ExpectSameOutcome(const Outcome& serial, const Outcome& parallel,
                       const std::string& label) {
  ASSERT_EQ(serial.ok, parallel.ok)
      << label << ": " << serial.status << " vs " << parallel.status;
  if (!serial.ok) return;
  EXPECT_EQ(serial.rows, parallel.rows) << label << ": result rows differ";
  EXPECT_EQ(serial.reopts, parallel.reopts)
      << label << ": re-optimization count differs";
  EXPECT_EQ(serial.attempts, parallel.attempts)
      << label << ": attempt count differs";
  EXPECT_EQ(serial.check_events, parallel.check_events)
      << label << ": CHECK decisions differ";
  EXPECT_EQ(serial.learned, parallel.learned)
      << label << ": harvested feedback differs";
}

/// Serial execution at batch size 1: the ground truth for every sweep.
Outcome RunSerialBatchOne(const Catalog& catalog, const QuerySpec& q) {
  ParallelPolicy one;
  one.batch_rows = 1;
  return RunOnce(catalog, q, nullptr, one);
}

/// Runs every query serially at batch size 1 and at each dop with a
/// per-(query, dop) randomized morsel size from a deterministic RNG,
/// alternating parallel legs at batch size 1 and a larger size.
void SweepCorpus(const Catalog& catalog,
                 const std::vector<QuerySpec>& corpus, const char* tag) {
  const std::vector<int> dops =
      LightMode() ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8};
  MorselDispatcher pool(/*helper_threads=*/3);
  Rng rng(0x9e3779b9);
  for (const QuerySpec& q : corpus) {
    const Outcome serial = RunSerialBatchOne(catalog, q);
    for (int dop : dops) {
      ParallelPolicy policy;
      policy.dop = dop;
      policy.morsel_rows = rng.UniformInt(16, 400);
      policy.min_parallel_rows = 1;
      // A leg at batch size 1, then one with a randomized execution batch
      // size so CHECK thresholds land mid-batch.
      for (const int64_t batch : {int64_t{1}, rng.UniformInt(2, 2048)}) {
        policy.batch_rows = batch;
        SCOPED_TRACE(std::string(tag) + "/" + q.name() + " dop=" +
                     std::to_string(dop) + " morsel_rows=" +
                     std::to_string(policy.morsel_rows) + " batch_rows=" +
                     std::to_string(policy.batch_rows));
        const Outcome parallel = RunOnce(catalog, q, &pool, policy);
        ExpectSameOutcome(serial, parallel,
                          std::string(tag) + "/" + q.name());
      }
    }
  }
}

TEST(ParallelEquivalenceTest, TpchPaperQueries) {
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  std::vector<QuerySpec> corpus;
  for (int qnum : tpch::PaperQueries()) {
    corpus.push_back(tpch::MakeQuery(qnum));
    if (LightMode()) break;
  }
  // Parameter-marker variants inject estimation errors so checks actually
  // fire and re-optimization paths run under parallelism.
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    corpus.push_back(tpch::MakeQuery(qnum, marked));
    if (LightMode()) break;
  }
  SweepCorpus(catalog, corpus, "tpch");
}

TEST(ParallelEquivalenceTest, DmvWorkload) {
  Catalog catalog;
  dmv::GenConfig gen;
  gen.scale = 0.2;
  ASSERT_TRUE(dmv::BuildCatalog(gen, &catalog).ok());

  dmv::WorkloadConfig wl;
  if (LightMode()) wl.num_queries = 4;
  SweepCorpus(catalog, dmv::MakeWorkload(wl), "dmv");
}

TEST(ParallelEquivalenceTest, Q10SelectivityRegressionPinsReoptCounts) {
  // The Figure 11 query with a misestimated marker predicate is the
  // canonical "CHECK fires, plan changes" scenario; pin that the number
  // of attempts is identical under parallel execution for every
  // selectivity point.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  MorselDispatcher pool(/*helper_threads=*/3);
  const std::vector<int> sels =
      LightMode() ? std::vector<int>{50} : std::vector<int>{1, 10, 50, 90};
  for (int sel : sels) {
    const QuerySpec q = tpch::MakeQ10Selectivity(sel, /*use_marker=*/true);
    const Outcome serial = RunSerialBatchOne(catalog, q);
    ParallelPolicy policy;
    policy.dop = 4;
    policy.morsel_rows = 64;
    policy.min_parallel_rows = 1;
    // The parallel leg keeps the default batch size (1024), so this
    // regression pins re-opt counts across serial batch size 1 vs
    // parallel batches.
    SCOPED_TRACE("q10 sel=" + std::to_string(sel));
    const Outcome parallel = RunOnce(catalog, q, &pool, policy);
    ExpectSameOutcome(serial, parallel, "q10");
  }
}

}  // namespace
}  // namespace popdb
