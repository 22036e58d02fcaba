#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "common/rng.h"
#include "core/executor_builder.h"
#include "core/leo.h"
#include "opt/optimizer.h"
#include "core/pop.h"
#include "exec/check.h"
#include "exec/scan.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- BufCheckOp.

class BufCheckTest : public ::testing::Test {
 protected:
  BufCheckTest() : table_("t", Schema({{"v", ValueType::kInt}})) {
    for (int64_t i = 0; i < 50; ++i) table_.AppendRow({Value::Int(i)});
  }

  std::unique_ptr<TableScanOp> Scan() {
    return std::make_unique<TableScanOp>(&table_, 0,
                                         std::vector<ResolvedPredicate>{});
  }

  static CheckSpec Spec(double lo, double hi) {
    CheckSpec c;
    c.enabled = true;
    c.lo = lo;
    c.hi = hi;
    c.flavor = CheckFlavor::kEagerBuffered;
    c.edge_set = TableBit(0);
    return c;
  }

  Table table_;
};

TEST_F(BufCheckTest, PassesWhenWithinFiniteRange) {
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(10, 100));
  std::vector<Row> rows;
  EXPECT_EQ(ExecStatus::kEof, RunToCompletion(&buf, &ctx, &rows));
  EXPECT_EQ(50u, rows.size());
  EXPECT_FALSE(ctx.reopt.triggered);
}

TEST_F(BufCheckTest, PreservesRowOrder) {
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(0, 1000));
  std::vector<Row> rows;
  RunToCompletion(&buf, &ctx, &rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(Value::Int(static_cast<int64_t>(i)), rows[i][0]);
  }
}

TEST_F(BufCheckTest, FiresDuringOpenWhenUpperBoundExceeded) {
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(0, 19.5));
  EXPECT_EQ(ExecStatus::kReoptimize, buf.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_FALSE(ctx.reopt.exact);  // Lower bound only.
  EXPECT_EQ(20, ctx.reopt.observed_rows);
  // Nothing was emitted: the buffer held everything back.
  EXPECT_EQ(0, buf.rows_produced());
}

TEST_F(BufCheckTest, FiresExactlyAtEofWhenBelowLowerBound) {
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(60, kInf));
  EXPECT_EQ(ExecStatus::kReoptimize, buf.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(50, ctx.reopt.observed_rows);
}

TEST_F(BufCheckTest, LowerBoundOnlyRangeReleasesValveEarly) {
  // [lo, inf): success certain at the lo-th row; buffer is bounded by lo.
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(5, kInf));
  EXPECT_EQ(ExecStatus::kOk, buf.Open(&ctx));
  // Only 5 rows were pulled during Open (the valve released at lo).
  EXPECT_EQ(5, buf.children()[0]->rows_produced());
  RowBatch batch;
  std::vector<Row> rows;
  ExecStatus s;
  while ((s = buf.NextBatch(&ctx, &batch)) == ExecStatus::kRow) {
    batch.MoveRowsInto(&rows);
  }
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(50u, rows.size());  // Buffer prefix + streamed remainder.
  EXPECT_FALSE(ctx.reopt.triggered);
}

TEST_F(BufCheckTest, ObserveOnlyRecordsButStreams) {
  ExecContext ctx;
  CheckSpec spec = Spec(0, 3);
  spec.observe_only = true;
  BufCheckOp buf(Scan(), spec);
  std::vector<Row> rows;
  EXPECT_EQ(ExecStatus::kEof, RunToCompletion(&buf, &ctx, &rows));
  EXPECT_EQ(50u, rows.size());
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
}

TEST_F(BufCheckTest, HarvestReportsExactCountAfterEof) {
  ExecContext ctx;
  BufCheckOp buf(Scan(), Spec(0, 1000));
  std::vector<Row> rows;
  RunToCompletion(&buf, &ctx, &rows);
  HarvestedResult info;
  ASSERT_TRUE(buf.HarvestInfo(&info));
  EXPECT_TRUE(info.complete);
  EXPECT_EQ(50, info.count);
  EXPECT_EQ(nullptr, info.rows);  // Buffers are never offered for reuse.
}

// ------------------------------------------------------------ WorkBoundOp.

TEST_F(BufCheckTest, WorkBoundFiresWhenBudgetExceeded) {
  ExecContext ctx;
  WorkBoundOp guard(Scan(), /*work_budget=*/10, TableBit(0));
  std::vector<Row> rows;
  EXPECT_EQ(ExecStatus::kReoptimize, RunToCompletion(&guard, &ctx, &rows));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_EQ(CheckFlavor::kWorkBound, ctx.reopt.flavor);
  EXPECT_FALSE(ctx.reopt.exact);
  EXPECT_LT(rows.size(), 50u);
}

TEST_F(BufCheckTest, WorkBoundPassesWithinBudget) {
  ExecContext ctx;
  WorkBoundOp guard(Scan(), /*work_budget=*/1e9, TableBit(0));
  std::vector<Row> rows;
  EXPECT_EQ(ExecStatus::kEof, RunToCompletion(&guard, &ctx, &rows));
  EXPECT_EQ(50u, rows.size());
}

// -------------------------------------------------- Work-bound end-to-end.

/// Catalog with the orders/items cardinality trap (see pop_test.cc).
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

QuerySpec TrapQuery() {
  QuerySpec q("trap");
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddGroupBy({o, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

TEST(WorkBoundEndToEnd, RescuesRunawayPlanWithoutCardinalityChecks) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  // Cardinality checks off: only the work budget can save this query.
  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.work_bound_factor = 3.0;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(stats.reopts, 1);
  EXPECT_EQ(CheckFlavor::kWorkBound, stats.attempts[0].signal.flavor);

  ExecutionStats static_stats;
  ASSERT_TRUE(exec.ExecuteStatic(TrapQuery(), &static_stats).ok());
  EXPECT_LT(stats.total_work, static_stats.total_work);
  // And the results are still right.
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, TrapQuery())),
            Canonicalize(rows.value()));
}

TEST(WorkBoundEndToEnd, SpjWithCompensationStaysCorrect) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  QuerySpec q("spj");
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddProjection({it, 1});
  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.work_bound_factor = 3.0;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, q)),
            Canonicalize(rows.value()));
}

// --------------------------------------------------------------- ECB e2e.

TEST(BufCheckEndToEnd, EcbFiresBeforeLcemWouldMaterializeEverything) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.enable_ecb = true;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  ASSERT_GE(stats.reopts, 1);
  EXPECT_EQ(CheckFlavor::kEagerBuffered, stats.attempts[0].signal.flavor);
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, TrapQuery())),
            Canonicalize(rows.value()));
}

// ------------------------------------------------------- Confidence filter.

TEST(ConfidenceFilterEndToEnd, ChecksOnlyWhereAssumptionsPileUp) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  // The trap edge rests on 1 assumption (one independence multiplication
  // between two predicates); requiring at least 1 keeps its check,
  // requiring 5 removes all checks.
  for (const auto& [min_assumptions, expect_reopt] :
       std::vector<std::pair<int, bool>>{{1, true}, {5, false}}) {
    PopConfig pop;
    pop.min_assumptions_for_checks = min_assumptions;
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
    ExecutionStats stats;
    ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
    EXPECT_EQ(expect_reopt, stats.reopts > 0)
        << "min_assumptions=" << min_assumptions;
  }
}

// ------------------------------------------------------------ LEO storage.

TEST(QueryFeedbackStoreTest, SignatureStableAcrossTableIdOrder) {
  QuerySpec a("a");
  const int a_o = a.AddTable("orders");
  const int a_i = a.AddTable("items");
  a.AddJoin({a_o, 0}, {a_i, 0});
  a.AddPred({a_o, 1}, PredKind::kEq, Value::Int(7));

  QuerySpec b("b");
  const int b_i = b.AddTable("items");  // Reversed declaration order.
  const int b_o = b.AddTable("orders");
  b.AddJoin({b_o, 0}, {b_i, 0});
  b.AddPred({b_o, 1}, PredKind::kEq, Value::Int(7));

  EXPECT_EQ(QueryFeedbackStore::SubplanSignature(a, a.AllTables()),
            QueryFeedbackStore::SubplanSignature(b, b.AllTables()));
  EXPECT_EQ(QueryFeedbackStore::SubplanSignature(a, TableBit(a_o)),
            QueryFeedbackStore::SubplanSignature(b, TableBit(b_o)));
}

TEST(QueryFeedbackStoreTest, SignatureDependsOnLiterals) {
  QuerySpec a("a"), b("b");
  const int at = a.AddTable("orders");
  const int bt = b.AddTable("orders");
  a.AddPred({at, 1}, PredKind::kEq, Value::Int(7));
  b.AddPred({bt, 1}, PredKind::kEq, Value::Int(8));
  EXPECT_NE(QueryFeedbackStore::SubplanSignature(a, TableBit(at)),
            QueryFeedbackStore::SubplanSignature(b, TableBit(bt)));
}

TEST(QueryFeedbackStoreTest, MarkerResolvedToBinding) {
  QuerySpec lit("lit"), mark("mark");
  const int lt = lit.AddTable("orders");
  lit.AddPred({lt, 1}, PredKind::kEq, Value::Int(7));
  const int mt = mark.AddTable("orders");
  mark.AddParamPred({mt, 1}, PredKind::kEq, 0);
  mark.BindParam(Value::Int(7));
  EXPECT_EQ(QueryFeedbackStore::SubplanSignature(lit, TableBit(lt)),
            QueryFeedbackStore::SubplanSignature(mark, TableBit(mt)));
}

TEST(QueryFeedbackStoreTest, AbsorbAndSeedRoundTrip) {
  QuerySpec q("q");
  const int t = q.AddTable("orders");
  q.AddPred({t, 1}, PredKind::kEq, Value::Int(7));
  FeedbackMap fb;
  fb[TableBit(t)].exact = 123.0;
  QueryFeedbackStore store;
  store.Absorb(q, fb);
  EXPECT_EQ(1, store.size());
  FeedbackCache seeded;
  store.Seed(q, &seeded);
  ASSERT_EQ(1u, seeded.Snapshot().size());
  EXPECT_DOUBLE_EQ(123.0, seeded.Snapshot().at(TableBit(t)).exact);
}

TEST(QueryFeedbackStoreTest, SecondExecutionAvoidsReoptimization) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  QueryFeedbackStore store;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  exec.set_cross_query_store(&store);

  ExecutionStats first;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &first).ok());
  ASSERT_GE(first.reopts, 1);  // Learned the hard way.

  ExecutionStats second;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &second).ok());
  EXPECT_EQ(0, second.reopts);  // Planned right from the start.
  EXPECT_LT(second.total_work, first.total_work);
}

TEST(QueryFeedbackStoreTest, LearningTransfersAcrossMarkersAndLiterals) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  QueryFeedbackStore store;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  exec.set_cross_query_store(&store);
  ASSERT_TRUE(exec.Execute(TrapQuery(), nullptr).ok());

  // The same restriction phrased with parameter markers benefits too: the
  // signature resolves markers to their bindings.
  QuerySpec marked("marked");
  const int o = marked.AddTable("orders");
  const int it = marked.AddTable("items");
  marked.AddJoin({o, 0}, {it, 0});
  marked.AddParamPred({o, 1}, PredKind::kEq, 0);
  marked.AddParamPred({o, 2}, PredKind::kEq, 1);
  marked.BindParam(Value::Int(7));
  marked.BindParam(Value::Int(77));
  marked.AddGroupBy({o, 1});
  marked.AddAgg(AggFunc::kCount);
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(marked, &stats).ok());
  EXPECT_EQ(0, stats.reopts);
}

// --------------------------------------------------- HSJN build reuse flag.

TEST(HsjnBuildReuse, ExtensionHarvestsBuildsAsMatViews) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  // Force checks to fail late so a hash-join build exists when harvesting.
  for (const bool reuse : {false, true}) {
    PopConfig pop;
    pop.reuse_hsjn_builds = reuse;
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
    ExecutionStats stats;
    Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, TrapQuery())),
              Canonicalize(rows.value()));
  }
}

// ------------------------------------- Indexed materialized-view reuse.

TEST(MatViewIndexing, OptimizerIndexesViewForNljnProbes) {
  // Paper Section 2.3: "The optimizer could even create an index on the
  // materialized view before re-using it if worthwhile." Join on a column
  // with no base-table index: probing an indexed copy of the inner beats
  // both scanning it per outer row and hash-joining it.
  Catalog catalog;
  testing::BuildToyCatalog(&catalog);
  QuerySpec q("mvix");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 2}, {e, 2});  // d_region = e_age: no index on e_age.

  // Offer a materialized view that is an exact copy of emp.
  const Table* emp = catalog.GetTable("emp");
  std::vector<Row> mv_rows;
  for (int64_t r = 0; r < emp->num_rows(); ++r) mv_rows.push_back(emp->row(r));
  std::vector<AvailableMatView> mvs = {
      {"mv_emp", TableBit(e), static_cast<double>(mv_rows.size()),
       &mv_rows, {}}};

  Optimizer opt(catalog, OptimizerConfig{});
  Result<OptimizedPlan> planned = opt.Optimize(q, nullptr, &mvs, nullptr);
  ASSERT_TRUE(planned.ok());
  const PlanNode* join = planned.value().root.get();
  while (join->set == 0) join = join->children[0].get();
  ASSERT_EQ(PlanOpKind::kNljn, join->kind);
  EXPECT_EQ(PlanOpKind::kMatViewScan, join->children[1]->kind);
  EXPECT_TRUE(join->use_index);
  EXPECT_EQ(2, join->index_col);

  // The executor builds the index and produces correct results.
  ExecutorBuilder builder(catalog, q, nullptr, false);
  Result<BuiltPlan> built = builder.Build(*planned.value().root);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(1u, built.value().owned_indexes.size());
  ExecContext ctx;
  std::vector<Row> rows;
  ASSERT_EQ(ExecStatus::kEof,
            RunToCompletion(built.value().root.get(), &ctx, &rows));
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, q)), Canonicalize(rows));
}

TEST(MatViewIndexing, BaseIndexStillPreferredWhenPresent) {
  // With an index on the base join column, probing the base table avoids
  // the view's index build cost.
  Catalog catalog;
  testing::BuildToyCatalog(&catalog);
  QuerySpec q("mvix2");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});  // e_dept has a base index.
  q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));
  const Table* emp = catalog.GetTable("emp");
  std::vector<Row> mv_rows;
  for (int64_t r = 0; r < emp->num_rows(); ++r) mv_rows.push_back(emp->row(r));
  std::vector<AvailableMatView> mvs = {
      {"mv_emp", TableBit(e), static_cast<double>(mv_rows.size()),
       &mv_rows, {}}};
  Optimizer opt(catalog, OptimizerConfig{});
  Result<OptimizedPlan> planned = opt.Optimize(q, nullptr, &mvs, nullptr);
  ASSERT_TRUE(planned.ok());
  const PlanNode* join = planned.value().root.get();
  while (join->set == 0) join = join->children[0].get();
  ASSERT_EQ(PlanOpKind::kNljn, join->kind);
  EXPECT_EQ(PlanOpKind::kTableScan, join->children[1]->kind);
}

// ------------------------------------------------ Volatile ("conservative
// mode") plan bias — paper Section 7, Checking Opportunities.

TEST(VolatileMode, BiasShiftsPlansTowardReoptimizableOperators) {
  Catalog catalog;
  testing::BuildToyCatalog(&catalog, /*emp_rows=*/500, /*sale_rows=*/4000);
  QuerySpec q("vm");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({s, 0}, {e, 0});  // s_emp = e_id (indexed).
  q.AddGroupBy({e, 1});
  q.AddAgg(AggFunc::kCount);

  auto join_kind = [&](double bias) {
    OptimizerConfig opt;
    opt.methods.volatile_mode_bias = bias;
    Optimizer optimizer(catalog, opt);
    Result<OptimizedPlan> planned = optimizer.Optimize(q);
    EXPECT_TRUE(planned.ok());
    const PlanNode* join = planned.value().root.get();
    while (join->set == 0) join = join->children[0].get();
    return join->kind;
  };
  const PlanOpKind unbiased = join_kind(0.0);
  const PlanOpKind biased = join_kind(50.0);
  // A huge bias forces the most re-optimizable operator available.
  EXPECT_EQ(PlanOpKind::kMgjn, biased);
  (void)unbiased;  // Typically NLJN or HSJN; documented, not asserted.

  // Results are identical either way.
  OptimizerConfig opt_biased;
  opt_biased.methods.volatile_mode_bias = 50.0;
  ProgressiveExecutor plain(catalog, OptimizerConfig{}, PopConfig{});
  ProgressiveExecutor conservative(catalog, opt_biased, PopConfig{});
  Result<std::vector<Row>> a = plain.Execute(q);
  Result<std::vector<Row>> b = conservative.Execute(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Canonicalize(a.value()), Canonicalize(b.value()));
}

}  // namespace
}  // namespace popdb
