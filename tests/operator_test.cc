#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "exec/agg.h"
#include "exec/check.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "storage/table.h"

namespace popdb {
namespace {

/// Opens `op`, pulls batches of ctx->batch_rows until a terminal status,
/// which it records in *final_status, and closes `op`.
std::vector<Row> DrainBatches(Operator* op, ExecContext* ctx,
                              ExecStatus* final_status) {
  std::vector<Row> out;
  EXPECT_EQ(ExecStatus::kOk, op->Open(ctx));
  RowBatch batch;
  ExecStatus s;
  while ((s = op->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
    batch.MoveRowsInto(&out);
  }
  *final_status = s;
  op->Close(ctx);
  return out;
}

/// Drains `op` into a row vector; EXPECTs clean EOF.
std::vector<Row> Drain(Operator* op, ExecContext* ctx) {
  ExecStatus s;
  std::vector<Row> out = DrainBatches(op, ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  return out;
}

std::vector<std::string> Canon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

/// Two joinable tables shared by the operator tests:
///   left(key int, tag int)    40 rows, key = i % 10
///   right(key int, val int)   25 rows, key = i % 5
struct JoinFixture {
  JoinFixture()
      : left_("left", Schema({{"key", ValueType::kInt},
                              {"tag", ValueType::kInt}})),
        right_("right", Schema({{"key", ValueType::kInt},
                                {"val", ValueType::kInt}})) {
    for (int64_t i = 0; i < 40; ++i) {
      left_.AppendRow({Value::Int(i % 10), Value::Int(i)});
    }
    for (int64_t i = 0; i < 25; ++i) {
      right_.AppendRow({Value::Int(i % 5), Value::Int(100 + i)});
    }
    widths_ = {2, 2};
  }

  std::unique_ptr<TableScanOp> ScanLeft(
      std::vector<ResolvedPredicate> preds = {}) {
    return std::make_unique<TableScanOp>(&left_, 0, std::move(preds));
  }
  std::unique_ptr<TableScanOp> ScanRight(
      std::vector<ResolvedPredicate> preds = {}) {
    return std::make_unique<TableScanOp>(&right_, 1, std::move(preds));
  }
  MergeSpec JoinMerge() {
    return MergeSpec::Make(RowLayout(TableBit(0), widths_),
                           RowLayout(TableBit(1), widths_),
                           RowLayout(TableBit(0) | TableBit(1), widths_),
                           widths_);
  }
  /// Reference join result via HSJN in plentiful memory.
  std::vector<Row> ReferenceJoin() {
    ExecContext ctx;
    HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
                TableBit(0) | TableBit(1), CheckSpec{}, false);
    return Drain(&join, &ctx);
  }

  Table left_;
  Table right_;
  std::vector<int> widths_;
};

class OperatorTest : public ::testing::Test, protected JoinFixture {};

// -------------------------------------------------------------- TableScan.

TEST_F(OperatorTest, TableScanReturnsAllRows) {
  ExecContext ctx;
  auto scan = ScanLeft();
  EXPECT_EQ(40u, Drain(scan.get(), &ctx).size());
  EXPECT_TRUE(scan->eof_seen());
  EXPECT_EQ(40, scan->rows_produced());
  EXPECT_EQ(40, ctx.work);
}

TEST_F(OperatorTest, TableScanAppliesPredicates) {
  ExecContext ctx;
  ResolvedPredicate p;
  p.pos = 0;
  p.kind = PredKind::kEq;
  p.operand = Value::Int(3);
  auto scan = ScanLeft({p});
  const std::vector<Row> rows = Drain(scan.get(), &ctx);
  ASSERT_EQ(4u, rows.size());
  for (const Row& r : rows) EXPECT_EQ(Value::Int(3), r[0]);
}

TEST_F(OperatorTest, TableScanConjunction) {
  ExecContext ctx;
  ResolvedPredicate p1{0, PredKind::kEq, Value::Int(3), {}, {}};
  ResolvedPredicate p2{1, PredKind::kGt, Value::Int(20), {}, {}};
  auto scan = ScanLeft({p1, p2});
  const std::vector<Row> rows = Drain(scan.get(), &ctx);
  ASSERT_EQ(2u, rows.size());  // tags 23 and 33.
}

// ------------------------------------------------------------ MatViewScan.

TEST_F(OperatorTest, MatViewScanStreamsStoredRows) {
  const std::vector<Row> stored = {{Value::Int(1)}, {Value::Int(2)}};
  ExecContext ctx;
  MatViewScanOp scan(&stored, TableBit(0));
  EXPECT_EQ(Canon(stored), Canon(Drain(&scan, &ctx)));
}

// ------------------------------------------------------------- Temp/Sort.

TEST_F(OperatorTest, TempPreservesRowsAndHarvests) {
  ExecContext ctx;
  TempOp temp(ScanLeft(), TableBit(0));
  const std::vector<Row> rows = Drain(&temp, &ctx);
  EXPECT_EQ(40u, rows.size());
  HarvestedResult info;
  ASSERT_TRUE(temp.HarvestInfo(&info));
  EXPECT_TRUE(info.complete);
  EXPECT_EQ(40, info.count);
  EXPECT_EQ(TableBit(0), info.table_set);
  ASSERT_NE(nullptr, info.rows);
  EXPECT_EQ(40u, info.rows->size());
  // Registered itself for harvesting.
  ASSERT_EQ(1u, ctx.materializers.size());
}

TEST_F(OperatorTest, SortOrdersAscending) {
  ExecContext ctx;
  SortOp sort(ScanLeft(), {SortKey{0, false}, SortKey{1, false}},
              TableBit(0));
  const std::vector<Row> rows = Drain(&sort, &ctx);
  ASSERT_EQ(40u, rows.size());
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
  }
}

TEST_F(OperatorTest, SortDescending) {
  ExecContext ctx;
  SortOp sort(ScanLeft(), {SortKey{1, true}}, TableBit(0));
  const std::vector<Row> rows = Drain(&sort, &ctx);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].AsInt(), rows[i][1].AsInt());
  }
}

// Property: external sort (tiny memory, spilled runs + merge) produces the
// same ordering as in-memory sort, for various memory budgets.
class SortSpillTest : public ::testing::TestWithParam<int> {};

TEST_P(SortSpillTest, ExternalSortMatchesInMemory) {
  Table t("t", Schema({{"v", ValueType::kInt}}));
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    t.AppendRow({Value::Int(rng.UniformInt(0, 100))});
  }
  auto run = [&](int64_t mem) {
    ExecContext ctx;
    ctx.mem_rows = mem;
    SortOp sort(std::make_unique<TableScanOp>(
                    &t, 0, std::vector<ResolvedPredicate>{}),
                {SortKey{0, false}}, TableBit(0));
    return Drain(&sort, &ctx);
  };
  const std::vector<Row> in_memory = run(1 << 20);
  const std::vector<Row> external = run(GetParam());
  ASSERT_EQ(in_memory.size(), external.size());
  for (size_t i = 0; i < in_memory.size(); ++i) {
    EXPECT_EQ(in_memory[i][0], external[i][0]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, SortSpillTest,
                         ::testing::Values(1, 3, 7, 16, 63, 128, 499));

// ------------------------------------------------------------------ HSJN.

TEST_F(OperatorTest, HsjnInMemoryJoin) {
  const std::vector<Row> rows = ReferenceJoin();
  // Each left row with key < 5 matches 5 right rows: 20 * 5 = 100.
  EXPECT_EQ(100u, rows.size());
  // Output layout is canonical: left columns then right columns.
  for (const Row& r : rows) {
    ASSERT_EQ(4u, r.size());
    EXPECT_EQ(r[0], r[2]);  // Join keys equal.
  }
}

class HsjnSpillTest : public ::testing::TestWithParam<int> {};

TEST_P(HsjnSpillTest, PartitionedJoinMatchesInMemory) {
  JoinFixture fixture;
  const std::vector<Row> expected = fixture.ReferenceJoin();
  ExecContext ctx;
  ctx.mem_rows = GetParam();  // Below build size: forces partitioning.
  HsjnOp join(fixture.ScanLeft(), fixture.ScanRight(), {0}, {0},
              fixture.JoinMerge(), TableBit(0) | TableBit(1), CheckSpec{},
              false);
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, HsjnSpillTest,
                         ::testing::Values(1, 2, 5, 10, 24));

TEST_F(OperatorTest, HsjnEmptyBuild) {
  ExecContext ctx;
  ResolvedPredicate never{0, PredKind::kEq, Value::Int(-1), {}, {}};
  HsjnOp join(ScanLeft(), ScanRight({never}), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1), CheckSpec{}, false);
  EXPECT_TRUE(Drain(&join, &ctx).empty());
}

TEST_F(OperatorTest, HsjnBuildCheckFires) {
  ExecContext ctx;
  CheckSpec check;
  check.enabled = true;
  check.lo = 0;
  check.hi = 10;  // Build has 25 rows: violated.
  check.edge_set = TableBit(1);
  HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1), check, false);
  EXPECT_EQ(ExecStatus::kReoptimize, join.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_EQ(25, ctx.reopt.observed_rows);
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(TableBit(1), ctx.reopt.edge_set);
}

TEST_F(OperatorTest, HsjnHarvestOffersBuildOnlyWhenEnabled) {
  for (const bool offer : {false, true}) {
    ExecContext ctx;
    HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
                TableBit(0) | TableBit(1), CheckSpec{}, offer);
    Drain(&join, &ctx);
    HarvestedResult info;
    ASSERT_TRUE(join.HarvestInfo(&info));
    EXPECT_TRUE(info.complete);
    EXPECT_EQ(25, info.count);
    EXPECT_EQ(offer, info.rows != nullptr);
  }
}

// ------------------------------------------------------------------ MGJN.

TEST_F(OperatorTest, MgjnMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  auto lsort =
      std::make_unique<SortOp>(ScanLeft(), std::vector<SortKey>{{0, false}},
                               TableBit(0));
  auto rsort =
      std::make_unique<SortOp>(ScanRight(), std::vector<SortKey>{{0, false}},
                               TableBit(1));
  MgjnOp join(std::move(lsort), std::move(rsort), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, MgjnEmptySide) {
  ExecContext ctx;
  ResolvedPredicate never{0, PredKind::kEq, Value::Int(-1), {}, {}};
  auto lsort = std::make_unique<SortOp>(
      ScanLeft({never}), std::vector<SortKey>{{0, false}}, TableBit(0));
  auto rsort = std::make_unique<SortOp>(
      ScanRight(), std::vector<SortKey>{{0, false}}, TableBit(1));
  MgjnOp join(std::move(lsort), std::move(rsort), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_TRUE(Drain(&join, &ctx).empty());
}

// ------------------------------------------------------------------ NLJN.

TEST_F(OperatorTest, NljnScanInnerMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, NljnIndexInnerMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  const HashIndex index(right_, 0);
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  inner.index = &index;
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, NljnInnerLocalPredicates) {
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  inner.local_preds = {{1, PredKind::kGe, Value::Int(120), {}, {}}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  const std::vector<Row> rows = Drain(&join, &ctx);
  for (const Row& r : rows) EXPECT_GE(r[3].AsInt(), 120);
  EXPECT_EQ(20u, rows.size());  // right vals 120..124, keys 0..4: 20*1 each?
}

TEST_F(OperatorTest, NljnMatviewInner) {
  // Inner over a materialized view instead of a base table.
  std::vector<Row> mv_rows;
  for (int64_t i = 0; i < 25; ++i) {
    mv_rows.push_back({Value::Int(i % 5), Value::Int(100 + i)});
  }
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  InnerAccess inner;
  inner.mv_rows = &mv_rows;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

// --------------------------------------------------------------- HashAgg.

TEST_F(OperatorTest, HashAggCountSumMinMaxAvg) {
  ExecContext ctx;
  std::vector<ResolvedAgg> aggs = {{AggFunc::kCount, 0},
                                   {AggFunc::kSum, 1},
                                   {AggFunc::kMin, 1},
                                   {AggFunc::kMax, 1},
                                   {AggFunc::kAvg, 1}};
  HashAggOp agg(ScanLeft(), {0}, aggs);
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(10u, rows.size());  // 10 distinct keys.
  for (const Row& r : rows) {
    const int64_t key = r[0].AsInt();
    EXPECT_EQ(4, r[1].AsInt());  // 4 rows per key.
    // tags are key, key+10, key+20, key+30.
    EXPECT_DOUBLE_EQ(static_cast<double>(4 * key + 60), r[2].AsDouble());
    EXPECT_EQ(Value::Int(key), r[3]);
    EXPECT_EQ(Value::Int(key + 30), r[4]);
    EXPECT_DOUBLE_EQ(static_cast<double>(key) + 15.0, r[5].AsDouble());
  }
}

TEST_F(OperatorTest, HashAggGlobalAggregation) {
  ExecContext ctx;
  HashAggOp agg(ScanLeft(), {}, {{AggFunc::kCount, 0}});
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(Value::Int(40), rows[0][0]);
}

TEST_F(OperatorTest, HashAggIgnoresNullsInAggregates) {
  Table t("t", Schema({{"g", ValueType::kInt}, {"v", ValueType::kInt}}));
  t.AppendRow({Value::Int(1), Value::Int(10)});
  t.AppendRow({Value::Int(1), Value::Null()});
  ExecContext ctx;
  HashAggOp agg(std::make_unique<TableScanOp>(
                    &t, 0, std::vector<ResolvedPredicate>{}),
                {0}, {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}});
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(1u, rows.size());
  EXPECT_DOUBLE_EQ(10.0, rows[0][1].AsDouble());
  EXPECT_EQ(Value::Int(2), rows[0][2]);  // COUNT counts rows.
}

// -------------------------------------------------------- Project/Filter.

TEST_F(OperatorTest, ProjectSelectsPositions) {
  ExecContext ctx;
  ProjectOp project(ScanLeft(), {1});
  const std::vector<Row> rows = Drain(&project, &ctx);
  ASSERT_EQ(40u, rows.size());
  EXPECT_EQ(1u, rows[0].size());
}

TEST_F(OperatorTest, FilterDropsRows) {
  ExecContext ctx;
  FilterOp filter(ScanLeft(),
                  {{0, PredKind::kLt, Value::Int(2), {}, {}}}, TableBit(0));
  EXPECT_EQ(8u, Drain(&filter, &ctx).size());
}

// ----------------------------------------------------------------- CHECK.

CheckSpec MakeCheck(double lo, double hi, bool observe = false) {
  CheckSpec c;
  c.enabled = true;
  c.lo = lo;
  c.hi = hi;
  c.edge_set = TableBit(0);
  c.observe_only = observe;
  return c;
}

TEST_F(OperatorTest, CheckPassesWithinRange) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(10, 100));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_FALSE(ctx.check_events[0].fired);
  EXPECT_EQ(40, ctx.check_events[0].count);
}

TEST_F(OperatorTest, CheckFiresAboveUpperBoundWithLowerBoundSignal) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(9u, rows.size());  // Fired while processing the 10th row.
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_FALSE(ctx.reopt.exact);  // Count is only a lower bound.
  EXPECT_EQ(10, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckFiresBelowLowerBoundAtEofExactly) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(50, 1e9));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(40u, rows.size());  // Everything flowed; violation at EOF.
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckObserveOnlyNeverFires) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(0, 1, /*observe=*/true));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
}

TEST_F(OperatorTest, CheckMaterializedEvaluatesOnceAtOpen) {
  ExecContext ctx;
  auto temp = std::make_unique<TempOp>(ScanLeft(), TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 10));
  EXPECT_EQ(ExecStatus::kReoptimize, check.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckMaterializedPassesAndStreams) {
  ExecContext ctx;
  auto temp = std::make_unique<TempOp>(ScanLeft(), TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 100));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
}

// ----------------------------------------- CHECK at batch boundaries.

TEST_F(OperatorTest, CheckBatchMidBatchViolationFiresOnceAtBoundary) {
  // Batch size 1 reference: hi = 9.5 over a 40-row scan emits 9 rows, then
  // fires while processing the 10th (observed_rows = 10, inexact). Larger
  // batches must do exactly the same even when the threshold row sits
  // mid-batch, and evaluate once per batch, not per row.
  ExecContext row_ctx;
  std::vector<Row> row_rows;
  {
    CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
    ExecStatus s;
    row_rows = DrainBatches(&check, &row_ctx, &s);
    EXPECT_EQ(ExecStatus::kReoptimize, s);
  }

  for (const int64_t batch_rows : {2, 3, 8, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
    ExecStatus s;
    const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
    EXPECT_EQ(ExecStatus::kReoptimize, s);
    // Bit-identical emitted prefix (values and order).
    ASSERT_EQ(row_rows.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(row_rows[i], rows[i]);
    // Same re-opt decision payload.
    EXPECT_TRUE(ctx.reopt.triggered);
    EXPECT_FALSE(ctx.reopt.exact);
    EXPECT_EQ(row_ctx.reopt.observed_rows, ctx.reopt.observed_rows);
    // Fired exactly once, with batch size 1's observed count.
    ASSERT_EQ(1u, ctx.check_events.size());
    EXPECT_TRUE(ctx.check_events[0].fired);
    EXPECT_EQ(row_ctx.check_events[0].count, ctx.check_events[0].count);
    // The child's produced-row accounting was reconciled to consumed rows.
    EXPECT_EQ(10, check.children()[0]->rows_produced());
    EXPECT_EQ(9, check.rows_produced());
  }
}

TEST_F(OperatorTest, CheckBatchObserveOnlyRecordsRowExactCount) {
  ExecContext ctx;
  ctx.batch_rows = 8;
  CheckOp check(ScanLeft(), MakeCheck(0, 9.5, /*observe=*/true));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());  // Observation never truncates.
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
  EXPECT_EQ(10, ctx.check_events[0].count);  // Row-exact count at the fire.
}

TEST_F(OperatorTest, CheckBatchLowerBoundFiresAtEofExactly) {
  ExecContext ctx;
  ctx.batch_rows = 16;
  CheckOp check(ScanLeft(), MakeCheck(50, 1e9));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(40u, rows.size());  // Everything flowed; violation at EOF.
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, BufCheckBatchDrainFiresWithRowExactCount) {
  // BUFCHECK buffers like a valve: on a finite-hi violation nothing was
  // emitted and the count is a lower bound through the violating row.
  ExecContext ctx;
  ctx.batch_rows = 8;
  BufCheckOp check(ScanLeft(), MakeCheck(0, 9.5));
  EXPECT_EQ(ExecStatus::kReoptimize, check.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_FALSE(ctx.reopt.exact);
  EXPECT_EQ(10, ctx.reopt.observed_rows);
  EXPECT_EQ(10, check.children()[0]->rows_produced());
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
  EXPECT_EQ(10, ctx.check_events[0].count);
}

TEST_F(OperatorTest, BufCheckBatchValvePassesAndServesBatches) {
  // [lo, inf) succeeds mid-stream; the batched consumer must see all rows
  // (buffered prefix then pass-through) exactly like batch size 1.
  ExecContext ctx;
  ctx.batch_rows = 8;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BufCheckOp check(ScanLeft(), MakeCheck(5, kInf));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_FALSE(ctx.check_events[0].fired);
  EXPECT_EQ(5, ctx.check_events[0].count);  // Released at the lo-th row.
}

TEST_F(OperatorTest, CheckMaterializedStreamsBatchesAfterOpenEvaluation) {
  ExecContext ctx;
  ctx.batch_rows = 8;
  auto temp = std::make_unique<TempOp>(ScanLeft(), TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 100));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_FALSE(ctx.reopt.triggered);
}

TEST_F(OperatorTest, BatchWorkChargesMatchBatchSizeOne) {
  // ctx.work parity is what keeps WORKBOUND decisions and check-event
  // work columns batch-size-invariant; spot-check it on a scan drain.
  ExecContext row_ctx;
  {
    auto scan = ScanLeft();
    Drain(scan.get(), &row_ctx);
  }
  ExecContext batch_ctx;
  batch_ctx.batch_rows = 7;
  auto scan = ScanLeft();
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(scan.get(), &batch_ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_EQ(row_ctx.work, batch_ctx.work);
}

// -------------------------------- One pull rule: batch size 1 is exact.

/// What a drained plan leaves behind that must not depend on the batch
/// size.
struct PlanOutcome {
  ExecStatus status = ExecStatus::kOk;
  std::vector<Row> rows;  ///< Emitted prefix, in order.
  int64_t observed_rows = 0;
  bool exact = false;  ///< ReoptSignal::exact.
  std::vector<int64_t> rows_produced;  ///< Per operator, in pre-order.
  int64_t work = 0;
  /// (count, work_first, work_eval, fired) per checkpoint evaluation.
  std::vector<std::tuple<int64_t, int64_t, int64_t, bool>> events;
};

void CollectRowsProduced(const Operator* op, std::vector<int64_t>* out) {
  out->push_back(op->rows_produced());
  for (const Operator* child : op->children()) CollectRowsProduced(child, out);
}

PlanOutcome RunPlan(Operator* root, int64_t batch_rows) {
  ExecContext ctx;
  ctx.batch_rows = batch_rows;
  PlanOutcome o;
  o.status = root->Open(&ctx);
  if (o.status == ExecStatus::kOk) {
    RowBatch batch;
    while ((o.status = root->NextBatch(&ctx, &batch)) == ExecStatus::kRow) {
      batch.MoveRowsInto(&o.rows);
    }
  }
  root->Close(&ctx);
  o.observed_rows = ctx.reopt.observed_rows;
  o.exact = ctx.reopt.exact;
  CollectRowsProduced(root, &o.rows_produced);
  o.work = ctx.work;
  for (const CheckEvent& ev : ctx.check_events) {
    o.events.emplace_back(ev.count, ev.work_first, ev.work_eval, ev.fired);
  }
  return o;
}

/// Runs the plan `make` builds at batch sizes 1, 2, 3, 7 and 1024 and
/// expects every size to match batch size 1, whose outcome it returns.
PlanOutcome ExpectSameAsBatchSizeOne(
    const std::function<std::unique_ptr<Operator>()>& make) {
  PlanOutcome reference;
  for (const int64_t batch_rows : {1, 2, 3, 7, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    const std::unique_ptr<Operator> root = make();
    PlanOutcome o = RunPlan(root.get(), batch_rows);
    if (batch_rows == 1) {
      reference = std::move(o);
      continue;
    }
    EXPECT_EQ(reference.status, o.status);
    EXPECT_EQ(reference.rows, o.rows);
    EXPECT_EQ(reference.observed_rows, o.observed_rows);
    EXPECT_EQ(reference.exact, o.exact);
    EXPECT_EQ(reference.rows_produced, o.rows_produced);
    EXPECT_EQ(reference.work, o.work);
    EXPECT_EQ(reference.events, o.events);
  }
  return reference;
}

/// HSJN or NLJN of `outer` with the right table on key = key.
std::unique_ptr<Operator> JoinRight(JoinFixture* f, bool hash_join,
                                    std::unique_ptr<Operator> outer) {
  if (hash_join) {
    return std::make_unique<HsjnOp>(
        std::move(outer), f->ScanRight(), std::vector<int>{0},
        std::vector<int>{0}, f->JoinMerge(), TableBit(0) | TableBit(1),
        CheckSpec{}, false);
  }
  InnerAccess inner;
  inner.table = &f->right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  return std::make_unique<NljnOp>(std::move(outer), std::move(inner),
                                  f->JoinMerge(), TableBit(0) | TableBit(1));
}

TEST_F(OperatorTest, CheckAboveJoinsMatchesBatchSizeOne) {
  // An enforced CHECK bounds its subtree to the rows before the violation,
  // and a join then reads its outer (probe) side one row at a time and
  // emits no more than its target. Every left row with key < 5 matches 5
  // right rows (keys 5..9 match none). hi = 11.5 fires on the 12th output
  // row, the second match of the third matching outer row: the CHECK emits
  // 11 rows, and the join and its outer scan produce exactly the 12 output
  // rows and 3 outer rows batch size 1 consumed.
  ResolvedPredicate matching{0, PredKind::kLt, Value::Int(5), {}, {}};
  for (const bool hash_join : {true, false}) {
    for (const bool all_outer_rows_match : {true, false}) {
      SCOPED_TRACE(std::string(hash_join ? "HSJN" : "NLJN") +
                   " all_outer_rows_match=" +
                   std::to_string(all_outer_rows_match));
      const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
        return std::make_unique<CheckOp>(
            JoinRight(this, hash_join,
                      all_outer_rows_match ? ScanLeft({matching})
                                           : ScanLeft()),
            MakeCheck(0, 11.5));
      });
      EXPECT_EQ(ExecStatus::kReoptimize, o.status);
      EXPECT_EQ(11u, o.rows.size());
      EXPECT_EQ(12, o.observed_rows);
      EXPECT_FALSE(o.exact);
      // CHECK, join, outer scan (and the HSJN build scan).
      EXPECT_EQ(11, o.rows_produced[0]);
      EXPECT_EQ(12, o.rows_produced[1]);
      EXPECT_EQ(3, o.rows_produced[2]);
    }
  }
}

TEST_F(OperatorTest, CheckAboveFilterOrProjectAboveJoinMatchesBatchSizeOne) {
  // A FILTER or PROJECT between the CHECK and the join passes the bound
  // through, so the join below reads no probe row ahead of the decision.
  ResolvedPredicate low_val{3, PredKind::kLt, Value::Int(120), {}, {}};
  for (const bool hash_join : {true, false}) {
    for (const bool filter : {true, false}) {
      SCOPED_TRACE(std::string(hash_join ? "HSJN" : "NLJN") +
                   (filter ? " FILTER" : " PROJECT"));
      const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
        std::unique_ptr<Operator> join =
            JoinRight(this, hash_join, ScanLeft());
        std::unique_ptr<Operator> mid;
        if (filter) {
          mid = std::make_unique<FilterOp>(
              std::move(join), std::vector<ResolvedPredicate>{low_val},
              TableBit(0) | TableBit(1));
        } else {
          mid = std::make_unique<ProjectOp>(std::move(join),
                                            std::vector<int>{1, 3});
        }
        return std::make_unique<CheckOp>(std::move(mid), MakeCheck(0, 11.5));
      });
      EXPECT_EQ(ExecStatus::kReoptimize, o.status);
      EXPECT_EQ(11u, o.rows.size());
      EXPECT_EQ(12, o.observed_rows);
    }
  }
}

TEST_F(OperatorTest, CheckAboveJoinWithFilteredProbeMatchesBatchSizeOne) {
  // A FILTER on the probe (outer) side receives the join's one-row pulls,
  // so its scan reads no row ahead of the decision either.
  ResolvedPredicate odd_tag{1, PredKind::kGe, Value::Int(13), {}, {}};
  for (const bool hash_join : {true, false}) {
    SCOPED_TRACE(hash_join ? "HSJN" : "NLJN");
    const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
      auto probe = std::make_unique<FilterOp>(
          ScanLeft(), std::vector<ResolvedPredicate>{odd_tag}, TableBit(0));
      return std::make_unique<CheckOp>(
          JoinRight(this, hash_join, std::move(probe)), MakeCheck(0, 11.5));
    });
    EXPECT_EQ(ExecStatus::kReoptimize, o.status);
    EXPECT_EQ(11u, o.rows.size());
  }
}

TEST_F(OperatorTest, CheckUnderTempAboveJoinRecordsBatchSizeOneWork) {
  // The consumer above a checkpoint charges each row it takes in; the
  // deciding row arrives alone, so the event's work positions include the
  // consumer's charges for every earlier row, as at batch size 1. Both
  // the enforced and the observed flavor.
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observe" : "enforce");
    const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
      return std::make_unique<TempOp>(
          std::make_unique<CheckOp>(JoinRight(this, true, ScanLeft()),
                                    MakeCheck(0, 11.5, observe)),
          TableBit(0) | TableBit(1));
    });
    ASSERT_EQ(1u, o.events.size());
    EXPECT_TRUE(std::get<3>(o.events[0]));
    EXPECT_EQ(12, std::get<0>(o.events[0]));
  }
}

TEST_F(OperatorTest, BufCheckAboveNljnFiresAsAtBatchSizeOne) {
  // An enforced BUFCHECK (ECB) drains the NLJN one outer row at a time up
  // to the violating row, also under a TEMP (LCEM above ECB).
  for (const bool temp : {false, true}) {
    SCOPED_TRACE(temp ? "TEMP" : "bare");
    const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
      std::unique_ptr<Operator> check = std::make_unique<BufCheckOp>(
          JoinRight(this, false, ScanLeft()), MakeCheck(0, 11.5));
      if (!temp) return check;
      return std::unique_ptr<Operator>(
          std::make_unique<TempOp>(std::move(check), TableBit(0)));
    });
    EXPECT_EQ(ExecStatus::kReoptimize, o.status);
    EXPECT_EQ(12, o.observed_rows);
  }
}

TEST_F(OperatorTest, WorkBoundAboveHsjnFiresAsAtBatchSizeOne) {
  // WORKBOUND compares the work after every row, its consumers' charges
  // included: it reads and emits one row at a time whatever the batch
  // size, under a charging PROJECT as well as bare.
  for (const bool project : {false, true}) {
    SCOPED_TRACE(project ? "PROJECT" : "bare");
    const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
      std::unique_ptr<Operator> bound = std::make_unique<WorkBoundOp>(
          JoinRight(this, true, ScanLeft()), /*work_budget=*/100,
          TableBit(0) | TableBit(1));
      if (!project) return bound;
      return std::unique_ptr<Operator>(std::make_unique<ProjectOp>(
          std::move(bound), std::vector<int>{0, 3}));
    });
    EXPECT_EQ(ExecStatus::kReoptimize, o.status);
    EXPECT_GT(o.observed_rows, 0);
    EXPECT_LT(o.observed_rows, 100);  // Fired mid-stream.
  }
}

TEST_F(OperatorTest, BufCheckValveAboveHsjnReleasesAtLowerBound) {
  // A [lo, inf) valve bounds its child to the rows before lo, and the
  // in-memory HSJN probe emits no more than that. The checkpoint event
  // records the count at the release row, as at batch size 1, and every
  // joined row comes through.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
    return std::make_unique<BufCheckOp>(JoinRight(this, true, ScanLeft()),
                                        MakeCheck(7, kInf));
  });
  EXPECT_EQ(ExecStatus::kEof, o.status);
  EXPECT_EQ(ReferenceJoin(), o.rows);
  ASSERT_EQ(1u, o.events.size());
  EXPECT_FALSE(std::get<3>(o.events[0]));
  EXPECT_EQ(7, std::get<0>(o.events[0]));  // Released at the lo-th row.
}

TEST_F(OperatorTest, MgjnPullsSortedInputsRowByRow) {
  // MGJN reads both sorted inputs one row at a time whatever the batch
  // size, so a CHECK firing above it sees the same rows, the same work and
  // the same input consumption as at batch size 1.
  const PlanOutcome o = ExpectSameAsBatchSizeOne([&] {
    return std::make_unique<CheckOp>(
        std::make_unique<MgjnOp>(
            std::make_unique<SortOp>(
                ScanLeft(), std::vector<SortKey>{{0, false}}, TableBit(0)),
            std::make_unique<SortOp>(
                ScanRight(), std::vector<SortKey>{{0, false}}, TableBit(1)),
            std::vector<int>{0}, std::vector<int>{0}, JoinMerge(),
            TableBit(0) | TableBit(1)),
        MakeCheck(0, 11.5));
  });
  EXPECT_EQ(ExecStatus::kReoptimize, o.status);
  EXPECT_EQ(11u, o.rows.size());
  // Key 0 has 4 left and 5 right rows; the 12th match is the third left
  // row's second. MGJN has read 3 left rows and the 5-row right group
  // plus the first right row of key 1. Pre-order: CHECK, MGJN, left SORT,
  // its scan, right SORT, its scan.
  ASSERT_EQ(6u, o.rows_produced.size());
  EXPECT_EQ(3, o.rows_produced[2]);
  EXPECT_EQ(6, o.rows_produced[4]);
}

// ------------------------------------------------- RidTrack/AntiCompensate.

TEST_F(OperatorTest, RidTrackRecordsReturnedRows) {
  ExecContext ctx;
  RidTrackOp track(ScanLeft(), TableBit(0));
  EXPECT_EQ(40u, Drain(&track, &ctx).size());
  EXPECT_EQ(40u, ctx.returned_rows.size());
}

TEST_F(OperatorTest, AntiCompensateSuppressesMultisetOnce) {
  // Previously returned: two copies of one row, one of another.
  const Row a = {Value::Int(0), Value::Int(0)};
  const Row b = {Value::Int(1), Value::Int(1)};
  std::vector<Row> previous = {a, a, b};
  ExecContext ctx;
  AntiCompensateOp comp(ScanLeft(), previous, TableBit(0));
  const std::vector<Row> rows = Drain(&comp, &ctx);
  // left has exactly one copy of each (key=i%10, tag=i) pair; rows a and b
  // occur once each, so one 'a' and one 'b' are suppressed, leaving 38.
  EXPECT_EQ(38u, rows.size());
  for (const Row& r : rows) {
    EXPECT_NE(Canon({a})[0], RowToString(r));
    EXPECT_NE(Canon({b})[0], RowToString(r));
  }
}

TEST_F(OperatorTest, AntiCompensateEmptySideTablePassesEverything) {
  ExecContext ctx;
  AntiCompensateOp comp(ScanLeft(), {}, TableBit(0));
  EXPECT_EQ(40u, Drain(&comp, &ctx).size());
}

}  // namespace
}  // namespace popdb
