#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

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

TEST_F(OperatorTest, CheckAboveJoinsMatchesBatchSizeOne) {
  // An enforced CHECK clamps its child to the rows left before the
  // violation, but a join reads its outer (probe) side in batches of that
  // size, and the in-memory HSJN probe also emits every match of each
  // probe row it pulls, past the clamp. Every left row with key < 5
  // matches 5 right rows (keys 5..9 match none). hi = 11.5 fires on the
  // 12th output row, the second match of the third matching outer row: the
  // CHECK emits 11 rows, and the join and its outer scan must account for
  // exactly the 12 output rows and 3 outer rows batch size 1 consumed.
  ResolvedPredicate matching{0, PredKind::kLt, Value::Int(5), {}, {}};
  for (const bool hash_join : {true, false}) {
    for (const bool all_outer_rows_match : {true, false}) {
      std::vector<Row> reference;
      for (const int64_t batch_rows : {1, 2, 3, 1024}) {
        SCOPED_TRACE(std::string(hash_join ? "HSJN" : "NLJN") +
                     " all_outer_rows_match=" +
                     std::to_string(all_outer_rows_match) +
                     " batch_rows=" + std::to_string(batch_rows));
        ExecContext ctx;
        ctx.batch_rows = batch_rows;
        auto outer = all_outer_rows_match ? ScanLeft({matching}) : ScanLeft();
        const Operator* outer_scan = outer.get();
        std::unique_ptr<Operator> join;
        if (hash_join) {
          join = std::make_unique<HsjnOp>(
              std::move(outer), ScanRight(), std::vector<int>{0},
              std::vector<int>{0}, JoinMerge(), TableBit(0) | TableBit(1),
              CheckSpec{}, false);
        } else {
          InnerAccess inner;
          inner.table = &right_;
          inner.table_id = 1;
          inner.join_conds = {{0, 0}};
          join = std::make_unique<NljnOp>(std::move(outer), std::move(inner),
                                          JoinMerge(),
                                          TableBit(0) | TableBit(1));
        }
        const Operator* join_op = join.get();
        CheckOp check(std::move(join), MakeCheck(0, 11.5));
        ExecStatus s;
        const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
        EXPECT_EQ(ExecStatus::kReoptimize, s);
        if (batch_rows == 1) reference = rows;
        EXPECT_EQ(11u, rows.size());
        EXPECT_EQ(reference, rows);  // Same emitted prefix, in order.
        EXPECT_EQ(12, ctx.reopt.observed_rows);
        EXPECT_FALSE(ctx.reopt.exact);
        EXPECT_EQ(12, join_op->rows_produced());
        EXPECT_EQ(3, outer_scan->rows_produced());
        EXPECT_EQ(11, check.rows_produced());
      }
    }
  }
}

TEST_F(OperatorTest, BufCheckValveAboveHsjnReleasesAtLowerBound) {
  // A [lo, inf) valve clamps its child to the rows left before lo, but the
  // in-memory HSJN probe emits all 5 matches of every probe row it pulls.
  // The checkpoint event must still record the count at the release row,
  // as at batch size 1, and every joined row must come through.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const int64_t batch_rows : {1, 2, 3, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    BufCheckOp check(std::make_unique<HsjnOp>(
                         ScanLeft(), ScanRight(), std::vector<int>{0},
                         std::vector<int>{0}, JoinMerge(),
                         TableBit(0) | TableBit(1), CheckSpec{}, false),
                     MakeCheck(7, kInf));
    ExecStatus s;
    const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
    EXPECT_EQ(ExecStatus::kEof, s);
    EXPECT_EQ(ReferenceJoin(), rows);
    ASSERT_EQ(1u, ctx.check_events.size());
    EXPECT_FALSE(ctx.check_events[0].fired);
    EXPECT_EQ(7, ctx.check_events[0].count);  // Released at the lo-th row.
  }
}

TEST_F(OperatorTest, MgjnPullsSortedInputsRowByRow) {
  // MGJN reads both sorted inputs one row at a time whatever the batch
  // size, so a CHECK firing above it sees the same rows, the same work and
  // the same input consumption as at batch size 1.
  std::vector<Row> reference;
  int64_t reference_work = -1;
  for (const int64_t batch_rows : {1, 3, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    auto lsort = std::make_unique<SortOp>(
        ScanLeft(), std::vector<SortKey>{{0, false}}, TableBit(0));
    auto rsort = std::make_unique<SortOp>(
        ScanRight(), std::vector<SortKey>{{0, false}}, TableBit(1));
    const Operator* left = lsort.get();
    const Operator* right = rsort.get();
    CheckOp check(std::make_unique<MgjnOp>(std::move(lsort), std::move(rsort),
                                           std::vector<int>{0},
                                           std::vector<int>{0}, JoinMerge(),
                                           TableBit(0) | TableBit(1)),
                  MakeCheck(0, 11.5));
    ExecStatus s;
    const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
    EXPECT_EQ(ExecStatus::kReoptimize, s);
    if (batch_rows == 1) {
      reference = rows;
      reference_work = ctx.work;
    }
    EXPECT_EQ(11u, rows.size());
    EXPECT_EQ(reference, rows);
    EXPECT_EQ(reference_work, ctx.work);
    // Key 0 has 4 left and 5 right rows; the 12th match is the third left
    // row's second. MGJN has read 3 left rows and the 5-row right group
    // plus the first right row of key 1.
    EXPECT_EQ(3, left->rows_produced());
    EXPECT_EQ(6, right->rows_produced());
  }
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
