// Micro-benchmark (google-benchmark): per-row overhead of the CHECK
// operator family. The paper reports that for queries that never
// re-optimize, POP's only cost is counting rows at each CHECK and
// comparing against the range — about 2-3% of total execution time
// (Sections 1, 5.2). This benchmark isolates that per-row cost, pulling
// through NextBatch at batch size 1 (one row per call) and at the
// production batch size of 1024 (the benchmark argument). Two more drains
// measure the operators that read their inputs one row at a time at every
// batch size: MGJN over two sorts and WORKBOUND over a scan.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "exec/check.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace popdb {
namespace {

constexpr int64_t kRows = 100000;

const Table& TestTable() {
  static Table* table = [] {
    auto* t = new Table("t", Schema({{"a", ValueType::kInt},
                                     {"b", ValueType::kInt}}));
    Rng rng(3);
    for (int64_t i = 0; i < kRows; ++i) {
      t->AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 999))});
    }
    return t;
  }();
  return *table;
}

int64_t Drain(Operator* op, int64_t batch_rows) {
  ExecContext ctx;
  ctx.batch_rows = batch_rows;
  int64_t rows = 0;
  ExecStatus s = op->Open(&ctx);
  POPDB_DCHECK(s == ExecStatus::kOk);
  RowBatch batch;
  while ((s = op->NextBatch(&ctx, &batch)) == ExecStatus::kRow) {
    rows += batch.ActiveRows();
  }
  op->Close(&ctx);
  POPDB_DCHECK(s == ExecStatus::kEof);
  return rows;
}

std::unique_ptr<TableScanOp> Scan() {
  return std::make_unique<TableScanOp>(&TestTable(), 0,
                                       std::vector<ResolvedPredicate>{});
}

void BM_PlainScan(benchmark::State& state) {
  for (auto _ : state) {
    TableScanOp scan(&TestTable(), 0, {});
    benchmark::DoNotOptimize(Drain(&scan, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_PlainScan)->Arg(1)->Arg(1024);

void BM_ScanWithStreamingCheck(benchmark::State& state) {
  CheckSpec spec;
  spec.enabled = true;
  spec.lo = 0;
  spec.hi = 1e18;  // Never fires: measures pure counting overhead.
  spec.flavor = CheckFlavor::kEagerDeferredComp;
  for (auto _ : state) {
    CheckOp check(Scan(), spec);
    benchmark::DoNotOptimize(Drain(&check, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanWithStreamingCheck)->Arg(1)->Arg(1024);

void BM_ScanWithBufCheck(benchmark::State& state) {
  CheckSpec spec;
  spec.enabled = true;
  spec.lo = 0;
  spec.hi = 2 * kRows;  // Never fires; the valve buffers the whole input.
  spec.flavor = CheckFlavor::kEagerBuffered;
  for (auto _ : state) {
    BufCheckOp check(Scan(), spec);
    benchmark::DoNotOptimize(Drain(&check, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanWithBufCheck)->Arg(1)->Arg(1024);

void BM_ScanWithLazyCheckOverTemp(benchmark::State& state) {
  CheckSpec spec;
  spec.enabled = true;
  spec.lo = 0;
  spec.hi = 1e18;
  spec.flavor = CheckFlavor::kLazyEagerMat;
  for (auto _ : state) {
    CheckMaterializedOp check(std::make_unique<TempOp>(Scan(), TableBit(0)),
                              spec);
    benchmark::DoNotOptimize(Drain(&check, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanWithLazyCheckOverTemp)->Arg(1)->Arg(1024);

void BM_MgjnOverTwoSorts(benchmark::State& state) {
  // Self-join on the unique column a: one match per row on each side.
  const std::vector<int> widths = {2, 2};
  const MergeSpec merge = MergeSpec::Make(
      RowLayout(TableBit(0), widths), RowLayout(TableBit(1), widths),
      RowLayout(TableBit(0) | TableBit(1), widths), widths);
  for (auto _ : state) {
    MgjnOp join(
        std::make_unique<SortOp>(Scan(), std::vector<SortKey>{{0, false}},
                                 TableBit(0)),
        std::make_unique<SortOp>(
            std::make_unique<TableScanOp>(&TestTable(), 1,
                                          std::vector<ResolvedPredicate>{}),
            std::vector<SortKey>{{0, false}}, TableBit(1)),
        {0}, {0}, merge, TableBit(0) | TableBit(1));
    benchmark::DoNotOptimize(Drain(&join, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_MgjnOverTwoSorts)->Arg(1)->Arg(1024);

void BM_ScanWithWorkBound(benchmark::State& state) {
  for (auto _ : state) {
    WorkBoundOp bound(Scan(), /*work_budget=*/1e18, TableBit(0));
    benchmark::DoNotOptimize(Drain(&bound, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanWithWorkBound)->Arg(1)->Arg(1024);

}  // namespace
}  // namespace popdb

BENCHMARK_MAIN();
