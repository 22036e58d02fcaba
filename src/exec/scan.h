#ifndef POPDB_EXEC_SCAN_H_
#define POPDB_EXEC_SCAN_H_

#include <utility>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace popdb {

/// Sequential scan over a base table, applying resolved local predicates.
/// Output layout is the table's own columns (canonical for a singleton
/// table set). An optional rid range [begin_rid, end_rid) restricts the
/// scan to one morsel of the table (exec/parallel.h); end_rid < 0 means
/// "through the last row".
///
/// The scan reads a pinned TableSnapshot, so concurrent writes are
/// invisible: rows tombstoned in the snapshot are skipped, rows appended
/// after the pin don't exist in it. The builder passes the query's shared
/// snapshot (one pin per table per query, consistent across re-opt
/// attempts); the Table* convenience ctor pins its own.
class TableScanOp : public Operator {
 public:
  TableScanOp(TableSnapshot snapshot, int table_id,
              std::vector<ResolvedPredicate> preds, int64_t begin_rid = 0,
              int64_t end_rid = -1)
      : Operator(TableBit(table_id)),
        snapshot_(std::move(snapshot)),
        preds_(std::move(preds)),
        begin_rid_(begin_rid),
        end_rid_(end_rid) {}

  TableScanOp(const Table* table, int table_id,
              std::vector<ResolvedPredicate> preds, int64_t begin_rid = 0,
              int64_t end_rid = -1)
      : TableScanOp(table->Snapshot(), table_id, std::move(preds), begin_rid,
                    end_rid) {}

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "TBSCAN"; }

 private:
  TableSnapshot snapshot_;
  std::vector<ResolvedPredicate> preds_;
  int64_t begin_rid_ = 0;
  int64_t end_rid_ = -1;   ///< Exclusive; negative = snapshot size.
  int64_t next_rid_ = 0;
  int64_t stop_rid_ = 0;   ///< Resolved end bound (set at Open).
};

/// Scan over an in-memory row vector (a temporary materialized view created
/// by a previous execution step). The rows already carry the canonical
/// layout for `table_set`.
class MatViewScanOp : public Operator {
 public:
  MatViewScanOp(const std::vector<Row>* rows, TableSet table_set)
      : Operator(table_set), rows_(rows) {}

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "MVSCAN"; }

 private:
  const std::vector<Row>* rows_;
  size_t next_ = 0;
};

}  // namespace popdb

#endif  // POPDB_EXEC_SCAN_H_
