#ifndef POPDB_EXEC_BATCH_H_
#define POPDB_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/value.h"
#include "exec/layout.h"

namespace popdb {

/// Caps a per-batch row count so the payload (`width` columns of Value)
/// stays within a fixed byte budget. Wide batches otherwise outgrow the
/// cache between fill and consumption and the gather/scatter loops of
/// vectorized operators go memory-bound; narrow batches keep the full
/// count. Never returns more than `rows`.
inline int64_t CapBatchRowsForWidth(int64_t rows, int width) {
  if (width <= 0) return rows;
  constexpr int64_t kBatchTargetBytes = 160 * 1024;
  constexpr int64_t kMinWideRows = 64;
  const int64_t cap = kBatchTargetBytes /
                      (static_cast<int64_t>(width) *
                       static_cast<int64_t>(sizeof(Value)));
  const int64_t scaled = cap > kMinWideRows ? cap : kMinWideRows;
  return scaled < rows ? scaled : rows;
}

/// Column-oriented batch of rows exchanged between operators
/// (ExecContext::batch_rows rows per batch). Values are stored per column
/// (`cols[c][r]`), and an optional selection vector marks the active subset
/// without moving data: filters narrow `sel` in place, so a batch flows
/// through a pipeline with one copy at the producer.
///
/// Invariants:
///  - without a selection (`use_sel == false`) the active rows are raw rows
///    [0, num_rows);
///  - with a selection, `sel` lists active raw-row indices in ascending
///    order (a subsequence of [0, num_rows));
///  - columns may hold live elements past `num_rows`: Clear/Reset keep them
///    as a reuse pool so refilling a batch assigns over prior elements
///    (reusing their heap storage, e.g. string buffers) instead of
///    destroying and reallocating per batch. Consumers must therefore
///    iterate active indices only, never raw column sizes.
struct RowBatch {
  std::vector<std::vector<Value>> cols;
  std::vector<int32_t> sel;
  bool use_sel = false;
  int64_t num_rows = 0;
  /// Expected rows per fill (the producer's batch target), set by the
  /// NextBatch wrapper. Reset/AppendRow reserve this much column capacity
  /// up front so a fresh batch does one allocation per column instead of
  /// doubling growth — short executions never amortize the doubling.
  int64_t reserve_hint = 0;

  int width() const { return static_cast<int>(cols.size()); }

  /// Number of active (selected) rows.
  int64_t ActiveRows() const {
    return use_sel ? static_cast<int64_t>(sel.size()) : num_rows;
  }

  /// Raw row index of the i-th active row.
  int32_t RawIndex(int64_t i) const {
    return use_sel ? sel[static_cast<size_t>(i)] : static_cast<int32_t>(i);
  }

  /// Value at `col` for the i-th active row.
  const Value& At(int col, int64_t i) const {
    return cols[static_cast<size_t>(col)][static_cast<size_t>(RawIndex(i))];
  }

  /// Drops all rows and the selection but keeps column capacity; resizes to
  /// `width` columns (pass the producer's output width).
  void Reset(int width);

  /// Like Reset but keeps the current column count (width learned from the
  /// first appended row).
  void Clear();

  /// Appends a copy of `row` as a new active raw row. On the first append
  /// into an empty batch the column count adapts to the row width.
  void AppendRow(const Row& row);

  /// Appends `row` by moving its values.
  void AppendRowMove(Row&& row);

  /// Writes `v` at (col, row) where `row` is the next unwritten raw row of
  /// that column: assigns over a pooled element when one exists, appends
  /// otherwise. Producers filling column-wise use these and then set
  /// `num_rows` themselves.
  void PutCopy(int col, int64_t row, const Value& v) {
    std::vector<Value>& dst = cols[static_cast<size_t>(col)];
    if (static_cast<size_t>(row) < dst.size()) {
      dst[static_cast<size_t>(row)].AssignFrom(v);
    } else {
      dst.push_back(v);
    }
  }
  void PutMove(int col, int64_t row, Value&& v) {
    std::vector<Value>& dst = cols[static_cast<size_t>(col)];
    if (static_cast<size_t>(row) < dst.size()) {
      dst[static_cast<size_t>(row)].AssignFrom(std::move(v));
    } else {
      dst.push_back(std::move(v));
    }
  }

  /// Materializes the i-th active row into `*out` (copying values).
  void MaterializeRow(int64_t i, Row* out) const;

  /// Moves every active row into `*out` (row-major), then clears the batch.
  void MoveRowsInto(std::vector<Row>* out);

  /// Keeps only the first `k` active rows.
  void TruncateActive(int64_t k);

  /// Materializes an explicit selection vector (identity if none existed)
  /// so callers can narrow it in place.
  void EnsureSel();

 private:
  /// Grows each column's capacity to `reserve_hint` (never shrinks).
  void ApplyReserveHint();
};

}  // namespace popdb

#endif  // POPDB_EXEC_BATCH_H_
