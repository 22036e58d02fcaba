#include "exec/batch.h"

#include <algorithm>
#include <utility>

namespace popdb {

void RowBatch::ApplyReserveHint() {
  if (reserve_hint <= 0) return;
  // The hint is the producer's un-scaled batch target; cap it by the now
  // known column count so wide batches don't reserve far past what a
  // width-aware fill will actually use.
  const size_t n = static_cast<size_t>(
      CapBatchRowsForWidth(reserve_hint, static_cast<int>(cols.size())));
  for (std::vector<Value>& c : cols) {
    if (c.capacity() < n) c.reserve(n);
  }
}

void RowBatch::Reset(int width) {
  if (static_cast<int>(cols.size()) != width) {
    cols.resize(static_cast<size_t>(width));
  }
  // Elements stay alive as the reuse pool (see the class invariants).
  ApplyReserveHint();
  sel.clear();
  use_sel = false;
  num_rows = 0;
}

void RowBatch::Clear() {
  sel.clear();
  use_sel = false;
  num_rows = 0;
}

void RowBatch::AppendRow(const Row& row) {
  if (num_rows == 0 && cols.size() != row.size()) {
    cols.assign(row.size(), {});
    ApplyReserveHint();
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    PutCopy(static_cast<int>(c), num_rows, row[c]);
  }
  ++num_rows;
}

void RowBatch::AppendRowMove(Row&& row) {
  if (num_rows == 0 && cols.size() != row.size()) {
    cols.assign(row.size(), {});
    ApplyReserveHint();
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    PutMove(static_cast<int>(c), num_rows, std::move(row[c]));
  }
  ++num_rows;
}

void RowBatch::MaterializeRow(int64_t i, Row* out) const {
  const size_t raw = static_cast<size_t>(RawIndex(i));
  out->resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) (*out)[c].AssignFrom(cols[c][raw]);
}

void RowBatch::MoveRowsInto(std::vector<Row>* out) {
  // Callers append batch after batch: grow geometrically, since growing
  // to the exact size on every call would reallocate (and move every row
  // so far) per batch — quadratic at small batch sizes.
  const int64_t n = ActiveRows();
  const size_t need = out->size() + static_cast<size_t>(n);
  if (need > out->capacity()) out->reserve(std::max(need, 2 * out->capacity()));
  for (int64_t i = 0; i < n; ++i) {
    const size_t raw = static_cast<size_t>(RawIndex(i));
    Row row(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c].AssignFrom(std::move(cols[c][raw]));
    }
    out->push_back(std::move(row));
  }
  Clear();
}

void RowBatch::TruncateActive(int64_t k) {
  if (k >= ActiveRows()) return;
  if (use_sel) {
    sel.resize(static_cast<size_t>(k));
  } else {
    num_rows = k;
  }
}

void RowBatch::EnsureSel() {
  if (use_sel) return;
  sel.resize(static_cast<size_t>(num_rows));
  for (int64_t r = 0; r < num_rows; ++r) sel[static_cast<size_t>(r)] = static_cast<int32_t>(r);
  use_sel = true;
}

}  // namespace popdb
