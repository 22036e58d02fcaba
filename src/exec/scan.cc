#include "exec/scan.h"

#include <algorithm>

namespace popdb {

ExecStatus TableScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_rid_ = begin_rid_;
  stop_rid_ = end_rid_ < 0 ? snapshot_.num_rows()
                           : std::min(end_rid_, snapshot_.num_rows());
  return ExecStatus::kOk;
}

ExecStatus TableScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target =
      BatchTarget(ctx, snapshot_.table()->schema().num_columns());
  out->Clear();
  while (next_rid_ < stop_rid_ && out->num_rows < target) {
    if (ctx->CancelPending()) return FlushOrStatus(out, ExecStatus::kCancelled);
    if (!snapshot_.alive(next_rid_)) {
      ++next_rid_;
      continue;
    }
    const Row& row = snapshot_.row(next_rid_);
    ++next_rid_;
    ++ctx->work;
    bool pass = true;
    for (const ResolvedPredicate& p : preds_) {
      if (!EvalPredicate(p, row)) {
        pass = false;
        break;
      }
    }
    if (pass) out->AppendRow(row);
  }
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void TableScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

ExecStatus MatViewScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_ = 0;
  return ExecStatus::kOk;
}

ExecStatus MatViewScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target = BatchTarget(
      ctx, rows_->empty() ? 0 : static_cast<int>(rows_->front().size()));
  out->Clear();
  while (next_ < rows_->size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow((*rows_)[next_]);
    ++next_;
  }
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void MatViewScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

}  // namespace popdb
