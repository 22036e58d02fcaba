#include "exec/project.h"

namespace popdb {

ExecStatus ProjectOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const ExecStatus s = child_->NextBatch(ctx, &in_batch_);
  if (s != ExecStatus::kRow) return s;
  if (move_src_.empty() && !positions_.empty()) {
    // A source column's last use can move its values out of the input batch.
    move_src_.assign(positions_.size(), 1);
    for (size_t j = 0; j < positions_.size(); ++j) {
      for (size_t k = j + 1; k < positions_.size(); ++k) {
        if (positions_[k] == positions_[j]) move_src_[j] = 0;
      }
    }
  }
  const int64_t n = in_batch_.ActiveRows();
  ctx->work += n;
  out->Reset(static_cast<int>(positions_.size()));
  for (size_t j = 0; j < positions_.size(); ++j) {
    std::vector<Value>& src = in_batch_.cols[static_cast<size_t>(positions_[j])];
    if (move_src_[j] != 0) {
      for (int64_t i = 0; i < n; ++i) {
        out->PutMove(
            static_cast<int>(j), i,
            std::move(src[static_cast<size_t>(in_batch_.RawIndex(i))]));
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        out->PutCopy(static_cast<int>(j), i,
                     src[static_cast<size_t>(in_batch_.RawIndex(i))]);
      }
    }
  }
  out->num_rows = n;
  return ExecStatus::kRow;
}

ExecStatus FilterOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Vectorized filtering narrows the batch's selection vector in place:
  // nothing is copied, the surviving set is exactly what per-row
  // short-circuit evaluation keeps.
  while (true) {
    const ExecStatus s = child_->NextBatch(ctx, out);
    if (s != ExecStatus::kRow) return s;
    ctx->work += out->ActiveRows();
    out->EnsureSel();
    for (const ResolvedPredicate& p : preds_) {
      if (out->sel.empty()) break;
      EvalPredicateColumn(p, out->cols[static_cast<size_t>(p.pos)], &out->sel);
    }
    if (!out->sel.empty()) return ExecStatus::kRow;
  }
}

}  // namespace popdb
