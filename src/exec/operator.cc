#include "exec/operator.h"

namespace popdb {

const char* CheckFlavorName(CheckFlavor flavor) {
  switch (flavor) {
    case CheckFlavor::kLazy:
      return "LC";
    case CheckFlavor::kLazyEagerMat:
      return "LCEM";
    case CheckFlavor::kEagerBuffered:
      return "ECB";
    case CheckFlavor::kEagerNoCompensation:
      return "ECWC";
    case CheckFlavor::kEagerDeferredComp:
      return "ECDC";
    case CheckFlavor::kWorkBound:
      return "WORKBOUND";
  }
  return "?";
}

ExecStatus RowPuller::PullRow(ExecContext* ctx, Row* out) {
  if (pos_ >= batch_.ActiveRows()) {
    const int64_t full_target = ctx->batch_rows;
    ctx->batch_rows = 1;
    const ExecStatus s = child_->NextBatch(ctx, &batch_);
    ctx->batch_rows = full_target;
    pos_ = 0;
    if (s != ExecStatus::kRow) {
      batch_.Clear();
      return s;
    }
  }
  batch_.MaterializeRow(pos_++, out);
  return ExecStatus::kRow;
}

ExecStatus RunToCompletion(Operator* root, ExecContext* ctx,
                           std::vector<Row>* out_rows) {
  ExecStatus status = root->Open(ctx);
  if (status == ExecStatus::kOk) {
    RowBatch batch;
    while ((status = root->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
      batch.MoveRowsInto(out_rows);
    }
  }
  root->Close(ctx);
  return status;
}

ExecStatus DrainChildRows(Operator* child, ExecContext* ctx,
                          std::vector<Row>* rows) {
  RowBatch batch;
  ExecStatus s;
  while ((s = child->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
    ctx->work += batch.ActiveRows();
    batch.MoveRowsInto(rows);
  }
  return s;
}

}  // namespace popdb
