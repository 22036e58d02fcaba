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
