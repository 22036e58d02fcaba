#ifndef POPDB_EXEC_PROJECT_H_
#define POPDB_EXEC_PROJECT_H_

#include <memory>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"

namespace popdb {

/// Projects input rows onto a list of positions. Output is no longer a
/// canonical table-set row.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<int> positions)
      : Operator(0), child_(std::move(child)), positions_(std::move(positions)) {}

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "PROJECT"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> positions_;
  RowBatch in_batch_;           ///< Scratch input batch.
  std::vector<char> move_src_;  ///< Last use of a source column: move it.
};

/// Applies residual predicates to already-joined rows. The optimizer pushes
/// predicates into scans, so this only appears for predicates that could
/// not be pushed (and in tests).
class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child,
           std::vector<ResolvedPredicate> preds, TableSet table_set)
      : Operator(table_set), child_(std::move(child)), preds_(std::move(preds)) {}

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "FILTER"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<ResolvedPredicate> preds_;
};

}  // namespace popdb

#endif  // POPDB_EXEC_PROJECT_H_
