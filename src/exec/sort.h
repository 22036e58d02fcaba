#ifndef POPDB_EXEC_SORT_H_
#define POPDB_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "exec/operator.h"

namespace popdb {

/// One sort key: a resolved row position and direction.
struct SortKey {
  int pos = -1;
  bool descending = false;
};

/// Compares rows by `keys`; returns <0, 0, >0.
int CompareRowsByKeys(const Row& a, const Row& b,
                      const std::vector<SortKey>& keys);

/// Full sort. Materializes its input at Open (a natural materialization
/// point and thus a lazy-checkpoint site, Section 3.1). Inputs larger than
/// the memory budget are sorted as runs and merged — an extra pass whose
/// cost cliff the optimizer's cost model mirrors.
class SortOp : public Operator {
 public:
  SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
         TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "SORT"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  int64_t materialized_count() const {
    return static_cast<int64_t>(rows_.size());
  }
  bool materialization_complete() const { return complete_; }
  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  bool complete_ = false;
  size_t next_ = 0;
};

/// TEMP: materializes its input at Open, then streams it. A natural lazy
/// checkpoint site and the buffer used to implement LCEM and ECB
/// checkpoints (the paper's prototype implements BUFCHECK as a TEMP over a
/// CHECK).
class TempOp : public Operator {
 public:
  TempOp(std::unique_ptr<Operator> child, TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "TEMP"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  int64_t materialized_count() const {
    return static_cast<int64_t>(rows_.size());
  }
  bool materialization_complete() const { return complete_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Row> rows_;
  bool complete_ = false;
  size_t next_ = 0;
};

}  // namespace popdb

#endif  // POPDB_EXEC_SORT_H_
