#ifndef POPDB_EXEC_CHECK_H_
#define POPDB_EXEC_CHECK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/join.h"
#include "exec/operator.h"

namespace popdb {

/// Streaming CHECK operator (paper Figure 10). Counts rows flowing from
/// its child; triggers re-optimization as soon as the count exceeds the
/// upper bound of the check range, or at end-of-stream if the count falls
/// below the lower bound. Used for eager checkpoints (ECB under a TEMP,
/// ECWC below a materialization point, ECDC in a pipeline).
class CheckOp : public Operator {
 public:
  CheckOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  /// Batch-boundary evaluation: counts whole batches (one comparison per
  /// batch). Until its event is recorded the check bounds its subtree to
  /// the rows left before the decision (ExecContext::rows_to_decision), so
  /// it decides on the row, and at the work position, of batch size 1.
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "CHECK"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  int64_t count() const { return count_; }

 private:
  ExecStatus Fire(ExecContext* ctx, bool exact);
  void RecordEvent(ExecContext* ctx, bool fired);

  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
  int64_t count_ = 0;
  int64_t work_first_ = -1;
  bool event_recorded_ = false;
};

/// BUFCHECK (paper Figures 8 and 10): a CHECK fused with a bounded buffer,
/// usable on pipelined edges. Rows are buffered until the check's outcome
/// is certain, then released:
///   - count exceeds the upper bound  -> re-optimize (count is a lower
///     bound on the true cardinality; nothing was emitted),
///   - EOF with count below the lower bound -> re-optimize (exact count),
///   - lower-bound-only ranges ([lo, inf)) succeed the moment the lo-th
///     row arrives, after which rows stream through with no buffering.
/// The buffer never holds more than min(hi, lo)+1 rows, unlike the
/// unbounded TEMP the prototype used as a stand-in buffer.
class BufCheckOp : public Operator {
 public:
  BufCheckOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "BUFCHECK"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  int64_t count() const { return count_; }

 private:
  ExecStatus Fire(ExecContext* ctx, bool exact);
  void RecordEvent(ExecContext* ctx, bool fired);

  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
  std::vector<Row> buffer_;
  size_t buffer_pos_ = 0;
  int64_t count_ = 0;
  bool child_eof_ = false;
  int64_t work_first_ = -1;
  bool event_recorded_ = false;
};

/// Re-optimizes when the actual execution work exceeds a budget — the
/// paper's closing observation that CHECK can guard "parameters other than
/// the cardinality ... such as memory consumption, execution time, or even
/// the overall system load" (Section 8). Compares ExecContext::work
/// against `work_budget` on every row and fires at most once. Rows are read
/// and emitted one at a time, so the work of the subtree and of the
/// consumers above is charged row by row and the budget is crossed on the
/// same row at every batch size.
class WorkBoundOp : public Operator {
 public:
  WorkBoundOp(std::unique_ptr<Operator> child, double work_budget,
              TableSet edge_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "WORKBOUND"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  double work_budget_;
  TableSet edge_set_;
  int64_t count_ = 0;
};

/// Lazy CHECK above a materialization point (TEMP, SORT): evaluates the
/// check range exactly once, right after the child completes its
/// materialization during Open, by reading the child's materialized
/// cardinality. No compensation is ever needed because nothing has flowed
/// above the materialization yet (Section 3.1).
class CheckMaterializedOp : public Operator {
 public:
  CheckMaterializedOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    return child_->NextBatch(ctx, out);
  }
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "CHECKM"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
};

/// Records every row it passes upward into ExecContext::returned_rows.
/// This is the paper's INSERT-into-side-table S used by eager checking
/// with deferred compensation (Section 3.3): if re-optimization strikes
/// after rows were pipelined to the application, the new plan compensates
/// with an anti-join against S.
class RidTrackOp : public Operator {
 public:
  RidTrackOp(std::unique_ptr<Operator> child, TableSet table_set)
      : Operator(table_set), child_(std::move(child)) {}

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "INSERT(S)"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
};

/// Anti-join (multiset set-difference) against the side table of rows that
/// were already returned to the application in a previous execution step.
/// Each previously returned row suppresses exactly one equal row of the
/// new stream, so re-executed pipelined plans return no false duplicates.
class AntiCompensateOp : public Operator {
 public:
  AntiCompensateOp(std::unique_ptr<Operator> child,
                   const std::vector<Row>& already_returned,
                   TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "ANTIJOIN(S)"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  std::unordered_map<Row, int64_t, RowHash> remaining_;
};

}  // namespace popdb

#endif  // POPDB_EXEC_CHECK_H_
