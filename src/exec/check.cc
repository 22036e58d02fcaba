#include "exec/check.h"

#include <cmath>
#include <limits>

#include "common/status.h"

namespace popdb {

namespace {

/// Rows a checkpoint that has counted `count` rows may take in with its
/// next pull, when its next decision falls on row `decision_row` (infinite
/// when the only decision left is at EOF): the first row and the decision
/// row each arrive alone, as at batch size 1 — the event records the work
/// position of the one, and the consumers above have charged every row
/// before the other — and no pull exceeds the bound `received` from above.
int64_t RowsBeforeDecision(double decision_row, int64_t count,
                           int64_t received) {
  const double before = decision_row - static_cast<double>(count) - 1.0;
  if (count == 0 || before < 1.0) return 1;
  if (before >= static_cast<double>(received)) return received;
  return static_cast<int64_t>(before);
}

}  // namespace

CheckOp::CheckOp(std::unique_ptr<Operator> child, CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

ExecStatus CheckOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  work_first_ = -1;
  event_recorded_ = false;
  if (spec_.enabled) {
    TRACE_INSTANT_ARG("checkpoint_armed", "exec", "edge_set",
                      spec_.edge_set);
  }
  return child_->Open(ctx);
}

void CheckOp::RecordEvent(ExecContext* ctx, bool fired) {
  if (event_recorded_) return;
  event_recorded_ = true;
  CheckEvent ev;
  ev.edge_set = spec_.edge_set;
  ev.flavor = spec_.flavor;
  ev.site = spec_.flavor == CheckFlavor::kEagerBuffered
                ? CheckSite::kNljnOuter
                : CheckSite::kPipeline;
  ev.work_first = work_first_;
  ev.work_eval = ctx->work;
  ev.count = count_;
  ev.fired = fired;
  ctx->check_events.push_back(ev);
  TRACE_INSTANT_ARG(ev.fired ? "checkpoint_fired" : "checkpoint_evaluated",
                    "exec", "count", ev.count);
}

ExecStatus CheckOp::Fire(ExecContext* ctx, bool exact) {
  RecordEvent(ctx, /*fired=*/true);
  if (spec_.observe_only) {
    // Observation mode: note the violation but keep executing.
    return ExecStatus::kRow;
  }
  ctx->reopt.triggered = true;
  ctx->reopt.edge_set = spec_.edge_set;
  ctx->reopt.observed_rows = count_;
  ctx->reopt.exact = exact;
  ctx->reopt.flavor = spec_.flavor;
  ctx->reopt.check_lo = spec_.lo;
  ctx->reopt.check_hi = spec_.hi;
  return ExecStatus::kReoptimize;
}

ExecStatus CheckOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Until the event is recorded, the child is bounded to the rows before
  // the decision (count > hi first holds at floor(hi) + 1), so the
  // violating row arrives alone.
  const ExecStatus s =
      spec_.enabled && !event_recorded_
          ? PullWithin(child_.get(), ctx, out,
                       RowsBeforeDecision(std::floor(spec_.hi) + 1.0, count_,
                                          ctx->rows_to_decision))
          : child_->NextBatch(ctx, out);
  if (s == ExecStatus::kRow) {
    const int64_t n = out->ActiveRows();
    if (count_ == 0) work_first_ = ctx->work;
    count_ += n;
    if (spec_.enabled && static_cast<double>(count_) > spec_.hi &&
        Fire(ctx, /*exact=*/false) == ExecStatus::kReoptimize) {
      POPDB_DCHECK(n == 1);
      return ExecStatus::kReoptimize;  // The violating row is not emitted.
    }
    // Observation mode records the event and streams the batch on.
    return ExecStatus::kRow;
  }
  if (s == ExecStatus::kEof) {
    if (spec_.enabled && static_cast<double>(count_) < spec_.lo) {
      const ExecStatus fired = Fire(ctx, /*exact=*/true);
      if (fired == ExecStatus::kReoptimize) return fired;
    } else if (spec_.enabled) {
      RecordEvent(ctx, /*fired=*/false);
    }
  }
  return s;
}

BufCheckOp::BufCheckOp(std::unique_ptr<Operator> child, CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

void BufCheckOp::RecordEvent(ExecContext* ctx, bool fired) {
  if (event_recorded_) return;
  event_recorded_ = true;
  CheckEvent ev;
  ev.edge_set = spec_.edge_set;
  ev.flavor = spec_.flavor;
  ev.site = CheckSite::kNljnOuter;
  ev.work_first = work_first_;
  ev.work_eval = ctx->work;
  ev.count = count_;
  ev.fired = fired;
  ctx->check_events.push_back(ev);
  TRACE_INSTANT_ARG(ev.fired ? "checkpoint_fired" : "checkpoint_evaluated",
                    "exec", "count", ev.count);
}

ExecStatus BufCheckOp::Fire(ExecContext* ctx, bool exact) {
  RecordEvent(ctx, /*fired=*/true);
  if (spec_.observe_only) return ExecStatus::kOk;  // Keep streaming.
  ctx->reopt.triggered = true;
  ctx->reopt.edge_set = spec_.edge_set;
  ctx->reopt.observed_rows = count_;
  ctx->reopt.exact = exact;
  ctx->reopt.flavor = spec_.flavor;
  ctx->reopt.check_lo = spec_.lo;
  ctx->reopt.check_hi = spec_.hi;
  return ExecStatus::kReoptimize;
}

ExecStatus BufCheckOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  count_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  child_eof_ = false;
  event_recorded_ = false;
  work_first_ = -1;
  if (spec_.enabled) {
    TRACE_INSTANT_ARG("checkpoint_armed", "exec", "edge_set",
                      spec_.edge_set);
  }
  const ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  if (!spec_.enabled) return ExecStatus::kOk;
  // Buffer rows ("like a valve", Section 3.3) until the outcome is known.
  // The child is bounded to the rows before the next decision — the
  // violation row for a finite upper bound, the release row for a [lo, inf)
  // valve — so the drain fires or releases on exactly the row batch size 1
  // would, also in observation mode.
  const bool finite_hi = spec_.hi != std::numeric_limits<double>::infinity();
  const double decision_row =
      finite_hi ? std::floor(spec_.hi) + 1.0 : std::ceil(spec_.lo);
  RowBatch b;
  while (true) {
    const ExecStatus cs = PullWithin(
        child_.get(), ctx, &b,
        RowsBeforeDecision(decision_row, count_, ctx->rows_to_decision));
    if (cs == ExecStatus::kEof) {
      child_eof_ = true;
      if (static_cast<double>(count_) < spec_.lo) {
        const ExecStatus fired = Fire(ctx, /*exact=*/true);
        if (fired == ExecStatus::kReoptimize) return fired;
      }
      RecordEvent(ctx, /*fired=*/false);
      return ExecStatus::kOk;
    }
    if (cs != ExecStatus::kRow) return cs;
    if (count_ == 0) work_first_ = ctx->work;
    count_ += b.ActiveRows();
    // A violation counts through the violating row (a lower bound on the
    // true cardinality); nothing was emitted.
    if (static_cast<double>(count_) > spec_.hi &&
        Fire(ctx, /*exact=*/false) == ExecStatus::kReoptimize) {
      return ExecStatus::kReoptimize;
    }
    b.MoveRowsInto(&buffer_);
    if (event_recorded_) return ExecStatus::kOk;  // Observed violation.
    if (!finite_hi && static_cast<double>(count_) >= spec_.lo) {
      // [lo, inf): success is certain; release the valve.
      RecordEvent(ctx, /*fired=*/false);
      return ExecStatus::kOk;
    }
  }
}

ExecStatus BufCheckOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (buffer_pos_ < buffer_.size()) {
    const int64_t target = BatchTarget(
        ctx, static_cast<int>(buffer_[buffer_pos_].size()));
    out->Clear();
    while (buffer_pos_ < buffer_.size() && out->num_rows < target) {
      ++ctx->work;
      out->AppendRow(buffer_[buffer_pos_++]);
    }
    return ExecStatus::kRow;
  }
  if (child_eof_) {
    return ExecStatus::kEof;
  }
  // Pass-through after a released valve: count rows (no work charge — the
  // producers below already charged theirs).
  const ExecStatus s = child_->NextBatch(ctx, out);
  if (s == ExecStatus::kRow) count_ += out->ActiveRows();
  return s;
}

bool BufCheckOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = spec_.edge_set != 0 ? spec_.edge_set : table_set();
  // The count is exact once the child was exhausted (during buffering or
  // during pass-through); the bounded buffer is never offered for reuse —
  // it may hold only a prefix of the stream.
  out->complete = child_eof_ || eof_seen();
  out->count = count_;
  out->rows = nullptr;
  return true;
}

WorkBoundOp::WorkBoundOp(std::unique_ptr<Operator> child, double work_budget,
                         TableSet edge_set)
    : Operator(child->table_set()),
      child_(std::move(child)),
      work_budget_(work_budget),
      edge_set_(edge_set) {}

ExecStatus WorkBoundOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  return child_->Open(ctx);
}

ExecStatus WorkBoundOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Every row is a decision: it is read and emitted alone, so the work of
  // the subtree and of the consumers above is counted row by row.
  const ExecStatus s = PullWithin(child_.get(), ctx, out, 1);
  if (s != ExecStatus::kRow) return s;
  ++count_;
  if (static_cast<double>(ctx->work) > work_budget_) {
    ctx->reopt.triggered = true;
    ctx->reopt.edge_set = edge_set_;
    ctx->reopt.observed_rows = count_;
    ctx->reopt.exact = false;
    ctx->reopt.flavor = CheckFlavor::kWorkBound;
    ctx->reopt.check_lo = 0;
    ctx->reopt.check_hi = work_budget_;
    return ExecStatus::kReoptimize;  // The row over budget is not emitted.
  }
  return ExecStatus::kRow;
}

CheckMaterializedOp::CheckMaterializedOp(std::unique_ptr<Operator> child,
                                         CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

ExecStatus CheckMaterializedOp::OpenImpl(ExecContext* ctx) {
  const ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  HarvestedResult info;
  const bool has_info = child_->HarvestInfo(&info);
  POPDB_DCHECK(has_info && info.complete);
  if (spec_.enabled) {
    const double card = static_cast<double>(info.count);
    const bool violated = card < spec_.lo || card > spec_.hi;
    CheckEvent ev;
    ev.edge_set = spec_.edge_set;
    ev.flavor = spec_.flavor;
    ev.site = spec_.flavor == CheckFlavor::kLazyEagerMat
                  ? CheckSite::kNljnOuter
                  : CheckSite::kMatPoint;
    ev.work_first = ctx->work;
    ev.work_eval = ctx->work;
    ev.count = info.count;
    ev.fired = violated;
    ctx->check_events.push_back(ev);
    TRACE_INSTANT_ARG(ev.fired ? "checkpoint_fired" : "checkpoint_evaluated",
                      "exec", "count", ev.count);
    if (violated && !spec_.observe_only) {
      ctx->reopt.triggered = true;
      ctx->reopt.edge_set = spec_.edge_set;
      ctx->reopt.observed_rows = info.count;
      ctx->reopt.exact = true;  // Materialization completed: exact count.
      ctx->reopt.flavor = spec_.flavor;
      ctx->reopt.check_lo = spec_.lo;
      ctx->reopt.check_hi = spec_.hi;
      return ExecStatus::kReoptimize;
    }
  }
  return ExecStatus::kOk;
}

ExecStatus RidTrackOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const ExecStatus s = child_->NextBatch(ctx, out);
  if (s == ExecStatus::kRow) {
    const int64_t n = out->ActiveRows();
    for (int64_t i = 0; i < n; ++i) {
      Row r;
      out->MaterializeRow(i, &r);
      ctx->returned_rows.push_back(std::move(r));
    }
  }
  return s;
}

AntiCompensateOp::AntiCompensateOp(std::unique_ptr<Operator> child,
                                   const std::vector<Row>& already_returned,
                                   TableSet table_set)
    : Operator(table_set), child_(std::move(child)) {
  for (const Row& row : already_returned) ++remaining_[row];
}

ExecStatus AntiCompensateOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  Row r;
  while (true) {
    const ExecStatus s = child_->NextBatch(ctx, out);
    if (s != ExecStatus::kRow) {
      return s;
    }
    out->EnsureSel();
    const size_t n = out->sel.size();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      ++ctx->work;
      out->MaterializeRow(static_cast<int64_t>(i), &r);
      auto it = remaining_.find(r);
      if (it != remaining_.end() && it->second > 0) {
        --it->second;  // Suppress one previously returned duplicate.
        continue;
      }
      out->sel[kept++] = out->sel[i];
    }
    out->sel.resize(kept);
    if (kept > 0) return ExecStatus::kRow;
  }
}

}  // namespace popdb
