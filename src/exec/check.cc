#include "exec/check.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace popdb {

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
  // For an enforced upper bound, clamp the child's batch target to the
  // rows remaining before the violation threshold (count > hi first holds
  // at floor(hi) + 1): a child that honors its target never produces past
  // the row batch size 1 would abort on, so a violation lands on the final
  // row of the pulled batch. Observation mode and pure lower bounds never
  // truncate, so they pass full batches through unclamped.
  const bool enforced_hi =
      spec_.enabled && !spec_.observe_only &&
      spec_.hi != std::numeric_limits<double>::infinity();
  const int64_t full_target = ctx->batch_rows;
  if (enforced_hi) {
    const double remaining =
        std::floor(spec_.hi) + 1.0 - static_cast<double>(count_);
    if (remaining < static_cast<double>(full_target)) {
      ctx->batch_rows =
          remaining > 1.0 ? static_cast<int64_t>(remaining) : 1;
    }
  }
  const ExecStatus s = child_->NextBatch(ctx, out);
  ctx->batch_rows = full_target;
  if (s == ExecStatus::kRow) {
    const int64_t n = out->ActiveRows();
    if (count_ == 0 && n > 0) work_first_ = ctx->work;
    const int64_t before = count_;
    if (spec_.enabled && static_cast<double>(before + n) > spec_.hi) {
      // Fire on the first row that pushes the count past hi, emitting only
      // the rows before it, and report the count through the violating
      // row. With the clamp above that row is the batch's final one unless
      // the child over-produced past its target; the child reconciles the
      // rows it produced or read ahead past the violation.
      int64_t keep = static_cast<int64_t>(std::floor(spec_.hi)) - before;
      if (keep < 0) keep = 0;
      if (keep > n - 1) keep = n - 1;
      count_ = before + keep + 1;
      const ExecStatus fired = Fire(ctx, /*exact=*/false);
      if (fired == ExecStatus::kReoptimize) {
        child_->ReconcileAbort(n - keep - 1);
        out->TruncateActive(keep);
        return FlushOrStatus(out, ExecStatus::kReoptimize);
      }
      // Observation mode: the event is recorded; the full batch streams on.
    }
    count_ = before + n;
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
  // The child's batch target is clamped to the rows remaining before the
  // next decision point — the violation threshold for a finite upper
  // bound, the release count for a [lo, inf) valve — so the drain fires
  // or releases at exactly the row batch size 1 would. Observation mode
  // drains a row at a time so its event's work positions stay row-exact.
  const bool finite_hi = spec_.hi != std::numeric_limits<double>::infinity();
  const int64_t full_target = ctx->batch_rows;
  const int64_t drain_target = spec_.observe_only ? 1 : full_target;
  RowBatch b;
  while (true) {
    const double stop =
        (finite_hi ? std::floor(spec_.hi) + 1.0 : spec_.lo) -
        static_cast<double>(count_);
    ctx->batch_rows =
        stop < static_cast<double>(drain_target)
            ? (stop > 1.0 ? static_cast<int64_t>(stop) : 1)
            : drain_target;
    const ExecStatus cs = child_->NextBatch(ctx, &b);
    ctx->batch_rows = full_target;
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
    const int64_t n = b.ActiveRows();
    if (count_ == 0) work_first_ = ctx->work;
    const int64_t before = count_;
    count_ = before + n;
    if (static_cast<double>(count_) > spec_.hi) {
      // Count through the violating row (a lower bound on the true
      // cardinality); nothing was emitted. The child reconciles the rows
      // it produced or read ahead past the violation.
      int64_t keep = static_cast<int64_t>(std::floor(spec_.hi)) - before;
      if (keep < 0) keep = 0;
      if (keep > n - 1) keep = n - 1;
      count_ = before + keep + 1;
      if (Fire(ctx, /*exact=*/false) == ExecStatus::kReoptimize) {
        child_->ReconcileAbort(n - keep - 1);
        return ExecStatus::kReoptimize;
      }
      // Observation mode: the event holds the count at the violation; the
      // whole batch is kept and the valve opens.
      count_ = before + n;
      b.MoveRowsInto(&buffer_);
      return ExecStatus::kOk;
    }
    b.MoveRowsInto(&buffer_);
    if (!finite_hi && static_cast<double>(count_) >= spec_.lo) {
      // [lo, inf): success is certain; release the valve. The event holds
      // the count at the release row, also when the child produced past
      // the clamp.
      const int64_t total = count_;
      count_ = std::max<int64_t>(
          before + 1, static_cast<int64_t>(std::ceil(spec_.lo)));
      RecordEvent(ctx, /*fired=*/false);
      count_ = total;
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
      input_(child_.get()),
      work_budget_(work_budget),
      edge_set_(edge_set) {}

ExecStatus WorkBoundOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  return child_->Open(ctx);
}

ExecStatus WorkBoundOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  int64_t target = BatchTarget(ctx);
  out->Clear();
  Row row;
  while (out->num_rows < target) {
    const ExecStatus s = input_.PullRow(ctx, &row);
    if (s != ExecStatus::kRow) return FlushOrStatus(out, s);
    ++count_;
    if (static_cast<double>(ctx->work) > work_budget_) {
      ctx->reopt.triggered = true;
      ctx->reopt.edge_set = edge_set_;
      ctx->reopt.observed_rows = count_;
      ctx->reopt.exact = false;
      ctx->reopt.flavor = CheckFlavor::kWorkBound;
      ctx->reopt.check_lo = 0;
      ctx->reopt.check_hi = work_budget_;
      child_->ReconcileAbort(input_.held());
      return FlushOrStatus(out, ExecStatus::kReoptimize);
    }
    out->AppendRowMove(std::move(row));
    // The first row reveals the output width; tighten the target to the
    // width-aware cap (never above the context target).
    if (out->num_rows == 1) target = BatchTarget(ctx, out->width());
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
