#ifndef POPDB_EXEC_OPERATOR_H_
#define POPDB_EXEC_OPERATOR_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/span.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/layout.h"

namespace popdb {

/// Result of an operator call.
enum class ExecStatus {
  kOk,          ///< Open succeeded.
  kRow,         ///< NextBatch produced rows.
  kEof,         ///< NextBatch reached end of stream.
  kReoptimize,  ///< A CHECK fired; unwind and re-optimize.
  kError,       ///< Internal failure; details in ExecContext::error.
  kCancelled,   ///< Cooperative cancellation (client request or deadline).
};

/// True for statuses that must unwind the whole operator tree (anything
/// other than a row or a clean end of stream).
inline bool IsAbortStatus(ExecStatus s) {
  return s == ExecStatus::kReoptimize || s == ExecStatus::kError ||
         s == ExecStatus::kCancelled;
}

/// Which kind of checkpoint fired (paper Section 3).
enum class CheckFlavor {
  kLazy,                   ///< LC: above an existing materialization point.
  kLazyEagerMat,           ///< LCEM: artificial TEMP + CHECK on NLJN outer.
  kEagerBuffered,          ///< ECB: streaming check under a buffering TEMP.
  kEagerNoCompensation,    ///< ECWC: streaming check below a materialization.
  kEagerDeferredComp,      ///< ECDC: pipelined check with anti-join comp.
  kWorkBound,              ///< Extension: execution-work budget exceeded.
};

const char* CheckFlavorName(CheckFlavor flavor);

/// Details about the checkpoint that triggered re-optimization.
struct ReoptSignal {
  bool triggered = false;
  TableSet edge_set = 0;        ///< Table set of the guarded subplan edge.
  int64_t observed_rows = 0;    ///< Rows seen when the check fired.
  bool exact = false;           ///< True if the count is the full cardinality.
  CheckFlavor flavor = CheckFlavor::kLazy;
  double check_lo = 0;
  double check_hi = 0;
};

/// Where in the plan a checkpoint sits (used to classify opportunities in
/// the Figure 14 reproduction).
enum class CheckSite {
  kMatPoint,   ///< Above a SORT/TEMP materialization.
  kHsjnBuild,  ///< On a hash-join build side.
  kNljnOuter,  ///< Guarding a nested-loop-join outer (LCEM/ECB).
  kPipeline,   ///< Mid-pipeline (ECWC/ECDC).
};

/// Record of one checkpoint evaluation during execution, captured even
/// when the check range holds. Used by the opportunity analysis (paper
/// Figure 14): `work_first` / `work_eval` are the values of
/// ExecContext::work when the checkpoint saw its first row and when it
/// made its decision, so the harness can report checkpoint positions as
/// fractions of total work.
struct CheckEvent {
  TableSet edge_set = 0;
  CheckFlavor flavor = CheckFlavor::kLazy;
  CheckSite site = CheckSite::kMatPoint;
  int64_t work_first = -1;
  int64_t work_eval = -1;
  int64_t count = 0;
  bool fired = false;
};

/// A materialized intermediate result offered for reuse after a CHECK
/// fires (paper Section 2.3). `rows` points into the producing operator and
/// is only valid until the operator tree is destroyed; the re-optimization
/// controller copies what it keeps.
struct HarvestedResult {
  TableSet table_set = 0;
  bool complete = false;  ///< True if materialization finished (exact card).
  int64_t count = 0;
  const std::vector<Row>* rows = nullptr;  ///< Null if reuse is disabled.
  /// Canonical-layout positions the rows are sorted on (empty if unsorted);
  /// lets a re-optimized merge join skip re-sorting the reused view.
  std::vector<int> sorted_positions;
};

class Operator;
class TaskRunner;

/// ExecContext::rows_to_decision when no decision is pending.
inline constexpr int64_t kNoPendingDecision =
    std::numeric_limits<int64_t>::max();

/// Shared mutable state for one plan execution.
struct ExecContext {
  /// Parameter marker bindings (by param_index).
  std::vector<Value> params;

  /// Memory budget, in rows, for hash-join builds and sorts. Exceeding it
  /// switches those operators to multi-pass (spilling) mode — the source of
  /// the cost-model cliffs that motivate validity ranges (Section 2.2).
  int64_t mem_rows = 1 << 20;

  /// Deterministic work counter: incremented once per row touched by any
  /// operator. Used as a machine-independent cost measure alongside wall
  /// time in the experiments.
  int64_t work = 0;

  /// Set when a CHECK fires.
  ReoptSignal reopt;

  /// Operators that materialize results register here during Open so the
  /// re-optimization controller can harvest intermediate results and
  /// actual cardinalities.
  std::vector<Operator*> materializers;

  /// Rows already returned to the application, recorded by RidTrackOp when
  /// eager checking with deferred compensation is active.
  std::vector<Row> returned_rows;

  /// Checkpoint evaluations observed during this execution (Figure 14).
  std::vector<CheckEvent> check_events;

  std::string error;

  /// Cooperative cancellation token, polled by operators in their row loops
  /// (scans, NLJN inner loops, spill passes). Not owned; may be null.
  CancelToken* cancel = nullptr;

  /// Intra-query parallelism: morsel tasks fan out through this runner
  /// (exec/parallel.h). Not owned; null = serial execution. `dop` bounds
  /// the workers one parallel fragment may occupy, including the query's
  /// own thread. Exchange operators give their tasks private contexts —
  /// only `cancel` (thread safe) is shared — and fold the task totals back
  /// in at join, so everything else in this struct stays single-threaded.
  TaskRunner* tasks = nullptr;
  int dop = 1;

  /// Morsel accounting, aggregated when a fragment's task group joins.
  int64_t morsels_dispatched = 0;
  int64_t parallel_work = 0;  ///< Work units spent inside morsel tasks.

  /// Target rows per RowBatch exchanged between operators, for speed only.
  /// <= 1 means batches of one row, where every batch boundary is a row
  /// boundary: the reference granularity that every other size must
  /// reproduce in results, work and feedback.
  int64_t batch_rows = 1;

  /// Rows the operator being pulled may emit before a decision pending
  /// above it (a checkpoint's first or deciding row, a WORKBOUND or MGJN
  /// row-by-row read); kNoPendingDecision when none is pending. It caps
  /// every batch target. With it, one pull rule makes the work and the
  /// feedback of every batch size equal batch size 1's:
  ///  - no operator emits more rows than its target, and no operator
  ///    reads an input row that batch size 1 would not have read before
  ///    the pending decision: operators that emit at most one row per input
  ///    row (scan, filter, project, CHECKM, RID-track, anti-compensate)
  ///    pass the bound on; operators that may emit several (the HSJN
  ///    probe, the NLJN outer) then pull one input row at a time
  ///    (Operator::PullInput); checkpoints lower it to the rows before
  ///    their decision, WORKBOUND and MGJN to 1;
  ///  - an operator returns the rows it holds before it pulls its next
  ///    input batch, so every row below a decision was charged by the
  ///    consumers above it, as at batch size 1 (MGJN is exempt: it reads
  ///    sorted materializations, which decide nothing while it reads);
  ///  - Open runs with no decision pending, so the materializing drains
  ///    (SORT, TEMP, the HSJN build, hash aggregation, the morsel
  ///    exchange) read to EOF as at batch size 1.
  int64_t rows_to_decision = kNoPendingDecision;

  /// Strided poll: checks the token every kCancelPollStride calls so the
  /// per-row cost is a decrement on the fast path. Returns true once the
  /// token tripped (explicit cancel or deadline); the polling operator then
  /// unwinds with ExecStatus::kCancelled.
  bool CancelPending() {
    if (cancel == nullptr) return false;
    if (--cancel_poll_countdown_ > 0) return false;
    cancel_poll_countdown_ = kCancelPollStride;
    return cancel->Expired();
  }

 private:
  static constexpr int kCancelPollStride = 256;
  int cancel_poll_countdown_ = 1;
};

/// Per-operator execution counters and (sampled) wall-clock timings, read
/// by EXPLAIN ANALYZE after execution. Pulls after small batches use
/// strided clock reads — one measured call out of kTimingStride, scaled —
/// so instrumentation is compiled-in but cheap even one row at a time.
struct OperatorStats {
  int64_t next_calls = 0;  ///< Total NextBatch invocations (incl. EOF).
  int64_t open_ns = 0;     ///< Wall time inside Open (subtree included).
  int64_t next_ns = 0;     ///< Estimated total wall time inside NextBatch.
  int64_t close_ns = 0;    ///< Wall time inside Close.
  int64_t loops = 0;       ///< NLJN: outer rows probed against the inner.
  int64_t partitions = 0;  ///< HSJN: leaf partitions joined after spilling.
  int64_t spills = 0;      ///< Extra passes: sort run merges, hash repartitions.

  double open_ms() const { return static_cast<double>(open_ns) / 1e6; }
  double next_ms() const { return static_cast<double>(next_ns) / 1e6; }
  double close_ms() const { return static_cast<double>(close_ns) / 1e6; }
};

/// Base class for Volcano-style iterators (open/next/close; Figure 10 of
/// the paper uses the same model) that exchange RowBatches. Single-
/// threaded; an operator tree is driven by repeatedly calling NextBatch on
/// the root. A batch of one row is the classic row-at-a-time iterator.
///
/// The public Open/NextBatch/Close entry points are non-virtual wrappers
/// that maintain OperatorStats (row counts, wall-clock timings), emit one
/// tracer span per operator lifetime, and centralize the row/EOF
/// accounting; subclasses implement OpenImpl/NextBatchImpl/CloseImpl.
///
/// Every operator counts the rows it produces (`rows_produced`) and whether
/// it ran to completion (`eof_seen`); the POP controller turns these into
/// cardinality feedback: exact cardinalities for completed edges, lower
/// bounds for partially executed ones.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Prepares the operator (and its subtree). May return kReoptimize when a
  /// checkpoint fires during eager materialization.
  ExecStatus Open(ExecContext* ctx) {
    POPDB_DCHECK(ctx->rows_to_decision == kNoPendingDecision);
    const int64_t t0 = ClockNs();
    if (SpanTracer::Global().enabled()) span_start_us_ = SpanTracer::Global().NowUs();
    const ExecStatus s = OpenImpl(ctx);
    stats_.open_ns += ClockNs() - t0;
    return s;
  }

  /// Produces the next batch of rows into `*out`, the one way to pull rows
  /// from an operator. Returns kRow with at least one and at most
  /// BatchTarget(ctx) active rows, or a terminal status (kEof, kReoptimize,
  /// kCancelled, kError). Statuses raised mid-assembly after a non-empty
  /// prefix are delivered on the following call, so rows produced before
  /// an abort are never lost. After kEof the call must not be repeated.
  ///
  /// The target bound is asserted: with the pull rule of
  /// ExecContext::rows_to_decision it makes the work and feedback of every
  /// batch size equal batch size 1's.
  ExecStatus NextBatch(ExecContext* ctx, RowBatch* out) {
    ++stats_.next_calls;
    if (pending_batch_status_ != ExecStatus::kOk) {
      const ExecStatus s = pending_batch_status_;
      pending_batch_status_ = ExecStatus::kOk;
      if (s == ExecStatus::kEof) eof_seen_ = true;
      return s;
    }
    const int64_t target = BatchTarget(ctx);
    out->reserve_hint = target;
    // A call is timed when the previous batch held kTimingStride rows or
    // more (so is the first call). After smaller ones (batch size 1, pulls
    // bounded by a pending decision, WORKBOUND's one-row batches) one call
    // in kTimingStride is timed and scaled up, so a one-row pull pays an
    // increment and a mask, not two clock reads.
    const int64_t stride =
        last_batch_rows_ < kTimingStride ? kTimingStride : 1;
    ExecStatus s;
    if ((stats_.next_calls & (stride - 1)) != 0) {
      s = NextBatchImpl(ctx, out);
    } else {
      const int64_t t0 = ClockNs();
      s = NextBatchImpl(ctx, out);
      stats_.next_ns += (ClockNs() - t0) * stride;
    }
    last_batch_rows_ = s == ExecStatus::kRow ? out->ActiveRows() : 0;
    if (s == ExecStatus::kRow) {
      POPDB_DCHECK(last_batch_rows_ <= target);
      rows_produced_ += last_batch_rows_;
    } else if (s == ExecStatus::kEof) {
      eof_seen_ = true;
    }
    return s;
  }

  /// Releases resources. Must be safe to call after any status.
  void Close(ExecContext* ctx) {
    const int64_t t0 = ClockNs();
    CloseImpl(ctx);
    stats_.close_ns += ClockNs() - t0;
    SpanTracer& tracer = SpanTracer::Global();
    if (span_start_us_ >= 0 && !span_emitted_ && tracer.enabled()) {
      span_emitted_ = true;
      tracer.RecordSpan(name(), "exec", span_start_us_,
                        tracer.NowUs() - span_start_us_, "rows",
                        rows_produced_);
    }
  }

  /// Table set this operator produces rows for (0 for post-join operators
  /// such as aggregation whose output is no longer a canonical table-set
  /// row).
  TableSet table_set() const { return table_set_; }

  int64_t rows_produced() const { return rows_produced_; }
  bool eof_seen() const { return eof_seen_; }
  const OperatorStats& stats() const { return stats_; }

  /// Child operators in plan order (empty for leaves). Used by EXPLAIN
  /// ANALYZE to walk the executed tree; the iterator interface itself never
  /// needs it.
  virtual std::vector<const Operator*> children() const { return {}; }

  /// If this operator holds a completed or in-progress materialization,
  /// fills `*out` and returns true (see HarvestedResult).
  virtual bool HarvestInfo(HarvestedResult* out) const {
    (void)out;
    return false;
  }

  /// Operator name for plan/debug printing.
  virtual const char* name() const = 0;

  /// Optimizer annotations attached by the ExecutorBuilder so EXPLAIN
  /// ANALYZE can report estimated vs. actual rows per executed operator.
  void AnnotateEstimates(double est_rows, double est_cost,
                         std::string detail) {
    est_rows_ = est_rows;
    est_cost_ = est_cost;
    detail_ = std::move(detail);
    annotated_ = true;
  }
  bool annotated() const { return annotated_; }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  const std::string& detail() const { return detail_; }

 protected:
  explicit Operator(TableSet table_set) : table_set_(table_set) {}

  virtual ExecStatus OpenImpl(ExecContext* ctx) = 0;
  virtual ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) = 0;
  virtual void CloseImpl(ExecContext* ctx) = 0;

  /// Stashes `s` for delivery on the next NextBatch call and returns kRow
  /// if `out` carries a non-empty prefix; returns `s` directly otherwise.
  /// NextBatchImpl overrides use this to flush rows produced before a
  /// mid-batch terminal status.
  ExecStatus FlushOrStatus(RowBatch* out, ExecStatus s) {
    if (out->ActiveRows() == 0) return s;
    pending_batch_status_ = s;
    return ExecStatus::kRow;
  }

  /// Target active rows per produced batch: the batch size, capped by the
  /// rows left before a pending decision.
  static int64_t BatchTarget(const ExecContext* ctx) {
    const int64_t rows = ctx->batch_rows > 1 ? ctx->batch_rows : 1;
    return rows < ctx->rows_to_decision ? rows : ctx->rows_to_decision;
  }

  /// Width-aware target: scales the context target down so one batch's
  /// payload (`width` columns of Value) stays within a fixed byte budget.
  /// Wide batches otherwise outgrow the cache between fill and
  /// consumption and the gather/scatter loops of vectorized operators go
  /// memory-bound; narrow batches keep the full row target. Never exceeds
  /// the context target.
  static int64_t BatchTarget(const ExecContext* ctx, int width) {
    return CapBatchRowsForWidth(BatchTarget(ctx), width);
  }

  /// Pulls from `child` with ExecContext::rows_to_decision set to `bound`
  /// for the call.
  static ExecStatus PullWithin(Operator* child, ExecContext* ctx,
                               RowBatch* out, int64_t bound) {
    const int64_t received = ctx->rows_to_decision;
    ctx->rows_to_decision = bound;
    const ExecStatus s = child->NextBatch(ctx, out);
    ctx->rows_to_decision = received;
    return s;
  }

  /// The pull of an operator that may emit several rows per input row: one
  /// input row at a time while a decision is pending above, so no input
  /// row is read before batch size 1 would read it; full batches otherwise.
  static ExecStatus PullInput(Operator* child, ExecContext* ctx,
                              RowBatch* out) {
    if (ctx->rows_to_decision == kNoPendingDecision) {
      return child->NextBatch(ctx, out);
    }
    return PullWithin(child, ctx, out, 1);
  }

  /// Mutable counters for subclass-specific detail (loops/partitions/
  /// spills).
  OperatorStats& mutable_stats() { return stats_; }

  /// For exchange-style operators whose rows are consumed inside worker
  /// tasks (hash-agg pre-aggregation) instead of being pulled through
  /// NextBatch: folds the externally consumed count into rows_produced so
  /// feedback harvesting sees the true fragment cardinality.
  void CreditExternalRows(int64_t n) { rows_produced_ += n; }

  static int64_t ClockNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  static constexpr int64_t kTimingStride = 32;  // Must be a power of two.

  TableSet table_set_;
  int64_t rows_produced_ = 0;
  bool eof_seen_ = false;
  OperatorStats stats_;
  double est_rows_ = -1.0;
  double est_cost_ = -1.0;
  std::string detail_;
  bool annotated_ = false;
  int64_t span_start_us_ = -1;
  bool span_emitted_ = false;
  ExecStatus pending_batch_status_ = ExecStatus::kOk;
  int64_t last_batch_rows_ = kTimingStride;  ///< Rows of the last batch.
};

/// Runs `root` to completion, appending produced rows to `*out_rows`.
/// Returns the final status (kEof on success, kReoptimize if a checkpoint
/// fired, kError on failure). Opens and closes the tree.
ExecStatus RunToCompletion(Operator* root, ExecContext* ctx,
                           std::vector<Row>* out_rows);

/// Drains an already-open `child` to EOF into `*rows`, charging one work
/// unit per row — the materialization drain shared by SORT/TEMP and the
/// hash-join build and spill-probe sides. Returns kEof on completion or the
/// child's abort status (rows drained before the abort are kept).
ExecStatus DrainChildRows(Operator* child, ExecContext* ctx,
                          std::vector<Row>* rows);

}  // namespace popdb

#endif  // POPDB_EXEC_OPERATOR_H_
