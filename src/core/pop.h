#ifndef POPDB_CORE_POP_H_
#define POPDB_CORE_POP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/executor_builder.h"
#include "core/explain.h"
#include "core/feedback.h"
#include "core/leo.h"
#include "core/matview.h"
#include "core/placement.h"
#include "core/validity.h"
#include "opt/optimizer.h"
#include "opt/plan_cache.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb {

/// Per-shard slice of one distributed attempt (filled by the scatter-gather
/// coordinator; empty for local executions).
struct ShardAttemptInfo {
  int shard = -1;
  double execute_ms = 0.0;  ///< Scatter start to this shard's completion.
  int64_t rows = 0;         ///< Rows streamed back (pre-violation included).
  std::string outcome;      ///< "ok", "reoptimize", "cancelled", ...
};

/// Diagnostics for one optimize+execute step of a progressive execution.
struct AttemptInfo {
  std::string plan_text;
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  int64_t work = 0;             ///< Work units spent in this attempt.
  int64_t candidates = 0;       ///< Optimizer candidates considered.
  PlacementStats checks;        ///< Checkpoints placed for this attempt.
  bool reoptimized = false;     ///< True if a CHECK fired.
  ReoptSignal signal;           ///< Valid when reoptimized.
  int64_t rows_returned = 0;    ///< Rows pipelined to the app this attempt.
  /// Post-execution snapshot of the operator tree with the optimizer's
  /// estimates next to the recorded actuals (EXPLAIN ANALYZE source).
  PlanProfileNode profile;
  bool has_profile = false;
  /// Distributed attempts only: per-shard timing/row/outcome breakdown.
  std::vector<ShardAttemptInfo> shards;
};

/// Diagnostics for a full progressive execution.
struct ExecutionStats {
  std::vector<AttemptInfo> attempts;
  double total_ms = 0.0;
  int64_t total_work = 0;
  int64_t result_rows = 0;
  int reopts = 0;
  int64_t mv_rows_harvested = 0;
  /// Morsel-parallel execution (set_parallel): morsels run across all
  /// attempts and the work units spent inside morsel tasks.
  /// parallel_work / total_work is the query's parallel fraction.
  int64_t morsels_dispatched = 0;
  int64_t parallel_work = 0;
  std::vector<CheckEvent> check_events;  ///< Accumulated over attempts.
  /// Plan-cache decision for the first attempt (kNone when no cache is
  /// attached or the run is non-progressive) and, on a hit, the age of the
  /// served entry.
  PlanCacheOutcome plan_cache = PlanCacheOutcome::kNone;
  double plan_cache_age_ms = 0.0;
  /// Incremental re-optimization: DP memo entries reused / discarded
  /// across all attempts.
  int64_t memo_entries_reused = 0;
  int64_t memo_entries_invalidated = 0;

  const AttemptInfo& last_attempt() const { return attempts.back(); }
};

/// One observed cardinality for a plan edge (subplan output), harvested
/// after an execution attempt. `exact` means the operator ran to
/// completion (EOF) so `rows` is the true cardinality; otherwise it is a
/// lower bound. This is the unit a shard ships to the coordinator so
/// cluster-level re-optimization can aggregate per-shard observations.
struct EdgeObservation {
  TableSet set = 0;
  double rows = 0.0;
  bool exact = false;
};

/// Collects every cardinality observation an executed (possibly aborted)
/// operator tree can justify: materializer counts, completed/partial plan
/// edges, and the failing check itself when one fired. Used by Harvest()
/// locally and by shard servers to export observations over the wire.
std::vector<EdgeObservation> CollectEdgeObservations(const ExecContext& ctx,
                                                     const BuiltPlan& built);

/// Progressive query executor (the paper's Figure 3 architecture): an
/// optimize → add-checkpoints → execute loop that re-optimizes whenever a
/// CHECK detects that the running plan left its validity range, feeding
/// actual cardinalities and materialized intermediate results back into
/// the next optimization, with a hard re-optimization budget and a final
/// check-free run to guarantee termination.
///
/// Example:
///   ProgressiveExecutor pop(catalog, OptimizerConfig{}, PopConfig{});
///   ExecutionStats stats;
///   Result<std::vector<Row>> rows = pop.Execute(query, &stats);
class ProgressiveExecutor {
 public:
  /// Invoked after checkpoint placement, before execution; test and
  /// benchmark hook (e.g. forcing a specific checkpoint to fail).
  using PlanHook = std::function<void(PlanNode*, int attempt)>;

  ProgressiveExecutor(const Catalog& catalog, OptimizerConfig opt_config,
                      PopConfig pop_config);

  /// Executes `query` with progressive optimization.
  Result<std::vector<Row>> Execute(const QuerySpec& query,
                                   ExecutionStats* stats = nullptr);

  /// Executes `query` the traditional way: one optimization, no
  /// checkpoints, no re-optimization (the paper's baseline).
  Result<std::vector<Row>> ExecuteStatic(const QuerySpec& query,
                                         ExecutionStats* stats = nullptr);

  /// Optimizes only (with validity-range analysis) — for plan inspection.
  Result<OptimizedPlan> Plan(const QuerySpec& query) const;

  /// Executes `query` progressively and returns the annotated plan-tree
  /// report: one section per attempt showing estimated vs. actual rows and
  /// Q-error per operator, plus why each re-optimization fired.
  Result<std::string> ExplainAnalyze(const QuerySpec& query,
                                     ExecutionStats* stats = nullptr);

  void set_plan_hook(PlanHook hook) { plan_hook_ = std::move(hook); }

  /// Optional LEO-style cross-query feedback store (Section 7 "Learning
  /// for the Future"): actual cardinalities learned during progressive
  /// executions seed the estimates of future structurally identical
  /// subplans. Not owned; may be null.
  void set_cross_query_store(QueryFeedbackStore* store) {
    cross_query_store_ = store;
  }

  /// Optional shared plan cache: when set, the first optimization of a
  /// progressive execution is preceded by a cache lookup keyed on the
  /// query's canonical signature plus this executor's optimizer-config
  /// fingerprint; a hit skips DP enumeration and goes straight to
  /// checkpoint placement over the cached skeleton, a miss installs the
  /// freshly optimized plan. Re-optimization attempts never consult the
  /// cache (their in-query feedback and matviews are execution-scoped).
  /// Not owned; may be null.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

  /// Cooperative cancellation: when set, the token is polled during
  /// execution (and between optimization attempts); a tripped token makes
  /// Execute return Status::Cancelled or Status::DeadlineExceeded, matching
  /// the token's reason. Not owned; may be null.
  void set_cancel_token(CancelToken* token) { cancel_token_ = token; }

  /// Morsel-driven intra-query parallelism: eligible base-table scans fan
  /// out over `runner` with at most `policy.dop` workers including the
  /// query's own thread (exec/parallel.h). Execution results, CHECK
  /// decisions, and harvested feedback are identical to serial execution;
  /// every task group joins inside the attempt, so re-optimization never
  /// overlaps in-flight morsel tasks. `runner` is not owned and may be
  /// null (serial).
  void set_parallel(TaskRunner* runner, ParallelPolicy policy) {
    task_runner_ = runner;
    parallel_ = policy;
  }

  const PopConfig& pop_config() const { return pop_config_; }
  const OptimizerConfig& optimizer_config() const {
    return optimizer_.config();
  }

 private:
  Result<std::vector<Row>> Run(const QuerySpec& query, bool pop_enabled,
                               ExecutionStats* stats);
  /// Plan-cache key: canonical query signature + optimizer-config
  /// fingerprint (so one cache shared across differently configured
  /// executors can never serve a plan chosen under other knobs).
  std::string PlanCacheKey(const QuerySpec& query) const;
  /// Harvests feedback and reusable intermediate results after a CHECK
  /// fired.
  void Harvest(const ExecContext& ctx, const BuiltPlan& built,
               bool compensation_present, ExecutionStats* stats);

  const Catalog& catalog_;
  Optimizer optimizer_;
  PopConfig pop_config_;
  PlanHook plan_hook_;

  FeedbackCache feedback_;
  MatViewRegistry matviews_;
  /// Persistent DP memo threaded through the attempts of one Run() (reset
  /// per query; PopConfig::incremental_reopt gates its use).
  IncrementalMemo memo_;
  QueryFeedbackStore* cross_query_store_ = nullptr;
  PlanCache* plan_cache_ = nullptr;
  CancelToken* cancel_token_ = nullptr;
  TaskRunner* task_runner_ = nullptr;
  ParallelPolicy parallel_;
};

/// Monotonic wall-clock milliseconds (benchmark helper).
double NowMs();

/// Renders the EXPLAIN ANALYZE report for a finished execution: per
/// attempt, the annotated operator tree (estimated vs. actual rows,
/// Q-error, timings) and the checkpoint that ended the attempt.
std::string RenderExplainAnalyze(const ExecutionStats& stats);

}  // namespace popdb

#endif  // POPDB_CORE_POP_H_
