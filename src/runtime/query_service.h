#ifndef POPDB_RUNTIME_QUERY_SERVICE_H_
#define POPDB_RUNTIME_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/pop.h"
#include "runtime/metrics.h"
#include "runtime/morsel_dispatcher.h"
#include "runtime/query_log.h"
#include "runtime/trace.h"
#include "storage/catalog.h"
#include "txn/write.h"

namespace popdb {

namespace txn {
class WriteManager;
}  // namespace txn

/// Admission lane. High-priority submissions are dispatched before any
/// queued normal-priority work; within a lane, dispatch is FIFO.
enum class QueryPriority { kNormal = 0, kHigh = 1 };

/// Pluggable distributed execution back end (implemented by
/// dist::Coordinator; declared here so runtime does not depend on dist).
/// When attached via ServiceConfig::dist_backend, workers route every
/// query the back end claims (CanExecute) through Execute instead of the
/// local ProgressiveExecutor; everything else (admission, deadlines,
/// cancellation, tracing, metrics) stays with the service.
///
/// Implementations must be thread safe: multiple workers may call
/// Execute concurrently.
/// Cross-layer identity of one distributed query execution, threaded from
/// the service into the back end so coordinator- and shard-side trace
/// spans can be stitched into one cluster timeline.
struct DistQueryInfo {
  int64_t query_id = 0;     ///< Service-assigned id; 0 = untracked.
  std::string trace_token;  ///< Cluster-unique trace token ("q<id>" or
                            ///< client-chosen); empty = untraced.
};

class DistributedBackend {
 public:
  virtual ~DistributedBackend() = default;

  /// True when the back end can run `query` exhaustively (e.g. the query's
  /// partitioned tables are co-partition joined). False routes the query
  /// to local execution.
  virtual bool CanExecute(const QuerySpec& query) const = 0;

  /// Runs `query` across the cluster. `cancel` (never null) propagates
  /// client cancellation and deadlines; `feedback` (may be null) is the
  /// session's cross-query feedback store to seed from and absorb into;
  /// `stats` (never null) receives attempt/timing/re-opt diagnostics.
  /// `info` carries the query id and trace token for cluster-wide trace
  /// stitching (propagated to shards in the `subplan` wire request).
  virtual Result<std::vector<Row>> Execute(const QuerySpec& query,
                                           CancelToken* cancel,
                                           QueryFeedbackStore* feedback,
                                           ExecutionStats* stats,
                                           const DistQueryInfo& info = {}) = 0;
};

/// Configuration of a QueryService instance.
struct ServiceConfig {
  /// Worker threads executing queries (each runs one query at a time).
  int num_workers = 4;

  /// Bound on queued (admitted, not yet running) queries across both
  /// lanes; Submit rejects with ResourceExhausted when the bound is hit.
  int queue_capacity = 64;

  /// Progressive (POP) execution; false = classic optimize-once execution.
  bool use_pop = true;

  /// One process-wide feedback store shared by all sessions: cardinalities
  /// learned by any query's re-optimization seed the planning of
  /// concurrent and subsequent queries (LEO-style, across threads). When
  /// false, feedback is isolated per SubmitOptions::session_id.
  bool share_feedback = true;

  /// Deadline applied to queries that don't specify one; 0 = none. The
  /// clock starts at submission, so queue wait counts against it.
  double default_deadline_ms = 0.0;

  /// Simulated per-query storage/network stall in ms (the worker sleeps
  /// this long before executing). Models the I/O wait of a disk-based
  /// engine so scheduler experiments (bench_runtime_throughput) can
  /// measure dispatch scaling independent of core count; 0 = off.
  double io_stall_ms = 0.0;

  /// Intra-query (morsel) degree of parallelism. When > 1, parallelizable
  /// plan fragments fan out over the service's own worker pool: idle
  /// workers double as morsel helpers, so intra-query parallelism uses
  /// exactly the capacity inter-query scheduling leaves free and degrades
  /// to serial execution under full load. 1 = serial (default).
  int intra_query_dop = 1;

  /// Rows per morsel when intra_query_dop > 1.
  int64_t morsel_rows = 2048;

  /// Tables below this size are never morsel-parallelized (fan-out
  /// overhead would dominate).
  int64_t min_parallel_rows = 4096;

  /// Rows per execution batch (ParallelPolicy::batch_rows); <= 1 means
  /// batches of one row. Results and re-optimization behavior are
  /// bit-identical at every size.
  int64_t exec_batch_rows = 1024;

  /// Shared plan-cache capacity in entries; <= 0 disables plan caching.
  /// The cache is keyed by canonical query signature and gated by the
  /// catalog stats version and the feedback digest, so repeat submissions
  /// (prepared statements with different bindings included) skip DP
  /// enumeration and checkpoint placement while hits remain provably
  /// identical to fresh optimizations. Only effective when use_pop is
  /// true (static runs never consult the cache).
  int64_t plan_cache_entries = 256;

  /// Relaxed reuse: serve entries whose feedback digest moved as long as
  /// every current cardinality stays inside the cached plan's validity
  /// ranges (PlanCacheConfig::validity_hits). Off by default.
  bool plan_cache_validity_hits = false;

  /// Capacity of the always-on structured query log (the last N finished
  /// queries as compact JSONL records: signature, plan digest, cache
  /// outcome, re-opt count, CHECK firings by flavor, per-shard timings,
  /// peak Q-error, final status). <= 0 disables the log.
  int64_t query_log_entries = 512;

  OptimizerConfig optimizer;
  PopConfig pop;

  /// Receives a QueryTrace for every finished query. Not owned; may be
  /// null. Must be thread safe (workers emit concurrently).
  TraceSink* trace_sink = nullptr;

  /// Distributed scatter-gather back end (coordinator mode). Not owned;
  /// may be null (all queries execute locally). Queries the back end does
  /// not claim fall back to local execution against `catalog`.
  DistributedBackend* dist_backend = nullptr;
};

/// Per-submission options.
struct SubmitOptions {
  QueryPriority priority = QueryPriority::kNormal;

  /// Deadline in ms from submission; -1 = service default, 0 = none.
  double deadline_ms = -1.0;

  /// Feedback scope when ServiceConfig::share_feedback is false. Ignored
  /// (all sessions share) when share_feedback is true.
  uint64_t session_id = 0;

  /// Client-chosen trace token carried through the execution (root span
  /// label, shard subplan requests). Empty = service assigns "q<id>".
  std::string trace_token;
};

/// Final outcome of a submitted query.
struct QueryResult {
  Status status;
  std::vector<Row> rows;
  QueryTrace trace;
};

/// Final outcome of a DML statement routed through ExecuteWrite.
struct WriteQueryResult {
  Status status;
  int64_t query_id = 0;
  int64_t affected_rows = 0;
  /// Catalog stats version after the statement (readers of this value can
  /// correlate plan-cache invalidations with the write that caused them).
  int64_t stats_version = 0;
  /// True when this statement's churn crossed the fold threshold and the
  /// table's statistics were refreshed (bumping the stats version).
  bool stats_folded = false;
  double total_ms = 0.0;
};

/// Client-side handle for one submission. Thread safe; obtained from
/// QueryService::Submit as a shared_ptr (the service keeps a reference
/// until the query finishes, so the client may drop the ticket early).
class QueryTicket {
 public:
  /// Requests cooperative cancellation: a still-queued query finishes as
  /// cancelled without executing; a running query unwinds at its next
  /// cancellation poll inside the operator tree.
  void Cancel() { cancel_.RequestCancel(); }

  /// Blocks until the query finished. The reference stays valid for the
  /// ticket's lifetime.
  const QueryResult& Wait();

  /// Waits up to `timeout_ms`; returns false on timeout.
  bool WaitForMs(double timeout_ms);

  bool done() const;

  int64_t query_id() const { return query_id_; }

 private:
  friend class QueryService;

  explicit QueryTicket(QuerySpec query) : query_(std::move(query)) {}

  // Submission metadata, immutable after Submit().
  QuerySpec query_;
  QueryPriority priority_ = QueryPriority::kNormal;
  uint64_t session_id_ = 0;
  int64_t query_id_ = 0;
  double submit_ms_ = 0.0;
  std::string trace_token_;

  CancelToken cancel_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryResult result_;
};

/// Concurrent query-service front end over ProgressiveExecutor: a fixed
/// worker pool pulls submissions from a bounded two-lane admission queue
/// and executes them progressively, sharing re-optimization feedback
/// across the whole workload. Per-query deadlines and client cancellation
/// unwind running operator trees cooperatively.
///
/// Example:
///   QueryService service(catalog, ServiceConfig{});
///   auto ticket = service.Submit(query);
///   if (!ticket.ok()) ...           // e.g. admission queue full
///   const QueryResult& r = ticket.value()->Wait();
///   r.trace.ToJson();               // structured per-query trace
class QueryService {
 public:
  /// `catalog` must outlive the service.
  QueryService(const Catalog& catalog, ServiceConfig config);

  /// Drains queued queries, then joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits a query for execution. Fails with ResourceExhausted when the
  /// admission queue is full (the query is not enqueued and counts as
  /// rejected) and with InvalidArgument after Shutdown.
  Result<std::shared_ptr<QueryTicket>> Submit(QuerySpec query,
                                              SubmitOptions opts = {});

  /// Convenience: Submit + Wait. Admission failures surface as the
  /// result's status.
  QueryResult ExecuteSync(QuerySpec query, SubmitOptions opts = {});

  /// Stops admission and joins the workers. drain=true (default) finishes
  /// all queued queries first; drain=false completes queued-but-not-started
  /// queries as cancelled. Idempotent.
  void Shutdown(bool drain = true);

  /// Aggregate counters and latency percentiles.
  ServiceStatsSnapshot Stats() const { return metrics_.Snapshot(); }

  /// Prometheus text exposition of every service and engine metric:
  /// service counters, the latency histogram, checks fired by flavor, the
  /// per-operator Q-error distribution, admission queue depth, and
  /// feedback-store effectiveness. Ready to serve from a /metrics
  /// endpoint.
  std::string MetricsText();

  /// The registry backing MetricsText() (for registering extra metrics or
  /// inspecting individual families in tests).
  MetricsRegistry& metrics_registry() { return metrics_.registry(); }

  /// Process-wide check-firing history: canonical subplan signature of the
  /// guarded edge -> number of times a checkpoint on it fired. Shared
  /// diagnostic memory of where the optimizer's estimates break.
  std::map<std::string, int64_t> CheckHistory() const;

  const ServiceConfig& config() const { return config_; }

  /// The catalog queries execute against (front ends bind SQL text against
  /// it before submitting).
  const Catalog& catalog() const { return catalog_; }

  /// The shared plan cache, or null when plan_cache_entries <= 0 (tests:
  /// inspect hit/miss counters).
  PlanCache* plan_cache() { return plan_cache_.get(); }

  /// The process-wide shared feedback store (tests: inspect learned
  /// cardinalities).
  QueryFeedbackStore& shared_feedback() { return shared_feedback_; }

  /// Draws a fresh id from the service-wide query-id sequence. Used by
  /// front ends for work they track in the session registry without a
  /// ticket (e.g. shard subplan executions), so cancel-by-id has one id
  /// space.
  int64_t AllocateQueryId() { return next_query_id_.fetch_add(1); }

  /// The structured query log, or null when query_log_entries <= 0. Front
  /// ends serve it over the `query_log` wire request; shard servers also
  /// append their subplan executions to it.
  QueryLog* query_log() { return query_log_.get(); }

  /// Completes a finished query's record — completion time, final-plan
  /// digest, peak Q-error — and appends it to the query log without plan
  /// text or profiles (only the final attempt's per-shard breakdown stays),
  /// signed with `query`'s signature when given. Reads, writes, and shard
  /// subplans all finish through here. Thread safe.
  void RecordCompletion(QueryTrace* trace, const QuerySpec* query = nullptr);

  /// Attaches the write path. `writes` (not owned, may be null to detach)
  /// must outlive the service; the owner also owns the *mutable* catalog
  /// behind `catalog()`. Until attached, ExecuteWrite rejects every
  /// statement (read-only service).
  void AttachWriteManager(txn::WriteManager* writes) {
    write_manager_ = writes;
  }

  /// Applies one bound DML statement synchronously on the caller's thread.
  /// Writes do not pass the admission queue: WriteManager serializes per
  /// table (its write lane), so the statement blocks only on same-table
  /// writers while analytical queries proceed on snapshots. Records
  /// metrics (popdb_writes_total{op}, popdb_stats_version_bumps_total) and
  /// a kind="write" query-log entry.
  WriteQueryResult ExecuteWrite(const txn::WriteStatement& stmt);

 private:
  void WorkerLoop();
  void RunOne(const std::shared_ptr<QueryTicket>& ticket);
  void FinishTicket(const std::shared_ptr<QueryTicket>& ticket,
                    QueryResult result, QueryTrace trace);
  /// Feeds every annotated operator's Q-error into qerror_hist_.
  void ObserveQErrors(const PlanProfileNode& node);
  /// Store for a session (the shared store, or the per-session one).
  QueryFeedbackStore* FeedbackFor(uint64_t session_id);

  const Catalog& catalog_;
  ServiceConfig config_;
  ServiceMetrics metrics_;

  // Engine-level metrics, registered in metrics_.registry() (cached raw
  // pointers; the registry owns them).
  Counter* flavor_fired_[6] = {};       ///< Indexed by CheckFlavor.
  Histogram* qerror_hist_ = nullptr;    ///< Per-operator Q-error.
  Gauge* queue_depth_ = nullptr;        ///< Queued, not yet dispatched.
  Gauge* feedback_lookups_ = nullptr;   ///< Shared-store Seed() calls.
  Gauge* feedback_hits_ = nullptr;      ///< ... that found cardinalities.
  Gauge* feedback_seeded_ = nullptr;    ///< Cardinalities handed out.

  // Incremental re-optimization counters (registered when use_pop).
  Counter* reopt_incremental_hits_ = nullptr;  ///< Memo entries reused.
  Counter* reopt_incremental_invalidated_ = nullptr;  ///< Entries dropped.

  // Morsel-parallelism metrics (registered only when intra_query_dop > 1).
  Counter* morsels_total_ = nullptr;        ///< Morsels executed.
  Counter* parallel_work_total_ = nullptr;  ///< Work units done in parallel
                                            ///< fragments.
  Counter* work_total_ = nullptr;           ///< All work units (parallel
                                            ///< fraction denominator).
  Histogram* parallel_fraction_ = nullptr;  ///< Per-query parallel share.
  Gauge* morsel_submitted_ = nullptr;       ///< Dispatcher: accepted tasks.
  Gauge* morsel_rejected_ = nullptr;        ///< Dispatcher: backpressure.
  Gauge* morsel_ran_ = nullptr;             ///< Tasks run by helpers.
  Gauge* morsel_stale_ = nullptr;           ///< Stolen back before helper.
  Gauge* morsel_active_ = nullptr;          ///< Workers inside a morsel.

  // Write-path metrics (always registered; the write path may attach
  // after construction).
  Counter* writes_total_[3] = {};  ///< Indexed by txn::WriteOp.
  Counter* stats_version_bumps_ = nullptr;  ///< Write-triggered stats folds.

  // Plan-cache metrics (registered only when the cache is enabled).
  // Counters are mirrored from PlanCache::stats() at scrape time.
  Gauge* plan_cache_stale_stats_evictions_ = nullptr;  ///< Evicted because
                                                       ///< the stats
                                                       ///< version moved.
  Gauge* plan_cache_lookups_ = nullptr;
  Gauge* plan_cache_hits_ = nullptr;         ///< Exact + validity hits.
  Gauge* plan_cache_misses_ = nullptr;       ///< All miss kinds.
  Gauge* plan_cache_invalidations_ = nullptr;  ///< Entries evicted as
                                               ///< stale (stats/validity).
  Gauge* plan_cache_installs_ = nullptr;
  Gauge* plan_cache_size_ = nullptr;         ///< Entries resident now.
  Histogram* plan_cache_hit_age_ = nullptr;  ///< Age of served entries.

  std::mutex mu_;
  std::condition_variable cv_;
  /// Index 0 = normal lane, 1 = high lane; each FIFO.
  std::deque<std::shared_ptr<QueryTicket>> lanes_[2];
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  /// Shared fan-out point for intra-query parallelism; null when
  /// intra_query_dop <= 1. External-worker mode: WorkerLoop drains it.
  std::unique_ptr<MorselDispatcher> morsel_pool_;

  /// Shared across all workers and sessions; null when disabled. An entry
  /// is gated on the catalog stats version and the digest of the feedback
  /// the executor seeds from *its* store (the shared one, or the
  /// per-session one when share_feedback is off), so cross-session reuse
  /// stays sound either way: a hit requires the exact optimizer inputs
  /// that installed the entry.
  std::unique_ptr<PlanCache> plan_cache_;

  /// Always-on structured query log; null when disabled.
  std::unique_ptr<QueryLog> query_log_;

  /// Write path; null until AttachWriteManager (read-only service).
  txn::WriteManager* write_manager_ = nullptr;

  QueryFeedbackStore shared_feedback_;
  std::mutex sessions_mu_;
  std::map<uint64_t, std::unique_ptr<QueryFeedbackStore>> session_feedback_;

  mutable std::mutex history_mu_;
  std::map<std::string, int64_t> check_history_;

  std::atomic<int64_t> next_query_id_{1};
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_QUERY_SERVICE_H_
