#include "runtime/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/span.h"
#include "core/leo.h"
#include "opt/plan_cache.h"
#include "txn/write_manager.h"

namespace popdb {

namespace {
const char* PriorityName(QueryPriority p) {
  return p == QueryPriority::kHigh ? "high" : "normal";
}

const char* OutcomeName(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline";
    default:
      return "error";
  }
}
}  // namespace

// ------------------------------------------------------------ QueryTicket

const QueryResult& QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool QueryTicket::WaitForMs(double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [this] { return done_; });
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

// ------------------------------------------------------------ QueryService

QueryService::QueryService(const Catalog& catalog, ServiceConfig config)
    : catalog_(catalog), config_(std::move(config)) {
  if (config_.num_workers < 1) config_.num_workers = 1;
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;

  MetricsRegistry& registry = metrics_.registry();
  for (int f = 0; f < 6; ++f) {
    flavor_fired_[f] = registry.GetCounter(
        "popdb_checks_fired_by_flavor_total",
        "CHECK violations by checkpoint flavor.",
        std::string("flavor=\"") +
            CheckFlavorName(static_cast<CheckFlavor>(f)) + "\"");
  }
  // Q-error is >= 1 by definition; 1..~1e6 in doubling buckets.
  qerror_hist_ = registry.GetHistogram(
      "popdb_operator_qerror",
      "Per-operator cardinality Q-error (max(est/act, act/est)) observed "
      "by EXPLAIN ANALYZE profiles.",
      Histogram::LogBuckets(1.0, 2.0, 20));
  queue_depth_ = registry.GetGauge("popdb_admission_queue_depth",
                                   "Queries queued, not yet dispatched.");
  feedback_lookups_ = registry.GetGauge(
      "popdb_feedback_seed_lookups",
      "Compilations that consulted the shared feedback store.");
  feedback_hits_ = registry.GetGauge(
      "popdb_feedback_seed_hits",
      "Compilations seeded with at least one learned cardinality.");
  feedback_seeded_ = registry.GetGauge(
      "popdb_feedback_seeded_cards",
      "Learned cardinalities handed to compilations in total.");

  for (int op = 0; op < 3; ++op) {
    writes_total_[op] = registry.GetCounter(
        "popdb_writes_total", "DML statements applied, by operation.",
        std::string("op=\"") +
            txn::WriteOpName(static_cast<txn::WriteOp>(op)) + "\"");
  }
  stats_version_bumps_ = registry.GetCounter(
      "popdb_stats_version_bumps_total",
      "Catalog stats-version bumps caused by write-path statistics folds "
      "(accumulated churn crossed the drift threshold).");

  if (config_.use_pop) {
    reopt_incremental_hits_ = registry.GetCounter(
        "popdb_reopt_incremental_hits",
        "DP memo entries reused by incremental re-optimizations instead of "
        "being re-enumerated.");
    reopt_incremental_invalidated_ = registry.GetCounter(
        "popdb_reopt_incremental_invalidated_entries",
        "DP memo entries invalidated because their table set contained an "
        "edge whose observed cardinality changed.");
  }

  if (config_.use_pop && config_.plan_cache_entries > 0) {
    PlanCacheConfig cache_config;
    cache_config.max_entries = config_.plan_cache_entries;
    cache_config.validity_hits = config_.plan_cache_validity_hits;
    plan_cache_ = std::make_unique<PlanCache>(cache_config);

    plan_cache_lookups_ = registry.GetGauge(
        "popdb_plan_cache_lookups",
        "Plan-cache lookups (first optimization attempts).");
    plan_cache_hits_ = registry.GetGauge(
        "popdb_plan_cache_hits",
        "Lookups served from the plan cache (DP enumeration skipped).");
    plan_cache_misses_ = registry.GetGauge(
        "popdb_plan_cache_misses",
        "Lookups that fell through to full optimization (cold, stale, "
        "epoch-invalidated, or validity-violated).");
    plan_cache_invalidations_ = registry.GetGauge(
        "popdb_plan_cache_invalidations",
        "Entries evicted as invalid (stats refresh / matview DDL epoch "
        "bumps and validity-range violations).");
    plan_cache_stale_stats_evictions_ = registry.GetGauge(
        "popdb_plan_cache_stale_stats_evictions_total",
        "Plan-cache entries evicted because the catalog stats version "
        "moved since install (write-path statistics folds).");
    plan_cache_installs_ = registry.GetGauge(
        "popdb_plan_cache_installs",
        "Optimized plan skeletons installed into the cache.");
    plan_cache_size_ = registry.GetGauge(
        "popdb_plan_cache_size", "Plan-cache entries currently resident.");
    plan_cache_near_misses_ = registry.GetGauge(
        "popdb_plan_cache_near_misses",
        "Lookups whose signature matched but whose feedback digest moved; "
        "their stale skeleton warm-starts incremental re-optimization.");
    // Entry ages span sub-ms re-submissions to long-lived sessions;
    // 0.5ms..~4.4min in doubling buckets.
    plan_cache_hit_age_ = registry.GetHistogram(
        "popdb_plan_cache_hit_age_ms",
        "Age of plan-cache entries at the moment they were served.",
        Histogram::LogBuckets(0.5, 2.0, 20));
  }

  if (config_.query_log_entries > 0) {
    query_log_ = std::make_unique<QueryLog>(config_.query_log_entries);
  }

  if (config_.intra_query_dop > 1) {
    // External-worker mode: the service's own workers drain the morsel
    // queue whenever they are not running a query, so intra-query
    // parallelism never over-subscribes the pool.
    morsel_pool_ = std::make_unique<MorselDispatcher>(
        MorselDispatcher::ExternalWorkersTag{},
        /*queue_capacity=*/config_.num_workers * 8 + 64);
    morsel_pool_->set_notify([this] { cv_.notify_all(); });

    morsels_total_ = registry.GetCounter(
        "popdb_morsels_dispatched_total",
        "Morsels executed by parallel plan fragments.");
    parallel_work_total_ = registry.GetCounter(
        "popdb_parallel_work_units_total",
        "Work units performed inside morsel-parallel fragments.");
    work_total_ = registry.GetCounter(
        "popdb_work_units_total",
        "Work units performed by all queries (parallel-fraction "
        "denominator).");
    // Fraction in [0, 1]; eighth-wide linear buckets.
    parallel_fraction_ = registry.GetHistogram(
        "popdb_query_parallel_fraction",
        "Per-query share of execution work done in parallel fragments.",
        {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0});
    morsel_submitted_ = registry.GetGauge(
        "popdb_morsel_tasks_submitted",
        "Morsel tasks accepted by the dispatcher queue.");
    morsel_rejected_ = registry.GetGauge(
        "popdb_morsel_tasks_rejected",
        "Morsel tasks refused on backpressure (ran inline instead).");
    morsel_ran_ = registry.GetGauge(
        "popdb_morsel_tasks_ran",
        "Morsel tasks claimed and run by helper workers.");
    morsel_stale_ = registry.GetGauge(
        "popdb_morsel_tasks_stale",
        "Morsel tasks stolen back by their owner before a helper got "
        "there.");
    morsel_active_ = registry.GetGauge(
        "popdb_morsel_workers_active",
        "Workers currently inside a helper-claimed morsel task "
        "(per-pipeline thread occupancy).");
  }

  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

Result<std::shared_ptr<QueryTicket>> QueryService::Submit(
    QuerySpec query, SubmitOptions opts) {
  metrics_.OnSubmitted();
  std::shared_ptr<QueryTicket> ticket(new QueryTicket(std::move(query)));
  ticket->priority_ = opts.priority;
  ticket->session_id_ = config_.share_feedback ? 0 : opts.session_id;
  ticket->query_id_ = next_query_id_.fetch_add(1);
  ticket->submit_ms_ = NowMs();
  ticket->trace_token_ = opts.trace_token.empty()
                             ? "q" + std::to_string(ticket->query_id_)
                             : std::move(opts.trace_token);
  const double deadline_ms =
      opts.deadline_ms < 0 ? config_.default_deadline_ms : opts.deadline_ms;
  if (deadline_ms > 0) ticket->cancel_.SetDeadlineAfterMs(deadline_ms);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      metrics_.OnRejected();
      return Status::InvalidArgument("query service is shut down");
    }
    if (static_cast<int>(lanes_[0].size() + lanes_[1].size()) >=
        config_.queue_capacity) {
      metrics_.OnRejected();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(config_.queue_capacity) +
          " pending queries)");
    }
    lanes_[static_cast<int>(ticket->priority_)].push_back(ticket);
    metrics_.OnAdmitted();
    queue_depth_->Set(static_cast<int64_t>(lanes_[0].size()) +
                      static_cast<int64_t>(lanes_[1].size()));
  }
  cv_.notify_one();
  return ticket;
}

QueryResult QueryService::ExecuteSync(QuerySpec query, SubmitOptions opts) {
  Result<std::shared_ptr<QueryTicket>> ticket =
      Submit(std::move(query), opts);
  if (!ticket.ok()) {
    QueryResult result;
    result.status = ticket.status();
    return result;
  }
  return ticket.value()->Wait();
}

void QueryService::Shutdown(bool drain) {
  std::vector<std::shared_ptr<QueryTicket>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      if (!drain) {
        for (auto& lane : lanes_) {
          for (auto& t : lane) {
            t->Cancel();
            dropped.push_back(std::move(t));
          }
          lane.clear();
        }
      }
    }
  }
  // Complete dropped tickets as cancelled (outside the queue lock).
  for (const auto& t : dropped) {
    QueryResult result;
    result.status =
        Status::Cancelled("query '" + t->query_.name() +
                          "' dropped: service shut down before execution");
    QueryTrace trace;
    trace.queue_ms = NowMs() - t->submit_ms_;
    FinishTicket(t, std::move(result), std::move(trace));
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // All queries are done; stop accepting morsel tasks. Anything still
  // queued is stolen back and run inline by its owning TaskGroup.
  if (morsel_pool_ != nullptr) morsel_pool_->Shutdown();
}

void QueryService::WorkerLoop() {
  while (true) {
    std::shared_ptr<QueryTicket> ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return shutdown_ || !lanes_[0].empty() || !lanes_[1].empty() ||
               (morsel_pool_ != nullptr && morsel_pool_->HasQueued());
      });
      // Morsel tasks first: finishing in-flight queries beats admitting
      // new ones, and every queued morsel has a worker blocked on it.
      if (morsel_pool_ != nullptr && morsel_pool_->HasQueued()) {
        lock.unlock();
        while (morsel_pool_->TryRunOne()) {
        }
        continue;
      }
      // High lane first; FIFO within a lane.
      if (!lanes_[1].empty()) {
        ticket = std::move(lanes_[1].front());
        lanes_[1].pop_front();
      } else if (!lanes_[0].empty()) {
        ticket = std::move(lanes_[0].front());
        lanes_[0].pop_front();
      } else {
        return;  // shutdown_ and both lanes empty
      }
      queue_depth_->Set(static_cast<int64_t>(lanes_[0].size()) +
                        static_cast<int64_t>(lanes_[1].size()));
    }
    RunOne(ticket);
  }
}

QueryFeedbackStore* QueryService::FeedbackFor(uint64_t session_id) {
  if (config_.share_feedback) return &shared_feedback_;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::unique_ptr<QueryFeedbackStore>& store = session_feedback_[session_id];
  if (store == nullptr) store = std::make_unique<QueryFeedbackStore>();
  return store.get();
}

void QueryService::RunOne(const std::shared_ptr<QueryTicket>& ticket) {
  QueryTrace trace;
  trace.query_id = ticket->query_id_;
  trace.query_name = ticket->query_.name();
  trace.session_id = ticket->session_id_;
  trace.priority = PriorityName(ticket->priority_);
  trace.shared_feedback = config_.share_feedback;
  trace.queue_ms = NowMs() - ticket->submit_ms_;

  if (config_.io_stall_ms > 0 && !ticket->cancel_.Expired()) {
    // Simulated I/O stall, sliced so cancellation stays responsive.
    double remaining_ms = config_.io_stall_ms;
    while (remaining_ms > 0 && !ticket->cancel_.Expired()) {
      const double slice = remaining_ms < 1.0 ? remaining_ms : 1.0;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      remaining_ms -= slice;
    }
  }

  // Root span of the query's timeline, tagged with its trace token so
  // shard-side spans carrying the same token stitch under it. Recorded
  // manually (not RAII) so it is already in the buffer when FinishTicket
  // wakes the client — a spans request racing the scope exit would
  // otherwise miss it.
  SpanTracer& tracer = SpanTracer::Global();
  const bool span_active = tracer.enabled();
  const int64_t span_start_us = span_active ? tracer.NowUs() : 0;

  QueryResult result;
  ExecutionStats stats;
  bool executed = false;
  if (ticket->cancel_.Expired()) {
    // Cancelled (or past deadline) while still queued: never execute.
    result.status =
        ticket->cancel_.reason() == CancelReason::kDeadline
            ? Status::DeadlineExceeded("query '" + trace.query_name +
                                       "' exceeded its deadline in the queue")
            : Status::Cancelled("query '" + trace.query_name +
                                "' cancelled while queued");
  } else if (config_.dist_backend != nullptr &&
             config_.dist_backend->CanExecute(ticket->query_)) {
    // Scatter-gather execution across shards. The distributed path skips
    // the local plan cache and matview reuse (shard results never
    // materialize here) but shares the cross-query feedback store, so
    // cluster-harvested cardinalities seed later compilations too.
    executed = true;
    DistQueryInfo info;
    info.query_id = ticket->query_id_;
    info.trace_token = ticket->trace_token_;
    Result<std::vector<Row>> rows = config_.dist_backend->Execute(
        ticket->query_, &ticket->cancel_, FeedbackFor(ticket->session_id_),
        &stats, info);
    FillTraceFromStats(&stats, &trace);
    result.status = rows.status();
    if (rows.ok()) result.rows = std::move(rows).TakeValue();
    metrics_.OnReopts(stats.reopts, trace.checks_fired);
    if (reopt_incremental_hits_ != nullptr) {
      reopt_incremental_hits_->Increment(stats.memo_entries_reused);
      reopt_incremental_invalidated_->Increment(
          stats.memo_entries_invalidated);
    }
  } else {
    executed = true;
    ProgressiveExecutor exec(catalog_, config_.optimizer, config_.pop);
    exec.set_cross_query_store(FeedbackFor(ticket->session_id_));
    exec.set_plan_cache(plan_cache_.get());
    exec.set_cancel_token(&ticket->cancel_);
    ParallelPolicy parallel;
    parallel.batch_rows = config_.exec_batch_rows;
    if (morsel_pool_ != nullptr) {
      parallel.dop = config_.intra_query_dop;
      parallel.morsel_rows = config_.morsel_rows;
      parallel.min_parallel_rows = config_.min_parallel_rows;
    }
    // A null pool leaves execution serial; the policy still carries the
    // execution batch size.
    exec.set_parallel(morsel_pool_.get(), parallel);
    Result<std::vector<Row>> rows =
        config_.use_pop ? exec.Execute(ticket->query_, &stats)
                        : exec.ExecuteStatic(ticket->query_, &stats);
    FillTraceFromStats(&stats, &trace);
    result.status = rows.status();
    if (rows.ok()) result.rows = std::move(rows).TakeValue();

    if (morsel_pool_ != nullptr) {
      morsels_total_->Increment(stats.morsels_dispatched);
      parallel_work_total_->Increment(stats.parallel_work);
      work_total_->Increment(stats.total_work);
      if (stats.total_work > 0) {
        parallel_fraction_->Observe(static_cast<double>(stats.parallel_work) /
                                    static_cast<double>(stats.total_work));
      }
    }
    if (plan_cache_ != nullptr &&
        (stats.plan_cache == PlanCacheOutcome::kHit ||
         stats.plan_cache == PlanCacheOutcome::kValidityHit)) {
      plan_cache_hit_age_->Observe(stats.plan_cache_age_ms);
    }
    metrics_.OnReopts(stats.reopts, trace.checks_fired);
    if (reopt_incremental_hits_ != nullptr) {
      reopt_incremental_hits_->Increment(stats.memo_entries_reused);
      reopt_incremental_invalidated_->Increment(
          stats.memo_entries_invalidated);
    }
  }

  if (executed) {
    // Engine diagnostics shared by both execution paths: the distributed
    // coordinator reports CHECK firings and per-shard profiles through the
    // same ExecutionStats shape the local executor uses.
    if (trace.checks_fired > 0) {
      std::lock_guard<std::mutex> lock(history_mu_);
      for (const CheckEvent& ev : stats.check_events) {
        if (!ev.fired) continue;
        ++check_history_[QueryFeedbackStore::SubplanSignature(ticket->query_,
                                                              ev.edge_set)];
      }
    }
    for (int f = 0; f < 6; ++f) {
      if (trace.flavor_fired[f] > 0) {
        flavor_fired_[f]->Increment(trace.flavor_fired[f]);
      }
    }
    for (const AttemptInfo& a : trace.attempts) {
      if (a.has_profile) ObserveQErrors(a.profile);
    }
  }

  if (span_active) {
    tracer.RecordSpan("query", "service", span_start_us,
                      tracer.NowUs() - span_start_us, "query_id",
                      ticket->query_id_, tracer.Intern(ticket->trace_token_));
  }
  FinishTicket(ticket, std::move(result), std::move(trace));
}

void QueryService::FinishTicket(const std::shared_ptr<QueryTicket>& ticket,
                                QueryResult result, QueryTrace trace) {
  trace.total_ms = NowMs() - ticket->submit_ms_;
  trace.outcome = OutcomeName(result.status);
  if (!result.status.ok()) trace.status_message = result.status.ToString();
  RecordCompletion(&trace, &ticket->query_);

  switch (result.status.code()) {
    case StatusCode::kOk:
      metrics_.OnCompleted();
      break;
    case StatusCode::kCancelled:
      metrics_.OnCancelled();
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.OnDeadlineExpired();
      break;
    default:
      metrics_.OnFailed();
  }
  metrics_.RecordLatency(trace.total_ms);

  if (config_.trace_sink != nullptr) config_.trace_sink->Emit(trace);
  result.trace = std::move(trace);

  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->result_ = std::move(result);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

void QueryService::RecordCompletion(QueryTrace* trace,
                                    const QuerySpec* query) {
  trace->end_ms = NowMs();
  // Shard subplans record no plan text: their digest stays 0.
  if (!trace->attempts.empty() && !trace->attempts.back().plan_text.empty()) {
    trace->plan_digest = PlanTextDigest(trace->attempts.back().plan_text);
  }
  for (const AttemptInfo& a : trace->attempts) {
    if (a.has_profile) {
      trace->peak_qerror =
          std::max(trace->peak_qerror, PeakProfileQError(a.profile));
    }
  }
  if (query_log_ == nullptr) return;
  // The log entry is the record minus its attempts, plus the final
  // attempt's shards when it ran distributed.
  std::vector<AttemptInfo> attempts = std::exchange(trace->attempts, {});
  QueryTrace entry = *trace;
  trace->attempts = std::move(attempts);
  if (query != nullptr) entry.signature = QueryCacheSignature(*query);
  if (trace->distributed()) {
    entry.attempts.emplace_back().shards = trace->attempts.back().shards;
  }
  query_log_->Append(std::move(entry));
}

void QueryService::ObserveQErrors(const PlanProfileNode& node) {
  const double q = node.QError();
  if (q >= 0) qerror_hist_->Observe(q);
  for (const PlanProfileNode& child : node.children) ObserveQErrors(child);
}

std::string QueryService::MetricsText() {
  // The feedback store keeps its own counters; mirror them into gauges at
  // scrape time (per-session stores, used when share_feedback is off, are
  // not aggregated here).
  feedback_lookups_->Set(shared_feedback_.seed_lookups());
  feedback_hits_->Set(shared_feedback_.seed_hits());
  feedback_seeded_->Set(shared_feedback_.seeded_cards());
  if (plan_cache_ != nullptr) {
    const PlanCache::Stats ps = plan_cache_->stats();
    plan_cache_lookups_->Set(ps.lookups);
    plan_cache_hits_->Set(ps.hits + ps.validity_hits);
    plan_cache_misses_->Set(ps.misses());
    plan_cache_invalidations_->Set(ps.evictions_invalid);
    plan_cache_stale_stats_evictions_->Set(ps.evictions_stale_stats);
    plan_cache_installs_->Set(ps.installs);
    plan_cache_size_->Set(plan_cache_->size());
    plan_cache_near_misses_->Set(ps.near_misses);
  }
  if (morsel_pool_ != nullptr) {
    const MorselDispatcher::Stats ms = morsel_pool_->stats();
    morsel_submitted_->Set(ms.submitted);
    morsel_rejected_->Set(ms.rejected);
    morsel_ran_->Set(ms.ran);
    morsel_stale_->Set(ms.stale);
    morsel_active_->Set(morsel_pool_->active());
  }
  return metrics_.registry().RenderPrometheus();
}

WriteQueryResult QueryService::ExecuteWrite(const txn::WriteStatement& stmt) {
  WriteQueryResult out;
  out.query_id = next_query_id_.fetch_add(1);
  const double start_ms = NowMs();

  if (write_manager_ == nullptr) {
    out.status = Status::InvalidArgument(
        "no write path attached: this service is read-only");
  } else {
    Result<txn::WriteResult> applied = write_manager_->Apply(stmt);
    out.status = applied.status();
    if (applied.ok()) {
      out.affected_rows = applied.value().affected_rows;
      out.stats_version = applied.value().stats_version;
      out.stats_folded = applied.value().stats_folded;
    }
  }
  out.total_ms = NowMs() - start_ms;

  if (out.status.ok()) {
    writes_total_[static_cast<int>(stmt.op)]->Increment();
    if (out.stats_folded) stats_version_bumps_->Increment();
  }

  QueryTrace trace;
  trace.query_id = out.query_id;
  trace.kind = "write";
  trace.query_name =
      std::string(txn::WriteOpName(stmt.op)) + " " + stmt.table;
  trace.outcome = OutcomeName(out.status);
  if (!out.status.ok()) trace.status_message = out.status.ToString();
  trace.execute_ms = out.total_ms;
  trace.total_ms = out.total_ms;
  trace.affected_rows = out.status.ok() ? out.affected_rows : 0;
  RecordCompletion(&trace);
  return out;
}

std::map<std::string, int64_t> QueryService::CheckHistory() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return check_history_;
}

}  // namespace popdb
