#include "core/pop.h"

#include <chrono>

#include "common/span.h"
#include "common/string_util.h"

namespace popdb {

namespace {
Status CancelledStatus(const CancelToken& token, const std::string& name) {
  if (token.reason() == CancelReason::kDeadline) {
    return Status::DeadlineExceeded("query '" + name +
                                    "' exceeded its deadline");
  }
  return Status::Cancelled("query '" + name + "' was cancelled");
}
}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProgressiveExecutor::ProgressiveExecutor(const Catalog& catalog,
                                         OptimizerConfig opt_config,
                                         PopConfig pop_config)
    : catalog_(catalog),
      optimizer_(catalog, std::move(opt_config)),
      pop_config_(std::move(pop_config)) {}

std::string ProgressiveExecutor::PlanCacheKey(const QuerySpec& query) const {
  const OptimizerConfig& cfg = optimizer_.config();
  const CostParams& c = cfg.cost;
  const EstimatorConfig& e = cfg.estimator;
  const ValidityConfig& v = pop_config_.validity;
  const PopConfig& p = pop_config_;
  // Every knob the optimizer (or the validity analysis whose ranges the
  // cached skeleton carries) reads; two executors differing in any of them
  // must never share an entry. Placement knobs are included too: entries
  // also carry the checkpoint-placed plan, which depends on them.
  const std::string knobs = StrFormat(
      "%d%d%d%d|%g|%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d|"
      "%g,%g,%g,%g,%d|%d,%g,%g,%g,%g|%d%d%d%d%d%d%d,%g,%g,%g,%d,%g,%d",
      cfg.methods.enable_nljn ? 1 : 0, cfg.methods.enable_hsjn ? 1 : 0,
      cfg.methods.enable_mgjn ? 1 : 0, cfg.methods.consider_matviews ? 1 : 0,
      cfg.methods.volatile_mode_bias, c.mem_rows, c.scan_per_row,
      c.mv_scan_per_row, c.temp_per_row, c.hash_build_per_row,
      c.hash_probe_per_row, c.partition_per_row, c.sort_per_compare,
      c.sort_merge_pass_per_row, c.mgjn_per_row, c.nljn_outer_per_row,
      c.nljn_probe_per_match, c.nljn_scan_per_inner_row, c.agg_per_row,
      c.check_per_row, c.hash_fanout, e.default_eq_selectivity,
      e.default_range_selectivity, e.default_like_selectivity,
      e.default_join_selectivity, e.histogram_buckets, v.max_iterations,
      v.probe_step, v.divergence_jump, v.damping, v.max_card,
      p.enable_lc ? 1 : 0, p.enable_lcem ? 1 : 0, p.enable_ecb ? 1 : 0,
      p.enable_ecwc ? 1 : 0, p.enable_ecdc ? 1 : 0,
      p.require_narrowed_range ? 1 : 0, p.observe_only ? 1 : 0,
      p.min_plan_cost_for_checks, p.check_safety_factor,
      p.lcem_budget_fraction, p.max_reopts, p.work_bound_factor,
      p.min_assumptions_for_checks);
  return QueryCacheSignature(query) +
         StrFormat("|cfg:%016llx",
                   static_cast<unsigned long long>(Fnv1a64(knobs)));
}

Result<OptimizedPlan> ProgressiveExecutor::Plan(
    const QuerySpec& query) const {
  const CostModel cost_model(optimizer_.config().cost);
  ValidityRangeAnalyzer analyzer(cost_model, pop_config_.validity);
  return optimizer_.Optimize(query, nullptr, nullptr, &analyzer);
}

Result<std::vector<Row>> ProgressiveExecutor::Execute(
    const QuerySpec& query, ExecutionStats* stats) {
  return Run(query, /*pop_enabled=*/true, stats);
}

Result<std::vector<Row>> ProgressiveExecutor::ExecuteStatic(
    const QuerySpec& query, ExecutionStats* stats) {
  return Run(query, /*pop_enabled=*/false, stats);
}

std::vector<EdgeObservation> CollectEdgeObservations(const ExecContext& ctx,
                                                     const BuiltPlan& built) {
  std::vector<EdgeObservation> out;
  // Materialized intermediate results know their exact cardinality when
  // complete, a lower bound otherwise.
  for (Operator* op : ctx.materializers) {
    HarvestedResult info;
    if (!op->HarvestInfo(&info)) continue;
    out.push_back({info.table_set, static_cast<double>(info.count),
                   info.complete});
  }
  // Every operator that ran to completion knows its exact output
  // cardinality; partially executed ones supply lower bounds.
  for (const auto& [set, op] : built.edges) {
    if (op->eof_seen()) {
      out.push_back({set, static_cast<double>(op->rows_produced()), true});
    } else if (op->rows_produced() > 0) {
      out.push_back({set, static_cast<double>(op->rows_produced()), false});
    }
  }
  // The failing check itself.
  if (ctx.reopt.triggered) {
    out.push_back({ctx.reopt.edge_set,
                   static_cast<double>(ctx.reopt.observed_rows),
                   ctx.reopt.exact});
  }
  return out;
}

void ProgressiveExecutor::Harvest(const ExecContext& ctx,
                                  const BuiltPlan& built,
                                  bool compensation_present,
                                  ExecutionStats* stats) {
  TRACE_SPAN("harvest_feedback", "pop");
  // Materialized intermediate rows become temporary MVs when complete and
  // reuse is on (Section 2.3; the prototype reuses TEMP and SORT results).
  for (Operator* op : ctx.materializers) {
    HarvestedResult info;
    if (!op->HarvestInfo(&info)) continue;
    if (info.complete && pop_config_.reuse_matviews && info.rows != nullptr) {
      matviews_.Register(info.table_set, *info.rows, info.sorted_positions);
      TRACE_INSTANT_ARG("matview_registered", "pop", "rows", info.count);
      if (stats != nullptr) stats->mv_rows_harvested += info.count;
    }
  }
  // Cardinality observations: materializer counts, completed/partial plan
  // edges, and the failing check. With compensation in the plan, counts
  // above the anti-join are not true subplan cardinalities, so the builder
  // excluded those edges.
  (void)compensation_present;
  for (const EdgeObservation& obs : CollectEdgeObservations(ctx, built)) {
    if (obs.exact) {
      feedback_.RecordExact(obs.set, obs.rows);
    } else {
      feedback_.RecordLowerBound(obs.set, obs.rows);
    }
  }
}

Result<std::vector<Row>> ProgressiveExecutor::Run(const QuerySpec& query,
                                                  bool pop_enabled,
                                                  ExecutionStats* stats) {
  feedback_.Clear();
  matviews_.Clear();
  memo_.Reset();
  if (pop_enabled && cross_query_store_ != nullptr) {
    cross_query_store_->Seed(query, &feedback_);
  }
  // The memo persists across this query's re-optimization attempts only;
  // null disables incremental reuse (from-scratch DP each attempt).
  IncrementalMemo* memo =
      pop_enabled && pop_config_.incremental_reopt ? &memo_ : nullptr;

  const CostModel cost_model(optimizer_.config().cost);
  const bool query_is_spj = !query.has_aggregation();
  const int max_attempts = pop_enabled ? pop_config_.max_reopts + 1 : 1;

  // Only attempt 0 consults the plan cache: re-optimization attempts carry
  // execution-scoped feedback and matviews.
  const bool use_plan_cache = pop_enabled && plan_cache_ != nullptr;
  const std::string cache_key =
      use_plan_cache ? PlanCacheKey(query) : std::string();

  std::vector<Row> result;
  std::vector<Row> returned_so_far;  // Canonical rows (ECDC compensation).
  // One pinned-snapshot registry for the whole execution: every attempt
  // (and every operator within one) reads the same frozen table versions,
  // so re-optimization compensation and harvested feedback stay consistent
  // while concurrent writers publish new versions.
  TableSnapshotSet snapshots;
  const double t_begin = NowMs();

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (cancel_token_ != nullptr && cancel_token_->Expired()) {
      return CancelledStatus(*cancel_token_, query.name());
    }
    AttemptInfo info;
    const double t_opt = NowMs();

    ValidityRangeAnalyzer analyzer(cost_model, pop_config_.validity);
    const FeedbackMap feedback_snapshot = feedback_.Snapshot();

    // Both plan-cache gate values are captured once, before the lookup:
    // the install below must tag the plan with the inputs it was optimized
    // under, never with a stats version a concurrent fold published in
    // between.
    const bool consult_cache = use_plan_cache && attempt == 0;
    const int64_t cache_catalog_version =
        consult_cache ? catalog_.stats_version() : 0;
    const uint64_t cache_digest =
        consult_cache ? DigestFeedback(feedback_snapshot) : 0;

    std::shared_ptr<PlanNode> root;
    bool placement_from_cache = false;
    if (consult_cache) {
      const PlanCache::LookupResult cached = plan_cache_->Lookup(
          cache_key, cache_catalog_version, cache_digest, feedback_snapshot);
      if (stats != nullptr) {
        stats->plan_cache = cached.outcome;
        stats->plan_cache_age_ms = cached.age_ms;
      }
      if (cached.outcome == PlanCacheOutcome::kHit) {
        // Identical optimizer inputs: the placed plan is exactly what DP
        // enumeration plus the placement pass would produce now.
        root = cached.placed_plan->Clone();
        info.checks = cached.placed_checks;
        placement_from_cache = true;
      } else if (cached.outcome == PlanCacheOutcome::kValidityHit) {
        // Still optimal, but moved feedback can change check ranges, so
        // only DP is skipped; placement runs below.
        root = cached.plan->Clone();
      }
      info.candidates = cached.candidates;
    }
    OptimizedPlan fresh;
    std::shared_ptr<const PlanNode> skeleton;
    if (root == nullptr) {
      Result<OptimizedPlan> planned = [&] {
        TRACE_SPAN("optimize", "pop", "attempt", attempt);
        return optimizer_.Optimize(
            query, feedback_snapshot.empty() ? nullptr : &feedback_snapshot,
            matviews_.empty() ? nullptr : &matviews_.views(),
            pop_enabled ? &analyzer : nullptr, memo);
      }();
      if (!planned.ok()) return planned.status();
      fresh = std::move(planned.value());
      root = fresh.root;
      info.candidates = fresh.candidates;
      if (stats != nullptr) {
        stats->memo_entries_reused += fresh.memo_reused;
        stats->memo_entries_invalidated += fresh.memo_invalidated;
      }
      // Placement mutates the tree, so the cache keeps its own copy of the
      // pre-checkpoint skeleton.
      if (consult_cache) skeleton = root->Clone();
    }

    // The last permitted attempt runs without checkpoints so the query
    // always terminates (Section 7).
    const bool place_checks = pop_enabled && attempt < pop_config_.max_reopts;
    if (place_checks && !placement_from_cache) {
      TRACE_SPAN("place_checkpoints", "pop");
      info.checks =
          PlaceCheckpoints(&root, pop_config_, cost_model, query_is_spj);
    }
    if (skeleton != nullptr) {
      // One install per optimized plan, after placement: placement is
      // deterministic given the skeleton and the placement knobs (both
      // pinned by the cache key), so the next identical submission skips
      // DP and placement alike.
      std::shared_ptr<const PlanNode> placed =
          place_checks ? root->Clone() : skeleton;
      plan_cache_->Install(cache_key, std::move(skeleton), std::move(placed),
                           info.checks, cache_catalog_version, cache_digest,
                           fresh.candidates, fresh.est_cost, fresh.est_card);
    }
    if (!returned_so_far.empty()) {
      InsertCompensation(&root);
    }
    if (plan_hook_) plan_hook_(root.get(), attempt);
    info.plan_text = root->ToString();
    info.optimize_ms = NowMs() - t_opt;

    const ParallelPolicy parallel =
        task_runner_ != nullptr ? parallel_ : ParallelPolicy{};
    ExecutorBuilder builder(catalog_, query, &returned_so_far,
                            pop_config_.reuse_hsjn_builds, parallel,
                            &snapshots);
    Result<BuiltPlan> built = [&] {
      TRACE_SPAN("build_executor", "pop");
      return builder.Build(*root);
    }();
    if (!built.ok()) return built.status();

    ExecContext ctx;
    ctx.params = query.params();
    ctx.mem_rows = static_cast<int64_t>(optimizer_.config().cost.mem_rows);
    ctx.cancel = cancel_token_;
    // The batch size is independent of the task runner: it comes from the
    // stored policy (parallel_), not the runner-gated copy, so serial
    // executions run the configured batch size too.
    ctx.batch_rows = parallel_.batch_rows;
    if (parallel.enabled()) {
      ctx.tasks = task_runner_;
      ctx.dop = parallel.dop;
    }

    const double t_exec = NowMs();
    std::vector<Row> attempt_rows;
    const ExecStatus status = [&] {
      TRACE_SPAN("execute_attempt", "pop", "attempt", attempt);
      return RunToCompletion(built.value().root.get(), &ctx, &attempt_rows);
    }();
    info.execute_ms = NowMs() - t_exec;
    info.work = ctx.work;
    info.rows_returned = static_cast<int64_t>(attempt_rows.size());
    if (stats != nullptr) {
      // The tree is closed; its counters are final. Snapshot before the
      // operators are destroyed at the end of this iteration.
      info.profile = ProfileOperatorTree(*built.value().root);
      info.has_profile = true;
    }

    if (stats != nullptr) {
      stats->total_work += ctx.work;
      stats->morsels_dispatched += ctx.morsels_dispatched;
      stats->parallel_work += ctx.parallel_work;
      stats->check_events.insert(stats->check_events.end(),
                                 ctx.check_events.begin(),
                                 ctx.check_events.end());
    }

    // Rows pipelined to the application are final; compensation in later
    // attempts prevents duplicates.
    result.insert(result.end(), attempt_rows.begin(), attempt_rows.end());
    returned_so_far.insert(returned_so_far.end(), ctx.returned_rows.begin(),
                           ctx.returned_rows.end());

    if (status == ExecStatus::kError) {
      return Status::Internal("execution failed: " + ctx.error);
    }
    if (status == ExecStatus::kCancelled) {
      POPDB_DCHECK(cancel_token_ != nullptr);
      if (stats != nullptr) {
        stats->attempts.push_back(std::move(info));
        stats->total_ms = NowMs() - t_begin;
      }
      return CancelledStatus(*cancel_token_, query.name());
    }
    if (status == ExecStatus::kReoptimize) {
      POPDB_DCHECK(ctx.reopt.triggered);
      TRACE_INSTANT_ARG("check_fired", "pop", "observed_rows",
                        ctx.reopt.observed_rows);
      info.reoptimized = true;
      info.signal = ctx.reopt;
      Harvest(ctx, built.value(), !returned_so_far.empty(), stats);
      if (stats != nullptr) {
        ++stats->reopts;
        stats->attempts.push_back(std::move(info));
      }
      continue;
    }
    // kEof: done. Apply LIMIT (after any ORDER BY: rows arrive sorted).
    if (query.limit() >= 0 &&
        static_cast<int64_t>(result.size()) > query.limit()) {
      result.resize(static_cast<size_t>(query.limit()));
    }
    if (pop_enabled && cross_query_store_ != nullptr) {
      // Completed edges carry exact cardinalities worth remembering even
      // when no check fired.
      for (const auto& [set, op] : built.value().edges) {
        if (op->eof_seen()) {
          feedback_.RecordExact(set,
                                static_cast<double>(op->rows_produced()));
        }
      }
      cross_query_store_->Absorb(query, feedback_.Snapshot());
    }
    if (stats != nullptr) {
      stats->attempts.push_back(std::move(info));
      stats->total_ms = NowMs() - t_begin;
      stats->result_rows = static_cast<int64_t>(result.size());
    }
    matviews_.Clear();  // End-of-query cleanup of temporary MVs.
    return result;
  }
  return Status::Internal("re-optimization loop did not terminate");
}

Result<std::string> ProgressiveExecutor::ExplainAnalyze(
    const QuerySpec& query, ExecutionStats* stats) {
  ExecutionStats local;
  ExecutionStats* out = stats != nullptr ? stats : &local;
  Result<std::vector<Row>> rows = Execute(query, out);
  if (!rows.ok()) return rows.status();
  return RenderExplainAnalyze(*out);
}

std::string RenderExplainAnalyze(const ExecutionStats& stats) {
  std::string out;
  for (size_t i = 0; i < stats.attempts.size(); ++i) {
    const AttemptInfo& a = stats.attempts[i];
    out += StrFormat("=== Attempt %d  (optimize %.3fms, execute %.3fms, "
                     "work=%lld, rows=%lld)\n",
                     static_cast<int>(i + 1), a.optimize_ms, a.execute_ms,
                     static_cast<long long>(a.work),
                     static_cast<long long>(a.rows_returned));
    if (a.has_profile) {
      out += RenderProfileText(a.profile);
    } else {
      out += a.plan_text;
    }
    if (a.reoptimized) {
      out += StrFormat(
          "--> CHECK fired: %s on edge set %llu, observed %lld rows "
          "(%s) outside [%.4g, %.4g]; re-optimizing\n",
          CheckFlavorName(a.signal.flavor),
          static_cast<unsigned long long>(a.signal.edge_set),
          static_cast<long long>(a.signal.observed_rows),
          a.signal.exact ? "exact" : "lower bound", a.signal.check_lo,
          a.signal.check_hi);
    }
  }
  out += StrFormat("=== Done: %d attempt(s), %d re-optimization(s), "
                   "%lld rows, %.3fms total\n",
                   static_cast<int>(stats.attempts.size()), stats.reopts,
                   static_cast<long long>(stats.result_rows), stats.total_ms);
  return out;
}

}  // namespace popdb
