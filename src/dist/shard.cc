#include "dist/shard.h"

#include <memory>
#include <utility>

#include "common/json.h"
#include "common/span.h"
#include "core/executor_builder.h"
#include "core/explain.h"
#include "core/pop.h"
#include "dist/plan_json.h"

namespace popdb::dist {

namespace {

std::string ObservationsJson(const std::vector<EdgeObservation>& obs) {
  JsonWriter w;
  w.BeginArray();
  for (const EdgeObservation& o : obs) {
    w.BeginObject();
    w.Key("set").Int(static_cast<int64_t>(o.set));
    w.Key("rows").Double(o.rows);
    w.Key("exact").Bool(o.exact);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace

ShardExecutor::ShardExecutor(const Catalog& catalog,
                             ShardExecutorConfig config)
    : catalog_(catalog), config_(config) {}

net::SubplanBackend::RunResult ShardExecutor::Run(
    const JsonValue& request, CancelToken* cancel,
    const std::function<bool(const std::vector<Row>&)>& emit) {
  RunResult result;

  const JsonValue* query_json = request.Find("query");
  const JsonValue* plan_json = request.Find("plan");
  if (query_json == nullptr || plan_json == nullptr) {
    result.status = Status::InvalidArgument(
        "subplan request needs \"query\" and \"plan\"");
    result.outcome = "error";
    return result;
  }
  Result<QuerySpec> query = QuerySpecFromJson(*query_json);
  if (!query.ok()) {
    result.status = query.status();
    result.outcome = "error";
    return result;
  }
  result.query_name = query.value().name();
  Result<std::shared_ptr<PlanNode>> plan = PlanFromJson(*plan_json);
  if (!plan.ok()) {
    result.status = plan.status();
    result.outcome = "error";
    return result;
  }

  int64_t batch_rows =
      request.GetInt("batch_rows", config_.default_batch_rows);
  if (batch_rows < 1) batch_rows = config_.default_batch_rows;
  if (batch_rows > config_.max_batch_rows) {
    batch_rows = config_.max_batch_rows;
  }

  ExecutorBuilder builder(catalog_, query.value(),
                          /*already_returned=*/nullptr,
                          /*offer_hsjn_builds=*/false);
  Result<BuiltPlan> built = builder.Build(*plan.value());
  if (!built.ok()) {
    result.status = built.status();
    result.outcome = "error";
    return result;
  }

  ExecContext ctx;
  ctx.params = query.value().params();
  ctx.mem_rows = config_.mem_rows;
  ctx.cancel = cancel;
  ctx.batch_rows =
      request.GetInt("exec_batch_rows", config_.exec_batch_rows);

  // Hand-rolled RunToCompletion that streams batches as rows are produced
  // (a shard result must not buffer: the coordinator merges N streams).
  const double exec_start = NowMs();
  TRACE_SPAN_NAMED(exec_span, "subplan_execute", "dist");
  const std::string trace_token = request.GetString("trace_token", "");
  if (!trace_token.empty()) {
    exec_span.SetLabel(std::string_view(trace_token));
  }
  Operator* root = built.value().root.get();
  ExecStatus status = root->Open(&ctx);
  bool sink_broken = false;
  std::vector<Row> batch;
  // Flushes exact wire-batch-size frames so the stream framing is
  // independent of the execution batch size.
  const auto flush_full = [&]() -> bool {
    while (static_cast<int64_t>(batch.size()) >= batch_rows) {
      std::vector<Row> wire(
          std::make_move_iterator(batch.begin()),
          std::make_move_iterator(batch.begin() + batch_rows));
      batch.erase(batch.begin(), batch.begin() + batch_rows);
      result.rows_sent += static_cast<int64_t>(wire.size());
      if (!emit(wire)) return false;
    }
    return true;
  };
  if (status == ExecStatus::kOk) {
    RowBatch exec_batch;
    while ((status = root->NextBatch(&ctx, &exec_batch)) == ExecStatus::kRow) {
      exec_batch.MoveRowsInto(&batch);
      if (!flush_full()) {
        sink_broken = true;
        break;
      }
    }
  }
  root->Close(&ctx);
  result.execute_ms = NowMs() - exec_start;
  // EXPLAIN ANALYZE snapshot of the executed fragment (estimates next to
  // actuals, sampled timings); the coordinator merges it per shard and in
  // aggregate under its gather node.
  result.profile = ProfileOperatorTree(*root);
  result.has_profile = true;

  if (sink_broken) {
    result.status = Status::Cancelled("client connection lost mid-stream");
    result.outcome = "cancelled";
    return result;
  }

  switch (status) {
    case ExecStatus::kEof:
      if (!batch.empty()) {
        result.rows_sent += static_cast<int64_t>(batch.size());
        if (!emit(batch)) {
          result.status =
              Status::Cancelled("client connection lost mid-stream");
          result.outcome = "cancelled";
          return result;
        }
      }
      result.outcome = "ok";
      break;
    case ExecStatus::kReoptimize:
      // The coordinator discards every row of this attempt on violation,
      // so no cross-wire compensation is needed.
      result.outcome = "reoptimize";
      result.violation = ctx.reopt;
      break;
    case ExecStatus::kCancelled:
      if (cancel != nullptr && cancel->reason() == CancelReason::kDeadline) {
        result.status =
            Status::DeadlineExceeded("subplan exceeded its deadline");
        result.outcome = "deadline";
      } else {
        result.status = Status::Cancelled("subplan cancelled");
        result.outcome = "cancelled";
      }
      break;
    case ExecStatus::kError:
      result.status = Status::Internal(ctx.error.empty()
                                           ? "subplan execution failed"
                                           : ctx.error);
      result.outcome = "error";
      break;
    default:
      result.status = Status::Internal("unexpected executor status");
      result.outcome = "error";
      break;
  }

  // Everything the (possibly aborted) run learned about true per-shard
  // cardinalities; the coordinator aggregates these across shards into
  // global feedback for its re-optimization.
  result.observations_json =
      ObservationsJson(CollectEdgeObservations(ctx, built.value()));
  return result;
}

}  // namespace popdb::dist
