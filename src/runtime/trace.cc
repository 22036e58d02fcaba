#include "runtime/trace.h"

#include <cstdio>
#include <utility>

#include "common/json.h"

namespace popdb {

uint64_t PlanTextDigest(const std::string& plan_text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const char c : plan_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void FillTraceFromStats(ExecutionStats* stats, QueryTrace* trace) {
  trace->work = stats->total_work;
  trace->morsels = stats->morsels_dispatched;
  trace->parallel_work = stats->parallel_work;
  trace->result_rows = stats->result_rows;
  trace->reopts = stats->reopts;
  trace->check_events = static_cast<int64_t>(stats->check_events.size());
  trace->plan_cache = PlanCacheOutcomeName(stats->plan_cache);
  trace->plan_cache_age_ms = stats->plan_cache_age_ms;
  trace->checks_fired = 0;
  for (int64_t& n : trace->flavor_fired) n = 0;
  for (const CheckEvent& ev : stats->check_events) {
    if (!ev.fired) continue;
    ++trace->checks_fired;
    ++trace->flavor_fired[static_cast<int>(ev.flavor)];
  }
  trace->attempts = std::exchange(stats->attempts, {});
  trace->optimize_ms = 0.0;
  trace->execute_ms = 0.0;
  for (const AttemptInfo& a : trace->attempts) {
    trace->optimize_ms += a.optimize_ms;
    trace->execute_ms += a.execute_ms;
  }
}

namespace {

// The four latency figures: nested under "latency_ms" in the trace
// ("queue", ...), flat in the log line ("queue_ms", ...).
void WriteLatency(const QueryTrace& t, bool flat, JsonWriter* w) {
  w->Key(flat ? "queue_ms" : "queue").Double(t.queue_ms);
  w->Key(flat ? "optimize_ms" : "optimize").Double(t.optimize_ms);
  w->Key(flat ? "execute_ms" : "execute").Double(t.execute_ms);
  w->Key(flat ? "total_ms" : "total").Double(t.total_ms);
}

// "shards": one object per shard; nothing for a local attempt.
void WriteShards(const std::vector<ShardAttemptInfo>& shards,
                 JsonWriter* w) {
  if (shards.empty()) return;
  w->Key("shards").BeginArray();
  for (const ShardAttemptInfo& s : shards) {
    w->BeginObject();
    w->Key("shard").Int(s.shard);
    w->Key("execute_ms").Double(s.execute_ms);
    w->Key("rows").Int(s.rows);
    w->Key("outcome").String(s.outcome);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("query_id").Int(query_id);
  w.Key("query").String(query_name);
  w.Key("session").Int(static_cast<int64_t>(session_id));
  w.Key("priority").String(priority);
  w.Key("outcome").String(outcome);
  if (!status_message.empty()) w.Key("status").String(status_message);
  w.Key("shared_feedback").Bool(shared_feedback);
  w.Key("latency_ms").BeginObject();
  WriteLatency(*this, /*flat=*/false, &w);
  w.EndObject();
  w.Key("work").Int(work);
  w.Key("morsels").Int(morsels);
  w.Key("parallel_work").Int(parallel_work);
  w.Key("result_rows").Int(result_rows);
  w.Key("reopts").Int(reopts);
  w.Key("check_events").Int(check_events);
  w.Key("checks_fired").Int(checks_fired);
  w.Key("plan_cache").String(plan_cache);
  if (plan_cache_age_ms > 0) {
    w.Key("plan_cache_age_ms").Double(plan_cache_age_ms);
  }
  w.Key("attempts").BeginArray();
  for (const AttemptInfo& a : attempts) {
    w.BeginObject();
    w.Key("plan").String(a.plan_text);
    w.Key("optimize_ms").Double(a.optimize_ms);
    w.Key("execute_ms").Double(a.execute_ms);
    w.Key("work").Int(a.work);
    w.Key("rows_returned").Int(a.rows_returned);
    w.Key("reoptimized").Bool(a.reoptimized);
    if (a.reoptimized) {
      w.Key("reopt_flavor").String(CheckFlavorName(a.signal.flavor));
    }
    if (a.has_profile) {
      w.Key("profile");
      ProfileToJson(a.profile, &w);
    }
    WriteShards(a.shards, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string QueryTrace::ToLogJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("query_id").Int(query_id);
  w.Key("end_ms").Double(end_ms);
  w.Key("kind").String(kind);
  w.Key("query").String(query_name);
  if (!signature.empty()) w.Key("signature").String(signature);
  // Hex keeps the digest lossless (JSON integers are signed 64-bit).
  if (plan_digest != 0) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(plan_digest));
    w.Key("plan_digest").String(hex);
  }
  w.Key("outcome").String(outcome);
  if (!status_message.empty()) w.Key("status").String(status_message);
  w.Key("plan_cache").String(plan_cache);
  w.Key("reopts").Int(reopts);
  w.Key("checks_fired").Int(checks_fired);
  if (checks_fired > 0) {
    w.Key("fired_by_flavor").BeginObject();
    for (int f = 0; f < 6; ++f) {
      if (flavor_fired[f] > 0) {
        w.Key(CheckFlavorName(static_cast<CheckFlavor>(f)))
            .Int(flavor_fired[f]);
      }
    }
    w.EndObject();
  }
  WriteLatency(*this, /*flat=*/true, &w);
  w.Key("result_rows").Int(result_rows);
  if (affected_rows >= 0) w.Key("affected_rows").Int(affected_rows);
  if (peak_qerror >= 0) w.Key("peak_qerror").Double(peak_qerror);
  w.Key("distributed").Bool(distributed());
  if (distributed()) WriteShards(attempts.back().shards, &w);
  w.EndObject();
  return w.str();
}

void CollectingTraceSink::Emit(const QueryTrace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(trace);
}

std::vector<QueryTrace> CollectingTraceSink::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryTrace> out = std::move(traces_);
  traces_.clear();
  return out;
}

int64_t CollectingTraceSink::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(traces_.size());
}

void StreamTraceSink::Emit(const QueryTrace& trace) {
  const std::string line = trace.ToJson();
  std::lock_guard<std::mutex> lock(mu_);
  (*out_) << line << '\n';
}

}  // namespace popdb
