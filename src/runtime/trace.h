#ifndef POPDB_RUNTIME_TRACE_H_
#define POPDB_RUNTIME_TRACE_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/pop.h"

namespace popdb {

/// Per-attempt slice of a QueryTrace: the executor's own AttemptInfo.
using TraceAttempt = AttemptInfo;

/// The one service-level record of a finished query — an analytical read
/// (successful, failed, cancelled, or past its deadline), a write, or a
/// shard's subplan. It renders two ways: ToJson() is the full trace (plan
/// text, per-operator profiles) that the TraceSink receives and the
/// `trace` wire request serves; ToLogJson() is the compact line of the
/// always-on QueryLog, which keeps the record without plan text or
/// profiles.
struct QueryTrace {
  int64_t query_id = 0;
  /// "query" (analytical read), "write" (INSERT/UPDATE/DELETE through the
  /// write lane), or "subplan" (shard servers).
  std::string kind = "query";
  std::string query_name;
  uint64_t session_id = 0;
  std::string priority;        ///< "high" or "normal".
  std::string outcome;         ///< "ok", "error", "cancelled", "deadline".
  std::string status_message;  ///< Status detail for non-ok outcomes.
  bool shared_feedback = false;

  // Latency breakdown (milliseconds).
  double queue_ms = 0.0;     ///< Admission queue wait.
  double optimize_ms = 0.0;  ///< Total across attempts.
  double execute_ms = 0.0;   ///< Total across attempts.
  double total_ms = 0.0;     ///< Submission to completion.
  double end_ms = 0.0;  ///< Completion time, service monotonic clock (NowMs).

  int64_t work = 0;  ///< Deterministic work units across attempts.
  int64_t morsels = 0;        ///< Morsels dispatched by parallel fragments.
  int64_t parallel_work = 0;  ///< Work units done inside those fragments.
  int64_t result_rows = 0;
  /// Rows inserted/updated/deleted; -1 for reads (omitted from the log).
  int64_t affected_rows = -1;
  int reopts = 0;
  int64_t check_events = 0;  ///< Checkpoint evaluations observed.
  int64_t checks_fired = 0;
  /// CHECK firings by flavor, indexed by CheckFlavor (LC, LCEM, ECB, ECWC,
  /// ECDC, work-bound); sums to checks_fired.
  int64_t flavor_fired[6] = {0, 0, 0, 0, 0, 0};

  /// Plan-cache decision for the first optimization attempt
  /// (PlanCacheOutcomeName: "none" when no cache was consulted) and, on a
  /// hit, the age of the served entry.
  std::string plan_cache = "none";
  double plan_cache_age_ms = 0.0;

  /// Canonical plan-cache signature (QueryCacheSignature) of a read; set
  /// on query-log entries only. Rebinds of the same prepared statement
  /// share one signature, so the log groups by it.
  std::string signature;
  /// PlanTextDigest of the final executed plan — two records with equal
  /// signatures but different digests mean the plan changed
  /// (re-optimization, epoch bump, stats refresh). 0 = no plan.
  uint64_t plan_digest = 0;
  /// Largest per-operator cardinality Q-error across all attempt profiles;
  /// -1 when no completed, estimated operator was observed.
  double peak_qerror = -1.0;

  /// The executor's per-attempt records, moved out of its ExecutionStats.
  std::vector<AttemptInfo> attempts;

  /// True when the final attempt ran across shards.
  bool distributed() const {
    return !attempts.empty() && !attempts.back().shards.empty();
  }

  /// Compact single-line JSON rendering of the whole trace.
  std::string ToJson() const;
  /// The query-log line (one JSONL record): the summary fields and the
  /// final attempt's per-shard breakdown, no plan text or profiles.
  std::string ToLogJson() const;
};

/// FNV-1a over a plan's text; 0 for the empty string is avoided by the
/// offset basis, so 0 reliably means "no plan recorded".
uint64_t PlanTextDigest(const std::string& plan_text);

/// Moves the progressive executor's diagnostics into a trace: the
/// attempts (leaving stats->attempts empty), work counters, CHECK tallies
/// by flavor, and per-phase latencies summed over the attempts.
void FillTraceFromStats(ExecutionStats* stats, QueryTrace* trace);

/// Receives completed-query traces. Implementations must be thread safe:
/// worker threads emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const QueryTrace& trace) = 0;
};

/// Buffers traces in memory, in completion order (tests, examples).
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(const QueryTrace& trace) override;

  /// Returns all buffered traces and clears the buffer.
  std::vector<QueryTrace> Drain();
  int64_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<QueryTrace> traces_;
};

/// Writes each trace as one JSON line (JSONL) to a stream. The stream is
/// not owned and must outlive the sink.
class StreamTraceSink : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream* out) : out_(out) {}
  void Emit(const QueryTrace& trace) override;

 private:
  std::mutex mu_;
  std::ostream* out_;
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_TRACE_H_
