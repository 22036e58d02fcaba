#ifndef POPDB_CORE_EXPLAIN_H_
#define POPDB_CORE_EXPLAIN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "exec/operator.h"

namespace popdb {

/// One operator of an executed plan, annotated with the optimizer's
/// estimates next to the recorded actuals — the EXPLAIN ANALYZE unit.
/// Snapshots are taken after execution (possibly an aborted attempt), so
/// `actual_rows` of an incomplete operator is a lower bound, not a
/// cardinality.
struct PlanProfileNode {
  std::string name;    ///< Operator name ("TBSCAN", "HSJN", "CHECK", ...).
  std::string detail;  ///< Human-readable payload (table, flavor, range).

  double est_rows = -1.0;  ///< Optimizer estimate; -1 = not annotated.
  double est_cost = -1.0;

  int64_t actual_rows = 0;  ///< Rows produced (exact iff `completed`).
  bool completed = false;   ///< Operator reached EOF.
  int64_t next_calls = 0;
  int64_t batches = 0;  ///< NextBatch invocations (same as next_calls).

  double open_ms = 0.0;
  double next_ms = 0.0;
  double close_ms = 0.0;

  std::vector<PlanProfileNode> children;

  bool has_estimates() const { return est_rows >= 0.0; }

  /// Cardinality Q-error max(est/act, act/est), add-one smoothed so empty
  /// results stay finite. >= 1 by definition; -1 when the operator has no
  /// estimate or did not complete (its actual count is only a bound).
  double QError() const {
    if (!has_estimates() || !completed) return -1.0;
    const double act = static_cast<double>(actual_rows);
    const double hi = std::max(est_rows, act);
    const double lo = std::min(est_rows, act);
    return (hi + 1.0) / (lo + 1.0);
  }
};

/// Snapshots an executed operator tree (est vs. actual annotations, row
/// counts, sampled timings) into a profile tree.
PlanProfileNode ProfileOperatorTree(const Operator& root);

/// Indented per-operator text rendering (the EXPLAIN ANALYZE body):
///   HSJN [emp,dept]  est_rows=200 act_rows=200 q=1 ...
std::string RenderProfileText(const PlanProfileNode& node);

/// JSON rendering used by query traces; ProfileToJsonString wraps it for
/// standalone use.
void ProfileToJson(const PlanProfileNode& node, JsonWriter* w);
std::string ProfileToJsonString(const PlanProfileNode& node);

/// Inverse of ProfileToJson: rebuilds a profile tree from its JSON form.
/// Tolerates missing optional members (they keep their defaults) so shard
/// servers of adjacent versions interoperate; fails only on structurally
/// wrong input. Used by the coordinator to merge per-shard EXPLAIN ANALYZE
/// snapshots shipped over the wire.
bool ProfileFromJson(const JsonValue& json, PlanProfileNode* out);

/// Largest per-operator Q-error in the tree, or -1 when no operator has
/// one (no estimates, or nothing completed). The query log's
/// `peak_qerror` field.
double PeakProfileQError(const PlanProfileNode& node);

/// Merges structurally identical per-shard profile trees into one
/// cluster-aggregate tree: actual rows / next calls / timings sum, the
/// per-shard estimates sum back to the global estimate, `completed` only
/// if every shard completed. Returns false (and leaves *out alone) when
/// the trees disagree in shape — callers then fall back to per-shard-only
/// display.
bool AggregateProfiles(const std::vector<const PlanProfileNode*>& shards,
                       PlanProfileNode* out);

}  // namespace popdb

#endif  // POPDB_CORE_EXPLAIN_H_
