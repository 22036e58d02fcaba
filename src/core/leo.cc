#include "core/leo.h"

#include <algorithm>
#include <vector>

#include "common/span.h"
#include "common/string_util.h"

namespace popdb {

namespace {

/// Renders a predicate with its effective literal (markers resolved), in a
/// form that does not depend on query-local table ids.
std::string CanonicalPred(const Predicate& pred,
                          const std::vector<Value>& params) {
  std::string rhs;
  const Value& operand =
      pred.is_param ? params[static_cast<size_t>(pred.param_index)]
                    : pred.operand;
  if (pred.kind == PredKind::kBetween) {
    rhs = operand.ToString() + ".." + pred.operand2.ToString();
  } else if (pred.kind == PredKind::kIn) {
    std::vector<std::string> items;
    for (const Value& v : pred.in_list) items.push_back(v.ToString());
    std::sort(items.begin(), items.end());
    rhs = "(" + StrJoin(items, ",") + ")";
  } else {
    rhs = operand.ToString();
  }
  return StrFormat("c%d%s%s", pred.col.column, PredKindName(pred.kind),
                   rhs.c_str());
}

}  // namespace

std::string QueryFeedbackStore::SubplanSignature(const QuerySpec& query,
                                                 TableSet set) {
  std::vector<std::string> tables;
  for (int t = 0; t < query.num_tables(); ++t) {
    if (!ContainsTable(set, t)) continue;
    std::vector<std::string> preds;
    for (const Predicate& p : query.local_preds()) {
      if (p.col.table_id == t) {
        preds.push_back(CanonicalPred(p, query.params()));
      }
    }
    std::sort(preds.begin(), preds.end());
    tables.push_back(query.table_name(t) + "[" + StrJoin(preds, "&") + "]");
  }
  std::sort(tables.begin(), tables.end());

  std::vector<std::string> joins;
  for (const JoinPredicate& j : query.join_preds()) {
    if (!ContainsTable(set, j.left.table_id) ||
        !ContainsTable(set, j.right.table_id)) {
      continue;
    }
    std::string a = StrFormat("%s.c%d", query.table_name(j.left.table_id).c_str(),
                              j.left.column);
    std::string b = StrFormat("%s.c%d",
                              query.table_name(j.right.table_id).c_str(),
                              j.right.column);
    if (b < a) std::swap(a, b);
    joins.push_back(a + "=" + b);
  }
  std::sort(joins.begin(), joins.end());
  return StrJoin(tables, ",") + "|" + StrJoin(joins, "&");
}

void QueryFeedbackStore::Absorb(const QuerySpec& query,
                                const FeedbackMap& feedback) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [set, fb] : feedback) {
    const std::string sig = SubplanSignature(query, set);
    CardFeedback& stored = store_[sig];
    if (fb.exact >= 0) {
      stored.exact = fb.exact;
    } else if (fb.lower_bound >= 0 && stored.exact < 0 &&
               fb.lower_bound > stored.lower_bound) {
      stored.lower_bound = fb.lower_bound;
    }
  }
}

void QueryFeedbackStore::Seed(const QuerySpec& query,
                              FeedbackCache* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++seed_lookups_;
  if (store_.empty()) return;
  // Enumerate connected-ish subsets lazily: signatures are computed per
  // subset; queries are small (<= ~12 tables), so the full power set is
  // affordable and simpler than tracking connectivity.
  const TableSet full = query.AllTables();
  if (query.num_tables() > 16) return;  // Guard pathological inputs.
  int64_t seeded = 0;
  for (TableSet set = 1; set <= full; ++set) {
    auto it = store_.find(SubplanSignature(query, set));
    if (it == store_.end()) continue;
    if (it->second.exact >= 0) {
      out->RecordExact(set, it->second.exact);
      ++seeded;
    } else if (it->second.lower_bound >= 0) {
      out->RecordLowerBound(set, it->second.lower_bound);
      ++seeded;
    }
  }
  if (seeded > 0) {
    ++seed_hits_;
    seeded_cards_ += seeded;
    TRACE_INSTANT_ARG("feedback_seeded", "pop", "entries", seeded);
  }
}

}  // namespace popdb
