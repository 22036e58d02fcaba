#include "core/explain.h"

#include "common/string_util.h"

namespace popdb {

PlanProfileNode ProfileOperatorTree(const Operator& root) {
  PlanProfileNode node;
  node.name = root.name();
  node.detail = root.detail();
  node.est_rows = root.est_rows();
  node.est_cost = root.est_cost();
  node.actual_rows = root.rows_produced();
  node.completed = root.eof_seen();
  node.next_calls = root.stats().next_calls;
  node.batches = root.stats().next_calls;
  node.open_ms = root.stats().open_ms();
  node.next_ms = root.stats().next_ms();
  node.close_ms = root.stats().close_ms();
  for (const Operator* child : root.children()) {
    node.children.push_back(ProfileOperatorTree(*child));
  }
  return node;
}

namespace {

void RenderNode(const PlanProfileNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  if (!node.detail.empty()) {
    *out += " [";
    *out += node.detail;
    *out += "]";
  }
  if (node.has_estimates()) {
    *out += StrFormat("  est_rows=%.6g", node.est_rows);
  } else {
    *out += "  est_rows=?";
  }
  *out += StrFormat("  act_rows=%lld%s",
                    static_cast<long long>(node.actual_rows),
                    node.completed ? "" : "+");
  const double q = node.QError();
  if (q >= 0) {
    *out += StrFormat("  q=%.3g", q);
  } else {
    *out += "  q=?";
  }
  *out += StrFormat("  next_calls=%lld", static_cast<long long>(node.next_calls));
  if (node.batches > 0) {
    *out += StrFormat("  batches=%lld", static_cast<long long>(node.batches));
  }
  *out += StrFormat("  time=%.3fms\n",
                    node.open_ms + node.next_ms + node.close_ms);
  for (const PlanProfileNode& child : node.children) {
    RenderNode(child, depth + 1, out);
  }
}

}  // namespace

std::string RenderProfileText(const PlanProfileNode& node) {
  std::string out;
  RenderNode(node, 0, &out);
  return out;
}

void ProfileToJson(const PlanProfileNode& node, JsonWriter* w) {
  w->BeginObject();
  w->Key("op").String(node.name);
  if (!node.detail.empty()) w->Key("detail").String(node.detail);
  w->Key("est_rows").Double(node.est_rows);
  w->Key("est_cost").Double(node.est_cost);
  w->Key("act_rows").Int(node.actual_rows);
  w->Key("completed").Bool(node.completed);
  w->Key("next_calls").Int(node.next_calls);
  w->Key("batches").Int(node.batches);
  w->Key("open_ms").Double(node.open_ms);
  w->Key("next_ms").Double(node.next_ms);
  w->Key("close_ms").Double(node.close_ms);
  const double q = node.QError();
  if (q >= 0) w->Key("qerror").Double(q);
  w->Key("children").BeginArray();
  for (const PlanProfileNode& child : node.children) {
    ProfileToJson(child, w);
  }
  w->EndArray();
  w->EndObject();
}

std::string ProfileToJsonString(const PlanProfileNode& node) {
  JsonWriter w;
  ProfileToJson(node, &w);
  return w.str();
}

bool ProfileFromJson(const JsonValue& json, PlanProfileNode* out) {
  if (json.kind() != JsonValue::Kind::kObject) return false;
  const JsonValue* op = json.Find("op");
  if (op == nullptr || op->kind() != JsonValue::Kind::kString) return false;
  PlanProfileNode node;
  node.name = op->AsString();
  node.detail = json.GetString("detail", "");
  node.est_rows = json.GetNumber("est_rows", -1.0);
  node.est_cost = json.GetNumber("est_cost", -1.0);
  node.actual_rows = json.GetInt("act_rows", 0);
  node.completed = json.GetBool("completed", false);
  node.next_calls = json.GetInt("next_calls", 0);
  node.batches = json.GetInt("batches", 0);
  node.open_ms = json.GetNumber("open_ms", 0.0);
  node.next_ms = json.GetNumber("next_ms", 0.0);
  node.close_ms = json.GetNumber("close_ms", 0.0);
  if (const JsonValue* children = json.Find("children")) {
    if (children->kind() != JsonValue::Kind::kArray) return false;
    for (const JsonValue& child : children->items()) {
      PlanProfileNode child_node;
      if (!ProfileFromJson(child, &child_node)) return false;
      node.children.push_back(std::move(child_node));
    }
  }
  *out = std::move(node);
  return true;
}

namespace {

bool SameShape(const PlanProfileNode& a, const PlanProfileNode& b) {
  if (a.name != b.name || a.children.size() != b.children.size())
    return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SameShape(a.children[i], b.children[i])) return false;
  }
  return true;
}

void AccumulateInto(PlanProfileNode* agg, const PlanProfileNode& shard) {
  // Estimates were scaled down per shard by the coordinator, so summing
  // them recovers the global estimate the aggregate actuals compare to.
  if (agg->est_rows >= 0.0 && shard.est_rows >= 0.0) {
    agg->est_rows += shard.est_rows;
  } else {
    agg->est_rows = -1.0;
  }
  if (agg->est_cost >= 0.0 && shard.est_cost >= 0.0) {
    agg->est_cost += shard.est_cost;
  } else {
    agg->est_cost = -1.0;
  }
  agg->actual_rows += shard.actual_rows;
  agg->completed = agg->completed && shard.completed;
  agg->next_calls += shard.next_calls;
  agg->batches += shard.batches;
  agg->open_ms += shard.open_ms;
  agg->next_ms += shard.next_ms;
  agg->close_ms += shard.close_ms;
  for (size_t i = 0; i < agg->children.size(); ++i) {
    AccumulateInto(&agg->children[i], shard.children[i]);
  }
}

}  // namespace

double PeakProfileQError(const PlanProfileNode& node) {
  double peak = node.QError();
  for (const PlanProfileNode& child : node.children) {
    peak = std::max(peak, PeakProfileQError(child));
  }
  return peak;
}

bool AggregateProfiles(const std::vector<const PlanProfileNode*>& shards,
                       PlanProfileNode* out) {
  if (shards.empty() || shards[0] == nullptr) return false;
  for (size_t i = 1; i < shards.size(); ++i) {
    if (shards[i] == nullptr || !SameShape(*shards[0], *shards[i]))
      return false;
  }
  PlanProfileNode agg = *shards[0];
  for (size_t i = 1; i < shards.size(); ++i) AccumulateInto(&agg, *shards[i]);
  *out = std::move(agg);
  return true;
}

}  // namespace popdb
