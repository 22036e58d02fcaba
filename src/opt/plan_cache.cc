#include "opt/plan_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>

#include "common/span.h"
#include "common/string_util.h"

namespace popdb {

namespace {

double CacheNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Renders one local predicate with its id embedded. Markers stay
/// abstract (`?k`); literals are part of the signature.
std::string SigPred(const Predicate& pred) {
  std::string rhs;
  if (pred.is_param) {
    rhs = StrFormat("?%d", pred.param_index);
  } else if (pred.kind == PredKind::kBetween) {
    rhs = pred.operand.ToString() + ".." + pred.operand2.ToString();
  } else if (pred.kind == PredKind::kIn) {
    std::vector<std::string> items;
    items.reserve(pred.in_list.size());
    for (const Value& v : pred.in_list) items.push_back(v.ToString());
    std::sort(items.begin(), items.end());
    rhs = "(" + StrJoin(items, ",") + ")";
  } else {
    rhs = pred.operand.ToString();
  }
  return StrFormat("#%d:t%d.c%d%s%s", pred.pred_id, pred.col.table_id,
                   pred.col.column, PredKindName(pred.kind), rhs.c_str());
}

std::string SigCol(const ColRef& col) {
  return StrFormat("t%d.c%d", col.table_id, col.column);
}

void FnvMix(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void FnvMixDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  FnvMix(h, &bits, sizeof(bits));
}

int64_t CountPlanNodes(const PlanNode& node) {
  int64_t n = 1;
  for (const auto& child : node.children) n += CountPlanNodes(*child);
  return n;
}

bool ContainsMatViewScan(const PlanNode& node) {
  if (node.kind == PlanOpKind::kMatViewScan || node.mv_rows != nullptr) {
    return true;
  }
  for (const auto& child : node.children) {
    if (ContainsMatViewScan(*child)) return true;
  }
  return false;
}

void CollectValidityInto(const PlanNode& node,
                         std::map<TableSet, ValidityRange>* out) {
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i < node.child_validity.size() &&
        node.child_validity[i].IsNarrowed()) {
      const PlanNode* child = LogicalChild(node, static_cast<int>(i));
      if (child != nullptr && child->set != 0) {
        // Keep the tightest range when several edges guard one table set.
        auto [slot, inserted] =
            out->emplace(child->set, node.child_validity[i]);
        if (!inserted) {
          slot->second.lo = std::max(slot->second.lo, node.child_validity[i].lo);
          slot->second.hi = std::min(slot->second.hi, node.child_validity[i].hi);
        }
      }
    }
    CollectValidityInto(*node.children[i], out);
  }
}

/// Does `feedback` contradict a recorded validity range? An exact
/// cardinality outside [lo, hi], or a lower bound above hi, proves the
/// cached plan left the interval in which it is optimal.
bool ViolatesValidity(const std::map<TableSet, ValidityRange>& validity,
                      const FeedbackMap& feedback) {
  for (const auto& [set, fb] : feedback) {
    auto it = validity.find(set);
    if (it == validity.end()) continue;
    if (fb.exact >= 0 && !it->second.Contains(fb.exact)) return true;
    if (fb.exact < 0 && fb.lower_bound > it->second.hi) return true;
  }
  return false;
}

}  // namespace

std::string QueryCacheSignature(const QuerySpec& query) {
  std::string out = "tables:";
  for (int t = 0; t < query.num_tables(); ++t) {
    out += StrFormat("t%d=%s;", t, query.table_name(t).c_str());
  }

  // Normalized predicate order: the rendered strings (ids embedded) are
  // sorted, so the signature does not depend on container iteration
  // details while still pinning each predicate to its id.
  std::vector<std::string> preds;
  preds.reserve(query.local_preds().size());
  for (const Predicate& p : query.local_preds()) preds.push_back(SigPred(p));
  std::sort(preds.begin(), preds.end());
  out += "|preds:" + StrJoin(preds, "&");

  std::vector<std::string> joins;
  joins.reserve(query.join_preds().size());
  for (const JoinPredicate& j : query.join_preds()) {
    std::string a = SigCol(j.left);
    std::string b = SigCol(j.right);
    if (b < a) std::swap(a, b);
    joins.push_back(a + "=" + b);
  }
  std::sort(joins.begin(), joins.end());
  out += "|joins:" + StrJoin(joins, "&");

  out += "|proj:";
  for (const ColRef& c : query.projections()) out += SigCol(c) + ",";
  out += "|group:";
  for (const ColRef& c : query.group_by()) out += SigCol(c) + ",";
  out += "|aggs:";
  for (const QuerySpec::Agg& a : query.aggs()) {
    out += StrFormat("%s(%s),", AggFuncName(a.func), SigCol(a.arg).c_str());
  }
  out += "|order:";
  for (const QuerySpec::OrderKey& k : query.order_by()) {
    out += StrFormat("%d%s,", k.output_pos, k.descending ? "d" : "a");
  }
  out += "|having:";
  for (const QuerySpec::HavingPred& h : query.having()) {
    out += StrFormat("%d%s%s/%s,", h.output_pos, PredKindName(h.kind),
                     h.operand.ToString().c_str(),
                     h.operand2.ToString().c_str());
  }
  out += StrFormat("|distinct:%d|limit:%lld", query.distinct() ? 1 : 0,
                   static_cast<long long>(query.limit()));
  return out;
}

uint64_t DigestFeedback(const FeedbackMap& feedback) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (const auto& [set, fb] : feedback) {  // std::map: sorted, stable.
    FnvMix(&h, &set, sizeof(set));
    FnvMixDouble(&h, fb.exact);
    FnvMixDouble(&h, fb.lower_bound);
  }
  return h;
}

std::map<TableSet, ValidityRange> CollectValidityRanges(const PlanNode& plan) {
  std::map<TableSet, ValidityRange> out;
  CollectValidityInto(plan, &out);
  return out;
}

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome) {
  switch (outcome) {
    case PlanCacheOutcome::kNone:
      return "none";
    case PlanCacheOutcome::kHit:
      return "hit";
    case PlanCacheOutcome::kValidityHit:
      return "validity_hit";
    case PlanCacheOutcome::kMissCold:
      return "miss_cold";
    case PlanCacheOutcome::kMissStale:
      return "miss_stale";
    case PlanCacheOutcome::kMissEpoch:
      return "miss_epoch";
    case PlanCacheOutcome::kMissValidity:
      return "miss_validity";
  }
  return "unknown";
}

PlanCache::PlanCache(PlanCacheConfig config) : config_(config) {
  if (config_.max_entries < 0) config_.max_entries = 0;
  config_.shards = static_cast<int>(std::clamp<int64_t>(
      config_.shards, 1, std::max<int64_t>(1, config_.max_entries)));
  // Split max_entries exactly: the first `max_entries % shards` shards hold
  // one extra entry, so total residency never exceeds the cap.
  const int64_t base = config_.max_entries / config_.shards;
  const int64_t extra = config_.max_entries % config_.shards;
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->cap = std::max<int64_t>(1, base + (i < extra ? 1 : 0));
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& signature) {
  const size_t h = std::hash<std::string>{}(signature);
  return *shards_[h % shards_.size()];
}

void PlanCache::EvictLocked(
    Shard* shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard->lru.erase(it->second.lru_pos);
  shard->entries.erase(it);
}

PlanCache::LookupResult PlanCache::Lookup(const std::string& signature,
                                          int64_t catalog_version,
                                          uint64_t feedback_digest,
                                          const FeedbackMap& feedback) {
  LookupResult result;
  bool evicted_invalid = false;
  {
    Shard& shard = ShardFor(signature);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(signature);
    if (it == shard.entries.end()) {
      result.outcome = PlanCacheOutcome::kMissCold;
    } else {
      Entry& entry = it->second;
      if (entry.catalog_version != catalog_version) {
        // The statistics changed. Versions are monotone, so the entry can
        // never match again.
        result.outcome = PlanCacheOutcome::kMissEpoch;
        EvictLocked(&shard, it);
        evicted_invalid = true;
      } else if (entry.feedback_digest == feedback_digest) {
        result.outcome = PlanCacheOutcome::kHit;
      } else if (ViolatesValidity(entry.validity, feedback)) {
        // Feedback left the plan's validity range: provably suboptimal.
        result.outcome = PlanCacheOutcome::kMissValidity;
        EvictLocked(&shard, it);
        evicted_invalid = true;
      } else if (config_.validity_hits) {
        result.outcome = PlanCacheOutcome::kValidityHit;
      } else {
        // Feedback moved: the entry stays resident (the digest may match
        // again) but is not served.
        result.outcome = PlanCacheOutcome::kMissStale;
      }
      if (result.hit()) {
        result.plan = entry.plan;
        if (result.outcome == PlanCacheOutcome::kHit) {
          // Identical digest: the placement pass would reproduce this
          // placed plan bit for bit, so the hit skips placement too.
          result.placed_plan = entry.placed_plan;
          result.placed_checks = entry.placed_checks;
        }
        result.candidates = entry.candidates;
        result.est_cost = entry.est_cost;
        result.est_card = entry.est_card;
        result.age_ms = CacheNowMs() - entry.install_ms;
        ++entry.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.lookups;
    switch (result.outcome) {
      case PlanCacheOutcome::kHit:
        ++stats_.hits;
        break;
      case PlanCacheOutcome::kValidityHit:
        ++stats_.validity_hits;
        break;
      case PlanCacheOutcome::kMissCold:
        ++stats_.misses_cold;
        break;
      case PlanCacheOutcome::kMissStale:
        ++stats_.misses_stale;
        break;
      case PlanCacheOutcome::kMissEpoch:
        ++stats_.misses_epoch;
        break;
      case PlanCacheOutcome::kMissValidity:
        ++stats_.misses_validity;
        break;
      case PlanCacheOutcome::kNone:
        break;
    }
    if (evicted_invalid) ++stats_.evictions_invalid;
    if (result.outcome == PlanCacheOutcome::kMissEpoch) {
      ++stats_.evictions_stale_stats;
    }
  }
  if (result.hit()) {
    TRACE_INSTANT_ARG("plan_cache_hit", "opt", "age_ms",
                      static_cast<int64_t>(result.age_ms));
  } else if (evicted_invalid) {
    TRACE_INSTANT("plan_cache_invalidate", "opt");
  }
  return result;
}

void PlanCache::Install(const std::string& signature,
                        std::shared_ptr<const PlanNode> plan,
                        std::shared_ptr<const PlanNode> placed_plan,
                        PlacedCheckCounts placed_checks,
                        int64_t catalog_version, uint64_t feedback_digest,
                        int64_t candidates, double est_cost,
                        double est_card) {
  if (plan == nullptr || placed_plan == nullptr || config_.max_entries <= 0) {
    return;
  }
  // Matview scans reference rows owned by one execution; caching them
  // would dangle. Oversized plans are not worth the memory.
  for (const PlanNode* p : {plan.get(), placed_plan.get()}) {
    if (ContainsMatViewScan(*p) ||
        CountPlanNodes(*p) > config_.max_plan_nodes) {
      return;
    }
  }

  int evictions = 0;
  {
    Shard& shard = ShardFor(signature);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(signature);
    if (it != shard.entries.end()) EvictLocked(&shard, it);
    while (static_cast<int64_t>(shard.entries.size()) >= shard.cap) {
      EvictLocked(&shard, shard.entries.find(shard.lru.back()));
      ++evictions;
    }
    Entry entry;
    entry.plan = std::move(plan);
    entry.placed_plan = std::move(placed_plan);
    entry.placed_checks = placed_checks;
    entry.feedback_digest = feedback_digest;
    entry.catalog_version = catalog_version;
    entry.validity = CollectValidityRanges(*entry.plan);
    entry.candidates = candidates;
    entry.est_cost = est_cost;
    entry.est_card = est_card;
    entry.install_ms = CacheNowMs();
    shard.lru.push_front(signature);
    entry.lru_pos = shard.lru.begin();
    shard.entries.emplace(signature, std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.installs;
    stats_.evictions_lru += evictions;
  }
  if (evictions > 0) {
    TRACE_INSTANT_ARG("plan_cache_evict", "opt", "count", evictions);
  }
}

int64_t PlanCache::size() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->entries.size());
  }
  return n;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace popdb
