#ifndef POPDB_OPT_PLAN_CACHE_H_
#define POPDB_OPT_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/cardinality.h"
#include "opt/plan.h"
#include "opt/query.h"

namespace popdb {

/// Canonical text signature of a query for plan-cache keying: tables,
/// local and join predicates (normalized order), projections, grouping,
/// aggregates, ORDER BY / HAVING / DISTINCT / LIMIT. Parameter markers are
/// abstracted to their positions (`?k`), never to their bound literals, so
/// every re-submission of a prepared statement maps to one key regardless
/// of binding — exactly the repeat-query population a plan cache exists
/// for. Literal operands are part of the signature (a different constant
/// can legitimately change the plan).
///
/// The signature embeds query-local table and predicate ids: a cached plan
/// skeleton stores `table_id`/`pred_ids` indices into the installing
/// QuerySpec, so a hit is only sound when the submitted spec assigns the
/// same ids. Structurally identical specs built in the same order (the
/// repeat-submission case) share a key; permuted constructions of the same
/// query conservatively miss.
std::string QueryCacheSignature(const QuerySpec& query);

/// Order-independent 64-bit FNV-1a digest of a feedback snapshot. Two
/// snapshots digest equal iff they contain the same (table set, exact,
/// lower bound) entries — the plan cache's definition of "feedback has not
/// moved for this query".
uint64_t DigestFeedback(const FeedbackMap& feedback);

/// Narrowed validity ranges of `plan`, keyed by the table set of the
/// guarded edge (child subplan). Recorded at install time; lookups test
/// current feedback against them to classify stale entries (paper
/// Section 2.2: within the range the plan above the edge stays optimal).
std::map<TableSet, ValidityRange> CollectValidityRanges(const PlanNode& plan);

/// What one plan-cache lookup decided.
enum class PlanCacheOutcome {
  kNone = 0,        ///< Cache not consulted (disabled / non-progressive).
  kHit,             ///< Identical optimizer inputs; cached plan is exact.
  kValidityHit,     ///< Feedback moved but stayed inside validity ranges
                    ///< (served only with PlanCacheConfig::validity_hits).
  kMissCold,        ///< No entry for the signature.
  kMissStale,       ///< Feedback moved since install (digest changed).
  kMissEpoch,       ///< Catalog stats version moved (RUNSTATS, index or
                    ///< table creation, write-path stats fold); entry
                    ///< evicted.
  kMissValidity,    ///< Feedback moved outside a recorded validity range;
                    ///< entry evicted (provably no longer optimal).
};

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome);

/// Per-flavor checkpoint counts of a placed plan. Declared here so a cache
/// entry can carry them; core's placement pass returns them as
/// PlacementStats (an alias).
struct PlacedCheckCounts {
  int lc = 0;
  int lcem = 0;
  int ecb = 0;
  int ecwc = 0;
  int ecdc = 0;
  int work_bound = 0;

  int total() const { return lc + lcem + ecb + ecwc + ecdc; }
};

struct PlanCacheConfig {
  /// Total entry cap across shards (LRU per shard). <= 0 disables installs.
  int64_t max_entries = 256;
  /// Concurrency shards, each with its own mutex and LRU list; clamped to
  /// max_entries so every shard holds at least one entry.
  int shards = 8;
  /// Serve entries whose feedback digest changed as long as every current
  /// cardinality stays inside the plan's recorded validity ranges. Off by
  /// default: strict mode guarantees a hit is bit-identical to a fresh
  /// optimization, which the differential equivalence suite relies on.
  bool validity_hits = false;
  /// Plans with more nodes than this are not installed (size cap).
  int64_t max_plan_nodes = 4096;
};

/// Process-wide cache of optimized plans keyed by canonical query
/// signature. An entry is valid on exactly two values, both captured once
/// by the caller before the lookup:
///   - the catalog stats version (RUNSTATS, CreateIndex, AddTable and
///     write-path stats folds all move it), and
///   - the digest of the feedback the optimizer is seeded with (harvested
///     feedback that changed any cardinality estimate for the query's
///     subplans forces a miss).
/// A strict hit therefore sees the optimizer inputs that installed the
/// entry and is bit-identical to a fresh optimization. With
/// `validity_hits` enabled, the digest gate is relaxed to POP's
/// validity-range test: feedback that moved but stayed inside every
/// recorded range still hits (the plan is still optimal, though a fresh
/// optimization might tie-break differently).
///
/// Each entry is installed once, after checkpoint placement, and holds
/// both the pre-checkpoint skeleton and the placed plan. A strict hit
/// clones the placed plan and skips DP enumeration and placement; a
/// validity hit clones the skeleton and re-places (moved feedback can
/// change check ranges).
///
/// Thread safe: lookups and installs from concurrent QueryService workers
/// serialize per shard; statistics are atomics. Entries are handed out as
/// shared_ptr, so eviction never invalidates a concurrent reader.
///
/// One PlanCache must only be shared by executors with identical optimizer
/// configuration over the same catalog; ProgressiveExecutor folds a config
/// fingerprint into the signature to keep distinct configurations apart.
class PlanCache {
 public:
  struct LookupResult {
    PlanCacheOutcome outcome = PlanCacheOutcome::kMissCold;
    /// Pre-checkpoint skeleton, set on (validity-)hits; clone before
    /// mutating.
    std::shared_ptr<const PlanNode> plan;
    /// Checkpoint-placed plan and its counts, set only on exact hits: the
    /// feedback digest is identical, so the placement pass would reproduce
    /// it verbatim.
    std::shared_ptr<const PlanNode> placed_plan;
    PlacedCheckCounts placed_checks;
    int64_t candidates = 0;  ///< DP candidates of the installing run.
    double est_cost = 0.0;
    double est_card = 0.0;
    double age_ms = 0.0;     ///< Entry age at hit time.

    bool hit() const {
      return outcome == PlanCacheOutcome::kHit ||
             outcome == PlanCacheOutcome::kValidityHit;
    }
  };

  /// Monotone counters (point-in-time copy via stats()).
  struct Stats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t validity_hits = 0;
    int64_t misses_cold = 0;
    int64_t misses_stale = 0;
    int64_t misses_epoch = 0;
    int64_t misses_validity = 0;
    int64_t installs = 0;
    int64_t evictions_lru = 0;
    int64_t evictions_invalid = 0;
    /// Subset of evictions_invalid where the catalog stats version moved,
    /// as opposed to feedback leaving a validity range. Observable as
    /// popdb_plan_cache_stale_stats_evictions_total.
    int64_t evictions_stale_stats = 0;

    int64_t misses() const {
      return misses_cold + misses_stale + misses_epoch + misses_validity;
    }
  };

  explicit PlanCache(PlanCacheConfig config = {});
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks up `signature`. `catalog_version` is the catalog's stats
  /// version, `feedback_digest` the digest of the feedback the optimizer
  /// would be seeded with, and `feedback` that snapshot (for the
  /// validity-range test).
  LookupResult Lookup(const std::string& signature, int64_t catalog_version,
                      uint64_t feedback_digest, const FeedbackMap& feedback);

  /// Installs (or replaces) the entry for `signature` under the gate
  /// values its lookup used. `plan` is the pre-checkpoint skeleton and
  /// `placed_plan` the same plan after checkpoint placement (`plan` itself
  /// when no checkpoints were placed), with `placed_checks` its counts.
  /// Plans with matview scans (scoped to one execution) and oversized
  /// plans are silently skipped.
  void Install(const std::string& signature,
               std::shared_ptr<const PlanNode> plan,
               std::shared_ptr<const PlanNode> placed_plan,
               PlacedCheckCounts placed_checks, int64_t catalog_version,
               uint64_t feedback_digest, int64_t candidates, double est_cost,
               double est_card);

  int64_t size() const;
  Stats stats() const;
  const PlanCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const PlanNode> plan;
    std::shared_ptr<const PlanNode> placed_plan;
    PlacedCheckCounts placed_checks;
    uint64_t feedback_digest = 0;
    int64_t catalog_version = 0;
    std::map<TableSet, ValidityRange> validity;
    int64_t candidates = 0;
    double est_cost = 0.0;
    double est_card = 0.0;
    double install_ms = 0.0;
    int64_t hits = 0;
    /// Position in the shard's LRU list (front = most recent).
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  ///< Signatures, most recent first.
    int64_t cap = 1;  ///< This shard's share of max_entries.
  };

  Shard& ShardFor(const std::string& signature);
  /// Removes `it` from `shard`; caller holds the shard mutex.
  void EvictLocked(Shard* shard,
                   std::unordered_map<std::string, Entry>::iterator it);

  PlanCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace popdb

#endif  // POPDB_OPT_PLAN_CACHE_H_
