#ifndef POPDB_OPT_ENUMERATOR_H_
#define POPDB_OPT_ENUMERATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/plan.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb {

/// A temporary materialized view (from a previous execution step of the
/// same query) offered to the optimizer. The optimizer costs a scan of the
/// view against recomputing the subplan and picks whichever is cheaper
/// (Section 2.3 — reuse is a cost-based decision, never forced).
struct AvailableMatView {
  std::string name;
  TableSet set = 0;
  double card = 0.0;
  const std::vector<Row>* rows = nullptr;
  /// Canonical positions the rows are sorted on (ascending); a merge join
  /// over the view can skip its sort when these cover the join keys.
  std::vector<int> sorted_positions;
};

/// Join methods the optimizer may use. Experiments toggle these (e.g. the
/// LC overhead study disables hash join to create many SORT/TEMP
/// materialization points).
struct JoinMethodConfig {
  bool enable_nljn = true;
  bool enable_hsjn = true;
  bool enable_mgjn = true;
  bool consider_matviews = true;

  /// "Conservative mode of query execution" (paper Section 7, Checking
  /// Opportunities): bias plan choice toward operators that offer more
  /// re-optimization opportunities — merge joins materialize both inputs
  /// (two lazy checkpoints), hash joins one, pipelined NLJNs none. A
  /// candidate's comparison cost is inflated by
  /// (1 + bias * operator_risk); its recorded cost stays unbiased so the
  /// validity analysis still reasons about true costs. 0 disables.
  double volatile_mode_bias = 0.0;
};

/// Identity of one offered materialized view, captured when the memo is
/// committed. A view whose identity changed between optimizations (new
/// rows, different sort order, dropped/replaced) dirties every memo entry
/// whose table set could have used it.
struct MemoMatViewKey {
  std::string name;
  TableSet set = 0;
  double card = 0.0;
  const std::vector<Row>* rows = nullptr;
  std::vector<int> sorted_positions;

  bool operator==(const MemoMatViewKey&) const = default;
};

/// Persistent dynamic-programming memo carried across the optimizations of
/// one progressive execution (and across the coordinator's cluster-level
/// re-optimizations). After a successful enumeration the one-best-plan-per-
/// table-set map is committed here together with the feedback snapshot and
/// matview identities it was computed under; the next enumeration for the
/// same query reuses every entry whose table set contains no changed
/// feedback key and no changed matview — by construction those entries are
/// bit-identical to what a from-scratch enumeration would produce, because
/// SubsetCard(S) only ever reads feedback entries that are subsets of S.
/// Entries whose set covers a changed edge are discarded and re-costed
/// upward through their supersets by the normal DP passes.
///
/// Memo entries are pre-narrowing plan trees (the Optimizer deep-clones the
/// winner before NarrowPlanRanges mutates validity ranges), so reuse never
/// leaks state between attempts. Not thread safe; one memo belongs to one
/// executor.
class IncrementalMemo {
 public:
  /// Drops all state; the next enumeration runs full DP.
  void Reset() {
    entries_.clear();
    feedback_.clear();
    matviews_.clear();
    fingerprint_ = 0;
    valid_ = false;
  }

  bool valid() const { return valid_; }
  int64_t entries() const { return static_cast<int64_t>(entries_.size()); }

 private:
  friend class JoinEnumerator;

  std::map<TableSet, std::shared_ptr<PlanNode>> entries_;
  /// Feedback snapshot the entries were computed under.
  FeedbackMap feedback_;
  /// Identities of the matviews offered to the committing enumeration.
  std::vector<MemoMatViewKey> matviews_;
  /// FNV-1a of the committing query's QueryCacheSignature; a mismatch
  /// invalidates the whole memo.
  uint64_t fingerprint_ = 0;
  bool valid_ = false;
};

/// Observer invoked whenever dynamic programming prunes a structurally
/// equivalent alternative (same table set, same unordered child partition).
/// The POP validity-range analysis implements this interface; a null
/// observer makes the enumerator a plain System-R optimizer.
class PruneObserver {
 public:
  virtual ~PruneObserver() = default;

  /// `winner` survives, `loser` is pruned. The observer may narrow
  /// `winner->child_validity`.
  virtual void OnPrune(PlanNode* winner, const PlanNode& loser) = 0;
};

/// Selinger-style dynamic-programming join enumerator: one best plan per
/// table subset, bushy partitions, hash/merge/nested-loop candidates, and
/// materialized-view seeding. Produces the join tree only; the Optimizer
/// facade adds aggregation / sort / projection on top.
class JoinEnumerator {
 public:
  JoinEnumerator(const Catalog& catalog, const QuerySpec& query,
                 const CardinalityEstimator& estimator, const CostModel& cost,
                 const JoinMethodConfig& methods,
                 const std::vector<AvailableMatView>* matviews,
                 PruneObserver* observer, IncrementalMemo* memo = nullptr);

  /// Runs DP over all table subsets and returns the best full join tree.
  /// With an attached memo, entries untouched by feedback/matview changes
  /// since the memo's commit are reused instead of re-enumerated, and the
  /// new best-plan table is committed back on success.
  Result<std::shared_ptr<PlanNode>> EnumerateJoinTree();

  /// Narrows the validity ranges of every join edge of (the already
  /// chosen, deep-cloned) `root` by regenerating the structurally
  /// equivalent alternatives of each join node and invoking `observer` as
  /// if they were pruned. By the structural-equivalence theorem
  /// (Section 2.2) ranges are only needed on the final plan's edges, so
  /// doing this as a post-pass costs O(plan size) cost-model evaluations
  /// instead of O(3^n).
  void NarrowPlanRanges(PlanNode* root, PruneObserver* observer);

  /// Number of candidate plans costed (diagnostics).
  int64_t candidates_considered() const { return candidates_; }

  /// Memo entries reused / discarded by the last EnumerateJoinTree call
  /// (0 without a memo or when the memo was empty).
  int64_t memo_reused() const { return memo_reused_; }
  int64_t memo_invalidated() const { return memo_invalidated_; }

 private:
  /// Seeds `best_` from the memo: diffs the memo's feedback snapshot and
  /// matview identities against the current ones, then reuses every entry
  /// whose table set contains no changed edge.
  void ReuseMemoEntries();
  /// Commits `best_` (plus current feedback/matview identities) to the
  /// memo after a successful enumeration.
  void CommitMemo();
  /// Identity list of the currently offered matviews.
  std::vector<MemoMatViewKey> CurrentMatViewKeys() const;
  std::shared_ptr<PlanNode> BestAccessPath(int table_id);
  /// Join predicate indexes with one side in `left` and the other in
  /// `right`.
  std::vector<int> CrossingJoins(TableSet left, TableSet right) const;

  /// `set_card` / `set_assumptions` are the output set's estimate and
  /// assumption count, hoisted by the DP loop so the (up to six) candidate
  /// constructors of every split share one estimator probe per set.
  void AddJoinCandidates(TableSet set, TableSet left, TableSet right,
                         const std::vector<int>& joins, double set_card,
                         int set_assumptions);
  std::shared_ptr<PlanNode> MakeHsjn(TableSet set,
                                     std::shared_ptr<PlanNode> probe,
                                     std::shared_ptr<PlanNode> build,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  std::shared_ptr<PlanNode> MakeMgjn(TableSet set,
                                     std::shared_ptr<PlanNode> left,
                                     std::shared_ptr<PlanNode> right,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  std::shared_ptr<PlanNode> MakeNljn(TableSet set,
                                     std::shared_ptr<PlanNode> outer,
                                     int inner_table,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  /// NLJN probing a temporary materialized view covering the inner table,
  /// through a hash index built on the view before reuse (the paper's
  /// Section 2.3 "create an index on the materialized view if worthwhile").
  std::shared_ptr<PlanNode> MakeNljnOverMv(TableSet set,
                                           std::shared_ptr<PlanNode> outer,
                                           int inner_table,
                                           const std::vector<int>& joins,
                                           const AvailableMatView& mv,
                                           double set_card,
                                           int set_assumptions);
  /// Singleton-set materialized view covering `table_id`, or null.
  const AvailableMatView* FindMatView(int table_id) const;
  /// Offers `candidate` for table set `set`, pruning with validity-range
  /// narrowing when structurally comparable.
  void Offer(TableSet set, std::shared_ptr<PlanNode> candidate);
  /// Comparison cost including the volatile-mode robustness bias.
  double BiasedCost(const PlanNode& node) const;

  /// Layout for `set`, memoized for the enumerator's lifetime: MGJN builds
  /// two sort children per connected split, and reconstructing the layout
  /// (two vector allocations plus an offset scan) each time dominates the
  /// candidate constructors on large sets.
  const RowLayout& LayoutFor(TableSet set) const;

  const Catalog& catalog_;
  const QuerySpec& query_;
  const CardinalityEstimator& estimator_;
  const CostModel& cost_;
  JoinMethodConfig methods_;
  const std::vector<AvailableMatView>* matviews_;
  PruneObserver* observer_;

  std::vector<int> table_widths_;
  mutable std::unordered_map<TableSet, RowLayout> layout_cache_;
  std::map<TableSet, std::shared_ptr<PlanNode>> best_;
  int64_t candidates_ = 0;

  IncrementalMemo* memo_;  ///< May be null (plain full-DP enumeration).
  /// Canonical query signature, computed once per enumeration when a memo
  /// is attached.
  uint64_t memo_fingerprint_ = 0;
  /// Table sets whose best plan came from the memo this enumeration; the
  /// DP passes skip recomputing them.
  std::set<TableSet> reused_;
  int64_t memo_reused_ = 0;
  int64_t memo_invalidated_ = 0;
};

/// True if `a` and `b` are join candidates over the same unordered child
/// partition (the paper's structural-equivalence restriction: alternative
/// root operators and commuted inputs, but never different join orders).
bool SamePartition(const PlanNode& a, const PlanNode& b);

}  // namespace popdb

#endif  // POPDB_OPT_ENUMERATOR_H_
