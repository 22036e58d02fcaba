#include "opt/enumerator.h"

#include <algorithm>

#include "common/string_util.h"
#include "opt/plan_cache.h"

namespace popdb {

namespace {
/// Unordered pair of child table sets identifying a join partition.
std::pair<TableSet, TableSet> PartitionOf(const PlanNode& node) {
  TableSet a = LogicalChild(node, 0)->set;
  TableSet b = LogicalChild(node, 1)->set;
  if (a > b) std::swap(a, b);
  return {a, b};
}

bool IsJoin(const PlanNode& node) {
  return node.kind == PlanOpKind::kNljn || node.kind == PlanOpKind::kHsjn ||
         node.kind == PlanOpKind::kMgjn;
}
}  // namespace

namespace {
/// Re-optimization-opportunity risk of a plan's root operator: 0 = both
/// inputs materialized (merge join), 1 = fully pipelined (NLJN).
double OperatorRisk(const PlanNode& node) {
  switch (node.kind) {
    case PlanOpKind::kMgjn:
      return 0.0;
    case PlanOpKind::kHsjn:
      return 0.5;  // Build side materialized, probe side pipelined.
    case PlanOpKind::kNljn:
      return 1.0;
    default:
      return 0.0;
  }
}
}  // namespace

bool SamePartition(const PlanNode& a, const PlanNode& b) {
  if (!IsJoin(a) || !IsJoin(b)) return false;
  return PartitionOf(a) == PartitionOf(b);
}

JoinEnumerator::JoinEnumerator(const Catalog& catalog, const QuerySpec& query,
                               const CardinalityEstimator& estimator,
                               const CostModel& cost,
                               const JoinMethodConfig& methods,
                               const std::vector<AvailableMatView>* matviews,
                               PruneObserver* observer, IncrementalMemo* memo)
    : catalog_(catalog),
      query_(query),
      estimator_(estimator),
      cost_(cost),
      methods_(methods),
      matviews_(matviews),
      observer_(observer),
      memo_(memo) {
  table_widths_.reserve(static_cast<size_t>(query.num_tables()));
  for (int t = 0; t < query.num_tables(); ++t) {
    const Table* table = catalog.GetTable(query.table_name(t));
    table_widths_.push_back(table != nullptr ? table->schema().num_columns()
                                             : 0);
  }
}

const RowLayout& JoinEnumerator::LayoutFor(TableSet set) const {
  auto it = layout_cache_.find(set);
  if (it == layout_cache_.end()) {
    it = layout_cache_.emplace(set, RowLayout(set, table_widths_)).first;
  }
  return it->second;
}

std::vector<int> JoinEnumerator::CrossingJoins(TableSet left,
                                               TableSet right) const {
  std::vector<int> out;
  const auto& joins = query_.join_preds();
  for (size_t j = 0; j < joins.size(); ++j) {
    const int lt = joins[j].left.table_id;
    const int rt = joins[j].right.table_id;
    const bool crosses =
        (ContainsTable(left, lt) && ContainsTable(right, rt)) ||
        (ContainsTable(left, rt) && ContainsTable(right, lt));
    if (crosses) out.push_back(static_cast<int>(j));
  }
  return out;
}

std::shared_ptr<PlanNode> JoinEnumerator::BestAccessPath(int table_id) {
  const TableSet set = TableBit(table_id);
  auto scan = std::make_shared<PlanNode>();
  scan->kind = PlanOpKind::kTableScan;
  scan->set = set;
  scan->table_id = table_id;
  scan->table_name = query_.table_name(table_id);
  scan->pred_ids = query_.PredsOnTable(table_id);
  scan->card = estimator_.SubsetCard(set);
  scan->assumptions = estimator_.AssumptionCount(set);
  scan->op_cost = cost_.ScanCost(estimator_.TableCard(table_id));
  scan->cost = scan->op_cost;
  ++candidates_;

  std::shared_ptr<PlanNode> best = scan;
  if (methods_.consider_matviews && matviews_ != nullptr) {
    for (const AvailableMatView& mv : *matviews_) {
      if (mv.set != set || mv.rows == nullptr) continue;
      auto mvscan = std::make_shared<PlanNode>();
      mvscan->kind = PlanOpKind::kMatViewScan;
      mvscan->set = set;
      mvscan->table_id = table_id;
      mvscan->mv_name = mv.name;
      mvscan->mv_rows = mv.rows;
      mvscan->card = estimator_.SubsetCard(set);
      for (int pos : mv.sorted_positions) {
        mvscan->sort_keys.push_back(SortKey{pos, false});
      }
      mvscan->op_cost = cost_.MatViewScanCost(mv.card);
      mvscan->cost = mvscan->op_cost;
      ++candidates_;
      if (mvscan->cost < best->cost) best = mvscan;
    }
  }
  return best;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeHsjn(
    TableSet set, std::shared_ptr<PlanNode> probe,
    std::shared_ptr<PlanNode> build, const std::vector<int>& joins,
    double set_card, int set_assumptions) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kHsjn;
  node->set = set;
  node->children = {std::move(probe), std::move(build)};
  node->child_validity.resize(2);
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  const double probe_card = node->children[0]->card;
  const double build_card = node->children[1]->card;
  node->op_cost = cost_.HsjnCost(probe_card, build_card);
  node->cost =
      node->children[0]->cost + node->children[1]->cost + node->op_cost;
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeMgjn(
    TableSet set, std::shared_ptr<PlanNode> left,
    std::shared_ptr<PlanNode> right, const std::vector<int>& joins,
    double set_card, int set_assumptions) {
  auto make_sort = [this, &joins](std::shared_ptr<PlanNode> child,
                                  bool is_left) -> std::shared_ptr<PlanNode> {
    (void)is_left;
    const RowLayout& layout = LayoutFor(child->set);
    std::vector<int> required;
    for (int j : joins) {
      const JoinPredicate& jp = query_.join_preds()[static_cast<size_t>(j)];
      const ColRef& side =
          ContainsTable(child->set, jp.left.table_id) ? jp.left : jp.right;
      required.push_back(layout.Resolve(side));
    }
    // A reused materialized view that is already sorted on the join keys
    // needs no re-sort (the interesting-orders payoff of harvesting SORT
    // results as views).
    if (child->kind == PlanOpKind::kMatViewScan &&
        child->sort_keys.size() >= required.size()) {
      bool ordered = true;
      for (size_t k = 0; k < required.size(); ++k) {
        if (child->sort_keys[k].pos != required[k] ||
            child->sort_keys[k].descending) {
          ordered = false;
          break;
        }
      }
      if (ordered) return child;
    }
    auto sort = std::make_shared<PlanNode>();
    sort->kind = PlanOpKind::kSort;
    sort->set = child->set;
    sort->card = child->card;
    sort->assumptions = child->assumptions;
    for (int pos : required) {
      sort->sort_keys.push_back(SortKey{pos, false});
    }
    sort->op_cost = cost_.SortCost(child->card);
    sort->cost = child->cost + sort->op_cost;
    sort->children = {std::move(child)};
    sort->child_validity.resize(1);
    return sort;
  };
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kMgjn;
  node->set = set;
  node->children = {make_sort(std::move(left), true),
                    make_sort(std::move(right), false)};
  node->child_validity.resize(2);
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  node->op_cost = cost_.MgjnCost(node->children[0]->card,
                                 node->children[1]->card, node->card);
  node->cost =
      node->children[0]->cost + node->children[1]->cost + node->op_cost;
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeNljn(
    TableSet set, std::shared_ptr<PlanNode> outer, int inner_table,
    const std::vector<int>& joins, double set_card, int set_assumptions) {
  const TableSet inner_set = TableBit(inner_table);
  auto inner = std::make_shared<PlanNode>();
  inner->kind = PlanOpKind::kTableScan;
  inner->set = inner_set;
  inner->table_id = inner_table;
  inner->table_name = query_.table_name(inner_table);
  inner->pred_ids = query_.PredsOnTable(inner_table);
  inner->card = estimator_.SubsetCard(inner_set);
  inner->assumptions = estimator_.AssumptionCount(inner_set);
  inner->op_cost = 0.0;  // Probe cost is charged by the NLJN operator.
  inner->cost = 0.0;

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kNljn;
  node->set = set;
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;

  // Prefer probing through an index: pick the first crossing join predicate
  // whose inner column has a hash index, and move it to the front.
  node->use_index = false;
  for (size_t k = 0; k < joins.size(); ++k) {
    const JoinPredicate& jp =
        query_.join_preds()[static_cast<size_t>(joins[k])];
    const ColRef& inner_side =
        jp.left.table_id == inner_table ? jp.left : jp.right;
    if (inner_side.table_id != inner_table) continue;
    if (catalog_.FindIndex(query_.table_name(inner_table),
                           inner_side.column) != nullptr) {
      node->use_index = true;
      node->index_col = inner_side.column;
      std::swap(node->join_pred_ids[0], node->join_pred_ids[k]);
      break;
    }
  }
  const double inner_base = estimator_.TableCard(inner_table);
  const double matches =
      node->use_index
          ? estimator_.IndexMatchesPerProbe(inner_table, node->index_col)
          : 0.0;
  node->per_probe_cost =
      cost_.NljnProbeCost(node->use_index, inner_base, matches);
  node->op_cost = cost_.NljnCost(outer->card, node->per_probe_cost);
  node->cost = outer->cost + node->op_cost;
  node->children = {std::move(outer), std::move(inner)};
  node->child_validity.resize(2);
  return node;
}

const AvailableMatView* JoinEnumerator::FindMatView(int table_id) const {
  if (!methods_.consider_matviews || matviews_ == nullptr) return nullptr;
  for (const AvailableMatView& mv : *matviews_) {
    if (mv.set == TableBit(table_id) && mv.rows != nullptr) return &mv;
  }
  return nullptr;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeNljnOverMv(
    TableSet set, std::shared_ptr<PlanNode> outer, int inner_table,
    const std::vector<int>& joins, const AvailableMatView& mv,
    double set_card, int set_assumptions) {
  const TableSet inner_set = TableBit(inner_table);
  auto inner = std::make_shared<PlanNode>();
  inner->kind = PlanOpKind::kMatViewScan;
  inner->set = inner_set;
  inner->table_id = inner_table;
  inner->mv_name = mv.name;
  inner->mv_rows = mv.rows;
  inner->card = estimator_.SubsetCard(inner_set);
  inner->assumptions = estimator_.AssumptionCount(inner_set);
  inner->op_cost = 0.0;  // Probe cost is charged by the NLJN operator.
  inner->cost = 0.0;

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kNljn;
  node->set = set;
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  double per_probe;
  if (joins.empty()) {
    node->use_index = false;
    per_probe = cost_.NljnProbeCost(false, mv.card, 0.0);
    node->op_cost = cost_.NljnCost(outer->card, per_probe);
  } else {
    // Build a hash index on the view before reusing it (Section 2.3); the
    // one-off build cost is charged to this operator.
    const JoinPredicate& jp =
        query_.join_preds()[static_cast<size_t>(joins[0])];
    const ColRef& inner_side =
        jp.left.table_id == inner_table ? jp.left : jp.right;
    node->use_index = true;
    node->index_col = inner_side.column;
    const double matches =
        mv.card / std::max(1.0, estimator_.ColumnNdv(inner_table,
                                                     inner_side.column));
    per_probe = cost_.NljnProbeCost(true, mv.card, matches);
    node->op_cost = cost_.NljnCost(outer->card, per_probe) +
                    cost_.IndexBuildCost(mv.card);
  }
  node->per_probe_cost = per_probe;
  node->cost = outer->cost + node->op_cost;
  node->children = {std::move(outer), std::move(inner)};
  node->child_validity.resize(2);
  return node;
}

double JoinEnumerator::BiasedCost(const PlanNode& node) const {
  if (methods_.volatile_mode_bias <= 0.0) return node.cost;
  return node.cost * (1.0 + methods_.volatile_mode_bias * OperatorRisk(node));
}

void JoinEnumerator::Offer(TableSet set,
                           std::shared_ptr<PlanNode> candidate) {
  auto it = best_.find(set);
  if (it == best_.end()) {
    best_[set] = std::move(candidate);
    return;
  }
  std::shared_ptr<PlanNode>& best = it->second;
  // Cross-partition comparison: different join orders are never
  // structurally equivalent, so no validity narrowing happens here
  // (Section 2.2's restriction).
  if (BiasedCost(*candidate) < BiasedCost(*best)) {
    best = std::move(candidate);
  }
}

void JoinEnumerator::AddJoinCandidates(TableSet set, TableSet left,
                                       TableSet right,
                                       const std::vector<int>& joins,
                                       double set_card,
                                       int set_assumptions) {
  const std::shared_ptr<PlanNode>& lp = best_[left];
  const std::shared_ptr<PlanNode>& rp = best_[right];
  if (lp == nullptr || rp == nullptr) return;

  // All candidates of one partition are structurally equivalent (same
  // input edges, commutation included): prune among them first, narrowing
  // the survivor's validity ranges per Figure 5, then offer the partition
  // winner for the cross-partition (join-order) comparison.
  std::vector<std::shared_ptr<PlanNode>> candidates;
  if (methods_.enable_hsjn) {
    candidates.push_back(
        MakeHsjn(set, lp, rp, joins, set_card, set_assumptions));  // Build R.
    candidates.push_back(
        MakeHsjn(set, rp, lp, joins, set_card, set_assumptions));  // Commuted.
  }
  if (methods_.enable_mgjn && !joins.empty()) {
    candidates.push_back(
        MakeMgjn(set, lp, rp, joins, set_card, set_assumptions));
  }
  if (methods_.enable_nljn) {
    if (PopCount(right) == 1) {
      const int t = static_cast<int>(__builtin_ctzll(right));
      candidates.push_back(
          MakeNljn(set, lp, t, joins, set_card, set_assumptions));
      if (const AvailableMatView* mv = FindMatView(t)) {
        candidates.push_back(
            MakeNljnOverMv(set, lp, t, joins, *mv, set_card,
                           set_assumptions));
      }
    }
    if (PopCount(left) == 1) {
      const int t = static_cast<int>(__builtin_ctzll(left));
      candidates.push_back(
          MakeNljn(set, rp, t, joins, set_card, set_assumptions));
      if (const AvailableMatView* mv = FindMatView(t)) {
        candidates.push_back(
            MakeNljnOverMv(set, rp, t, joins, *mv, set_card,
                           set_assumptions));
      }
    }
  }
  if (candidates.empty()) return;
  candidates_ += static_cast<int64_t>(candidates.size());

  std::shared_ptr<PlanNode> winner = std::move(candidates[0]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    std::shared_ptr<PlanNode>& challenger = candidates[i];
    if (BiasedCost(*challenger) < BiasedCost(*winner)) {
      if (observer_ != nullptr) observer_->OnPrune(challenger.get(), *winner);
      winner = std::move(challenger);
    } else {
      if (observer_ != nullptr) observer_->OnPrune(winner.get(), *challenger);
    }
  }
  Offer(set, std::move(winner));
}

void JoinEnumerator::NarrowPlanRanges(PlanNode* root,
                                      PruneObserver* observer) {
  if (root->kind == PlanOpKind::kNljn || root->kind == PlanOpKind::kHsjn ||
      root->kind == PlanOpKind::kMgjn) {
    const PlanNode* left = LogicalChild(*root, 0);
    const PlanNode* right = LogicalChild(*root, 1);
    // Regenerate the structurally equivalent alternatives over the same
    // (already-optimized) children and narrow against each.
    const std::vector<int> joins = CrossingJoins(left->set, right->set);
    auto share = [this](const PlanNode* node) {
      // Alternatives only read card/cost/set of the children; a shallow
      // copy is enough and avoids touching the real tree. An NLJN inner
      // scan carries zero cost (the probe is charged by the join), so it
      // must be re-costed as a standalone access path or the regenerated
      // alternatives would get its scan for free.
      auto copy = std::make_shared<PlanNode>(*node);
      if (copy->kind == PlanOpKind::kTableScan && copy->cost == 0.0) {
        copy->op_cost = cost_.ScanCost(estimator_.TableCard(copy->table_id));
        copy->cost = copy->op_cost;
      }
      return copy;
    };
    const double set_card = estimator_.SubsetCard(root->set);
    const int set_assumptions = estimator_.AssumptionCount(root->set);
    std::vector<std::shared_ptr<PlanNode>> alternatives;
    if (methods_.enable_hsjn) {
      alternatives.push_back(MakeHsjn(root->set, share(left), share(right),
                                      joins, set_card, set_assumptions));
      alternatives.push_back(MakeHsjn(root->set, share(right), share(left),
                                      joins, set_card, set_assumptions));
    }
    if (methods_.enable_mgjn && !joins.empty()) {
      alternatives.push_back(MakeMgjn(root->set, share(left), share(right),
                                      joins, set_card, set_assumptions));
    }
    if (methods_.enable_nljn) {
      if (PopCount(right->set) == 1 &&
          right->kind == PlanOpKind::kTableScan) {
        alternatives.push_back(MakeNljn(
            root->set, share(left),
            static_cast<int>(__builtin_ctzll(right->set)), joins, set_card,
            set_assumptions));
      }
      if (PopCount(left->set) == 1 && left->kind == PlanOpKind::kTableScan) {
        alternatives.push_back(MakeNljn(
            root->set, share(right),
            static_cast<int>(__builtin_ctzll(left->set)), joins, set_card,
            set_assumptions));
      }
    }
    for (const auto& alt : alternatives) {
      if (alt->kind == root->kind && SamePartition(*alt, *root) &&
          LogicalChild(*alt, 0)->set == left->set &&
          alt->use_index == root->use_index &&
          alt->children[1]->kind == root->children[1]->kind) {
        // Skip the candidate that *is* this plan.
        continue;
      }
      observer->OnPrune(root, *alt);
    }
  }
  for (const auto& child : root->children) {
    NarrowPlanRanges(child.get(), observer);
  }
}

std::vector<MemoMatViewKey> JoinEnumerator::CurrentMatViewKeys() const {
  std::vector<MemoMatViewKey> keys;
  if (!methods_.consider_matviews || matviews_ == nullptr) return keys;
  keys.reserve(matviews_->size());
  for (const AvailableMatView& mv : *matviews_) {
    keys.push_back(MemoMatViewKey{mv.name, mv.set, mv.card, mv.rows,
                                  mv.sorted_positions});
  }
  return keys;
}

void JoinEnumerator::ReuseMemoEntries() {
  // Dirty roots: every table set whose cardinality knowledge or matview
  // identity changed since the memo was committed. A memo entry for set S
  // is stale iff some dirty root is a subset of S — SubsetCard(S) reads
  // only feedback entries that are subsets of S, matviews over M are only
  // candidates for sets containing M, and a stale child taints every
  // candidate cost above it.
  std::vector<TableSet> dirty;
  static const FeedbackMap kEmptyFeedback;
  const FeedbackMap& old_fb = memo_->feedback_;
  const FeedbackMap& new_fb = estimator_.feedback() != nullptr
                                  ? *estimator_.feedback()
                                  : kEmptyFeedback;
  auto ita = old_fb.begin();
  auto itb = new_fb.begin();
  while (ita != old_fb.end() || itb != new_fb.end()) {
    if (itb == new_fb.end() || (ita != old_fb.end() && ita->first < itb->first)) {
      dirty.push_back(ita->first);  // Key vanished.
      ++ita;
    } else if (ita == old_fb.end() || itb->first < ita->first) {
      dirty.push_back(itb->first);  // Key appeared.
      ++itb;
    } else {
      if (ita->second.exact != itb->second.exact ||
          ita->second.lower_bound != itb->second.lower_bound) {
        dirty.push_back(ita->first);
      }
      ++ita;
      ++itb;
    }
  }
  const std::vector<MemoMatViewKey> new_mv = CurrentMatViewKeys();
  for (const MemoMatViewKey& old_key : memo_->matviews_) {
    if (std::find(new_mv.begin(), new_mv.end(), old_key) == new_mv.end()) {
      dirty.push_back(old_key.set);
    }
  }
  for (const MemoMatViewKey& new_key : new_mv) {
    if (std::find(memo_->matviews_.begin(), memo_->matviews_.end(),
                  new_key) == memo_->matviews_.end()) {
      dirty.push_back(new_key.set);
    }
  }

  // Adopt the memo wholesale by move and evict the stale entries: with few
  // dirty roots this is a handful of erases instead of re-inserting every
  // surviving entry one at a time. The memo is hollow until CommitMemo
  // repopulates it, so mark it invalid in case enumeration fails midway.
  best_ = std::move(memo_->entries_);
  memo_->entries_.clear();
  memo_->valid_ = false;
  for (auto it = best_.begin(); it != best_.end();) {
    bool stale = false;
    for (TableSet root : dirty) {
      if ((root & it->first) == root) {
        stale = true;
        break;
      }
    }
    if (stale) {
      ++memo_invalidated_;
      it = best_.erase(it);
    } else {
      // Map iteration is ascending, so the end() hint keeps this O(1).
      reused_.insert(reused_.end(), it->first);
      ++memo_reused_;
      ++it;
    }
  }
}

void JoinEnumerator::CommitMemo() {
  memo_->entries_ = std::move(best_);
  memo_->feedback_ = estimator_.feedback() != nullptr ? *estimator_.feedback()
                                                      : FeedbackMap{};
  memo_->matviews_ = CurrentMatViewKeys();
  memo_->fingerprint_ = memo_fingerprint_;
  memo_->valid_ = true;
}

Result<std::shared_ptr<PlanNode>> JoinEnumerator::EnumerateJoinTree() {
  const int n = query_.num_tables();
  if (n == 0) {
    return Status::InvalidArgument("query has no tables");
  }
  if (n > 20) {
    return Status::InvalidArgument(
        "too many tables for exhaustive dynamic programming");
  }
  if (memo_ != nullptr) {
    memo_fingerprint_ = Fnv1a64(QueryCacheSignature(query_));
    if (memo_->valid_ && memo_->fingerprint_ == memo_fingerprint_) {
      ReuseMemoEntries();
    }
  }
  for (int t = 0; t < n; ++t) {
    if (catalog_.GetTable(query_.table_name(t)) == nullptr) {
      return Status::NotFound("no such table: " + query_.table_name(t));
    }
    if (reused_.count(TableBit(t)) != 0) continue;
    best_[TableBit(t)] = BestAccessPath(t);
  }

  // Multi-table materialized views seed their table set directly.
  if (methods_.consider_matviews && matviews_ != nullptr) {
    for (const AvailableMatView& mv : *matviews_) {
      if (PopCount(mv.set) < 2 || mv.rows == nullptr) continue;
      if (reused_.count(mv.set) != 0) continue;
      auto mvscan = std::make_shared<PlanNode>();
      mvscan->kind = PlanOpKind::kMatViewScan;
      mvscan->set = mv.set;
      mvscan->mv_name = mv.name;
      mvscan->mv_rows = mv.rows;
      mvscan->card = estimator_.SubsetCard(mv.set);
      for (int pos : mv.sorted_positions) {
        mvscan->sort_keys.push_back(SortKey{pos, false});
      }
      mvscan->op_cost = cost_.MatViewScanCost(mv.card);
      mvscan->cost = mvscan->op_cost;
      Offer(mv.set, std::move(mvscan));
    }
  }

  const TableSet full = query_.AllTables();
  std::vector<std::vector<TableSet>> by_size(static_cast<size_t>(n + 1));
  for (TableSet set = 1; set <= full; ++set) {
    const int pc = PopCount(set);
    if (pc >= 2) by_size[static_cast<size_t>(pc)].push_back(set);
  }

  for (int size = 2; size <= n; ++size) {
    for (TableSet set : by_size[static_cast<size_t>(size)]) {
      if (reused_.count(set) != 0) continue;  // Memo entry still valid.
      // One estimator probe per set, shared by every split's candidates.
      const double set_card = estimator_.SubsetCard(set);
      const int set_assumptions = estimator_.AssumptionCount(set);
      const TableSet low_bit = set & (~set + 1);
      // Pass 1: partitions connected by at least one join predicate.
      bool connected_found = false;
      for (TableSet sub = (set - 1) & set; sub != 0; sub = (sub - 1) & set) {
        if ((sub & low_bit) == 0) continue;  // Dedupe unordered partitions.
        const TableSet rest = set & ~sub;
        if (best_.count(sub) == 0 || best_.count(rest) == 0) continue;
        const std::vector<int> joins = CrossingJoins(sub, rest);
        if (joins.empty()) continue;
        connected_found = true;
        AddJoinCandidates(set, sub, rest, joins, set_card, set_assumptions);
      }
      if (!connected_found) {
        // Pass 2: no connected partition exists; allow cross products.
        for (TableSet sub = (set - 1) & set; sub != 0;
             sub = (sub - 1) & set) {
          if ((sub & low_bit) == 0) continue;
          const TableSet rest = set & ~sub;
          if (best_.count(sub) == 0 || best_.count(rest) == 0) continue;
          AddJoinCandidates(set, sub, rest, {}, set_card, set_assumptions);
        }
      }
    }
  }

  auto it = best_.find(full);
  if (it == best_.end() || it->second == nullptr) {
    return Status::Internal("join enumeration produced no plan");
  }
  // CommitMemo moves best_ into the memo; keep the winner alive first.
  std::shared_ptr<PlanNode> winner = it->second;
  if (memo_ != nullptr) CommitMemo();
  return winner;
}

}  // namespace popdb
