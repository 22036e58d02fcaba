#include "exec/agg.h"

#include <algorithm>

#include "exec/parallel.h"

namespace popdb {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

HashAggOp::HashAggOp(std::unique_ptr<Operator> child,
                     std::vector<int> group_pos,
                     std::vector<ResolvedAgg> aggs)
    : Operator(0),
      child_(std::move(child)),
      group_pos_(std::move(group_pos)),
      aggs_(std::move(aggs)) {}

void HashAggOp::AccumulateFromBatch(const RowBatch& batch, int64_t i,
                                    GroupMap* groups) const {
  Row key;
  key.reserve(group_pos_.size());
  for (int pos : group_pos_) key.push_back(batch.At(pos, i));
  std::vector<AggState>& states = (*groups)[std::move(key)];
  if (states.empty()) states.resize(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState& st = states[a];
    ++st.count;
    if (aggs_[a].func == AggFunc::kCount) continue;
    const Value& v = batch.At(aggs_[a].pos, i);
    if (v.is_null()) continue;
    if (aggs_[a].func == AggFunc::kSum || aggs_[a].func == AggFunc::kAvg) {
      st.sum += v.AsNumeric();
    }
    if (st.min.is_null() || v < st.min) st.min = v;
    if (st.max.is_null() || v > st.max) st.max = v;
  }
}

void HashAggOp::MergeState(const AggState& from, AggState* into) {
  into->count += from.count;
  into->sum += from.sum;
  if (!from.min.is_null() && (into->min.is_null() || from.min < into->min)) {
    into->min = from.min;
  }
  if (!from.max.is_null() && (into->max.is_null() || from.max > into->max)) {
    into->max = from.max;
  }
}

void HashAggOp::EmitResults(GroupMap* groups) {
  results_.reserve(groups->size());
  for (auto& [key, states] : *groups) {
    Row out = key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggState& st = states[a];
      switch (aggs_[a].func) {
        case AggFunc::kCount:
          out.push_back(Value::Int(st.count));
          break;
        case AggFunc::kSum:
          out.push_back(Value::Double(st.sum));
          break;
        case AggFunc::kAvg:
          out.push_back(Value::Double(
              st.count == 0 ? 0.0 : st.sum / static_cast<double>(st.count)));
          break;
        case AggFunc::kMin:
          out.push_back(st.min);
          break;
        case AggFunc::kMax:
          out.push_back(st.max);
          break;
      }
    }
    results_.push_back(std::move(out));
  }
  next_ = 0;
}

ExecStatus HashAggOp::OpenPreAggregated(ExecContext* ctx,
                                        MorselExchangeOp* exchange) {
  const int workers = std::max(1, ctx->dop);
  // One partial table per worker index; a worker never runs two morsels
  // concurrently, so each partial is single-threaded. The exchange charges
  // the per-row work the serial drain loop would have.
  std::vector<GroupMap> partial(static_cast<size_t>(workers));
  exchange->SetBatchSink([this, &partial](int worker, const RowBatch& batch) {
    GroupMap* groups = &partial[static_cast<size_t>(worker)];
    const int64_t n = batch.ActiveRows();
    for (int64_t i = 0; i < n; ++i) AccumulateFromBatch(batch, i, groups);
  });
  ExecStatus s = child_->Open(ctx);
  exchange->SetBatchSink(nullptr);
  if (s != ExecStatus::kOk) return s;
  // Drain the (now empty) stream so the exchange records a normal
  // pull-to-EOF and feedback harvesting sees the exact cardinality.
  RowBatch empty;
  s = child_->NextBatch(ctx, &empty);
  if (s != ExecStatus::kEof) {
    return s == ExecStatus::kRow ? ExecStatus::kError : s;
  }
  child_->Close(ctx);

  // Merge in worker order; which rows each worker saw depends on morsel
  // claiming, so the output *order* is unspecified (the multiset is not).
  GroupMap groups;
  for (GroupMap& p : partial) {
    for (auto& [key, states] : p) {
      std::vector<AggState>& into = groups[key];
      if (into.empty()) {
        into = std::move(states);
      } else {
        for (size_t a = 0; a < aggs_.size(); ++a) {
          MergeState(states[a], &into[a]);
        }
      }
    }
  }
  EmitResults(&groups);
  return ExecStatus::kOk;
}

ExecStatus HashAggOp::OpenImpl(ExecContext* ctx) {
  results_.clear();
  next_ = 0;
  auto* exchange = dynamic_cast<MorselExchangeOp*>(child_.get());
  if (exchange != nullptr && exchange->policy().preaggregate &&
      ctx->tasks != nullptr && ctx->dop > 1) {
    return OpenPreAggregated(ctx, exchange);
  }

  ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  GroupMap groups;
  RowBatch batch;
  while (true) {
    if (ctx->CancelPending()) return ExecStatus::kCancelled;
    s = child_->NextBatch(ctx, &batch);
    if (s == ExecStatus::kEof) break;
    if (s != ExecStatus::kRow) return s;
    const int64_t n = batch.ActiveRows();
    ctx->work += n;
    for (int64_t i = 0; i < n; ++i) AccumulateFromBatch(batch, i, &groups);
  }
  child_->Close(ctx);
  EmitResults(&groups);
  return ExecStatus::kOk;
}

ExecStatus HashAggOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target = BatchTarget(
      ctx, results_.empty() ? 0 : static_cast<int>(results_.front().size()));
  out->Clear();
  while (next_ < results_.size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow(results_[next_++]);
  }
  return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void HashAggOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

}  // namespace popdb
