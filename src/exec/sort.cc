#include "exec/sort.h"

#include <algorithm>
#include <queue>

namespace popdb {

int CompareRowsByKeys(const Row& a, const Row& b,
                      const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    int c = a[static_cast<size_t>(k.pos)].Compare(b[static_cast<size_t>(k.pos)]);
    if (k.descending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

SortOp::SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
               TableSet table_set)
    : Operator(table_set), child_(std::move(child)), keys_(std::move(keys)) {}

ExecStatus SortOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  s = DrainChildRows(child_.get(), ctx, &rows_);
  if (s != ExecStatus::kEof) return s;
  child_->Close(ctx);

  auto cmp = [this](const Row& a, const Row& b) {
    return CompareRowsByKeys(a, b, keys_) < 0;
  };
  const int64_t n = static_cast<int64_t>(rows_.size());
  if (n <= ctx->mem_rows) {
    std::sort(rows_.begin(), rows_.end(), cmp);
  } else {
    // External sort: sort runs of mem_rows, then k-way merge. The merge is
    // a genuine extra pass over the data, mirroring the cost model's spill
    // cliff.
    const int64_t run = ctx->mem_rows;
    std::vector<std::pair<size_t, size_t>> runs;  // [begin, end)
    for (int64_t begin = 0; begin < n; begin += run) {
      const int64_t end = std::min(n, begin + run);
      std::sort(rows_.begin() + begin, rows_.begin() + end, cmp);
      runs.emplace_back(static_cast<size_t>(begin), static_cast<size_t>(end));
    }
    mutable_stats().spills += static_cast<int64_t>(runs.size());
    std::vector<Row> merged;
    merged.reserve(rows_.size());
    using HeapItem = std::pair<size_t, size_t>;  // (cursor, run index)
    auto heap_cmp = [this](const HeapItem& a, const HeapItem& b) {
      // std::priority_queue is a max-heap; invert for ascending order.
      return CompareRowsByKeys(rows_[a.first], rows_[b.first], keys_) > 0;
    };
    std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_cmp)>
        heap(heap_cmp);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (runs[r].first < runs[r].second) heap.push({runs[r].first, r});
    }
    while (!heap.empty()) {
      if (ctx->CancelPending()) return ExecStatus::kCancelled;
      auto [cursor, r] = heap.top();
      heap.pop();
      ++ctx->work;
      merged.push_back(std::move(rows_[cursor]));
      if (cursor + 1 < runs[r].second) heap.push({cursor + 1, r});
    }
    rows_ = std::move(merged);
  }
  complete_ = true;
  next_ = 0;
  return ExecStatus::kOk;
}

ExecStatus SortOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (ctx->CancelPending()) return ExecStatus::kCancelled;
  const int64_t target = BatchTarget(
      ctx, rows_.empty() ? 0 : static_cast<int>(rows_.front().size()));
  out->Clear();
  while (next_ < rows_.size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow(rows_[next_++]);
  }
  return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void SortOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

bool SortOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = table_set();
  out->complete = complete_;
  out->count = materialized_count();
  out->rows = &rows_;
  out->sorted_positions.clear();
  for (const SortKey& k : keys_) {
    if (k.descending) break;  // Merge joins need ascending order.
    out->sorted_positions.push_back(k.pos);
  }
  return true;
}

TempOp::TempOp(std::unique_ptr<Operator> child, TableSet table_set)
    : Operator(table_set), child_(std::move(child)) {}

ExecStatus TempOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  s = DrainChildRows(child_.get(), ctx, &rows_);
  if (s != ExecStatus::kEof) return s;
  child_->Close(ctx);
  complete_ = true;
  next_ = 0;
  return ExecStatus::kOk;
}

ExecStatus TempOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (ctx->CancelPending()) return ExecStatus::kCancelled;
  const int64_t target = BatchTarget(
      ctx, rows_.empty() ? 0 : static_cast<int>(rows_.front().size()));
  out->Clear();
  while (next_ < rows_.size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow(rows_[next_++]);
  }
  return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void TempOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

bool TempOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = table_set();
  out->complete = complete_;
  out->count = materialized_count();
  out->rows = &rows_;
  return true;
}

}  // namespace popdb
