#include "exec/join.h"

#include <algorithm>
#include <atomic>

#include "common/status.h"
#include "exec/parallel.h"

namespace popdb {

// ---------------------------------------------------------------- NljnOp

NljnOp::NljnOp(std::unique_ptr<Operator> outer, InnerAccess inner,
               MergeSpec merge, TableSet table_set)
    : Operator(table_set),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      merge_(std::move(merge)) {}

const Row& NljnOp::InnerRow(int64_t rid) const {
  if (inner_.mv_rows != nullptr) {
    return (*inner_.mv_rows)[static_cast<size_t>(rid)];
  }
  return inner_.snapshot.row(rid);
}

int64_t NljnOp::NumInnerRows() const {
  if (inner_.mv_rows != nullptr) {
    return static_cast<int64_t>(inner_.mv_rows->size());
  }
  return inner_.snapshot.num_rows();
}

bool NljnOp::InnerRowVisible(int64_t rid) const {
  if (inner_.mv_rows != nullptr) return true;
  return rid < inner_.snapshot.num_rows() && inner_.snapshot.alive(rid);
}

ExecStatus NljnOp::OpenImpl(ExecContext* ctx) {
  if (inner_.mv_rows == nullptr && !inner_.snapshot.valid() &&
      inner_.table != nullptr) {
    inner_.snapshot = inner_.table->Snapshot();
  }
  outer_valid_ = false;
  outer_batch_.Clear();
  outer_idx_ = 0;
  return outer_->Open(ctx);
}

void NljnOp::StartProbe(ExecContext* ctx, const Value* index_key) {
  ++ctx->work;
  ++mutable_stats().loops;
  if (inner_.index != nullptr) {
    POPDB_DCHECK(index_key != nullptr);
    inner_.index->ProbeInto(*index_key, &index_candidates_);
    candidate_pos_ = 0;
  } else {
    scan_rid_ = 0;
  }
}

ExecStatus NljnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Pull outer batches (one row at a time while a decision is pending
  // above), probe each active row (one work unit and one loop per outer
  // row, one work unit per visible candidate), and emit merged rows until
  // the output batch fills. The current outer row is read in place from
  // the held batch (`outer_idx_`) — never materialized row-major. An outer
  // row's candidate cursor survives across output batches. The output is
  // returned before the next outer pull, so an abort from the outer
  // subtree arrives with every earlier match delivered.
  const int64_t target =
      BatchTarget(ctx, static_cast<int>(merge_.sources.size()));
  out->Reset(static_cast<int>(merge_.sources.size()));
  while (true) {
    if (!outer_valid_) {
      if (outer_idx_ >= outer_batch_.ActiveRows()) {
        if (out->num_rows > 0) return ExecStatus::kRow;
        const ExecStatus s = PullInput(outer_.get(), ctx, &outer_batch_);
        if (s != ExecStatus::kRow) return s;
        outer_idx_ = 0;
      }
      outer_valid_ = true;
      StartProbe(ctx,
                 inner_.index != nullptr
                     ? &outer_batch_.At(inner_.join_conds[0].outer_pos,
                                        outer_idx_)
                     : nullptr);
    }
    while (true) {
      if (out->num_rows >= target) return ExecStatus::kRow;
      if (ctx->CancelPending()) {
        return FlushOrStatus(out, ExecStatus::kCancelled);
      }
      int64_t rid;
      if (inner_.index != nullptr) {
        if (candidate_pos_ >= index_candidates_.size()) break;
        rid = index_candidates_[candidate_pos_++];
        if (!InnerRowVisible(rid)) continue;
      } else {
        if (scan_rid_ >= NumInnerRows()) break;
        rid = scan_rid_++;
        if (!InnerRowVisible(rid)) continue;
      }
      ++ctx->work;
      const Row& inner_row = InnerRow(rid);
      bool pass = true;
      for (size_t j = 0; j < inner_.join_conds.size(); ++j) {
        const InnerAccess::JoinCond& jc = inner_.join_conds[j];
        if (outer_batch_.At(jc.outer_pos, outer_idx_) !=
            inner_row[static_cast<size_t>(jc.inner_pos)]) {
          pass = false;
          break;
        }
      }
      if (pass) {
        for (const ResolvedPredicate& p : inner_.local_preds) {
          if (!EvalPredicate(p, inner_row)) {
            pass = false;
            break;
          }
        }
      }
      if (pass) merge_.MergeBatchInto(outer_batch_, outer_idx_, inner_row, out);
    }
    outer_valid_ = false;  // Candidates exhausted; next outer row.
    ++outer_idx_;
  }
}

void NljnOp::CloseImpl(ExecContext* ctx) { outer_->Close(ctx); }

// ---------------------------------------------------------------- HsjnOp

HsjnOp::HsjnOp(std::unique_ptr<Operator> probe,
               std::unique_ptr<Operator> build, std::vector<int> probe_keys,
               std::vector<int> build_keys, MergeSpec merge,
               TableSet table_set, CheckSpec build_check,
               bool offer_build_for_reuse)
    : Operator(table_set),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      merge_(std::move(merge)),
      build_check_(build_check),
      offer_build_for_reuse_(offer_build_for_reuse) {}

Row HsjnOp::BuildKey(const Row& row) const {
  Row key;
  key.reserve(build_keys_.size());
  for (int pos : build_keys_) key.push_back(row[static_cast<size_t>(pos)]);
  return key;
}

Row HsjnOp::ProbeKey(const Row& row) const {
  Row key;
  key.reserve(probe_keys_.size());
  for (int pos : probe_keys_) key.push_back(row[static_cast<size_t>(pos)]);
  return key;
}

ExecStatus HsjnOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  ExecStatus s = build_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  s = DrainChildRows(build_.get(), ctx, &build_rows_);
  if (s != ExecStatus::kEof) return s;
  build_->Close(ctx);
  build_complete_ = true;

  if (build_check_.enabled) {
    const double card = static_cast<double>(build_rows_.size());
    const bool violated = card < build_check_.lo || card > build_check_.hi;
    CheckEvent ev;
    ev.edge_set = build_check_.edge_set;
    ev.flavor = build_check_.flavor;
    ev.site = CheckSite::kHsjnBuild;
    ev.work_first = ctx->work;
    ev.work_eval = ctx->work;
    ev.count = static_cast<int64_t>(build_rows_.size());
    ev.fired = violated;
    ctx->check_events.push_back(ev);
    TRACE_INSTANT_ARG(ev.fired ? "checkpoint_fired" : "checkpoint_evaluated",
                      "exec", "count", ev.count);
    if (violated && !build_check_.observe_only) {
      ctx->reopt.triggered = true;
      ctx->reopt.edge_set = build_check_.edge_set;
      ctx->reopt.observed_rows = static_cast<int64_t>(build_rows_.size());
      ctx->reopt.exact = true;
      ctx->reopt.flavor = build_check_.flavor;
      ctx->reopt.check_lo = build_check_.lo;
      ctx->reopt.check_hi = build_check_.hi;
      return ExecStatus::kReoptimize;
    }
  }

  if (static_cast<int64_t>(build_rows_.size()) <= ctx->mem_rows) {
    // Streaming in-memory mode.
    in_memory_mode_ = true;
    partitioned_ = ctx->tasks != nullptr && ctx->dop > 1 &&
                   static_cast<int64_t>(build_rows_.size()) >=
                       kMinParallelBuildRows;
    if (partitioned_) {
      ParallelBuild(ctx);
    } else {
      map_.reserve(build_rows_.size());
      for (size_t i = 0; i < build_rows_.size(); ++i) {
        map_[BuildKey(build_rows_[i])].push_back(i);
      }
    }
    return probe_->Open(ctx);
  }

  // Build exceeds memory: materialize the probe side and join with
  // recursive partitioning.
  in_memory_mode_ = false;
  s = probe_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  std::vector<Row> probe_rows;
  s = DrainChildRows(probe_.get(), ctx, &probe_rows);
  if (s != ExecStatus::kEof) return s;
  probe_->Close(ctx);
  // Join from a copy so build_rows_ stays harvestable.
  std::vector<Row> build_copy = build_rows_;
  return Join(ctx, &build_copy, &probe_rows, 0);
}

void HsjnOp::ParallelBuild(ExecContext* ctx) {
  const size_t n = build_rows_.size();
  const int workers = std::max(1, ctx->dop);
  // Phase 1: per-thread insert buffers. Each worker hashes a contiguous
  // slice of the build side into per-partition row-index lists; nothing is
  // shared between workers.
  std::vector<std::vector<std::vector<size_t>>> buffers(
      static_cast<size_t>(workers),
      std::vector<std::vector<size_t>>(kBuildPartitions));
  TaskGroup::Run(ctx->tasks, workers, [&](int w) {
    const size_t lo = n * static_cast<size_t>(w) /
                      static_cast<size_t>(workers);
    const size_t hi = n * static_cast<size_t>(w + 1) /
                      static_cast<size_t>(workers);
    std::vector<std::vector<size_t>>& mine =
        buffers[static_cast<size_t>(w)];
    for (size_t i = lo; i < hi; ++i) {
      const size_t p =
          HashRow(BuildKey(build_rows_[i])) & (kBuildPartitions - 1);
      mine[p].push_back(i);
    }
  });
  // Phase 2: partitions are claimed dynamically; each partition map is
  // filled walking the insert buffers in worker order (= ascending
  // build-row index), preserving the serial per-key match order.
  part_maps_.assign(kBuildPartitions, KeyMap{});
  std::atomic<int> next_part{0};
  TaskGroup::Run(ctx->tasks, workers, [&](int) {
    while (true) {
      const int p = next_part.fetch_add(1, std::memory_order_relaxed);
      if (p >= kBuildPartitions) break;
      KeyMap& map = part_maps_[static_cast<size_t>(p)];
      for (int w = 0; w < workers; ++w) {
        for (size_t i :
             buffers[static_cast<size_t>(w)][static_cast<size_t>(p)]) {
          map[BuildKey(build_rows_[i])].push_back(i);
        }
      }
    }
  });
}

ExecStatus HsjnOp::Join(ExecContext* ctx, std::vector<Row>* build,
                        std::vector<Row>* probe, int depth) {
  if (static_cast<int64_t>(build->size()) <= ctx->mem_rows || depth > 8) {
    if (depth > 0) ++mutable_stats().partitions;
    KeyMap map;
    map.reserve(build->size());
    for (size_t i = 0; i < build->size(); ++i) {
      map[BuildKey((*build)[i])].push_back(i);
    }
    for (const Row& prow : *probe) {
      if (ctx->CancelPending()) return ExecStatus::kCancelled;
      ++ctx->work;
      auto it = map.find(ProbeKey(prow));
      if (it == map.end()) continue;
      for (size_t bi : it->second) {
        output_.push_back(merge_.Merge(prow, (*build)[bi]));
      }
    }
    return ExecStatus::kOk;
  }
  // One extra partitioning pass over both inputs (a "stage" in the paper's
  // multi-stage hash join terminology).
  ++mutable_stats().spills;
  std::vector<std::vector<Row>> bparts(kFanOut), pparts(kFanOut);
  const uint64_t salt = 0x9e3779b9u * static_cast<uint64_t>(depth + 1);
  for (Row& r : *build) {
    ++ctx->work;
    const size_t h = (HashRow(BuildKey(r)) ^ salt) % kFanOut;
    bparts[h].push_back(std::move(r));
  }
  for (Row& r : *probe) {
    ++ctx->work;
    const size_t h = (HashRow(ProbeKey(r)) ^ salt) % kFanOut;
    pparts[h].push_back(std::move(r));
  }
  build->clear();
  probe->clear();
  for (int p = 0; p < kFanOut; ++p) {
    const ExecStatus s = Join(ctx, &bparts[p], &pparts[p], depth + 1);
    if (s != ExecStatus::kOk) return s;
  }
  return ExecStatus::kOk;
}

ExecStatus HsjnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (!in_memory_mode_) {
    // Spill mode: serve the precomputed join output in slices, moving rows
    // into the batch (output_ is never harvested).
    const int64_t target =
        BatchTarget(ctx, static_cast<int>(merge_.sources.size()));
    out->Clear();
    while (next_out_ < output_.size() && out->num_rows < target) {
      out->AppendRowMove(std::move(output_[next_out_++]));
    }
    return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
  }
  // Streaming in-memory probe: the (probe row, match) cursor emits until
  // the batch target, gathered column-wise straight from the probe batch
  // and the build rows (no per-match row materialization). A probe row is
  // charged only when another output row is wanted, and the output is
  // returned before the next probe pull.
  const int width = static_cast<int>(merge_.sources.size());
  const int64_t target = BatchTarget(ctx, width);
  out->Reset(width);
  while (true) {
    for (; matches_ != nullptr && match_pos_ < matches_->size();
         ++match_pos_) {
      if (out->num_rows >= target) return ExecStatus::kRow;
      const Row& brow = build_rows_[(*matches_)[match_pos_]];
      for (int c = 0; c < width; ++c) {
        const auto& [from_left, pos] = merge_.sources[static_cast<size_t>(c)];
        out->PutCopy(c, out->num_rows,
                     from_left ? probe_batch_.At(pos, probe_row_)
                               : brow[static_cast<size_t>(pos)]);
      }
      ++out->num_rows;
    }
    if (out->num_rows >= target) return ExecStatus::kRow;
    if (next_probe_ >= probe_batch_.ActiveRows()) {
      if (out->num_rows > 0) return ExecStatus::kRow;
      const ExecStatus s = PullInput(probe_.get(), ctx, &probe_batch_);
      if (s != ExecStatus::kRow) return s;
      next_probe_ = 0;
    }
    if (ctx->CancelPending()) {
      return FlushOrStatus(out, ExecStatus::kCancelled);
    }
    ++ctx->work;
    probe_row_ = next_probe_++;
    matches_ = ProbeMatches(probe_row_);
    match_pos_ = 0;
  }
}

const std::vector<size_t>* HsjnOp::ProbeMatches(int64_t i) {
  probe_key_.clear();
  for (int pos : probe_keys_) probe_key_.push_back(probe_batch_.At(pos, i));
  const KeyMap& map =
      partitioned_ ? part_maps_[HashRow(probe_key_) & (kBuildPartitions - 1)]
                   : map_;
  auto it = map.find(probe_key_);
  return it == map.end() ? nullptr : &it->second;
}

void HsjnOp::CloseImpl(ExecContext* ctx) {
  if (in_memory_mode_) probe_->Close(ctx);
}

bool HsjnOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = build_->table_set();
  out->complete = build_complete_;
  out->count = static_cast<int64_t>(build_rows_.size());
  out->rows = offer_build_for_reuse_ ? &build_rows_ : nullptr;
  return true;
}

// ---------------------------------------------------------------- MgjnOp

MgjnOp::MgjnOp(std::unique_ptr<Operator> left,
               std::unique_ptr<Operator> right, std::vector<int> left_keys,
               std::vector<int> right_keys, MergeSpec merge,
               TableSet table_set)
    : Operator(table_set),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      merge_(std::move(merge)) {}

int MgjnOp::CompareKeys(const Row* group_row) const {
  for (size_t k = 0; k < left_keys_.size(); ++k) {
    const int pos = right_keys_[k];
    const int c = left_row_.At(left_keys_[k], 0).Compare(
        group_row != nullptr ? (*group_row)[static_cast<size_t>(pos)]
                             : right_row_.At(pos, 0));
    if (c != 0) return c;
  }
  return 0;
}

ExecStatus MgjnOp::OpenImpl(ExecContext* ctx) {
  ExecStatus s = left_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  s = right_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  left_valid_ = right_valid_ = false;
  in_group_ = false;
  const ExecStatus sl = AdvanceLeft(ctx);
  if (IsAbortStatus(sl)) return sl;
  const ExecStatus sr = AdvanceRight(ctx);
  if (IsAbortStatus(sr)) return sr;
  return ExecStatus::kOk;
}

ExecStatus MgjnOp::AdvanceLeft(ExecContext* ctx) {
  const ExecStatus s = PullWithin(left_.get(), ctx, &left_row_, 1);
  left_valid_ = s == ExecStatus::kRow;
  if (left_valid_) ++ctx->work;
  return s;
}

ExecStatus MgjnOp::AdvanceRight(ExecContext* ctx) {
  const ExecStatus s = PullWithin(right_.get(), ctx, &right_row_, 1);
  right_valid_ = s == ExecStatus::kRow;
  if (right_valid_) ++ctx->work;
  return s;
}

ExecStatus MgjnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int width = static_cast<int>(merge_.sources.size());
  const int64_t target = BatchTarget(ctx, width);
  out->Reset(width);
  while (out->num_rows < target) {
    if (ctx->CancelPending()) {
      return FlushOrStatus(out, ExecStatus::kCancelled);
    }
    if (in_group_) {
      if (group_pos_ < right_group_.size()) {
        merge_.MergeBatchInto(left_row_, 0, right_group_[group_pos_++], out);
        continue;
      }
      // Current left row finished its group; see if the next left row has
      // the same key and can reuse the buffered group.
      const ExecStatus s = AdvanceLeft(ctx);
      if (IsAbortStatus(s)) return FlushOrStatus(out, s);
      if (left_valid_ && CompareKeys(&right_group_.front()) == 0) {
        group_pos_ = 0;
        continue;
      }
      in_group_ = false;
      right_group_.clear();
    }
    if (!left_valid_ || (!right_valid_ && right_group_.empty())) {
      // An input is exhausted (or returned a non-row status earlier).
      return FlushOrStatus(out, ExecStatus::kEof);
    }
    const int cmp = CompareKeys(nullptr);
    if (cmp < 0) {
      const ExecStatus s = AdvanceLeft(ctx);
      if (IsAbortStatus(s)) return FlushOrStatus(out, s);
      if (!left_valid_) return FlushOrStatus(out, ExecStatus::kEof);
    } else if (cmp > 0) {
      const ExecStatus s = AdvanceRight(ctx);
      if (IsAbortStatus(s)) return FlushOrStatus(out, s);
      if (!right_valid_) return FlushOrStatus(out, ExecStatus::kEof);
    } else {
      // Buffer the full right-side key group.
      right_group_.clear();
      do {
        right_group_.emplace_back();
        right_row_.MaterializeRow(0, &right_group_.back());
        const ExecStatus s = AdvanceRight(ctx);
        if (IsAbortStatus(s)) return FlushOrStatus(out, s);
      } while (right_valid_ && CompareKeys(nullptr) == 0);
      in_group_ = true;
      group_pos_ = 0;
    }
  }
  return ExecStatus::kRow;
}

void MgjnOp::CloseImpl(ExecContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
}

}  // namespace popdb
