#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace popdb {

// ------------------------------------------------------------ TaskGroup

bool ParallelTask::RunIfUnclaimed() {
  if (claimed_.exchange(true, std::memory_order_acq_rel)) return false;
  fn_();
  group_->OnTaskDone();
  return true;
}

void TaskGroup::OnTaskDone() {
  std::lock_guard<std::mutex> lock(mu_);
  --outstanding_;
  if (outstanding_ == 0) cv_.notify_all();
}

void TaskGroup::Run(TaskRunner* runner, int parallelism,
                    const std::function<void(int)>& fn) {
  if (runner == nullptr || parallelism <= 1) {
    fn(0);
    return;
  }
  TaskGroup group;
  std::vector<std::shared_ptr<ParallelTask>> offered;
  offered.reserve(static_cast<size_t>(parallelism - 1));
  for (int i = 1; i < parallelism; ++i) {
    auto task = std::make_shared<ParallelTask>(&group, [&fn, i] { fn(i); });
    {
      std::lock_guard<std::mutex> lock(group.mu_);
      ++group.outstanding_;
    }
    if (runner->TrySubmit(task)) {
      offered.push_back(std::move(task));
    } else {
      // Backpressure: the task was never shared, the caller covers the
      // work itself.
      group.OnTaskDone();
    }
  }
  fn(0);
  // Steal back tasks no helper started. The caller just drained the morsel
  // supply, so a reclaimed worker function returns immediately; this is
  // what makes submission fire-and-forget without ever losing a task.
  for (const auto& task : offered) task->RunIfUnclaimed();
  std::unique_lock<std::mutex> lock(group.mu_);
  group.cv_.wait(lock, [&group] { return group.outstanding_ == 0; });
}

// ------------------------------------------------------ MorselExchangeOp

namespace {

/// Sliced sleep so a simulated I/O stall stays responsive to cancellation.
/// Returns false if the token tripped mid-stall.
bool StallWithCancel(double stall_ms, CancelToken* cancel) {
  double remaining = stall_ms;
  while (remaining > 0) {
    if (cancel != nullptr && cancel->Expired()) return false;
    const double slice = remaining < 1.0 ? remaining : 1.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slice));
    remaining -= slice;
  }
  return true;
}

/// Lower is worse; the exchange reports the worst status any task hit.
int StatusSeverity(ExecStatus s) {
  switch (s) {
    case ExecStatus::kError:
      return 0;
    case ExecStatus::kCancelled:
      return 1;
    case ExecStatus::kReoptimize:
      return 2;
    default:
      return 3;
  }
}

void AccumulateStats(const OperatorStats& from, OperatorStats* into) {
  into->next_calls += from.next_calls;
  into->open_ns += from.open_ns;
  into->next_ns += from.next_ns;
  into->close_ns += from.close_ns;
  into->loops += from.loops;
  into->partitions += from.partitions;
  into->spills += from.spills;
}

}  // namespace

ExecStatus MorselExchangeOp::OpenImpl(ExecContext* ctx) {
  buffers_.clear();
  cursor_morsel_ = 0;
  cursor_pos_ = 0;
  morsels_run_ = 0;
  workers_used_ = 0;
  fragment_stats_ = OperatorStats{};

  const int64_t morsel = std::max<int64_t>(1, policy_.morsel_rows);
  const int64_t num_morsels =
      source_rows_ <= 0 ? 0 : (source_rows_ + morsel - 1) / morsel;
  if (num_morsels == 0) return ExecStatus::kOk;
  buffers_.resize(static_cast<size_t>(num_morsels));

  const bool parallel =
      ctx->tasks != nullptr && policy_.dop > 1 && num_morsels > 1;
  const int workers =
      parallel ? static_cast<int>(std::min<int64_t>(policy_.dop, num_morsels))
               : 1;

  std::atomic<int64_t> next_morsel{0};
  std::atomic<bool> abort{false};
  // Join-time aggregation of per-task results (guarded; tasks only touch
  // it once, after their morsel loop ends).
  std::mutex merge_mu;
  ExecStatus merged = ExecStatus::kOk;
  ReoptSignal merged_reopt;
  std::string merged_error;
  int64_t total_work = 0;
  int64_t total_sink_rows = 0;
  int64_t morsels_done = 0;
  int tasks_with_work = 0;

  const auto worker = [&](int widx) {
    TRACE_SPAN("morsel_worker", "exec", "worker", widx);
    // Private context per task: the shared CancelToken is thread safe, the
    // rest of ExecContext is not. Fragments never nest parallelism.
    ExecContext tctx;
    tctx.params = ctx->params;
    tctx.mem_rows = ctx->mem_rows;
    tctx.cancel = ctx->cancel;
    tctx.batch_rows = ctx->batch_rows;
    ExecStatus local = ExecStatus::kOk;
    int64_t local_morsels = 0;
    int64_t local_sink_rows = 0;
    OperatorStats local_frag_stats;
    while (!abort.load(std::memory_order_relaxed)) {
      const int64_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) break;
      if (policy_.morsel_stall_ms > 0 &&
          !StallWithCancel(policy_.morsel_stall_ms, tctx.cancel)) {
        local = ExecStatus::kCancelled;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      const int64_t begin = m * morsel;
      const int64_t end = std::min(source_rows_, begin + morsel);
      std::unique_ptr<Operator> frag = factory_(begin, end);
      ExecStatus s;
      if (sink_) {
        s = frag->Open(&tctx);
        if (s == ExecStatus::kOk) {
          RowBatch batch;
          while ((s = frag->NextBatch(&tctx, &batch)) == ExecStatus::kRow) {
            // The consumer's per-row charge happens here.
            tctx.work += batch.ActiveRows();
            local_sink_rows += batch.ActiveRows();
            sink_(widx, batch);
          }
        }
        frag->Close(&tctx);
      } else {
        s = RunToCompletion(frag.get(), &tctx,
                            &buffers_[static_cast<size_t>(m)]);
      }
      AccumulateStats(frag->stats(), &local_frag_stats);
      ++local_morsels;
      if (s != ExecStatus::kEof && s != ExecStatus::kOk) {
        local = s;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    total_work += tctx.work;
    total_sink_rows += local_sink_rows;
    morsels_done += local_morsels;
    if (local_morsels > 0) ++tasks_with_work;
    AccumulateStats(local_frag_stats, &fragment_stats_);
    if (StatusSeverity(local) < StatusSeverity(merged)) {
      merged = local;
      if (local == ExecStatus::kError) merged_error = tctx.error;
      if (local == ExecStatus::kReoptimize) merged_reopt = tctx.reopt;
    }
  };

  // Blocks until every morsel ran (or all tasks aborted), so the plan's
  // serial tail — and any re-optimization that follows — never overlaps
  // with fragment tasks.
  TaskGroup::Run(parallel ? ctx->tasks : nullptr, workers, worker);

  // Single-threaded again: fold the task totals into the parent context.
  ctx->work += total_work;
  ctx->morsels_dispatched += morsels_done;
  if (parallel) ctx->parallel_work += total_work;
  morsels_run_ = morsels_done;
  workers_used_ = tasks_with_work;
  if (merged == ExecStatus::kError) {
    ctx->error = merged_error;
    return ExecStatus::kError;
  }
  if (merged == ExecStatus::kCancelled) return ExecStatus::kCancelled;
  if (merged == ExecStatus::kReoptimize) {
    ctx->reopt = merged_reopt;
    return ExecStatus::kReoptimize;
  }
  if (sink_) {
    // Rows consumed inside the tasks never flow through NextBatch; credit
    // them so harvested feedback still sees the exact fragment cardinality.
    CreditExternalRows(total_sink_rows);
  }
  return ExecStatus::kOk;
}

ExecStatus MorselExchangeOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target = BatchTarget(ctx);
  out->Clear();
  while (cursor_morsel_ < buffers_.size()) {
    std::vector<Row>& buf = buffers_[cursor_morsel_];
    while (cursor_pos_ < buf.size() && out->ActiveRows() < target) {
      out->AppendRowMove(std::move(buf[cursor_pos_]));
      ++cursor_pos_;
    }
    if (cursor_pos_ >= buf.size()) {
      std::vector<Row>().swap(buf);  // Free each morsel as it drains.
      ++cursor_morsel_;
      cursor_pos_ = 0;
    }
    if (out->ActiveRows() >= target) return ExecStatus::kRow;
  }
  return out->ActiveRows() > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void MorselExchangeOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  std::vector<std::vector<Row>>().swap(buffers_);
}

}  // namespace popdb
