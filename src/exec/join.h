#ifndef POPDB_EXEC_JOIN_H_
#define POPDB_EXEC_JOIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/index.h"
#include "storage/table.h"

namespace popdb {

/// Check condition evaluated against a materialized cardinality (used for
/// the optional lazy check on a hash-join build, and by the CHECK
/// operators in check.h).
struct CheckSpec {
  bool enabled = false;
  double lo = 0.0;
  double hi = 0.0;
  CheckFlavor flavor = CheckFlavor::kLazy;
  TableSet edge_set = 0;
  /// Record a CheckEvent but never trigger re-optimization (used by the
  /// opportunity-analysis experiments, Figure 14).
  bool observe_only = false;
};

/// Describes how a nested-loop join accesses its inner table. The inner of
/// an NLJN is always a base-table (or materialized-view) access path, as
/// produced by the Selinger-style enumerator; when `index` is set, the
/// first join condition is seeded by an index probe.
struct InnerAccess {
  const Table* table = nullptr;
  /// Pinned version of `table` to read. When left invalid, NljnOp pins the
  /// table's current version at Open (convenience for direct operator
  /// tests); the builder passes the query's shared snapshot.
  TableSnapshot snapshot;
  /// For a matview inner, rows come from here instead of `table`.
  const std::vector<Row>* mv_rows = nullptr;
  int table_id = -1;
  std::vector<ResolvedPredicate> local_preds;  ///< Positions in inner row.

  struct JoinCond {
    int outer_pos = -1;  ///< Position in the outer child's output row.
    int inner_pos = -1;  ///< Column position in the inner row.
  };
  std::vector<JoinCond> join_conds;

  /// Seeds candidates for join_conds[0] if non-null. Because live indexes
  /// are maintained as superset postings under writes (storage/index.h),
  /// candidates are re-checked against the pinned snapshot: bounds,
  /// liveness and *all* join conditions.
  const HashIndex* index = nullptr;
};

/// (Index) nested-loop join: for each outer row, finds matching inner rows
/// either through a hash-index probe or by scanning the inner table.
/// This operator pipelines: it never materializes its outer, which is why
/// the paper guards NLJN outers with LCEM/ECB checkpoints.
class NljnOp : public Operator {
 public:
  NljnOp(std::unique_ptr<Operator> outer, InnerAccess inner, MergeSpec merge,
         TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "NLJN"; }
  std::vector<const Operator*> children() const override {
    return {outer_.get()};
  }

 private:
  /// Fetches candidate inner row ids for the current outer row.
  /// `index_key` is the outer join-key value for an index probe (null when
  /// the inner side is a full scan).
  void StartProbe(ExecContext* ctx, const Value* index_key);
  const Row& InnerRow(int64_t rid) const;
  int64_t NumInnerRows() const;
  /// True when `rid` exists and is live in the pinned inner snapshot
  /// (matview rows are always visible).
  bool InnerRowVisible(int64_t rid) const;

  std::unique_ptr<Operator> outer_;
  InnerAccess inner_;
  MergeSpec merge_;

  // Probe state: either an index candidate list (copied out of the index
  // under its shared lock, so concurrent index maintenance can't invalidate
  // it mid-iteration) or a full-scan cursor.
  std::vector<int64_t> index_candidates_;
  size_t candidate_pos_ = 0;
  int64_t scan_rid_ = 0;
  // The held outer batch and the index of the active row currently being
  // probed (advanced once its candidates are exhausted). Probe state above
  // resumes across output batches, so an outer row with more matches than
  // one batch holds continues where it stopped.
  bool outer_valid_ = false;
  RowBatch outer_batch_;
  int64_t outer_idx_ = 0;
};

/// Hash join. Child 0 is the probe (outer) side, child 1 the build (inner)
/// side. The build side is fully materialized at Open; if it exceeds the
/// memory budget the operator recursively partitions both sides with a
/// fixed fan-out (extra passes over the data — the cost cliffs of
/// Section 2.2). An optional CheckSpec implements a lazy checkpoint on the
/// build cardinality.
class HsjnOp : public Operator {
 public:
  static constexpr int kFanOut = 16;
  /// Parallel in-memory build (exec/parallel.h): hash partitions of the
  /// shared table (power of two, addressed by key-hash mask) and the
  /// minimum build size worth the task-group handshake. Builds below the
  /// threshold — or any execution without a task runner — use the serial
  /// single-map path, bit-identically.
  static constexpr int kBuildPartitions = 32;
  static constexpr int64_t kMinParallelBuildRows = 1024;

  HsjnOp(std::unique_ptr<Operator> probe, std::unique_ptr<Operator> build,
         std::vector<int> probe_keys, std::vector<int> build_keys,
         MergeSpec merge, TableSet table_set, CheckSpec build_check,
         bool offer_build_for_reuse);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  /// The in-memory probe keeps a (probe row, match) cursor, so a probe row
  /// with more matches than one batch holds continues in the next batch.
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "HSJN"; }
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

 private:
  using KeyMap = std::unordered_map<Row, std::vector<size_t>, RowHash>;

  Row BuildKey(const Row& row) const;
  Row ProbeKey(const Row& row) const;
  /// In-memory build rows matching the i-th active row of probe_batch_
  /// (null if none).
  const std::vector<size_t>* ProbeMatches(int64_t i);
  /// Recursively partitions build/probe rows until each build partition
  /// fits in memory, charging one work unit per row per level.
  ExecStatus Join(ExecContext* ctx, std::vector<Row>* build,
                  std::vector<Row>* probe, int depth);
  /// Two-phase parallel hash build over the materialized build side:
  /// per-task contiguous slices fill per-task per-partition insert
  /// buffers, then partitions are claimed dynamically and each partition
  /// map is filled walking the buffers in worker order — ascending
  /// build-row index — so per-key match lists keep the exact serial
  /// insertion order and probe output is bit-identical.
  void ParallelBuild(ExecContext* ctx);

  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  MergeSpec merge_;
  CheckSpec build_check_;
  bool offer_build_for_reuse_;

  std::vector<Row> build_rows_;  ///< Kept alive for harvesting.
  bool build_complete_ = false;
  std::vector<Row> output_;  ///< Joined rows (computed in Open).
  size_t next_out_ = 0;
  bool in_memory_mode_ = false;
  // Streaming (in-memory) mode state. `partitioned_` selects between the
  // serial single map and the parallel-built per-partition maps.
  KeyMap map_;
  std::vector<KeyMap> part_maps_;
  bool partitioned_ = false;
  RowBatch probe_batch_;  ///< Last probe batch pulled.
  // The cursor: the active row of probe_batch_ being joined, its build
  // matches (null if none), the next match to emit and the next row.
  int64_t probe_row_ = 0;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  int64_t next_probe_ = 0;
  Row probe_key_;  ///< Scratch for ProbeMatches.
};

/// Merge join over two inputs sorted on the join keys (the optimizer
/// inserts SortOp children). Buffers each right-side key group to emit the
/// cross product with equal left rows. Both inputs are read one row at a
/// time, in place in a one-row batch, so neither sorted input is read
/// ahead of the merge. Unlike the other joins it fills its output across
/// input pulls: its inputs are sorted materializations, which decide
/// nothing while it reads.
class MgjnOp : public Operator {
 public:
  MgjnOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
         std::vector<int> left_keys, std::vector<int> right_keys,
         MergeSpec merge, TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "MGJN"; }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Compares the held left row's key with `group_row`'s, or with the
  /// held right row's when `group_row` is null.
  int CompareKeys(const Row* group_row) const;
  ExecStatus AdvanceLeft(ExecContext* ctx);
  ExecStatus AdvanceRight(ExecContext* ctx);

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  MergeSpec merge_;

  RowBatch left_row_, right_row_;  ///< Each input's one-row batch.
  bool left_valid_ = false, right_valid_ = false;
  std::vector<Row> right_group_;  ///< Current right key group.
  size_t group_pos_ = 0;
  bool in_group_ = false;
};

}  // namespace popdb

#endif  // POPDB_EXEC_JOIN_H_
