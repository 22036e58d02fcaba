#ifndef POPDB_DIST_SHARD_H_
#define POPDB_DIST_SHARD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/server.h"
#include "storage/catalog.h"

namespace popdb::dist {

/// Knobs for the shard-side subplan executor.
struct ShardExecutorConfig {
  int64_t default_batch_rows = 1024;
  int64_t max_batch_rows = 8192;
  /// Rows per *execution* batch (exec/batch.h) for the fragment's operator
  /// tree — independent of the wire batching above, which only frames the
  /// result stream. <= 1 means batches of one row. Overridable per request
  /// with the "exec_batch_rows" key (the differential tests drive several
  /// batch sizes through one shard this way).
  int64_t exec_batch_rows = 1024;
  /// Memory budget (rows) for sorts/materializations, matching
  /// CostParams::mem_rows on a standalone server.
  int64_t mem_rows = 1 << 20;
};

/// The shard side of scatter-gather execution: runs the coordinator's
/// serialized plan fragment against this shard's (partition-local) catalog
/// and streams row batches back while executing. When a CHECK operator in
/// the fragment fires — a per-shard cardinality left its scaled validity
/// range — execution aborts and the RunResult carries the check_violation
/// payload plus every cardinality observation the aborted run can justify,
/// so the coordinator can re-optimize the global plan.
///
/// Thread safe: each Run builds a private operator tree; the catalog is
/// only read.
class ShardExecutor : public net::SubplanBackend {
 public:
  explicit ShardExecutor(const Catalog& catalog,
                         ShardExecutorConfig config = {});

  RunResult Run(const JsonValue& request, CancelToken* cancel,
                const std::function<bool(const std::vector<Row>&)>& emit)
      override;

 private:
  const Catalog& catalog_;
  ShardExecutorConfig config_;
};

}  // namespace popdb::dist

#endif  // POPDB_DIST_SHARD_H_
