#ifndef POPDB_CORE_MATVIEW_H_
#define POPDB_CORE_MATVIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "opt/enumerator.h"

namespace popdb {

/// Owns the temporary materialized views created from intermediate results
/// when a CHECK fires (paper Section 2.3). Each view is the complete
/// materialized output of the canonical subplan joining `set` (rows are in
/// the engine's canonical layout, so any re-optimized plan can consume
/// them), with its exact cardinality available as catalog statistics for
/// the re-optimization.
///
/// Views are scoped to one progressive execution: the controller clears the
/// registry when the query completes (the paper's "cleanup" step).
class MatViewRegistry {
 public:
  MatViewRegistry() = default;
  MatViewRegistry(const MatViewRegistry&) = delete;
  MatViewRegistry& operator=(const MatViewRegistry&) = delete;

  /// Registers (or replaces) the materialized result for `set`, copying
  /// `rows`. `sorted_positions` records an ascending sort order the rows
  /// already have (empty if unsorted).
  void Register(TableSet set, std::vector<Row> rows,
                std::vector<int> sorted_positions = {});

  /// Views in the form the optimizer consumes. Row pointers stay valid
  /// until Clear() or a Register() replacing the same set.
  const std::vector<AvailableMatView>& views() const { return views_; }

  bool empty() const { return views_.empty(); }
  int64_t total_rows() const;

  /// Drops all temporary views (end-of-query cleanup).
  void Clear();

 private:
  struct Stored {
    std::string name;
    TableSet set = 0;
    std::vector<Row> rows;
    std::vector<int> sorted_positions;
  };

  void RebuildViews();

  std::vector<std::unique_ptr<Stored>> stored_;
  std::vector<AvailableMatView> views_;
};

}  // namespace popdb

#endif  // POPDB_CORE_MATVIEW_H_
