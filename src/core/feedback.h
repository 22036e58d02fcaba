#ifndef POPDB_CORE_FEEDBACK_H_
#define POPDB_CORE_FEEDBACK_H_

#include <mutex>
#include <string>

#include "opt/cardinality.h"

namespace popdb {

/// Accumulates actual cardinalities observed while a query executes, keyed
/// by subplan table set, and feeds them into re-optimization (paper
/// Section 2: "actual cardinalities measured during the initial run help
/// the re-optimization step avoid the same mistake").
///
/// Exact values dominate lower bounds; repeated observations keep the most
/// informative value (exact wins; otherwise the largest lower bound).
///
/// Thread safe: the runtime's shared-feedback mode can have one worker
/// recording observations while another plans, so mutations and reads take
/// the internal mutex, and Snapshot() returns a point-in-time copy instead
/// of a reference to internal state.
class FeedbackCache {
 public:
  /// Records the true cardinality of the subplan joining `set`.
  void RecordExact(TableSet set, double card);

  /// Records that the subplan joining `set` produces at least `card` rows
  /// (from an eager check that fired before exhausting its input).
  void RecordLowerBound(TableSet set, double card);

  /// Consistent point-in-time copy of the accumulated feedback.
  FeedbackMap Snapshot() const;

  bool empty() const;
  void Clear();

  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  FeedbackMap map_;
};

}  // namespace popdb

#endif  // POPDB_CORE_FEEDBACK_H_
