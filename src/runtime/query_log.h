#ifndef POPDB_RUNTIME_QUERY_LOG_H_
#define POPDB_RUNTIME_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/trace.h"

namespace popdb {

/// Bounded, thread-safe, always-on structured query log: a FIFO ring of
/// the last `capacity` finished queries' QueryTraces, rendered with
/// ToLogJson(). Entries carry no plan text or profiles (see
/// QueryService::RecordCompletion) so the log can stay on for every query
/// in production; the full trace is still reachable by id through the
/// `trace` wire request. Writers append from service worker threads;
/// readers snapshot concurrently (TSan-hammered).
class QueryLog {
 public:
  explicit QueryLog(int64_t capacity = 512)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  void Append(QueryTrace entry);

  /// The most recent min(limit, size) entries, oldest first. limit <= 0
  /// means "all retained entries".
  std::vector<QueryTrace> Tail(int64_t limit = 0) const;

  /// Tail() rendered as one JSON array (wire `query_log` payload).
  std::string ToJsonArray(int64_t limit = 0) const;

  /// Entries currently retained / ever appended.
  int64_t size() const;
  int64_t total() const;
  int64_t capacity() const { return capacity_; }

 private:
  const int64_t capacity_;
  mutable std::mutex mu_;
  std::deque<QueryTrace> entries_;
  int64_t total_ = 0;
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_QUERY_LOG_H_
