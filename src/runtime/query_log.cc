#include "runtime/query_log.h"

#include <utility>

namespace popdb {

void QueryLog::Append(QueryTrace entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
  if (static_cast<int64_t>(entries_.size()) > capacity_) {
    entries_.pop_front();
  }
  ++total_;
}

std::vector<QueryTrace> QueryLog::Tail(int64_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t n = static_cast<int64_t>(entries_.size());
  const int64_t take = (limit <= 0 || limit > n) ? n : limit;
  return std::vector<QueryTrace>(entries_.end() - take, entries_.end());
}

std::string QueryLog::ToJsonArray(int64_t limit) const {
  const std::vector<QueryTrace> tail = Tail(limit);
  std::string out = "[";
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i > 0) out += ',';
    out += tail[i].ToLogJson();
  }
  out += ']';
  return out;
}

int64_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t QueryLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace popdb
