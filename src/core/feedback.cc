#include "core/feedback.h"

#include <algorithm>

#include "common/string_util.h"

namespace popdb {

void FeedbackCache::RecordExact(TableSet set, double card) {
  std::lock_guard<std::mutex> lock(mu_);
  map_[set].exact = card;
}

void FeedbackCache::RecordLowerBound(TableSet set, double card) {
  std::lock_guard<std::mutex> lock(mu_);
  CardFeedback& fb = map_[set];
  if (fb.exact >= 0) return;  // Exact knowledge dominates.
  if (card <= fb.lower_bound) return;
  fb.lower_bound = card;
}

FeedbackMap FeedbackCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

bool FeedbackCache::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.empty();
}

void FeedbackCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::string FeedbackCache::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [set, fb] : map_) {
    if (fb.exact >= 0) {
      out += StrFormat("set=0x%llx exact=%.0f\n",
                       static_cast<unsigned long long>(set), fb.exact);
    } else {
      out += StrFormat("set=0x%llx lower_bound=%.0f\n",
                       static_cast<unsigned long long>(set), fb.lower_bound);
    }
  }
  return out;
}

}  // namespace popdb
