#include "runtime/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace popdb {

// ------------------------------------------------------------- Histogram

std::vector<double> Histogram::LogBuckets(double start, double factor,
                                          int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double value) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS add (atomic<double>::fetch_add is C++20 but not universally
  // lock-free; the CAS loop is portable and uncontended in practice).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Quantile(double q) const {
  const int64_t total = count();
  if (total <= 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  int64_t below = 0;  // Observations in the buckets before bucket i.
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const int64_t in_bucket = counts_[i].load(std::memory_order_relaxed);
    if (in_bucket > 0 && static_cast<double>(below + in_bucket) >= rank) {
      // The +Inf bucket has no finite upper bound; report the largest
      // finite boundary rather than infinity.
      if (i == bounds_.size()) return bounds_.back();
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      return lo + (bounds_[i] - lo) * (rank - static_cast<double>(below)) /
                      static_cast<double>(in_bucket);
    }
    below += in_bucket;
  }
  return bounds_.back();
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry::Family* MetricsRegistry::FamilyFor(const std::string& name,
                                                    const std::string& help,
                                                    Type type) {
  for (const auto& family : families_) {
    if (family->name == name) {
      // Same name, same family: the first registration fixes type/help.
      return family->type == type ? family.get() : nullptr;
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->type = type;
  families_.push_back(std::move(family));
  return families_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Type::kCounter);
  if (family == nullptr) return nullptr;
  for (const auto& [l, metric] : family->counters) {
    if (l == labels) return metric.get();
  }
  family->counters.emplace_back(
      labels, std::unique_ptr<Counter>(new Counter()));
  return family->counters.back().second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Type::kGauge);
  if (family == nullptr) return nullptr;
  for (const auto& [l, metric] : family->gauges) {
    if (l == labels) return metric.get();
  }
  family->gauges.emplace_back(labels, std::unique_ptr<Gauge>(new Gauge()));
  return family->gauges.back().second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Type::kHistogram);
  if (family == nullptr) return nullptr;
  for (const auto& [l, metric] : family->histograms) {
    if (l == labels) return metric.get();
  }
  family->histograms.emplace_back(
      labels, std::unique_ptr<Histogram>(new Histogram(std::move(bounds))));
  return family->histograms.back().second.get();
}

namespace {

std::string WithLabels(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

/// `le` merged into any existing labels, e.g. {flavor="LC",le="4"}.
std::string BucketSeries(const std::string& name, const std::string& labels,
                         const std::string& le) {
  std::string all = labels.empty() ? "" : labels + ",";
  all += "le=\"" + le + "\"";
  return name + "_bucket{" + all + "}";
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& family : families_) {
    out += "# HELP " + family->name + " " + family->help + "\n";
    switch (family->type) {
      case Type::kCounter:
        out += "# TYPE " + family->name + " counter\n";
        for (const auto& [labels, metric] : family->counters) {
          out += WithLabels(family->name, labels) +
                 StrFormat(" %lld\n",
                           static_cast<long long>(metric->value()));
        }
        break;
      case Type::kGauge:
        out += "# TYPE " + family->name + " gauge\n";
        for (const auto& [labels, metric] : family->gauges) {
          out += WithLabels(family->name, labels) +
                 StrFormat(" %lld\n",
                           static_cast<long long>(metric->value()));
        }
        break;
      case Type::kHistogram:
        out += "# TYPE " + family->name + " histogram\n";
        for (const auto& [labels, metric] : family->histograms) {
          int64_t cumulative = 0;
          const std::vector<double>& bounds = metric->bounds();
          for (size_t i = 0; i < bounds.size(); ++i) {
            cumulative += metric->bucket_count(i);
            out += BucketSeries(family->name, labels,
                                StrFormat("%g", bounds[i])) +
                   StrFormat(" %lld\n", static_cast<long long>(cumulative));
          }
          cumulative += metric->bucket_count(bounds.size());
          out += BucketSeries(family->name, labels, "+Inf") +
                 StrFormat(" %lld\n", static_cast<long long>(cumulative));
          out += WithLabels(family->name + "_sum", labels) +
                 StrFormat(" %g\n", metric->sum());
          out += WithLabels(family->name + "_count", labels) +
                 StrFormat(" %lld\n", static_cast<long long>(cumulative));
        }
        break;
    }
  }
  return out;
}

}  // namespace popdb
