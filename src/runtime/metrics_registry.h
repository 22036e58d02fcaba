#ifndef POPDB_RUNTIME_METRICS_REGISTRY_H_
#define POPDB_RUNTIME_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace popdb {

/// Monotonically increasing counter. Lock-free; handed out by
/// MetricsRegistry, which owns it (pointers stay valid for the registry's
/// lifetime).
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// Instantaneous value (queue depth, in-flight queries). Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with atomic per-bucket counters: observations are
/// lock-free (one relaxed fetch_add into the owning bucket), quantiles are
/// estimated from the bucket boundaries. Replaces sampling rings: memory is
/// O(buckets) regardless of traffic, and no observation is ever dropped.
class Histogram {
 public:
  /// Geometric bucket upper bounds: start, start*factor, ... (`count`
  /// bounds). The registry appends an implicit +Inf bucket.
  static std::vector<double> LogBuckets(double start, double factor,
                                        int count);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Estimated q-quantile (0 <= q <= 1), interpolated linearly inside the
  /// bucket that holds rank q * count — Prometheus' histogram_quantile
  /// rule: the lowest bucket starts at 0, and a rank in the +Inf bucket
  /// reports the largest finite bound. Returns NaN when no observations
  /// were recorded (an empty window is not "fast").
  double Quantile(double q) const;

  /// Finite bucket upper bounds (the +Inf bucket is implicit).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Raw (non-cumulative) count of bucket `i`; `i == bounds().size()` is
  /// the +Inf bucket.
  int64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  ///< bounds_.size() + 1.
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric registry with Prometheus text exposition. Registration
/// (GetCounter/GetGauge/GetHistogram) takes a mutex and is meant to happen
/// once at startup — callers cache the returned pointer and update it
/// lock-free on the hot path. Re-registering the same (name, labels)
/// returns the existing metric.
///
/// `labels` is a pre-rendered Prometheus label list without braces, e.g.
/// `flavor="LC"`; empty for an unlabelled metric. Metrics sharing a name
/// form one family (same type and help; rendered under one # HELP/# TYPE
/// header).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const std::string& labels = "");

  /// Prometheus text exposition format, families in registration order:
  ///   # HELP popdb_queries_submitted_total Queries submitted.
  ///   # TYPE popdb_queries_submitted_total counter
  ///   popdb_queries_submitted_total 42
  /// Histograms render cumulative `_bucket{le="..."}` series plus `_sum`
  /// and `_count`.
  std::string RenderPrometheus() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Family {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    /// (labels, metric) in registration order; exactly one of the vectors
    /// is populated, matching `type`.
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges;
    std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>
        histograms;
  };

  Family* FamilyFor(const std::string& name, const std::string& help,
                    Type type);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_METRICS_REGISTRY_H_
