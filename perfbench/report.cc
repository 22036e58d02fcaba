#include "report.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

using popdb::Row;
using popdb::Value;
using popdb::ValueType;

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kDouble;
}

double Numeric(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                     : v.AsDouble();
}

bool SameValue(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b) &&
      (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble)) {
    const double x = Numeric(a);
    const double y = Numeric(b);
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a == b;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

bool SameRows(const std::vector<Row>& expected,
              const std::vector<Row>& actual) {
  if (expected.size() != actual.size()) return false;
  std::vector<Row> e = expected;
  std::vector<Row> a = actual;
  std::sort(e.begin(), e.end(), RowLess);
  std::sort(a.begin(), a.end(), RowLess);
  bool pairwise = true;
  for (size_t i = 0; i < e.size() && pairwise; ++i) {
    pairwise = SameRow(e[i], a[i]);
  }
  if (pairwise) return true;
  // Doubles within tolerance can sort differently when they lead a row;
  // fall back to greedy matching before declaring a mismatch.
  std::vector<bool> used(a.size(), false);
  for (const Row& row : e) {
    bool found = false;
    for (size_t j = 0; j < a.size() && !found; ++j) {
      if (!used[j] && SameRow(row, a[j])) used[j] = found = true;
    }
    if (!found) return false;
  }
  return true;
}

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long value = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &value) == 1) {
      kib = static_cast<double>(value);
      break;
    }
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealFrac(const CpuTicks& a, const CpuTicks& b) {
  const int64_t total = b.total - a.total;
  return total <= 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

void PrintMetrics(const std::string& title,
                  const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // NaN/inf are not JSON; a metric that could not be measured reads -1.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
