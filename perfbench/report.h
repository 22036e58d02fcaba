// Summary statistics, result checking and output helpers for the popdb
// benchmark.
#ifndef POPDB_PERFBENCH_REPORT_H_
#define POPDB_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// Median of `v` (NaN when empty).
double Median(std::vector<double> v);

/// Nearest-rank quantile `q` in [0, 1] of `v` (NaN when empty).
double Quantile(std::vector<double> v, double q);

/// Multiset equality of two result sets: rows are matched irrespective of
/// order; doubles compare with relative tolerance 1e-9 (aggregation order
/// differs between plans), every other value exactly.
bool SameRows(const std::vector<popdb::Row>& expected,
              const std::vector<popdb::Row>& actual);

/// Returns freed heap to the system (malloc_trim) and resets this
/// process's peak resident set (VmHWM) to its current resident set, so a
/// later PeakRssMib() covers only what ran in between. False when the
/// kernel does not support the reset.
bool ResetPeakRss();

/// Peak resident set (VmHWM) of this process in MiB; -1 if unreadable.
double PeakRssMib();

/// Host-wide CPU time counters from /proc/stat, in clock ticks: `steal` is
/// the time the hypervisor ran something else while a virtual CPU of this
/// host wanted to run.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Share of the CPU time between `a` and `b` that was stolen.
double StealFrac(const CpuTicks& a, const CpuTicks& b);

/// One named metric with its unit, printed in the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Prints `metrics` as an aligned human-readable table (to stdout).
void PrintMetrics(const std::string& title, const std::vector<Metric>& metrics);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // POPDB_PERFBENCH_REPORT_H_
