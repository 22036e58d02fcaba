// The popdb benchmark workloads: tpch_serve, dmv_adhoc and tpch_mixed.
#ifndef POPDB_PERFBENCH_WORKLOADS_H_
#define POPDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed-count streams: seconds x the workload's nominal rate
  /// reads in all, split evenly over the passes.
  int seconds = 10;
  /// false: the untraced passes, end-to-end metrics. true: the untraced
  /// passes, then a traced pass over the first pass's stream, per-layer
  /// metrics.
  bool trace = false;
  /// Chrome trace_event JSON of the traced run's spans (traced runs only).
  std::string trace_out;
};

struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

bool IsWorkload(const std::string& name);

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // POPDB_PERFBENCH_WORKLOADS_H_
