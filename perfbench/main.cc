// popdb benchmark driver.
//
//   popdb_perfbench --workload tpch_serve|dmv_adhoc|tpch_mixed --seed N
//                   --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints the host facts, the run's sample counts and every metric by name
// with its unit; the last line of stdout is the JSON result
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: popdb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // Progress shows when piped.
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (!ParseInt(value, &n) || n < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      options.trace = n != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkload(options.workload)) {
    return Usage("--workload must be tpch_serve, dmv_adhoc or tpch_mixed");
  }

  std::printf("host: nproc=%u compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  const perfbench::RunResult r = perfbench::RunWorkload(options);
  if (r.attempted == 0) return 1;  // Set-up failed; no result to report.
  std::printf("%s\n", perfbench::ResultJson(r.correct, r.attempted, r.failed,
                                            r.metrics)
                          .c_str());
  return 0;
}
