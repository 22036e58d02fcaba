// Reproduces Figure 16: per-query speedup (+) or regression factor (-) of
// POP on the 39 DMV queries (same runs as Figure 15, reported as factors).
// The paper reports speedups approaching two orders of magnitude and a
// worst-case regression factor of about 5.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"

namespace popdb {
namespace {

void Run() {
  bench::PrintHeader("DMV workload: per-query speedup / regression factors",
                     "Figure 16 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  dmv::GenConfig gen;
  gen.scale = bench::EnvScale("POPDB_DMV_SCALE", gen.scale);
  POPDB_DCHECK(dmv::BuildCatalog(gen, &catalog).ok());
  const std::vector<QuerySpec> workload = dmv::MakeWorkload();

  TablePrinter tp({"query", "factor", "direction", "reopts", "bar"});
  double max_speedup = 0, max_regression = 0;
  int improved = 0, regressed = 0, unchanged = 0;

  for (const QuerySpec& query : workload) {
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
    ExecutionStats sstat, pstat;
    Result<std::vector<Row>> srows = exec.ExecuteStatic(query, &sstat);
    Result<std::vector<Row>> prows = exec.Execute(query, &pstat);
    POPDB_DCHECK(srows.ok() && prows.ok());

    const double s = static_cast<double>(sstat.total_work);
    const double p = static_cast<double>(std::max<int64_t>(1, pstat.total_work));
    // Speedup factor (positive) or regression factor (negative), as in the
    // paper's bar chart; within Figure 15's +-5% band the query counts as
    // unchanged.
    const double ratio = s / p;
    const double factor = ratio >= 1.0 ? ratio : -(p / s);
    const char* direction = "unchanged";
    char bar_char = '=';
    if (ratio > 1.05) {
      direction = "speedup";
      bar_char = '+';
      ++improved;
      max_speedup = std::max(max_speedup, factor);
    } else if (ratio < 0.95) {
      direction = "regression";
      bar_char = '-';
      ++regressed;
      max_regression = std::max(max_regression, -factor);
    } else {
      ++unchanged;
    }
    const int bar_len = std::min(
        60, static_cast<int>(std::max(1.0, std::abs(factor))));
    tp.AddRow({query.name(), StrFormat("%+.2f", factor), direction,
               StrFormat("%d", pstat.reopts),
               std::string(static_cast<size_t>(bar_len), bar_char)});
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\nsummary: %d improved, %d regressed, %d unchanged (+-5%% band, as in "
      "Figure 15)\n",
      improved, regressed, unchanged);
  std::printf(
      "max speedup: %.1fx, max regression: %.1fx (paper: ~90x speedup, "
      "~5x regression)\n",
      max_speedup, max_regression);
}

}  // namespace
}  // namespace popdb

int main() {
  popdb::Run();
  return 0;
}
