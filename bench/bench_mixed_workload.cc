// Mixed OLTP/OLAP workload: TPC-C-style new-order/payment writer threads
// run through the SQL front end and the QueryService write path while
// analytical reader threads hammer the orders/items join corpus. The
// writers deliberately drift the data distribution into regions the
// statistics believe empty, so the analytical side exercises the full POP
// loop under churn: CHECK firings and re-optimizations while statistics
// are stale, threshold-gated incremental stats folds (stats-version
// bumps), plan-cache evictions on each fold, and cache-hit recovery once
// the writers stop (the settle phase).
//
// Reported per phase (churn / settle): analytical throughput, re-opt and
// CHECK-firing counts, per-query peak Q-error, plan-cache hit rate, write
// throughput by statement kind, and stats-version bumps. Results land in
// BENCH_mixed_workload.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/explain.h"
#include "runtime/query_service.h"
#include "sql/binder.h"
#include "txn/write_manager.h"

namespace popdb {
namespace {

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- catalog.

/// The orders/items corpus of the toy server: o_subclass is uniform over
/// [0, 199] and correlated with o_class (= o_subclass / 10), so static
/// estimates on the join corpus are already fragile before any write.
void BuildCorpus(Catalog* catalog) {
  Rng rng(5);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"o_class", ValueType::kInt},
                                 {"o_subclass", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t sub = rng.UniformInt(0, 199);
    orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table items("items", Schema({{"i_order", ValueType::kInt},
                               {"i_qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 12000; ++i) {
    items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                     Value::Int(rng.UniformInt(1, 20))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(items)).ok());
  catalog->AnalyzeAll();
}

// ------------------------------------------------------------- workload.

/// One analytical query observation.
struct QueryObs {
  double ms = 0.0;
  int reopts = 0;
  int64_t checks_fired = 0;
  double peak_qerror = -1.0;
  std::string plan_cache;
};

struct PhaseResult {
  std::string name;
  double wall_ms = 0.0;
  std::vector<QueryObs> queries;
  // Writers (zero in the settle phase).
  int64_t new_orders = 0;
  int64_t payments = 0;
  int64_t rows_written = 0;
  int64_t stats_version_bumps = 0;
  // Plan-cache deltas over the phase.
  PlanCache::Stats cache;

  int64_t reopts() const {
    int64_t n = 0;
    for (const QueryObs& q : queries) n += q.reopts;
    return n;
  }
  int64_t checks_fired() const {
    int64_t n = 0;
    for (const QueryObs& q : queries) n += q.checks_fired;
    return n;
  }
  double qerror_max() const {
    double m = 0.0;
    for (const QueryObs& q : queries) m = std::max(m, q.peak_qerror);
    return m;
  }
  double qerror_mean() const {
    double sum = 0.0;
    int64_t n = 0;
    for (const QueryObs& q : queries) {
      if (q.peak_qerror >= 0) {
        sum += q.peak_qerror;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  double cache_hit_rate() const {
    return cache.lookups == 0
               ? 0.0
               : static_cast<double>(cache.hits + cache.validity_hits) /
                     static_cast<double>(cache.lookups);
  }
};

PlanCache::Stats DiffStats(const PlanCache::Stats& a,
                           const PlanCache::Stats& b) {
  PlanCache::Stats d;
  d.lookups = b.lookups - a.lookups;
  d.hits = b.hits - a.hits;
  d.validity_hits = b.validity_hits - a.validity_hits;
  d.misses_cold = b.misses_cold - a.misses_cold;
  d.misses_stale = b.misses_stale - a.misses_stale;
  d.misses_epoch = b.misses_epoch - a.misses_epoch;
  d.misses_validity = b.misses_validity - a.misses_validity;
  d.evictions_stale_stats = b.evictions_stale_stats - a.evictions_stale_stats;
  return d;
}

/// The repeat-submission join: stable region, exercises the plan cache.
QuerySpec RepeatQuery() {
  QuerySpec q("oltp_mix_repeat");
  const int o = q.AddTable("orders");
  const int i = q.AddTable("items");
  q.AddJoin({o, 0}, {i, 0});
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(5));
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// The drift probe: scans a subclass region that is empty until the
/// writers populate it. Probing the region once while it is still empty
/// makes the shared feedback store learn "this region yields ~0 rows";
/// the post-churn replan then estimates the scan as ~empty and guards it
/// with a tight validity range — the believed-empty-region trap that
/// makes checkpoints fire under write churn.
QuerySpec DriftQuery(int region) {
  QuerySpec q("oltp_mix_drift");
  const int o = q.AddTable("orders");
  const int i = q.AddTable("items");
  q.AddJoin({o, 0}, {i, 0});
  // A literal (not a parameter marker): the feedback store keys learned
  // cardinalities by the bound literal, so each region is its own lesson.
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(region));
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Runs one analytical query and records the observation.
void RunAnalytical(QueryService* service, QuerySpec query,
                   std::vector<QueryObs>* out, std::mutex* mu) {
  QueryObs obs;
  const std::string query_name = query.name();
  const QueryResult r = service->ExecuteSync(std::move(query));
  if (!r.status.ok()) {
    std::fprintf(stderr, "WARN: analytical query failed: %s\n",
                 r.status.message().c_str());
    return;
  }
  obs.ms = r.trace.total_ms;
  obs.reopts = r.trace.reopts;
  obs.checks_fired = r.trace.checks_fired;
  obs.plan_cache = r.trace.plan_cache;
  obs.peak_qerror = r.trace.peak_qerror;
  if (std::getenv("POPDB_DEBUG_DRIFT") != nullptr &&
      query_name == "oltp_mix_drift") {
    static std::mutex dbg_mu;
    std::lock_guard<std::mutex> dbg_lock(dbg_mu);
    std::fprintf(stderr,
                 "DBG query rows=%lld reopts=%d checks=%lld cache=%s "
                 "attempts=%zu\n",
                 r.rows.empty() ? -1LL
                               : static_cast<long long>(r.rows[0][0].AsInt()),
                 obs.reopts, static_cast<long long>(obs.checks_fired),
                 obs.plan_cache.c_str(), r.trace.attempts.size());
    for (const AttemptInfo& a : r.trace.attempts) {
      if (a.has_profile) {
        std::fprintf(stderr, "%s", RenderProfileText(a.profile).c_str());
      }
    }
  }
  std::lock_guard<std::mutex> lock(*mu);
  out->push_back(std::move(obs));
}

/// One writer thread: alternates TPC-C-style new-order transactions
/// (INSERT an order header into a drifting subclass region plus its order
/// lines) with payments (delta UPDATE on the order lines), all through
/// the SQL front end and QueryService::ExecuteWrite.
/// Transactions (= order-header rows) per drift region. 50 rows is well
/// past the believed-empty plan's validity range but far below the stats
/// fold threshold (10% of 4000), so the CHECK fires while stats are stale.
constexpr int kTxnsPerRegion = 50;

struct WriterTotals {
  std::atomic<int64_t> new_orders{0};
  std::atomic<int64_t> payments{0};
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> errors{0};
};

void WriterThread(const Catalog* catalog, QueryService* service, int index,
                  int transactions, int drift_base, WriterTotals* totals,
                  std::atomic<int>* progress) {
  Rng rng(1000 + index);
  int64_t next_id = 1000000 + static_cast<int64_t>(index) * 1000000;
  for (int t = 0; t < transactions; ++t) {
    // The drift region advances every kTxnsPerRegion transactions: each
    // region starts out believed-empty, fills up, and the next one opens.
    const int region = drift_base + (t / kTxnsPerRegion);
    const int64_t id = next_id++;
    {
      std::string sql = "INSERT INTO orders VALUES (" + std::to_string(id) +
                        ", 9, " + std::to_string(region) + ")";
      Result<sql::BoundStatement> b = sql::ParseSqlStatement(*catalog, sql);
      POPDB_DCHECK(b.ok());
      const WriteQueryResult w = service->ExecuteWrite(b.value().write);
      if (!w.status.ok()) {
        totals->errors.fetch_add(1);
        continue;
      }
      totals->rows.fetch_add(w.affected_rows);
    }
    {
      // Three order lines per new order, bound through '?' markers like a
      // prepared statement.
      Result<sql::BoundStatement> b = sql::ParseSqlStatement(
          *catalog, "INSERT INTO items VALUES (?, ?), (?, ?), (?, ?)",
          {Value::Int(id), Value::Int(rng.UniformInt(1, 20)), Value::Int(id),
           Value::Int(rng.UniformInt(1, 20)), Value::Int(id),
           Value::Int(rng.UniformInt(1, 20))});
      POPDB_DCHECK(b.ok());
      const WriteQueryResult w = service->ExecuteWrite(b.value().write);
      if (!w.status.ok()) {
        totals->errors.fetch_add(1);
        continue;
      }
      totals->rows.fetch_add(w.affected_rows);
      totals->new_orders.fetch_add(1);
    }
    {
      // Payment: bump the quantity on a previously inserted order's lines.
      const int64_t target =
          t == 0 ? id : id - rng.UniformInt(0, std::min<int64_t>(t, 20));
      Result<sql::BoundStatement> b = sql::ParseSqlStatement(
          *catalog, "UPDATE items SET i_qty = i_qty + 1 WHERE i_order = ?",
          {Value::Int(target)});
      POPDB_DCHECK(b.ok());
      const WriteQueryResult w = service->ExecuteWrite(b.value().write);
      if (!w.status.ok()) {
        totals->errors.fetch_add(1);
        continue;
      }
      totals->rows.fetch_add(w.affected_rows);
      totals->payments.fetch_add(1);
    }
    progress->store(t + 1, std::memory_order_release);
  }
}

}  // namespace

int Run() {
  bench::PrintHeader(
      "Mixed OLTP/OLAP workload: writes + progressive analytics",
      "Section 6 setting under continuous data churn");

  Catalog catalog;
  BuildCorpus(&catalog);

  ServiceConfig config;
  config.num_workers = 4;
  txn::WriteManager writes(&catalog);
  QueryService service(catalog, config);
  service.AttachWriteManager(&writes);

  const int kWriters = 2;
  const int kReaders = 2;
  const int kTransactions = 250;    // Per writer.
  const int kRegions = kTransactions / kTxnsPerRegion;  // Per writer.
  const int kChurnQueries = 40;     // Per reader, churn phase.
  const int kSettleQueries = 30;    // Per reader, settle phase.

  std::vector<QueryObs> churn_obs;
  std::vector<QueryObs> settle_obs;
  std::mutex obs_mu;

  // ------------------------------------------------- phase 1: churn.
  PhaseResult churn;
  churn.name = "churn";
  const PlanCache::Stats cache0 = service.plan_cache()->stats();
  const int64_t version0 = catalog.stats_version();
  const double t0 = WallMs();

  // Seed the believed-empty belief: probe every drift region once while
  // it is still empty, so the shared feedback store learns "~0 rows" for
  // each region literal. The post-fill probe below then replans with that
  // learned cardinality (its feedback digest moved), walks into the
  // misestimate, and the guarding CHECK fires — the same sequence the
  // toy-server smoke validates end to end.
  for (int w = 0; w < kWriters; ++w) {
    for (int reg = 0; reg < kRegions; ++reg) {
      RunAnalytical(&service, DriftQuery(220 + w * 50 + reg), &churn_obs,
                    &obs_mu);
    }
  }

  WriterTotals totals;
  std::vector<std::unique_ptr<std::atomic<int>>> progress;
  for (int w = 0; w < kWriters; ++w) {
    progress.push_back(std::make_unique<std::atomic<int>>(0));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(WriterThread, &catalog, &service, w, kTransactions,
                         /*drift_base=*/220 + w * 50, &totals,
                         progress[static_cast<size_t>(w)].get());
  }
  std::atomic<bool> writers_done{false};
  for (int r = 0; r < kReaders; ++r) {
    // Reader r shadows writer r: each drift region is re-probed exactly
    // once, right after its writer finished filling it. That probe plans
    // against the learned "empty" cardinality from the seeding pass above
    // while the region now holds kTxnsPerRegion rows — stale knowledge the
    // CHECK must catch.
    threads.emplace_back([&, r] {
      int probed_regions = 0;
      for (int i = 0; i < kChurnQueries || !writers_done.load(); ++i) {
        if (i >= kChurnQueries * 4) break;  // Safety cap.
        const int completed =
            progress[static_cast<size_t>(r)]->load(std::memory_order_acquire) /
            kTxnsPerRegion;
        if (probed_regions < completed) {
          const int region = 220 + r * 50 + probed_regions;
          ++probed_regions;
          RunAnalytical(&service, DriftQuery(region), &churn_obs, &obs_mu);
        } else {
          RunAnalytical(&service, RepeatQuery(), &churn_obs, &obs_mu);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true);
  for (size_t t = static_cast<size_t>(kWriters); t < threads.size(); ++t) {
    threads[t].join();
  }

  churn.wall_ms = WallMs() - t0;
  churn.queries = churn_obs;
  churn.new_orders = totals.new_orders.load();
  churn.payments = totals.payments.load();
  churn.rows_written = totals.rows.load();
  churn.stats_version_bumps = catalog.stats_version() - version0;
  churn.cache = DiffStats(cache0, service.plan_cache()->stats());

  // ------------------------------------------------ phase 2: settle.
  PhaseResult settle;
  settle.name = "settle";
  const PlanCache::Stats cache1 = service.plan_cache()->stats();
  const int64_t version1 = catalog.stats_version();
  const double t1 = WallMs();
  {
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        for (int i = 0; i < kSettleQueries; ++i) {
          RunAnalytical(&service, RepeatQuery(), &settle_obs, &obs_mu);
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }
  settle.wall_ms = WallMs() - t1;
  settle.queries = settle_obs;
  settle.stats_version_bumps = catalog.stats_version() - version1;
  settle.cache = DiffStats(cache1, service.plan_cache()->stats());

  service.Shutdown();

  // ------------------------------------------------------- reporting.
  TablePrinter table({"phase", "queries", "reopts", "checks_fired",
                      "qerr_mean", "qerr_max", "cache_hits", "hit_rate",
                      "stale_evicts", "writes", "stats_bumps", "wall_ms"});
  for (const PhaseResult* p : {&churn, &settle}) {
    table.AddRow(
        {p->name, std::to_string(p->queries.size()),
         std::to_string(p->reopts()), std::to_string(p->checks_fired()),
         StrFormat("%.2f", p->qerror_mean()),
         StrFormat("%.2f", p->qerror_max()),
         std::to_string(p->cache.hits + p->cache.validity_hits),
         StrFormat("%.2f", p->cache_hit_rate()),
         std::to_string(p->cache.evictions_stale_stats),
         std::to_string(p->new_orders + p->payments),
         std::to_string(p->stats_version_bumps),
         StrFormat("%.1f", p->wall_ms)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "writer errors: %lld; write rows applied: %lld; stats folds: %lld\n",
      static_cast<long long>(totals.errors.load()),
      static_cast<long long>(churn.rows_written),
      static_cast<long long>(writes.stats_folds()));

  const bool checks_ok = churn.checks_fired() > 0;
  const bool recovery_ok = settle.cache_hit_rate() > churn.cache_hit_rate();
  std::printf("%s: CHECK firings under churn (%lld) %s\n",
              checks_ok ? "ok" : "MISS",
              static_cast<long long>(churn.checks_fired()),
              checks_ok ? "> 0" : "== 0");
  std::printf("%s: settle hit rate %.2f vs churn %.2f\n",
              recovery_ok ? "ok" : "MISS", settle.cache_hit_rate(),
              churn.cache_hit_rate());

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("mixed_workload");
  w.Key("writers").Int(kWriters);
  w.Key("readers").Int(kReaders);
  w.Key("transactions_per_writer").Int(kTransactions);
  w.Key("phases").BeginArray();
  for (const PhaseResult* p : {&churn, &settle}) {
    w.BeginObject();
    w.Key("phase").String(p->name);
    w.Key("wall_ms").Double(p->wall_ms);
    w.Key("analytical_queries").Int(static_cast<int64_t>(p->queries.size()));
    w.Key("reopts").Int(p->reopts());
    w.Key("checks_fired").Int(p->checks_fired());
    w.Key("qerror_mean").Double(p->qerror_mean());
    w.Key("qerror_max").Double(p->qerror_max());
    w.Key("plan_cache")
        .BeginObject()
        .Key("lookups").Int(p->cache.lookups)
        .Key("hits").Int(p->cache.hits + p->cache.validity_hits)
        .Key("hit_rate").Double(p->cache_hit_rate())
        .Key("misses_epoch").Int(p->cache.misses_epoch)
        .Key("evictions_stale_stats").Int(p->cache.evictions_stale_stats)
        .EndObject();
    w.Key("writes")
        .BeginObject()
        .Key("new_orders").Int(p->new_orders)
        .Key("payments").Int(p->payments)
        .Key("rows_written").Int(p->rows_written)
        .Key("stats_version_bumps").Int(p->stats_version_bumps)
        .EndObject();
    w.Key("queries").BeginArray();
    for (const QueryObs& q : p->queries) {
      w.BeginObject();
      w.Key("ms").Double(q.ms);
      w.Key("reopts").Int(q.reopts);
      w.Key("checks_fired").Int(q.checks_fired);
      if (q.peak_qerror >= 0) w.Key("peak_qerror").Double(q.peak_qerror);
      w.Key("plan_cache").String(q.plan_cache);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("stats_folds").Int(writes.stats_folds());
  w.EndObject();
  bench::WriteBenchJson("mixed_workload", w.str());

  return (checks_ok && recovery_ok) ? 0 : 1;
}

}  // namespace popdb

int main() { return popdb::Run(); }
