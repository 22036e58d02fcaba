#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/pop.h"
#include "core/validity.h"
#include "dmv/dmv_gen.h"
#include "exec/parallel.h"
#include "net/client.h"
#include "net/server.h"
#include "opt/cost_model.h"
#include "opt/plan_cache.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"
#include "sql/binder.h"
#include "storage/catalog.h"
#include "streams.h"
#include "tpch/tpch_gen.h"
#include "txn/write_manager.h"

namespace perfbench {

using popdb::Catalog;
using popdb::NowMs;
using popdb::PlanCache;
using popdb::PlanProfileNode;
using popdb::QuerySpec;
using popdb::QueryTrace;
using popdb::Row;
using popdb::Status;

namespace {

// ------------------------------------------------------------ workloads.

struct WorkloadSpec {
  const char* name;
  bool tpch;          ///< TPC-H catalog (else DMV).
  double scale;       ///< Generator scale factor.
  int workers;        ///< ServiceConfig::num_workers.
  int dop;            ///< ServiceConfig::intra_query_dop.
  int clients;        ///< Closed-loop clients (wire sessions when `wire`).
  bool wire;          ///< Reads travel over a loopback NetServer.
  bool mixed_writes;  ///< DML interleaved in the read stream.
  /// Reads per second a 4-core host completes; sizes the fixed-count
  /// streams so the passes take about --seconds in all.
  double nominal_reads_per_s;
};

const WorkloadSpec kWorkloads[] = {
    {"tpch_serve", true, 0.005, 2, 1, 2, true, false, 300.0},
    {"dmv_adhoc", false, 1.0, 1, 1, 1, false, false, 100.0},
    {"tpch_mixed", true, 0.005, 2, 2, 1, false, true, 110.0},
};

/// Timed passes per run. Each pass sets the deployment up afresh and runs
/// its own sub-stream. Throughput and median latency are medians over the
/// passes, so a pass slowed by a busy host moves them less than a pooled
/// figure would.
constexpr int kPasses = 5;
/// Set-ups before each pass (the last one serves it); setup_s is the
/// median of all of them.
constexpr int kSetUpsPerPass = 3;
/// Minimum reads per run, pooled over the passes: p99 keeps >= 10 samples
/// beyond it.
constexpr int64_t kMinSamples = 1100;
/// tpch_mixed folds statistics once a table's churn reaches 2% of its rows
/// (the default 10% would fold only once or twice per run).
constexpr double kMixedFoldThreshold = 0.02;
/// Threads that compute the expected results of a read-only stream.
constexpr int kOracleThreads = 3;
/// Rounding slack of a layer span (ms): a span shorter than minus this
/// means the layer times of its request overlap or were counted twice.
constexpr double kSpanSlackMs = 0.001;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The stream of pass `pass`, a seeded sub-stream that starts from a
/// freshly generated database.
std::vector<Request> MakeStream(const WorkloadSpec& w, uint64_t seed,
                                int pass, int64_t reads) {
  if (!w.tpch) return DmvStream(seed, pass, kPasses, reads);
  const uint64_t pass_seed = seed * kPasses + static_cast<uint64_t>(pass);
  if (w.mixed_writes) {
    return TpchMixedStream(pass_seed, reads, TpchShapeAtScale(w.scale));
  }
  return TpchReadStream(pass_seed, reads);
}

popdb::ServiceConfig ServiceConfigFor(const WorkloadSpec& w) {
  popdb::ServiceConfig c;
  c.num_workers = w.workers;
  c.intra_query_dop = w.dop;
  return c;
}

popdb::txn::WriteManager::Config WriteConfigFor(const WorkloadSpec& w) {
  popdb::txn::WriteManager::Config c;
  if (w.mixed_writes) c.stats_fold_threshold = kMixedFoldThreshold;
  return c;
}

/// Generates the workload's database with statistics and indexes.
Status BuildCatalogFor(const WorkloadSpec& w, Catalog* catalog) {
  Status s;
  if (w.tpch) {
    popdb::tpch::GenConfig g;
    g.scale = w.scale;
    s = popdb::tpch::BuildCatalog(g, catalog);
  } else {
    popdb::dmv::GenConfig g;
    g.scale = w.scale;
    s = popdb::dmv::BuildCatalog(g, catalog);
  }
  return s;
}

// ----------------------------------------------------------- deployment.

/// Server-side QueryTraces of wire queries, by query id.
class ServerTraces : public popdb::TraceSink {
 public:
  explicit ServerTraces(bool keep_profiles) : keep_profiles_(keep_profiles) {}

  void Emit(const QueryTrace& trace) override {
    QueryTrace copy = trace;
    if (!keep_profiles_) copy.attempts.clear();
    std::lock_guard<std::mutex> lock(mu_);
    traces_[trace.query_id] = std::move(copy);
  }

  QueryTrace Take(int64_t query_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(query_id);
    if (it == traces_.end()) return QueryTrace{};
    QueryTrace out = std::move(it->second);
    traces_.erase(it);
    return out;
  }

 private:
  const bool keep_profiles_;
  std::mutex mu_;
  std::map<int64_t, QueryTrace> traces_;
};

/// Everything a user stands up before the first query. Members are
/// declared in dependency order, so destruction tears down clients first
/// and the catalog last.
struct Deployment {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<popdb::txn::WriteManager> writes;
  std::unique_ptr<ServerTraces> traces;
  std::unique_ptr<popdb::QueryService> service;
  std::unique_ptr<popdb::net::NetServer> server;
  std::vector<popdb::net::Client> clients;

  void Reset() {
    clients.clear();
    server.reset();
    service.reset();
    traces.reset();
    writes.reset();
    catalog.reset();
  }
};

struct SetupTimes {
  std::vector<double> build_catalog_s;
  std::vector<double> start_s;
  std::vector<double> setup_s;
};

Status SetUp(const WorkloadSpec& w, bool keep_profiles, Deployment* d,
             SetupTimes* times) {
  d->Reset();
  const double t0 = NowMs();
  d->catalog = std::make_unique<Catalog>();
  Status s = BuildCatalogFor(w, d->catalog.get());
  if (!s.ok()) return s;
  const double t1 = NowMs();
  d->writes = std::make_unique<popdb::txn::WriteManager>(d->catalog.get(),
                                                         WriteConfigFor(w));
  popdb::ServiceConfig config = ServiceConfigFor(w);
  if (w.wire) {
    d->traces = std::make_unique<ServerTraces>(keep_profiles);
    config.trace_sink = d->traces.get();
  }
  d->service = std::make_unique<popdb::QueryService>(*d->catalog, config);
  d->service->AttachWriteManager(d->writes.get());
  if (w.wire) {
    popdb::net::NetServerConfig net_config;
    net_config.num_workers = w.clients;
    d->server = std::make_unique<popdb::net::NetServer>(d->service.get(),
                                                        nullptr, net_config);
    s = d->server->Start();
    if (!s.ok()) return s;
    for (int c = 0; c < w.clients; ++c) {
      auto client = popdb::net::Client::Connect("127.0.0.1", d->server->port());
      if (!client.ok()) return client.status();
      d->clients.push_back(std::move(client).TakeValue());
    }
  }
  const double t2 = NowMs();
  times->build_catalog_s.push_back((t1 - t0) / 1000.0);
  times->start_s.push_back((t2 - t1) / 1000.0);
  times->setup_s.push_back((t2 - t0) / 1000.0);
  return Status::Ok();
}

// ------------------------------------------------------------ the phase.

struct ReadObs {
  double start_ms = 0.0;
  double latency_ms = 0.0;  ///< Submit or send to the last row.
  double sql_ms = 0.0;      ///< Parse + bind (wire: the traced-run probe).
  double server_ms = 0.0;   ///< Service submit-to-completion.
  bool ok = false;          ///< Status ok and rows as expected.
  int64_t rows = 0;         ///< Rows returned (checked on arrival, not kept).
  std::string error;
  QueryTrace trace;
};

struct WriteObs {
  double start_ms = 0.0;
  double latency_ms = 0.0;
  double sql_ms = 0.0;
  double server_ms = 0.0;  ///< QueryService::ExecuteWrite time.
  bool ok = false;         ///< Status ok and affected rows as expected.
  std::string error;
  int64_t affected = 0;
  bool folded = false;
};

struct PhaseObs {
  std::vector<ReadObs> reads;
  std::vector<WriteObs> writes;  ///< In-stream DML (tpch_mixed).
  double wall_s = 0.0;           ///< The whole stream, closed loop.
  PlanCache::Stats cache;        ///< Counter deltas over the stream.
  int64_t folds = 0;
  double peak_rss_mib = 0.0;   ///< Peak resident set during the stream.
  int64_t negative_spans = 0;  ///< Traced: requests with a layer span < 0.
  double host_steal_frac = 0.0;  ///< Host CPU time stolen during the stream.
};

/// Per-request latency split into the layers it crossed. `unaccounted` is
/// the remainder no layer measurement covers, so the parts add up to the
/// request's latency by construction; what can go wrong is a part below
/// zero, when layer times overlap or one is counted twice.
struct Parts {
  double sql = 0.0, net = 0.0, queue = 0.0, optimize = 0.0, execute = 0.0,
         txn = 0.0, unaccounted = 0.0;
};

Parts ReadParts(const WorkloadSpec& w, const ReadObs& r) {
  Parts p;
  p.sql = r.sql_ms;
  p.queue = r.trace.queue_ms;
  p.optimize = r.trace.optimize_ms;
  p.execute = r.trace.execute_ms;
  if (w.wire) {
    // The server parses the text before submitting; the probe parse of the
    // same text stands in for that share of the round trip.
    p.net = r.latency_ms - r.server_ms - r.sql_ms;
    p.unaccounted = r.server_ms - p.queue - p.optimize - p.execute;
  } else {
    p.unaccounted = r.latency_ms - p.sql - p.queue - p.optimize - p.execute;
  }
  return p;
}

Parts WriteParts(const WriteObs& o) {
  Parts p;
  p.sql = o.sql_ms;
  p.txn = o.server_ms;
  p.unaccounted = o.latency_ms - o.sql_ms - o.server_ms;
  return p;
}

/// True when no layer span of `p` is below zero (to rounding).
bool SpansNonNegative(const Parts& p) {
  for (double ms : {p.sql, p.net, p.queue, p.optimize, p.execute, p.txn,
                    p.unaccounted}) {
    if (ms < -kSpanSlackMs) return false;
  }
  return true;
}

/// Records the request's root span and its layer spans (laid back to back
/// inside the root: durations are measured, offsets are not) into the
/// benchmark's own tracer, on the calling thread.
class SpanSink {
 public:
  SpanSink()
      : offset_us_(tracer_.NowUs() -
                   static_cast<int64_t>(NowMs() * 1000.0)) {}

  void Record(const char* root, int64_t id, double start_ms, double latency_ms,
              const Parts& p) {
    const int64_t start_us =
        static_cast<int64_t>(start_ms * 1000.0) + offset_us_;
    tracer_.RecordSpan(root, "request", start_us,
                       std::llround(latency_ms * 1000.0), "req", id);
    const std::pair<const char*, double> layers[] = {
        {"sql", p.sql},           {"net", p.net},
        {"runtime.queue", p.queue}, {"opt.optimize", p.optimize},
        {"exec.execute", p.execute}, {"txn.write", p.txn},
        {"unaccounted", p.unaccounted}};
    int64_t cursor = start_us;
    for (const auto& [name, ms] : layers) {
      if (ms == 0.0) continue;
      const int64_t dur = std::llround(ms * 1000.0);
      tracer_.RecordSpan(name, "layer", cursor, dur, "req", id, root);
      cursor += std::max<int64_t>(dur, 0);
    }
  }

  void RecordProbe(int64_t id, double start_ms, double ms) {
    tracer_.RecordSpan("opt.validity_probe", "probe",
                       static_cast<int64_t>(start_ms * 1000.0) + offset_us_,
                       std::llround(ms * 1000.0), "req", id);
  }

  std::string ExportChromeTrace() const { return tracer_.ExportChromeTrace(); }
  int64_t event_count() const { return tracer_.event_count(); }

 private:
  popdb::SpanTracer tracer_;
  const int64_t offset_us_;
};

// ------------------------------------------------------ expected results.

/// What every request of a stream must return.
struct Expected {
  std::vector<std::shared_ptr<const std::vector<Row>>> reads;
  std::vector<int64_t> affected;  ///< Affected rows of each write.
};

/// Counts only ProgressiveExecutor::Execute and the optimizer report
/// (QueryTrace does not carry them), from an in-process replay of the
/// traced stream with the service's plan-cache set-up and a shared
/// feedback store.
struct ReplayStats {
  int64_t reads = 0;
  int64_t work = 0;
  int64_t reopts = 0;
  int64_t candidates = 0;
  int64_t checks_placed = 0;
  int64_t mv_rows = 0;
  int64_t memo_reused = 0;
  int64_t validity_evals = 0;
  double validity_probe_ms = 0.0;
};

std::string Describe(const Request& req) {
  std::string out = req.name;
  if (!req.params.empty()) {
    out += " [";
    for (size_t i = 0; i < req.params.size() && i < 4; ++i) {
      if (i > 0) out += ", ";
      out += req.params[i].ToString();
    }
    if (req.params.size() > 4) out += ", ...";
    out += "]";
  }
  return out;
}

/// Replays `stream` untimed on a freshly generated database: every write is
/// applied through txn::WriteManager in stream order and every read is
/// computed with ProgressiveExecutor::ExecuteStatic (no plan cache) on the
/// data as of its place in the stream. With `stats`, also runs each read
/// through a ProgressiveExecutor set up like the service's and gathers the
/// ReplayStats counts.
bool ComputeExpected(const WorkloadSpec& w, const std::vector<Request>& stream,
                     Expected* out, ReplayStats* stats, SpanSink* spans) {
  Catalog catalog;
  Status s = BuildCatalogFor(w, &catalog);
  if (!s.ok()) {
    std::printf("oracle: catalog build failed: %s\n", s.ToString().c_str());
    return false;
  }
  popdb::txn::WriteManager writes(&catalog, WriteConfigFor(w));
  popdb::ProgressiveExecutor oracle(catalog, popdb::OptimizerConfig{},
                                    popdb::PopConfig{});
  const popdb::ServiceConfig service = ServiceConfigFor(w);
  popdb::PlanCacheConfig cache_config;
  cache_config.max_entries = service.plan_cache_entries;
  cache_config.validity_hits = service.plan_cache_validity_hits;
  PlanCache cache(cache_config);
  popdb::QueryFeedbackStore feedback;
  // A stream with writes computes each read at its place in the stream. A
  // read-only stream computes each distinct read once (SQL streams repeat
  // bindings), afterwards, on a few threads.
  std::vector<QuerySpec> jobs;
  std::vector<std::string> job_names;
  std::vector<size_t> job_of_read;
  std::map<std::string, size_t> job_by_binding;

  for (size_t i = 0; i < stream.size(); ++i) {
    const Request& req = stream[i];
    const std::string key = Describe(req);
    if (req.is_write) {
      auto bound = popdb::sql::ParseSqlStatement(catalog, req.sql, req.params);
      if (!bound.ok() || !bound.value().is_write) {
        std::printf("oracle: %s is not a valid DML statement\n", key.c_str());
        return false;
      }
      auto res = writes.Apply(bound.value().write);
      if (!res.ok()) {
        std::printf("oracle: write %s failed: %s\n", key.c_str(),
                    res.status().ToString().c_str());
        return false;
      }
      out->affected.push_back(res.value().affected_rows);
      continue;
    }

    QuerySpec query("");
    if (req.spec != nullptr) {
      query = *req.spec;
    } else {
      auto bound = popdb::sql::ParseSqlStatement(catalog, req.sql, req.params);
      if (!bound.ok()) {
        std::printf("oracle: bind failed for %s: %s\n", key.c_str(),
                    bound.status().ToString().c_str());
        return false;
      }
      query = std::move(bound).TakeValue().query;
    }
    if (w.mixed_writes) {
      auto rows = oracle.ExecuteStatic(query);
      if (!rows.ok()) {
        std::printf("oracle: static execution failed for %s: %s\n",
                    key.c_str(), rows.status().ToString().c_str());
        return false;
      }
      out->reads.push_back(std::make_shared<const std::vector<Row>>(
          std::move(rows).TakeValue()));
    } else {
      size_t job = jobs.size();
      if (req.spec == nullptr) {
        job = job_by_binding.emplace(key, jobs.size()).first->second;
      }
      if (job == jobs.size()) {
        jobs.push_back(query);
        job_names.push_back(key);
      }
      job_of_read.push_back(job);
    }

    if (stats != nullptr) {
      popdb::ProgressiveExecutor pop(catalog, service.optimizer, service.pop);
      pop.set_cross_query_store(&feedback);
      pop.set_plan_cache(&cache);
      popdb::ParallelPolicy policy;
      policy.batch_rows = service.exec_batch_rows;
      pop.set_parallel(nullptr, policy);
      popdb::ExecutionStats es;
      auto rows = pop.Execute(query, &es);
      if (!rows.ok()) {
        std::printf("replay: %s failed: %s\n", key.c_str(),
                    rows.status().ToString().c_str());
        return false;
      }
      ++stats->reads;
      stats->work += es.total_work;
      stats->reopts += es.reopts;
      stats->mv_rows += es.mv_rows_harvested;
      stats->memo_reused += es.memo_entries_reused;
      for (const popdb::AttemptInfo& a : es.attempts) {
        stats->candidates += a.candidates;
        stats->checks_placed += a.checks.total();
      }
      // Validity-range analysis cost: a timed optimization with the
      // analyzer attached as the DP prune observer.
      popdb::Optimizer optimizer(catalog, service.optimizer);
      const popdb::CostModel cost_model(optimizer.config().cost);
      popdb::ValidityRangeAnalyzer analyzer(cost_model, service.pop.validity);
      const double t = NowMs();
      auto plan = optimizer.Optimize(query, nullptr, nullptr, &analyzer);
      const double ms = NowMs() - t;
      if (!plan.ok()) {
        std::printf("replay: optimizing %s failed: %s\n", key.c_str(),
                    plan.status().ToString().c_str());
        return false;
      }
      stats->validity_evals += analyzer.cost_evaluations();
      stats->validity_probe_ms += ms;
      if (spans != nullptr) {
        spans->RecordProbe(static_cast<int64_t>(i) + 1, t, ms);
      }
    }
  }
  if (jobs.empty()) return true;

  std::vector<std::shared_ptr<const std::vector<Row>>> results(jobs.size());
  std::vector<std::string> errors(jobs.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&] {
      popdb::ProgressiveExecutor executor(catalog, popdb::OptimizerConfig{},
                                          popdb::PopConfig{});
      for (size_t j = next++; j < jobs.size(); j = next++) {
        auto rows = executor.ExecuteStatic(jobs[j]);
        if (rows.ok()) {
          results[j] = std::make_shared<const std::vector<Row>>(
              std::move(rows).TakeValue());
        } else {
          errors[j] = rows.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (results[j] == nullptr) {
      std::printf("oracle: static execution failed for %s: %s\n",
                  job_names[j].c_str(), errors[j].c_str());
      return false;
    }
  }
  for (size_t job : job_of_read) out->reads.push_back(results[job]);
  return true;
}

// ------------------------------------------------------------ requests.

/// Each read is checked against its expected rows as it arrives, after its
/// latency is taken; the rows are not kept.
void ServeRead(const Request& req, const std::vector<Row>& expected,
               const Catalog& catalog, bool traced, popdb::net::Client* client,
               ServerTraces* traces, ReadObs* r) {
  popdb::net::ClientQueryOptions options;
  options.params = req.params;
  r->start_ms = NowMs();
  popdb::net::ClientQueryResult res =
      client->Query(req.sql, std::move(options));
  r->latency_ms = NowMs() - r->start_ms;
  r->server_ms = res.total_ms;
  r->rows = static_cast<int64_t>(res.rows.size());
  r->ok = res.status.ok() && SameRows(expected, res.rows);
  if (!res.status.ok()) r->error = res.status.ToString();
  r->trace = traces->Take(res.query_id);
  if (traced) {
    const double t = NowMs();
    auto bound = popdb::sql::ParseSqlStatement(catalog, req.sql, req.params);
    r->sql_ms = NowMs() - t;
  }
}

void LocalRead(const Request& req, const std::vector<Row>& expected,
               Deployment* d, bool keep_profiles, ReadObs* r) {
  QuerySpec query = req.spec != nullptr ? *req.spec : QuerySpec("");
  r->start_ms = NowMs();
  if (req.spec == nullptr) {
    auto bound =
        popdb::sql::ParseSqlStatement(*d->catalog, req.sql, req.params);
    r->sql_ms = NowMs() - r->start_ms;
    if (!bound.ok()) {
      r->error = bound.status().ToString();
      return;
    }
    query = std::move(bound).TakeValue().query;
  }
  auto ticket = d->service->Submit(std::move(query));
  if (!ticket.ok()) {
    r->latency_ms = NowMs() - r->start_ms;
    r->error = ticket.status().ToString();
    return;
  }
  const popdb::QueryResult& res = ticket.value()->Wait();
  r->latency_ms = NowMs() - r->start_ms;
  r->rows = static_cast<int64_t>(res.rows.size());
  r->ok = res.status.ok() && SameRows(expected, res.rows);
  if (!res.status.ok()) r->error = res.status.ToString();
  r->trace = res.trace;
  if (!keep_profiles) r->trace.attempts.clear();
  r->server_ms = res.trace.total_ms;
}

void LocalWrite(const Request& req, int64_t expected_affected, Deployment* d,
                WriteObs* o) {
  o->start_ms = NowMs();
  auto bound = popdb::sql::ParseSqlStatement(*d->catalog, req.sql, req.params);
  o->sql_ms = NowMs() - o->start_ms;
  if (!bound.ok() || !bound.value().is_write) {
    o->latency_ms = NowMs() - o->start_ms;
    o->error = bound.ok() ? "not a DML statement" : bound.status().ToString();
    return;
  }
  popdb::WriteQueryResult res = d->service->ExecuteWrite(bound.value().write);
  o->latency_ms = NowMs() - o->start_ms;
  o->ok = res.status.ok() && res.affected_rows == expected_affected;
  if (!res.status.ok()) o->error = res.status.ToString();
  o->server_ms = res.total_ms;
  o->affected = res.affected_rows;
  o->folded = res.stats_folded;
}

PlanCache::Stats CacheDelta(const PlanCache::Stats& a,
                            const PlanCache::Stats& b) {
  PlanCache::Stats d;
  d.lookups = b.lookups - a.lookups;
  d.hits = b.hits - a.hits;
  d.validity_hits = b.validity_hits - a.validity_hits;
  d.evictions_stale_stats = b.evictions_stale_stats - a.evictions_stale_stats;
  d.misses_cold = b.misses_cold - a.misses_cold;
  d.misses_stale = b.misses_stale - a.misses_stale;
  d.misses_epoch = b.misses_epoch - a.misses_epoch;
  d.misses_validity = b.misses_validity - a.misses_validity;
  return d;
}

/// Runs the whole stream as a closed loop (each client sends its next
/// request when the previous one completed) and takes the peak resident
/// set over it. `spans` is null in the untraced passes.
PhaseObs RunPhase(const WorkloadSpec& w, const std::vector<Request>& stream,
                  const Expected& expected, Deployment* d, SpanSink* spans) {
  PhaseObs obs;
  std::vector<int64_t> ordinal(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].is_write) {
      ordinal[i] = static_cast<int64_t>(obs.writes.size());
      obs.writes.emplace_back();
    } else {
      ordinal[i] = static_cast<int64_t>(obs.reads.size());
      obs.reads.emplace_back();
    }
  }
  const bool traced = spans != nullptr;
  std::atomic<int64_t> negative{0};
  // Traced only: records the request's spans and reports it if a layer
  // span is negative.
  auto record = [&](const char* root, size_t i, double start_ms,
                    double latency_ms, const Parts& p) {
    spans->Record(root, static_cast<int64_t>(i) + 1, start_ms, latency_ms, p);
    if (!SpansNonNegative(p) && negative.fetch_add(1) < 10) {
      std::printf(
          "NEGATIVE SPAN %s #%zu %s: latency %.4f = sql %.4f + net %.4f + "
          "queue %.4f + optimize %.4f + execute %.4f + txn %.4f + "
          "unaccounted %.4f ms\n",
          root, i, Describe(stream[i]).c_str(), latency_ms, p.sql, p.net,
          p.queue, p.optimize, p.execute, p.txn, p.unaccounted);
    }
  };
  const PlanCache::Stats cache0 = d->service->plan_cache()->stats();
  const int64_t folds0 = d->writes->stats_folds();
  if (!ResetPeakRss()) {
    std::printf("warning: the peak resident set cannot be reset; rss_mb is "
                "the process's peak\n");
  }

  const CpuTicks ticks0 = ReadCpuTicks();
  const double t0 = NowMs();
  if (w.wire) {
    std::vector<std::thread> threads;
    for (int c = 0; c < w.clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < stream.size(); i += w.clients) {
          ReadObs* r = &obs.reads[ordinal[i]];
          ServeRead(stream[i], *expected.reads[ordinal[i]], *d->catalog,
                    traced, &d->clients[c], d->traces.get(), r);
          if (traced) {
            record("read", i, r->start_ms, r->latency_ms, ReadParts(w, *r));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < stream.size(); ++i) {
      if (stream[i].is_write) {
        WriteObs* o = &obs.writes[ordinal[i]];
        LocalWrite(stream[i], expected.affected[ordinal[i]], d, o);
        if (traced) record("write", i, o->start_ms, o->latency_ms,
                           WriteParts(*o));
      } else {
        ReadObs* r = &obs.reads[ordinal[i]];
        LocalRead(stream[i], *expected.reads[ordinal[i]], d, traced, r);
        if (traced) record("read", i, r->start_ms, r->latency_ms,
                           ReadParts(w, *r));
      }
    }
  }
  obs.wall_s = (NowMs() - t0) / 1000.0;
  obs.host_steal_frac = StealFrac(ticks0, ReadCpuTicks());
  obs.peak_rss_mib = PeakRssMib();
  obs.cache = CacheDelta(cache0, d->service->plan_cache()->stats());
  obs.folds = d->writes->stats_folds() - folds0;
  obs.negative_spans = negative.load();
  return obs;
}

/// Prints every request of `p` that failed or returned other than
/// expected; returns their number.
int64_t PrintMismatches(const std::string& label,
                        const std::vector<Request>& stream,
                        const Expected& expected, const PhaseObs& p) {
  int64_t mismatches = 0;
  size_t read_i = 0, write_i = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const std::string* error = nullptr;
    if (stream[i].is_write) {
      const WriteObs& o = p.writes[write_i];
      if (!o.ok) {
        ++mismatches;
        std::printf("MISMATCH %s write #%zu %s: affected %lld, expected %lld\n",
                    label.c_str(), i, Describe(stream[i]).c_str(),
                    static_cast<long long>(o.affected),
                    static_cast<long long>(expected.affected[write_i]));
        error = &o.error;
      }
      ++write_i;
    } else {
      const ReadObs& r = p.reads[read_i];
      if (!r.ok) {
        ++mismatches;
        std::printf("MISMATCH %s read #%zu %s: %lld rows, expected %zu\n",
                    label.c_str(), i, Describe(stream[i]).c_str(),
                    static_cast<long long>(r.rows),
                    expected.reads[read_i]->size());
        error = &r.error;
      }
      ++read_i;
    }
    if (error != nullptr && !error->empty()) {
      std::printf("  error: %s\n", error->c_str());
    }
  }
  return mismatches;
}

// -------------------------------------------------------------- metrics.

double PerQuery(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int64_t OkCount(const PhaseObs& p) {
  int64_t ok = 0;
  for (const ReadObs& r : p.reads) ok += r.ok ? 1 : 0;
  for (const WriteObs& o : p.writes) ok += o.ok ? 1 : 0;
  return ok;
}

int64_t Attempted(const PhaseObs& p) {
  return static_cast<int64_t>(p.reads.size() + p.writes.size());
}

std::vector<double> ReadLatencies(const PhaseObs& p) {
  std::vector<double> v;
  for (const ReadObs& r : p.reads) v.push_back(r.latency_ms);
  return v;
}

double ReadQps(const PhaseObs& p) {
  return static_cast<double>(p.reads.size()) / p.wall_s;
}

double TotalWork(const PhaseObs& p) {
  double work = 0.0;
  for (const ReadObs& r : p.reads) work += static_cast<double>(r.trace.work);
  return work;
}

/// Median over the passes of `f(pass)`.
template <typename F>
double MedianOverPasses(const std::vector<PhaseObs>& passes, F f) {
  std::vector<double> v;
  for (const PhaseObs& p : passes) v.push_back(f(p));
  return Median(v);
}

/// The gated end-to-end metrics: what a run did (work units), whether it
/// was right, and what a user pays besides query time (set-up, memory).
std::vector<Metric> EndToEndMetrics(const std::vector<PhaseObs>& passes,
                                    const SetupTimes& setup) {
  double work = 0.0, ok = 0.0, attempted = 0.0, peak_rss = 0.0;
  size_t reads = 0;
  for (const PhaseObs& p : passes) {
    work += TotalWork(p);
    reads += p.reads.size();
    peak_rss = std::max(peak_rss, p.peak_rss_mib);
    ok += static_cast<double>(OkCount(p));
    attempted += static_cast<double>(Attempted(p));
  }
  return {
      {"work_units_per_query", "units/query", PerQuery(work, reads)},
      {"ok_frac", "ratio", Ratio(ok, attempted)},
      {"setup_s", "s", Median(setup.setup_s)},
      {"rss_mb", "MiB", peak_rss},
  };
}

/// Query and DML latency and throughput of the untraced passes. The host's
/// speed moves them by more than any regression bound allows (README.md,
/// Noise), so they are reported beside the per-layer metrics, not gated.
/// Only tpch_mixed issues DML; the read-only workloads report 0 for it.
std::vector<Metric> TimedMetrics(const std::vector<PhaseObs>& passes) {
  std::vector<double> reads, writes;
  for (const PhaseObs& p : passes) {
    for (const ReadObs& r : p.reads) reads.push_back(r.latency_ms);
    for (const WriteObs& o : p.writes) writes.push_back(o.latency_ms);
  }
  auto write_quantile = [&](double q) {
    return writes.empty() ? 0.0 : Quantile(writes, q);
  };
  return {
      {"qps", "1/s", MedianOverPasses(passes, ReadQps)},
      {"query_p50_ms", "ms",
       MedianOverPasses(passes,
                        [](const PhaseObs& p) {
                          return Median(ReadLatencies(p));
                        })},
      // A pass holds too few reads for a steady p99: pool the passes.
      {"query_p99_ms", "ms", Quantile(reads, 0.99)},
      {"write_p50_ms", "ms", write_quantile(0.5)},
      {"write_p99_ms", "ms", write_quantile(0.99)},
  };
}

/// Self time (own open/next/close minus the children's) of every profiled
/// operator, summed into the four operator families.
struct SelfTimes {
  double scan = 0.0, join = 0.0, agg_sort = 0.0, check_temp = 0.0;
};

void AddSelfTimes(const PlanProfileNode& node, SelfTimes* out) {
  double self = node.open_ms + node.next_ms + node.close_ms;
  for (const PlanProfileNode& child : node.children) {
    self -= child.open_ms + child.next_ms + child.close_ms;
    AddSelfTimes(child, out);
  }
  const std::string& n = node.name;
  if (n == "TBSCAN" || n == "MVSCAN" || n == "FILTER" || n == "EXCHANGE") {
    out->scan += self;
  } else if (n == "HSJN" || n == "NLJN" || n == "MGJN") {
    out->join += self;
  } else if (n == "GRPBY" || n == "SORT" || n == "PROJECT") {
    out->agg_sort += self;
  } else if (n == "CHECK" || n == "BUFCHECK" || n == "CHECKM" ||
             n == "WORKBOUND" || n == "TEMP" || n == "INSERT(S)") {
    out->check_temp += self;
  }
}

/// Per-layer metrics of the traced pass `t`; `untraced_qps` is the
/// untraced pass over t's stream.
std::vector<Metric> PerLayerMetrics(const WorkloadSpec& w, const PhaseObs& t,
                                    double untraced_qps,
                                    const SetupTimes& setup,
                                    const ReplayStats& rs) {
  const size_t n = t.reads.size();
  double sql_ms = 0.0, net_ms = 0.0, opt_ms = 0.0, exec_ms = 0.0,
         reopt_ms = 0.0, unaccounted_ms = 0.0, latency_ms = 0.0;
  double reopts = 0.0, fired = 0.0, work = 0.0, wasted = 0.0, morsels = 0.0,
         parallel = 0.0;
  int64_t sql_stmts = 0;
  std::vector<double> queue;
  SelfTimes self;
  for (const ReadObs& r : t.reads) {
    const Parts p = ReadParts(w, r);
    if (p.sql > 0.0) ++sql_stmts;
    sql_ms += p.sql;
    net_ms += p.net;
    opt_ms += p.optimize;
    exec_ms += p.execute;
    unaccounted_ms += p.unaccounted;
    latency_ms += r.latency_ms;
    queue.push_back(p.queue);
    reopts += r.trace.reopts;
    fired += static_cast<double>(r.trace.checks_fired);
    work += static_cast<double>(r.trace.work);
    morsels += static_cast<double>(r.trace.morsels);
    parallel += static_cast<double>(r.trace.parallel_work);
    for (size_t a = 0; a < r.trace.attempts.size(); ++a) {
      const popdb::TraceAttempt& att = r.trace.attempts[a];
      if (a >= 1) reopt_ms += att.optimize_ms;
      if (att.reoptimized) wasted += static_cast<double>(att.work);
      if (att.has_profile) AddSelfTimes(att.profile, &self);
    }
  }
  double write_ms = 0.0;
  int64_t folds = 0;
  for (const WriteObs& o : t.writes) {
    sql_ms += o.sql_ms;
    ++sql_stmts;
    write_ms += o.server_ms;
    folds += o.folded ? 1 : 0;
    unaccounted_ms += WriteParts(o).unaccounted;
    latency_ms += o.latency_ms;
  }
  const size_t n_writes = t.writes.size();
  const double lookups = static_cast<double>(t.cache.lookups);
  const double rs_reopts = static_cast<double>(rs.reopts);
  return {
      {"sql.parse_bind_us", "us/stmt", PerQuery(sql_ms * 1000.0, sql_stmts)},
      {"net.overhead_ms", "ms/query", PerQuery(net_ms, n)},
      {"runtime.queue_ms_p50", "ms", Median(queue)},
      {"runtime.queue_ms_p99", "ms", Quantile(queue, 0.99)},
      {"runtime.start_s", "s", Median(setup.start_s)},
      {"storage.build_catalog_s", "s", Median(setup.build_catalog_s)},
      {"opt.optimize_ms_per_query", "ms", PerQuery(opt_ms, n)},
      {"opt.candidates_per_query", "count",
       PerQuery(static_cast<double>(rs.candidates), rs.reads)},
      {"opt.validity_cost_evals_per_query", "count",
       PerQuery(static_cast<double>(rs.validity_evals), rs.reads)},
      {"opt.plan_cache_hit_frac", "ratio",
       Ratio(static_cast<double>(t.cache.hits + t.cache.validity_hits),
             lookups)},
      {"opt.plan_cache_stale_evictions", "count",
       static_cast<double>(t.cache.evictions_stale_stats)},
      {"core.reopts_per_query", "count", PerQuery(reopts, n)},
      {"core.checks_fired_per_query", "count", PerQuery(fired, n)},
      {"core.checks_placed_per_query", "count",
       PerQuery(static_cast<double>(rs.checks_placed), rs.reads)},
      {"core.reoptimize_ms_per_query", "ms", PerQuery(reopt_ms, n)},
      {"core.wasted_work_frac", "ratio", Ratio(wasted, work)},
      {"core.mv_rows_reused_per_reopt", "rows",
       Ratio(static_cast<double>(rs.mv_rows), rs_reopts)},
      {"core.memo_reused_per_reopt", "entries",
       Ratio(static_cast<double>(rs.memo_reused), rs_reopts)},
      {"exec.execute_ms_per_query", "ms", PerQuery(exec_ms, n)},
      {"exec.work_units_per_ms", "units/ms", Ratio(work, exec_ms)},
      {"exec.scan_self_ms", "ms/query", PerQuery(self.scan, n)},
      {"exec.join_self_ms", "ms/query", PerQuery(self.join, n)},
      {"exec.agg_sort_self_ms", "ms/query", PerQuery(self.agg_sort, n)},
      {"exec.check_temp_self_ms", "ms/query", PerQuery(self.check_temp, n)},
      {"exec.morsels_per_query", "count", PerQuery(morsels, n)},
      {"exec.parallel_work_frac", "ratio", Ratio(parallel, work)},
      {"txn.write_ms", "ms/stmt", PerQuery(write_ms, n_writes)},
      {"txn.stats_folds_per_kwrite", "folds/1000",
       Ratio(1000.0 * static_cast<double>(folds),
             static_cast<double>(n_writes))},
      {"trace.unaccounted_frac", "ratio", Ratio(unaccounted_ms, latency_ms)},
      {"trace.overhead_frac", "ratio", 1.0 - ReadQps(t) / untraced_qps},
  };
}

// -------------------------------------------------------------- output.

void PrintTableRows(const char* when, const Catalog& catalog) {
  std::printf("table rows %s:", when);
  for (const std::string& name : catalog.TableNames()) {
    std::printf(" %s=%lld", name.c_str(),
                static_cast<long long>(catalog.GetTable(name)->live_rows()));
  }
  std::printf("\n");
}

/// Latency (and work, for reads) by template over all passes, so a moved
/// percentile can be traced to the requests behind it.
struct TemplateAcc {
  std::vector<double> ms;
  double work = 0.0, reopts = 0.0;
};
using TemplateTable = std::map<std::string, TemplateAcc>;

void AddTemplates(const std::vector<Request>& stream, const PhaseObs& p,
                  TemplateTable* table) {
  size_t read_i = 0, write_i = 0;
  for (const Request& req : stream) {
    if (req.is_write) {
      (*table)[req.name].ms.push_back(p.writes[write_i++].latency_ms);
      continue;
    }
    const ReadObs& r = p.reads[read_i++];
    // DMV queries are all distinct; group them by join width instead.
    const std::string key =
        req.spec != nullptr
            ? "dmv_" + std::to_string(req.spec->num_tables()) + "_tables"
            : req.name;
    TemplateAcc& a = (*table)[key];
    a.ms.push_back(r.latency_ms);
    a.work += static_cast<double>(r.trace.work);
    a.reopts += r.trace.reopts;
  }
}

void PrintTemplates(const TemplateTable& table) {
  std::printf("  %-24s %6s %10s %10s %12s %8s\n", "template", "n", "p50_ms",
              "p99_ms", "work/query", "reopts");
  for (const auto& [name, a] : table) {
    const double n = static_cast<double>(a.ms.size());
    std::printf("  %-24s %6zu %10.3f %10.3f %12.0f %8.3f\n", name.c_str(),
                a.ms.size(), Median(a.ms), Quantile(a.ms, 0.99), a.work / n,
                a.reopts / n);
  }
}

void PrintPass(const std::string& label, const PhaseObs& p) {
  const std::vector<double> reads = ReadLatencies(p);
  std::printf(
      "%s: %zu reads, %zu writes in %.3f s: qps %.2f, p50 %.3f ms, p99 "
      "%.3f ms, peak rss %.1f MiB, host steal %.1f%%; plan cache %lld/%lld "
      "hits (misses: cold %lld, stale %lld, epoch %lld, validity %lld), "
      "%lld stale-stats evictions, %lld folds\n",
      label.c_str(), p.reads.size(), p.writes.size(), p.wall_s, ReadQps(p),
      Median(reads), Quantile(reads, 0.99), p.peak_rss_mib,
      100.0 * p.host_steal_frac,
      static_cast<long long>(p.cache.hits + p.cache.validity_hits),
      static_cast<long long>(p.cache.lookups),
      static_cast<long long>(p.cache.misses_cold),
      static_cast<long long>(p.cache.misses_stale),
      static_cast<long long>(p.cache.misses_epoch),
      static_cast<long long>(p.cache.misses_validity),
      static_cast<long long>(p.cache.evictions_stale_stats),
      static_cast<long long>(p.folds));
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return FindWorkload(name) != nullptr;
}

RunResult RunWorkload(const RunOptions& options) {
  const WorkloadSpec& w = *FindWorkload(options.workload);
  RunResult result;

  // Honest conditions: no injected sleeps anywhere on the measured path.
  const bool honest = ServiceConfigFor(w).io_stall_ms == 0.0 &&
                      popdb::ParallelPolicy{}.morsel_stall_ms == 0.0;
  std::printf("conditions: io_stall_ms=%g morsel_stall_ms=%g (%s)\n",
              ServiceConfigFor(w).io_stall_ms,
              popdb::ParallelPolicy{}.morsel_stall_ms,
              honest ? "no injected sleeps" : "INJECTED SLEEPS");

  const int64_t reads = std::max<int64_t>(
      kMinSamples, std::llround(options.seconds * w.nominal_reads_per_s));
  const int64_t pass_reads = (reads + kPasses - 1) / kPasses;
  std::printf(
      "workload %s: seed %llu, scale %g, %d passes x %lld reads, %d "
      "client(s), %d worker(s), dop %d, %s\n",
      w.name, static_cast<unsigned long long>(options.seed), w.scale,
      kPasses, static_cast<long long>(pass_reads), w.clients, w.workers,
      w.dop, w.wire ? "loopback wire" : "in-process");

  Deployment d;
  SetupTimes setup;
  std::vector<PhaseObs> passes;
  std::vector<Request> first_stream;  // Replayed by the traced pass.
  TemplateTable templates;
  int64_t mismatches = 0;
  for (int k = 0; k < kPasses; ++k) {
    std::vector<Request> stream = MakeStream(w, options.seed, k, pass_reads);
    Expected expected;
    if (!ComputeExpected(w, stream, &expected, nullptr, nullptr)) return result;
    for (int rep = 0; rep < kSetUpsPerPass; ++rep) {
      Status s = SetUp(w, /*keep_profiles=*/false, &d, &setup);
      if (!s.ok()) {
        std::printf("setup failed: %s\n", s.ToString().c_str());
        return result;
      }
    }
    if (k == 0) PrintTableRows("before the stream", *d.catalog);
    PhaseObs obs = RunPhase(w, stream, expected, &d, nullptr);
    if (k == 0) PrintTableRows("after the stream", *d.catalog);
    d.Reset();
    const std::string label = "pass " + std::to_string(k);
    mismatches += PrintMismatches(label, stream, expected, obs);
    PrintPass(label, obs);
    AddTemplates(stream, obs, &templates);
    if (k == 0) first_stream = std::move(stream);
    passes.push_back(std::move(obs));
  }
  std::printf(
      "setup_s median %.4f s over %d set-ups = storage.build_catalog_s %.4f "
      "+ runtime.start_s %.4f\n",
      Median(setup.setup_s), kPasses * kSetUpsPerPass,
      Median(setup.build_catalog_s),
      Median(setup.start_s));
  // Hypervisor steal slows every timed metric of a run; printed so a moved
  // figure can be told from a host that ran slower.
  std::vector<double> steal;
  for (const PhaseObs& p : passes) steal.push_back(100.0 * p.host_steal_frac);
  std::printf("host steal during the passes: median %.1f%%, highest %.1f%% "
              "of the host's CPU time\n",
              Median(steal), *std::max_element(steal.begin(), steal.end()));
  PrintTemplates(templates);

  PhaseObs traced;
  ReplayStats rs;
  std::unique_ptr<SpanSink> spans;
  if (options.trace) {
    spans = std::make_unique<SpanSink>();
    Expected expected;
    if (!ComputeExpected(w, first_stream, &expected, &rs, spans.get())) {
      return result;
    }
    SetupTimes ignored;
    Status s = SetUp(w, /*keep_profiles=*/true, &d, &ignored);
    if (!s.ok()) {
      std::printf("setup failed: %s\n", s.ToString().c_str());
      return result;
    }
    traced = RunPhase(w, first_stream, expected, &d, spans.get());
    d.Reset();
    mismatches += PrintMismatches("traced", first_stream, expected, traced);
    PrintPass("traced", traced);
    std::printf("spans: %lld request(s) with a negative layer span\n",
                static_cast<long long>(traced.negative_spans));
  }

  int64_t ok = 0, pooled_reads = 0, pooled_writes = 0;
  for (const PhaseObs& p : passes) {
    result.attempted += Attempted(p);
    ok += OkCount(p);
    pooled_reads += static_cast<int64_t>(p.reads.size());
    pooled_writes += static_cast<int64_t>(p.writes.size());
  }
  if (options.trace) {
    result.attempted += Attempted(traced);
    ok += OkCount(traced);
  }
  result.failed = result.attempted - ok;
  result.correct = honest && result.failed == 0;
  std::printf("verification: %lld mismatches; samples: %lld reads, %lld "
              "writes over %d passes\n",
              static_cast<long long>(mismatches),
              static_cast<long long>(pooled_reads),
              static_cast<long long>(pooled_writes), kPasses);

  const std::vector<Metric> e2e = EndToEndMetrics(passes, setup);
  const std::vector<Metric> timed = TimedMetrics(passes);
  PrintMetrics("end-to-end (untraced passes):", e2e);
  PrintMetrics("timed (untraced passes; reported with the per-layer metrics):",
               timed);
  // Deterministic work totals: of all passes, and of each pass over the
  // first stream (the untraced pass, the traced pass and the in-process
  // replay must agree exactly on a one-client workload).
  double total_work = 0.0;
  for (const PhaseObs& p : passes) total_work += TotalWork(p);
  std::printf("counts: {\"work_units\": %.0f, \"first_pass_work_units\": %.0f",
              total_work, TotalWork(passes[0]));
  if (options.trace) {
    std::printf(", \"traced_work_units\": %.0f, \"replay_work_units\": %lld",
                TotalWork(traced), static_cast<long long>(rs.work));
  }
  std::printf("}\n");
  if (!options.trace) {
    result.metrics = e2e;
    return result;
  }
  std::printf("validity probe: %.3f ms over %lld optimizations\n",
              rs.validity_probe_ms, static_cast<long long>(rs.reads));
  const std::vector<Metric> layers =
      PerLayerMetrics(w, traced, ReadQps(passes[0]), setup, rs);
  PrintMetrics("per-layer (traced pass):", layers);
  result.metrics = timed;
  result.metrics.insert(result.metrics.end(), layers.begin(), layers.end());
  if (!options.trace_out.empty()) {
    FILE* f = std::fopen(options.trace_out.c_str(), "w");
    if (f != nullptr) {
      const std::string json = spans->ExportChromeTrace();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("trace: %lld spans written to %s\n",
                  static_cast<long long>(spans->event_count()),
                  options.trace_out.c_str());
    }
  }
  return result;
}

}  // namespace perfbench
