// Seeded request streams for the popdb benchmark workloads.
//
// Every stream is a fixed-count vector built from the run's seed alone, so
// two runs with one seed send byte-identical requests in the same order.
#ifndef POPDB_PERFBENCH_STREAMS_H_
#define POPDB_PERFBENCH_STREAMS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "opt/query.h"

namespace perfbench {

/// One request of a workload stream: SQL text with '?' markers and their
/// bindings, or (DMV reads) a prebuilt QuerySpec.
struct Request {
  bool is_write = false;
  std::string name;  ///< Template name ("tpch_q3", "new_order.lineitem").
  std::string sql;   ///< Empty when `spec` is set.
  std::vector<popdb::Value> params;
  std::shared_ptr<const popdb::QuerySpec> spec;
};

/// Key ranges of a generated TPC-H database (tpch::RowsAtScale contract):
/// keys of each table run from 0 to rows - 1.
struct TpchShape {
  int64_t orders = 0;
  int64_t customers = 0;
  int64_t parts = 0;
  int64_t suppliers = 0;
};
TpchShape TpchShapeAtScale(double scale);

/// `count` reads of the ten paper queries (Q2, Q3, Q4, Q5, Q7, Q8, Q9,
/// Q10, Q11, Q18) as SQL text; each query's headline predicate is one '?'
/// marker bound per request from the seed.
std::vector<Request> TpchReadStream(uint64_t seed, int64_t count);

/// `reads` paper-query reads, each followed by one DML operation from the
/// cycle new order (orders + lineitem INSERTs), quantity UPDATE, and delete
/// of the oldest live order (lineitem + orders DELETEs). Inserts and
/// deletes alternate, so table sizes stay level however long it runs.
std::vector<Request> TpchMixedStream(uint64_t seed, int64_t reads,
                                     const TpchShape& shape);

/// Pass `pass` of `passes`: `count` fresh ad-hoc DMV queries, no two
/// alike. The run's queries are the first `passes` x `count` that
/// dmv::MakeWorkload generates from its fixed seed (equally many of each
/// join width from 3 to 8 tables, DEALER joined at most once); `seed`
/// shuffles them and deals them to the passes. Seeds thus change the order
/// of the ad-hoc queries, not their mix, as TpchReadStream's decks do.
std::vector<Request> DmvStream(uint64_t seed, int pass, int passes,
                               int64_t count);

}  // namespace perfbench

#endif  // POPDB_PERFBENCH_STREAMS_H_
