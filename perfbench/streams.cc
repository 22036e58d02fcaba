#include "streams.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "dmv/dmv_queries.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

using popdb::Rng;
using popdb::Value;

namespace {

/// Independent generator per stream kind, so e.g. the mixed stream's reads
/// are not a prefix of the serve stream for the same seed.
Rng StreamRng(uint64_t seed, uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + salt);
}

const char* const kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                 "MIDDLE EAST"};
const char* const kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",         "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",          "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",         "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",          "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "HOUSEHOLD", "MACHINERY"};
const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECIFIED", "5-LOW"};
const char* const kShipModes[7] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR",
                                   "SHIP", "TRUCK"};
const char* const kReturnFlags[3] = {"A", "N", "R"};
const char* const kType1[6] = {"STANDARD", "SMALL", "MEDIUM",
                               "LARGE", "ECONOMY", "PROMO"};
const char* const kType2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                               "BRUSHED"};
const char* const kType3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};

/// The paper queries of tpch::MakeQuery as SQL, headline predicate as '?'.
struct Template {
  const char* name;
  const char* sql;
};
const Template kTemplates[10] = {
    {"tpch_q2",
     "SELECT p_brand, MIN(ps_supplycost) FROM part, partsupp, supplier, "
     "nation, region WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey "
     "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
     "AND p_size = ? AND p_type LIKE '%BRASS' AND r_name = 'EUROPE' "
     "GROUP BY p_brand"},
    {"tpch_q3",
     "SELECT o_shippriority, SUM(l_extendedprice) FROM customer, orders, "
     "lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
     "AND c_mktsegment = ? AND o_orderdate < 1100 AND l_shipdate > 1100 "
     "GROUP BY o_shippriority"},
    {"tpch_q4",
     "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem "
     "WHERE o_orderkey = l_orderkey AND o_orderdate >= 800 "
     "AND o_orderdate < ? AND l_late = 1 GROUP BY o_orderpriority"},
    {"tpch_q5",
     "SELECT n_name, SUM(l_extendedprice) FROM customer, orders, lineitem, "
     "supplier, nation, region WHERE c_custkey = o_custkey "
     "AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey "
     "AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey "
     "AND n_regionkey = r_regionkey AND r_name = ? "
     "AND o_orderdate BETWEEN 365 AND 729 GROUP BY n_name"},
    {"tpch_q7",
     "SELECT n1.n_name, n2.n_name, SUM(l_extendedprice) FROM supplier, "
     "lineitem, orders, customer, nation n1, nation n2 "
     "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
     "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
     "AND c_nationkey = n2.n_nationkey AND n1.n_name = ? "
     "AND n2.n_name = 'GERMANY' AND l_shipdate BETWEEN 365 AND 1094 "
     "GROUP BY n1.n_name, n2.n_name"},
    {"tpch_q8",
     "SELECT o_orderyear, SUM(l_extendedprice) FROM part, lineitem, "
     "supplier, orders, customer, nation n1, region, nation n2 "
     "WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey "
     "AND l_orderkey = o_orderkey AND o_custkey = c_custkey "
     "AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey "
     "AND s_nationkey = n2.n_nationkey AND r_name = 'AMERICA' "
     "AND p_type = ? AND o_orderdate BETWEEN 1095 AND 1824 "
     "GROUP BY o_orderyear"},
    {"tpch_q9",
     "SELECT n_name, o_orderyear, SUM(l_extendedprice) FROM part, supplier, "
     "lineitem, partsupp, orders, nation WHERE s_suppkey = l_suppkey "
     "AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey "
     "AND p_partkey = l_partkey AND o_orderkey = l_orderkey "
     "AND s_nationkey = n_nationkey AND p_type LIKE ? "
     "GROUP BY n_name, o_orderyear"},
    {"tpch_q10",
     "SELECT c_name, SUM(l_extendedprice) FROM customer, orders, lineitem, "
     "nation WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
     "AND c_nationkey = n_nationkey AND l_returnflag = ? "
     "AND o_orderdate BETWEEN 732 AND 822 GROUP BY c_name"},
    {"tpch_q11",
     "SELECT ps_partkey, SUM(ps_supplycost) FROM partsupp, supplier, nation "
     "WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey "
     "AND n_name = ? GROUP BY ps_partkey"},
    {"tpch_q18",
     "SELECT c_name, SUM(l_quantity) FROM customer, orders, lineitem "
     "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
     "AND l_quantity > ? GROUP BY c_name"},
};

/// A binding for template `t`'s headline marker, drawn from the domain the
/// generator fills (so every binding selects rows).
Value HeadlineParam(int t, Rng* rng) {
  switch (t) {
    case 0:
      return Value::Int(rng->UniformInt(1, 50));
    case 1:
      return Value::String(kSegments[rng->UniformInt(0, 4)]);
    case 2:
      return Value::Int(rng->UniformInt(830, 1000));
    case 3:
      return Value::String(kRegions[rng->UniformInt(0, 4)]);
    case 4:
    case 8:
      return Value::String(kNations[rng->UniformInt(0, 24)]);
    case 5:
      return Value::String(popdb::StrFormat(
          "%s %s %s", kType1[rng->UniformInt(0, 5)],
          kType2[rng->UniformInt(0, 4)], kType3[rng->UniformInt(0, 4)]));
    case 6:
      return Value::String(
          popdb::StrFormat("%%%s%%", kType3[rng->UniformInt(0, 4)]));
    case 7:
      return Value::String(kReturnFlags[rng->UniformInt(0, 2)]);
    default:
      return Value::Int(rng->UniformInt(30, 49));
  }
}

/// Template order: shuffled decks of all ten templates, so every stream
/// holds each template equally often (±1) and the seed varies only the
/// order and the bindings, not the mix.
class TemplateDeck {
 public:
  int Next(Rng* rng) {
    if (pos_ == 10) {
      for (int i = 9; i > 0; --i) {
        std::swap(deck_[i], deck_[rng->UniformInt(0, i)]);
      }
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  int deck_[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  int pos_ = 10;
};

Request TpchRead(TemplateDeck* deck, Rng* rng) {
  const int t = deck->Next(rng);
  Request r;
  r.name = kTemplates[t].name;
  r.sql = kTemplates[t].sql;
  r.params.push_back(HeadlineParam(t, rng));
  return r;
}

Request Write(std::string name, std::string sql, std::vector<Value> params) {
  Request r;
  r.is_write = true;
  r.name = std::move(name);
  r.sql = std::move(sql);
  r.params = std::move(params);
  return r;
}

/// Appends one new order: the ORDERS row, then its 1-7 LINEITEM rows in one
/// multi-row INSERT.
void AppendNewOrder(int64_t key, const TpchShape& shape, Rng* rng,
                    std::vector<Request>* out) {
  const int64_t date = rng->UniformInt(popdb::tpch::kMinDate,
                                       popdb::tpch::kMaxDate - 1);
  out->push_back(Write(
      "new_order.orders", "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?)",
      {Value::Int(key), Value::Int(rng->UniformInt(0, shape.customers - 1)),
       Value::Int(date), Value::Int(1992 + date / 365),
       Value::String(kPriorities[rng->UniformInt(0, 4)]),
       Value::Int(rng->UniformInt(0, 1)),
       Value::Double(rng->UniformDouble() * 500000)}));
  const int64_t lines = rng->UniformInt(1, 7);
  std::string sql = "INSERT INTO lineitem VALUES ";
  std::vector<Value> params;
  for (int64_t i = 0; i < lines; ++i) {
    if (i > 0) sql += ", ";
    sql += "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    params.push_back(Value::Int(key));
    params.push_back(Value::Int(rng->UniformInt(0, shape.parts - 1)));
    params.push_back(Value::Int(rng->UniformInt(0, shape.suppliers - 1)));
    params.push_back(Value::Int(rng->UniformInt(1, 50)));
    params.push_back(Value::Double(rng->UniformDouble() * 100000));
    params.push_back(Value::Double(rng->UniformInt(0, 10) / 100.0));
    params.push_back(Value::String(kReturnFlags[rng->UniformInt(0, 2)]));
    params.push_back(Value::Int(
        rng->UniformInt(popdb::tpch::kMinDate, popdb::tpch::kMaxDate - 1)));
    params.push_back(Value::String(kShipModes[rng->UniformInt(0, 6)]));
    params.push_back(Value::Int(rng->Bernoulli(0.3) ? 1 : 0));
    params.push_back(Value::Int(rng->UniformInt(0, 99)));
  }
  out->push_back(Write("new_order.lineitem", std::move(sql),
                       std::move(params)));
}

/// The DML cycle of an order-entry client: new order, quantity update,
/// delete of the oldest live order.
class TpchWriter {
 public:
  explicit TpchWriter(const TpchShape& shape)
      : shape_(shape), next_new_(shape.orders) {}

  /// Appends the next operation's statements (one or two).
  void AppendOp(Rng* rng, std::vector<Request>* out) {
    switch (ops_++ % 3) {
      case 0:
        AppendNewOrder(next_new_++, shape_, rng, out);
        break;
      case 1: {
        int64_t delta = rng->UniformInt(1, 3);
        if (rng->Bernoulli(0.5)) delta = -delta;
        out->push_back(Write(
            "update.lineitem",
            "UPDATE lineitem SET l_quantity = l_quantity + ? "
            "WHERE l_orderkey = ?",
            {Value::Int(delta),
             Value::Int(rng->UniformInt(oldest_, next_new_ - 1))}));
        break;
      }
      default:
        out->push_back(Write("delete_oldest.lineitem",
                             "DELETE FROM lineitem WHERE l_orderkey = ?",
                             {Value::Int(oldest_)}));
        out->push_back(Write("delete_oldest.orders",
                             "DELETE FROM orders WHERE o_orderkey = ?",
                             {Value::Int(oldest_)}));
        ++oldest_;
        break;
    }
  }

 private:
  const TpchShape shape_;
  int64_t next_new_;     ///< Keys above the generated range.
  int64_t oldest_ = 0;   ///< Lowest live order key.
  int64_t ops_ = 0;
};

}  // namespace

TpchShape TpchShapeAtScale(double scale) {
  TpchShape s;
  s.orders = popdb::tpch::RowsAtScale("orders", scale);
  s.customers = popdb::tpch::RowsAtScale("customer", scale);
  s.parts = popdb::tpch::RowsAtScale("part", scale);
  s.suppliers = popdb::tpch::RowsAtScale("supplier", scale);
  return s;
}

std::vector<Request> TpchReadStream(uint64_t seed, int64_t count) {
  Rng rng = StreamRng(seed, 1);
  TemplateDeck deck;
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) out.push_back(TpchRead(&deck, &rng));
  return out;
}

std::vector<Request> TpchMixedStream(uint64_t seed, int64_t reads,
                                     const TpchShape& shape) {
  Rng rng = StreamRng(seed, 2);
  TemplateDeck deck;
  TpchWriter writer(shape);
  std::vector<Request> out;
  for (int64_t i = 0; i < reads; ++i) {
    out.push_back(TpchRead(&deck, &rng));
    writer.AppendOp(&rng, &out);
  }
  return out;
}

std::vector<Request> DmvStream(uint64_t seed, int pass, int passes,
                               int64_t count) {
  // Latency grows steeply with join width, so widths are dealt from
  // shuffled decks (as TemplateDeck does for TPC-H): every width from 3 to
  // 8 tables is equally frequent in every pass.
  constexpr int kMinTables = 3, kWidths = 6;
  const int64_t total = count * passes;
  popdb::dmv::WorkloadConfig config;  // The generator's fixed seed.
  std::vector<popdb::QuerySpec> pool[kWidths];
  const size_t quota = static_cast<size_t>(total / kWidths + 1);
  // The generator's query sequence depends only on its seed, so a longer
  // run extends the same sequence; grow it until every width has enough.
  for (int n = static_cast<int>(4 * total + 64);; n *= 2) {
    for (std::vector<popdb::QuerySpec>& p : pool) p.clear();
    config.num_queries = n;
    for (popdb::QuerySpec& q : popdb::dmv::MakeWorkload(config)) {
      // DEALER joins CAR on MAKE, many-to-many (six dealers per make), so
      // every repeated instance multiplies the join by six: four instances
      // reach 10^8+ intermediate rows and more than 16 GB. Ad-hoc queries
      // here join it at most once.
      const auto& tables = q.tables();
      if (std::count(tables.begin(), tables.end(), "dealer") > 1) continue;
      const int width = q.num_tables() - kMinTables;
      if (width >= 0 && width < kWidths && pool[width].size() < quota) {
        pool[width].push_back(std::move(q));
      }
    }
    bool full = true;
    for (const std::vector<popdb::QuerySpec>& p : pool) {
      full = full && p.size() == quota;
    }
    if (full) break;
  }
  Rng rng = StreamRng(seed, 3);
  for (std::vector<popdb::QuerySpec>& p : pool) {
    for (size_t i = p.size() - 1; i > 0; --i) {
      std::swap(p[i], p[rng.UniformInt(0, static_cast<int64_t>(i))]);
    }
  }
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(count));
  size_t next[kWidths] = {};
  int deck[kWidths] = {0, 1, 2, 3, 4, 5};
  for (int64_t i = 0; i < (pass + 1) * count; ++i) {
    if (i % kWidths == 0) {
      for (int j = kWidths - 1; j > 0; --j) {
        std::swap(deck[j], deck[rng.UniformInt(0, j)]);
      }
    }
    const int width = deck[i % kWidths];
    popdb::QuerySpec& q = pool[width][next[width]++];
    if (i < pass * count) continue;  // Dealt to an earlier pass.
    Request r;
    r.name = q.name();
    r.spec = std::make_shared<const popdb::QuerySpec>(std::move(q));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
