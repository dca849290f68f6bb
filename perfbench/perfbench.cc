// perfbench: one benchmark command for the engine, end to end and per layer.
//
//   perfbench --workload <tpch|join_wide> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// The command builds the workload's tables from the seed, runs a fixed list
// of queries through the public engine API (TpchQuery::run, ExecuteQuery)
// on a pool of two workers pinned to two CPUs, and checks every output
// against a reference the benchmark computes on its own. Each measured
// round runs one pass of the whole query list under every join strategy
// (kAuto, BHJ, RJ, BRJ), rotating which strategy goes first, so a slow phase
// of the host hits all of them alike. Rounds repeat until --seconds have
// elapsed; a round is never cut.
//
// --trace 0 prints the end-to-end metrics: set-up time, the median pass
// time per strategy and the peak resident memory. --trace 1 alternates
// untraced and traced rounds and prints the per-layer metrics: spans the
// benchmark records around each call into a layer, the counters the engine
// reports (QueryStats, QueryMetrics), getrusage deltas per pass and the
// dispatched SIMD kernels timed on fixed batches. It also writes the spans
// and each query's QueryMetrics::ToJson to <out>/<workload>-seed<n>.trace.json
// and checks that spans nest, that QueryStats::seconds never exceeds the
// client wall time of a query, and that the Fig 10 phase times sum to at most
// QueryStats::seconds.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// PERFBENCH_WRONG_EXPECTED=1 perturbs every expected value, which must make
// every query report as failed (a check of the checks).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/balkesen.h"
#include "bench_util/workloads.h"
#include "engine/executor.h"
#include "exec/batch.h"
#include "exec/thread_pool.h"
#include "filter/blocked_bloom.h"
#include "kernels/kernels.h"
#include "rewrite/rewrite.h"
#include "stats/stats_catalog.h"
#include "storage/encoded_segment.h"
#include "tpch/gen.h"
#include "tpch/queries.h"
#include "trace.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

using namespace pjoin;

// Fixed worker count of two, capped at half the host's CPUs, so the
// benchmark leaves room for the rest of the machine.
int WorkerThreads() {
  const int half = static_cast<int>(std::thread::hardware_concurrency()) / 2;
  return std::clamp(half, 1, 2);
}
const int kThreads = WorkerThreads();

// Confines the process to the first kThreads CPUs it may run on; threads
// created afterwards (the pool's workers) inherit the mask. Every run then
// places its workers alike, so runs differ in the host's load and not in
// where the scheduler happened to put the two workers.
void PinWorkers() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && n < kThreads; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++n;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

constexpr JoinStrategy kStrategies[] = {JoinStrategy::kAuto, JoinStrategy::kBHJ,
                                        JoinStrategy::kRJ, JoinStrategy::kBRJ};
constexpr const char* kStrategyKeys[] = {"auto", "bhj", "rj", "brj"};
constexpr int kNumStrategies = 4;

// TPC-H scale factor of the `tpch` workload.
constexpr double kTpchScale = 0.05;
// Divisor applied to the paper's prior-work sizes (Table 1) for the join
// tables: workload A becomes 256 Ki x 4 Mi tuples, workload B 2 M x 2 M.
constexpr int64_t kMicroDivisor = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = "perfbench/out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double ctx_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- workloads -------------------------------------------------------------

// One query of a workload. `run` executes it through the public engine API;
// `check` compares its output with the benchmark's own reference.
struct QueryCase {
  std::string name;
  std::function<QueryResult(const ExecOptions&, QueryStats*)> run;
  std::function<bool(const QueryResult&)> check;
};

struct Bench {
  std::vector<QueryCase> queries;
  std::vector<const Table*> tables;  // base tables, for the catalog builds
  // Plans handed to RewritePlan in the traced run.
  std::vector<const PlanNode*> rewrite_plans;
  // Owned inputs.
  std::unique_ptr<TpchDb> db;
  std::vector<std::unique_ptr<MicroWorkload>> micro;
  std::vector<std::unique_ptr<PlanNode>> plans;
  std::vector<QueryResult> references;
  // Outcome of the checks made before the measured rounds.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

bool WrongExpected() {
  const char* v = std::getenv("PERFBENCH_WRONG_EXPECTED");
  return v != nullptr && std::string(v) == "1";
}

// Dense shuffled key column 1..n, the prior-work build-side layout.
std::vector<int64_t> DensePermutation(uint64_t n, Rng& rng) {
  std::vector<int64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i + 1);
  for (uint64_t i = n; i > 1; --i) std::swap(keys[i - 1], keys[rng.Below(i)]);
  return keys;
}

// The bench_util shapes (bench_util/workloads.h), generated from the
// benchmark's seed: bench_util's own generators fix their seeds.
std::unique_ptr<MicroWorkload> MakeA(Rng& rng) {
  auto w = std::make_unique<MicroWorkload>();
  w->build_tuples = (16ull << 20) / kMicroDivisor;
  w->probe_tuples = (256ull << 20) / kMicroDivisor;
  w->build = Table("a_build", Schema({{"b_key", DataType::kInt64, 0},
                                      {"b_pay", DataType::kInt64, 0}}));
  w->build.Reserve(w->build_tuples);
  for (int64_t key : DensePermutation(w->build_tuples, rng)) {
    w->build.column(0).AppendInt64(key);
    w->build.column(1).AppendInt64(key);
    w->build.FinishRow();
  }
  w->probe = Table("a_probe", Schema({{"p_key", DataType::kInt64, 0},
                                      {"p_pay", DataType::kInt64, 0}}));
  w->probe.Reserve(w->probe_tuples);
  for (uint64_t i = 0; i < w->probe_tuples; ++i) {
    w->probe.column(0).AppendInt64(
        static_cast<int64_t>(1 + rng.Below(w->build_tuples)));
    w->probe.column(1).AppendInt64(static_cast<int64_t>(i));
    w->probe.FinishRow();
  }
  return w;
}

std::unique_ptr<MicroWorkload> MakeB(Rng& rng) {
  auto w = std::make_unique<MicroWorkload>();
  w->build_tuples = 128'000'000 / kMicroDivisor;
  w->probe_tuples = w->build_tuples;
  w->build = Table("b_build", Schema({{"b_key", DataType::kInt32, 0},
                                      {"b_pay", DataType::kInt32, 0}}));
  w->build.Reserve(w->build_tuples);
  for (int64_t key : DensePermutation(w->build_tuples, rng)) {
    w->build.column(0).AppendInt32(static_cast<int32_t>(key));
    w->build.column(1).AppendInt32(static_cast<int32_t>(key));
    w->build.FinishRow();
  }
  w->probe = Table("b_probe", Schema({{"p_key", DataType::kInt32, 0},
                                      {"p_pay", DataType::kInt32, 0}}));
  w->probe.Reserve(w->probe_tuples);
  for (uint64_t i = 0; i < w->probe_tuples; ++i) {
    w->probe.column(0).AppendInt32(
        static_cast<int32_t>(1 + rng.Below(w->build_tuples)));
    w->probe.column(1).AppendInt32(static_cast<int32_t>(i));
    w->probe.FinishRow();
  }
  return w;
}

// Section 5.4.1/5.4.2: workload A's build side, a probe side of 64 B tuples
// (key + 7 payload columns) of which about 10% find a join partner.
constexpr int kWidePayloads = 7;

std::unique_ptr<MicroWorkload> MakeWide(Rng& rng) {
  auto w = std::make_unique<MicroWorkload>();
  w->build_tuples = (16ull << 20) / kMicroDivisor;
  w->probe_tuples = (64ull << 20) / kMicroDivisor;
  w->build = Table("w_build", Schema({{"b_key", DataType::kInt64, 0},
                                      {"b_pay", DataType::kInt64, 0}}));
  w->build.Reserve(w->build_tuples);
  for (int64_t key : DensePermutation(w->build_tuples, rng)) {
    w->build.column(0).AppendInt64(key);
    w->build.column(1).AppendInt64(key);
    w->build.FinishRow();
  }
  std::vector<ColumnDef> cols = {{"p_key", DataType::kInt64, 0}};
  for (int c = 1; c <= kWidePayloads; ++c) {
    cols.push_back({"p_pay" + std::to_string(c), DataType::kInt64, 0});
  }
  w->probe = Table("w_probe", Schema(cols));
  w->probe.Reserve(w->probe_tuples);
  for (uint64_t i = 0; i < w->probe_tuples; ++i) {
    int64_t key = static_cast<int64_t>(1 + rng.Below(w->build_tuples));
    if (rng.Below(10) != 0) key += static_cast<int64_t>(w->build_tuples);
    w->probe.column(0).AppendInt64(key);
    for (int c = 1; c <= kWidePayloads; ++c) {
      // 24-bit payloads keep every sum exact in int64.
      w->probe.column(c).AppendInt64(static_cast<int64_t>(rng.Next() >> 40));
    }
    w->probe.FinishRow();
  }
  return w;
}

// Build-side skew (Section 5.4.5 and the skew-defense study): build keys
// drawn Zipf(0.75) from a universe of build_tuples / 4 values, probe keys
// uniform over the same universe. At Zipf(1.0) the radix joins' time is set
// by whichever worker draws the hottest partition and moved by up to 40%
// between runs, too much for a gated figure.
constexpr double kSkewTheta = 0.75;
std::unique_ptr<MicroWorkload> MakeSkew(Rng& rng) {
  auto w = std::make_unique<MicroWorkload>();
  w->build_tuples = (16ull << 20) / kMicroDivisor;
  w->probe_tuples = (64ull << 20) / kMicroDivisor;
  const uint64_t universe = w->build_tuples / 4;
  w->build = Table("s_build", Schema({{"b_key", DataType::kInt64, 0},
                                      {"b_pay", DataType::kInt64, 0}}));
  w->build.Reserve(w->build_tuples);
  ZipfGenerator zipf(universe, kSkewTheta);
  for (uint64_t i = 0; i < w->build_tuples; ++i) {
    const int64_t key = static_cast<int64_t>(zipf.Next(rng));
    w->build.column(0).AppendInt64(key);
    w->build.column(1).AppendInt64(key);
    w->build.FinishRow();
  }
  w->probe = Table("s_probe", Schema({{"p_key", DataType::kInt64, 0},
                                      {"p_pay", DataType::kInt64, 0}}));
  w->probe.Reserve(w->probe_tuples);
  for (uint64_t i = 0; i < w->probe_tuples; ++i) {
    w->probe.column(0).AppendInt64(
        static_cast<int64_t>(1 + rng.Below(universe)));
    w->probe.column(1).AppendInt64(static_cast<int64_t>(i));
    w->probe.FinishRow();
  }
  return w;
}

int64_t KeyAt(const Column& col, uint64_t row) {
  return col.type() == DataType::kInt64 ? col.GetInt64(row) : col.GetInt32(row);
}

// Independent reference for a join over a micro workload: result row of
// count(*) (when `count`) followed by the sums of the probe columns in
// `sum_cols`, computed with a plain hash map of build-key multiplicities.
std::vector<int64_t> ExpectedJoinRow(const MicroWorkload& w, bool count,
                                     const std::vector<int>& sum_cols) {
  std::unordered_map<int64_t, int64_t> mult;
  mult.reserve(w.build.num_rows());
  const Column& bkey = w.build.column(0);
  for (uint64_t r = 0; r < w.build.num_rows(); ++r) ++mult[KeyAt(bkey, r)];
  int64_t matches = 0;
  std::vector<int64_t> sums(sum_cols.size(), 0);
  const Column& pkey = w.probe.column(0);
  for (uint64_t r = 0; r < w.probe.num_rows(); ++r) {
    auto it = mult.find(KeyAt(pkey, r));
    if (it == mult.end()) continue;
    matches += it->second;
    for (size_t c = 0; c < sum_cols.size(); ++c) {
      sums[c] += it->second * KeyAt(w.probe.column(sum_cols[c]), r);
    }
  }
  std::vector<int64_t> row;
  if (count) row.push_back(matches);
  row.insert(row.end(), sums.begin(), sums.end());
  return row;
}

bool RowEquals(const QueryResult& result, const std::vector<int64_t>& want) {
  if (result.rows.size() != 1 || result.rows[0].size() != want.size()) {
    return false;
  }
  for (size_t c = 0; c < want.size(); ++c) {
    const Value& v = result.rows[0][c];
    if (!std::holds_alternative<int64_t>(v) ||
        std::get<int64_t>(v) != want[c]) {
      return false;
    }
  }
  return true;
}

// Adds a micro-workload query whose output must equal `want`.
void AddJoinQuery(Bench& bench, const std::string& name,
                  std::unique_ptr<PlanNode> plan, std::vector<int64_t> want,
                  ThreadPool* pool) {
  if (WrongExpected()) want[0] += 1;
  const PlanNode* p = plan.get();
  bench.rewrite_plans.push_back(p);
  bench.plans.push_back(std::move(plan));
  bench.queries.push_back(
      {name,
       [p, pool](const ExecOptions& o, QueryStats* s) {
         return ExecuteQuery(*p, o, s, pool);
       },
       [want](const QueryResult& r) { return RowEquals(r, want); }});
}

void GenerateJoinWide(Bench& bench, uint64_t seed) {
  Rng rng(seed);
  bench.micro.push_back(MakeWide(rng));
  bench.micro.push_back(MakeSkew(rng));
}

void PrepareJoinWide(Bench& bench, ThreadPool* pool) {
  const MicroWorkload& wide = *bench.micro[0];
  const MicroWorkload& skew = *bench.micro[1];
  std::vector<int> pay_cols;
  for (int c = 1; c <= kWidePayloads; ++c) pay_cols.push_back(c);
  AddJoinQuery(bench, "wide_sum", SumAllPayloadsPlan(wide),
               ExpectedJoinRow(wide, false, pay_cols), pool);
  auto skew_plan =
      Aggregate(Join(ScanTable(&skew.build), ScanTable(&skew.probe),
                     {{"b_key", "p_key"}}),
                {},
                {AggDef::CountStar("matches"), AggDef::Sum("p_pay", "total")});
  AddJoinQuery(bench, "skew_count_sum", std::move(skew_plan),
               ExpectedJoinRow(skew, true, {1}), pool);
}

// Q18 recomputed with plain loops over the generated columns.
QueryResult ExpectedQ18(const TpchDb& db) {
  std::unordered_map<int64_t, double> qty;
  const Column& l_orderkey = db.lineitem.column("l_orderkey");
  const Column& l_quantity = db.lineitem.column("l_quantity");
  for (uint64_t r = 0; r < db.lineitem.num_rows(); ++r) {
    qty[l_orderkey.GetInt64(r)] += l_quantity.GetFloat64(r);
  }
  std::unordered_map<int64_t, std::string> names;
  const Column& c_custkey = db.customer.column("c_custkey");
  const Column& c_name = db.customer.column("c_name");
  for (uint64_t r = 0; r < db.customer.num_rows(); ++r) {
    std::string name = c_name.GetString(r);
    while (!name.empty() && name.back() == ' ') name.pop_back();
    names[c_custkey.GetInt64(r)] = std::move(name);
  }
  QueryResult want;
  want.column_names = {"c_name", "o_orderkey", "o_totalprice", "bo_qty", "qty"};
  const Column& o_orderkey = db.orders.column("o_orderkey");
  const Column& o_custkey = db.orders.column("o_custkey");
  const Column& o_totalprice = db.orders.column("o_totalprice");
  for (uint64_t r = 0; r < db.orders.num_rows(); ++r) {
    auto it = qty.find(o_orderkey.GetInt64(r));
    if (it == qty.end() || it->second <= 240.0) continue;
    auto name = names.find(o_custkey.GetInt64(r));
    if (name == names.end()) continue;
    want.rows.push_back({name->second, o_orderkey.GetInt64(r),
                         o_totalprice.GetFloat64(r), it->second, it->second});
  }
  std::sort(want.rows.begin(), want.rows.end());
  return want;
}

// Q18's own property: every row's qty equals its bo_qty, which exceeds 240.
bool Q18PropertyHolds(const QueryResult& r) {
  if (r.rows.empty()) return false;
  for (const auto& row : r.rows) {
    if (row.size() != 5 || !std::holds_alternative<double>(row[3]) ||
        !std::holds_alternative<double>(row[4])) {
      return false;
    }
    const double bo_qty = std::get<double>(row[3]);
    const double q = std::get<double>(row[4]);
    if (!(bo_qty > 240.0) || std::fabs(q - bo_qty) > 1e-9 * bo_qty) {
      return false;
    }
  }
  return true;
}

ExecOptions Options(JoinStrategy strategy) {
  ExecOptions o;
  o.join_strategy = strategy;
  o.num_threads = kThreads;
  return o;
}

// Runs every query under BHJ and RJ: the BHJ result becomes the reference
// the measured rounds compare against, RJ must agree with it, and Q18 must
// match its plain-loop recomputation.
void PrepareTpch(Bench& bench, ThreadPool* pool) {
  const TpchDb& db = *bench.db;
  bench.references.reserve(TpchQueries().size());
  for (const TpchQuery& q : TpchQueries()) {
    QueryStats stats;
    QueryResult bhj = q.run(db, Options(JoinStrategy::kBHJ), &stats, pool);
    QueryResult rj = q.run(db, Options(JoinStrategy::kRJ), &stats, pool);
    bench.attempted += 2;
    if (!rj.ApproxEquals(bhj)) bench.failed += 1;
    if (q.id == 18) {
      QueryResult want = ExpectedQ18(db);
      if (WrongExpected()) want.rows.push_back(want.rows.back());
      if (!bhj.ApproxEquals(want) || !Q18PropertyHolds(bhj)) bench.failed += 1;
    }
    if (WrongExpected()) bhj.rows.push_back(bhj.rows.empty()
                                                ? std::vector<Value>{}
                                                : bhj.rows.back());
    bench.references.push_back(std::move(bhj));
  }
  for (size_t i = 0; i < TpchQueries().size(); ++i) {
    const TpchQuery& q = TpchQueries()[i];
    const QueryResult* ref = &bench.references[i];
    bench.queries.push_back(
        {"Q" + std::to_string(q.id),
         [&q, &db, pool](const ExecOptions& o, QueryStats* s) {
           return q.run(db, o, s, pool);
         },
         [ref](const QueryResult& r) { return r.ApproxEquals(*ref); }});
  }
  // A three-relation join region for the rewrite pass (DP reordering).
  bench.plans.push_back(Aggregate(
      Join(Join(ScanTable(&db.customer), ScanTable(&db.orders),
                {{"c_custkey", "o_custkey"}}),
           ScanTable(&db.lineitem), {{"o_orderkey", "l_orderkey"}}),
      {}, {AggDef::CountStar("n")}));
  bench.rewrite_plans.push_back(bench.plans.back().get());
}

// --- per-layer collection ---------------------------------------------------

using Layer = std::map<std::string, double>;

constexpr const char* kPhaseKeys[] = {"build", "pass1", "histogram",
                                      "pass2", "join",  "probe"};

bool IsBuildSink(const std::string& op) {
  return op == "hash_join_build" || op == "radix_build" || op == "auto_build";
}
bool IsProbeSink(const std::string& op) {
  return op == "radix_probe" || op == "auto_probe";
}

// Folds one traced query execution into the round's per-layer totals.
void CollectQuery(const QueryStats& stats, double wall, Layer& layer) {
  layer["engine.exec_s"] += stats.seconds;
  layer["engine.outside_exec_s"] += wall - stats.seconds;
  for (int p = 0; p < static_cast<int>(JoinPhase::kNumPhases); ++p) {
    const JoinPhase phase = static_cast<JoinPhase>(p);
    const std::string key = std::string("join.phase.") + kPhaseKeys[p];
    layer[key + "_s"] += stats.phase_timer.seconds(phase);
    const PhaseBytes& bytes = stats.bytes.phase(phase);
    layer[key + "_bytes"] += static_cast<double>(bytes.read + bytes.written);
  }
  const QueryMetrics& m = stats.metrics;
  // Pipeline CPU grouped by the pipeline's sink (its last operator).
  std::map<int, std::string> sink;
  for (const OperatorMetrics& op : m.operators()) {
    sink[op.pipeline_index()] = op.name();
  }
  int index = 0;
  double busy = 0, capacity = 0, max_busy = 0, mean_busy = 0;
  for (const PipelineMetrics& p : m.pipelines()) {
    const std::string& s = sink[index++];
    const double cpu = p.cpu_seconds();
    if (s == "hash_agg") layer["engine.agg_cpu_s"] += cpu;
    if (IsBuildSink(s)) layer["join.build_cpu_s"] += cpu;
    if (IsProbeSink(s)) layer["join.probe_cpu_s"] += cpu;
    busy += cpu;
    capacity += p.wall_seconds * static_cast<double>(p.worker_seconds.size());
    if (!p.worker_seconds.empty()) {
      max_busy += *std::max_element(p.worker_seconds.begin(),
                                    p.worker_seconds.end());
      mean_busy += cpu / static_cast<double>(p.worker_seconds.size());
    }
  }
  layer["exec.busy_seconds"] += busy;
  layer["exec.capacity_seconds"] += capacity;
  layer["exec.max_busy_seconds"] += max_busy;
  layer["exec.mean_busy_seconds"] += mean_busy;
  for (const JoinMetrics& j : m.joins()) {
    if (j.has_hash_table) {
      layer["hash_table.max_chain"] =
          std::max(layer["hash_table.max_chain"],
                   static_cast<double>(j.hash_table.max_chain));
      layer["hash_table.directory_bytes"] +=
          static_cast<double>(j.hash_table.directory_bytes);
    }
    if (j.has_partitions) {
      for (const PartitionerMetrics* side : {&j.build_side, &j.probe_side}) {
        layer["partition.output_bytes"] +=
            static_cast<double>(side->output_bytes);
        if (side->tuples > 0 && side->num_partitions > 1) {
          layer["partition.max_partition_share"] = std::max(
              layer["partition.max_partition_share"],
              static_cast<double>(side->max_partition_tuples) / side->tuples);
        }
      }
    }
    layer["filter.bloom_probes"] += static_cast<double>(j.bloom.probes);
    layer["filter.bloom_passes"] +=
        static_cast<double>(j.bloom.probes - j.bloom.negatives);
    layer["engine.skew_bypass_tuples"] += static_cast<double>(
        j.skew.bypass_build_tuples + j.skew.bypass_probe_tuples);
    if (j.advisor.present) {
      const JoinStrategy c = j.advisor.choice;
      const char* key = c == JoinStrategy::kBHJ ? "advisor.picked.bhj"
                        : c == JoinStrategy::kRJ ? "advisor.picked.rj"
                                                 : "advisor.picked.brj";
      layer[key] += 1;
      if (j.advisor.quality &&
          (EstimateQError(j.advisor.est_build_tuples, j.build_tuples) >=
               kMispredictQError ||
           EstimateQError(j.advisor.est_probe_tuples, j.probe_tuples) >=
               kMispredictQError)) {
        layer["advisor.mispredicts"] += 1;
      }
    }
  }
  if (m.encoding_present()) {
    layer["storage.scan_read_bytes"] +=
        static_cast<double>(m.encoding_scan_read_bytes());
    layer["storage.scan_plain_bytes"] +=
        static_cast<double>(m.encoding_plain_read_bytes());
  }
}

// ns per tuple of each dispatched kernel on fixed, cache-resident batches.
void MeasureKernels(Tracer& tracer, Layer& layer) {
  Scope scope(tracer, "kernels");
  const SimdKernels& k = ActiveKernels();
  constexpr uint32_t kBatch = kBatchCapacity;
  constexpr uint64_t kWindow = uint64_t{1} << 16;  // tuples per input window
  constexpr int kSweeps = 16;                      // windows per repetition
  constexpr int kReps = 7;
  Rng rng(42);
  std::vector<uint64_t> hashes(kWindow);
  for (auto& h : hashes) h = rng.Next();
  std::vector<std::byte> rows(kWindow * 16);
  for (uint64_t i = 0; i < kWindow; ++i) {
    std::memcpy(rows.data() + i * 16, &hashes[i], 8);
  }
  BlockedBloomFilter bloom;
  bloom.Resize(kWindow);
  for (uint64_t i = 0; i < kWindow; i += 2) {
    bloom.InsertUnsynchronized(hashes[i]);
  }
  std::vector<uint64_t> dir(kWindow * 2);
  for (auto& s : dir) s = (rng.Next() % 2 == 0) ? 0 : rng.Next();
  const int dir_shift = 64 - 17;
  std::vector<std::byte> codes(kWindow * 2);
  for (auto& c : codes) c = static_cast<std::byte>(rng.Next());
  constexpr uint32_t kDictValues = 4096, kValueWidth = 16;
  std::vector<std::byte> dict(kDictValues * kValueWidth);
  for (auto& c : dict) c = static_cast<std::byte>(rng.Next());
  std::vector<uint32_t> dict_codes(kWindow);
  for (auto& c : dict_codes) c = static_cast<uint32_t>(rng.Below(kDictValues));

  uint64_t out[kBatch];
  uint64_t bitmap[kBatch / 64];
  uint32_t sel[kBatch];
  uint32_t wide[kBatch];
  std::vector<std::byte> gathered(kBatch * kValueWidth);
  uint64_t hist[256];
  volatile uint64_t sink = 0;

  auto measure = [&](const char* name, auto&& body) {
    Scope span(tracer, std::string("kernels.") + name);
    std::vector<double> ns;
    body();  // warm-up
    for (int r = 0; r < kReps; ++r) {
      const double t0 = Now();
      for (int s = 0; s < kSweeps; ++s) body();
      ns.push_back((Now() - t0) * 1e9 / (kSweeps * kWindow));
    }
    layer[std::string("kernels.") + name + "_ns_per_tuple"] = Median(ns);
  };
  measure("hash", [&] {
    for (uint64_t off = 0; off < kWindow; off += kBatch) {
      k.hash_rows(rows.data() + off * 16, 16, 0, 8, kBatch, out);
      sink = sink + out[0];
    }
  });
  measure("tag_probe", [&] {
    for (uint64_t off = 0; off < kWindow; off += kBatch) {
      sink = sink + k.dir_tag_probe(dir.data(), dir_shift, dir.size() - 1,
                                    hashes.data() + off, kBatch, sel, out);
    }
  });
  measure("bloom_probe", [&] {
    for (uint64_t off = 0; off < kWindow; off += kBatch) {
      k.bloom_probe(bloom.blocks(), bloom.block_mask(), hashes.data() + off,
                    kBatch, bitmap);
      sink = sink + bitmap[0];
    }
  });
  measure("radix_histogram", [&] {
    std::memset(hist, 0, sizeof(hist));
    k.histogram(rows.data(), kWindow, 16, 0, 255, hist);
    sink = sink + hist[0];
  });
  measure("unpack", [&] {
    for (uint64_t off = 0; off < kWindow; off += kBatch) {
      k.unpack_codes(codes.data() + off * 2, 2, kBatch, wide);
      sink = sink + wide[0];
    }
  });
  measure("dict_gather", [&] {
    for (uint64_t off = 0; off < kWindow; off += kBatch) {
      k.dict_gather(dict.data(), kValueWidth, dict_codes.data() + off, kBatch,
                    gathered.data());
      sink = sink + static_cast<uint64_t>(gathered[0]);
    }
  });
}

template <typename Tuple>
std::vector<Tuple> ToTuples(const Table& t) {
  using Word = decltype(Tuple::key);
  std::vector<Tuple> out(t.num_rows());
  for (uint64_t r = 0; r < out.size(); ++r) {
    out[r] = {static_cast<Word>(KeyAt(t.column(0), r)),
              static_cast<Word>(KeyAt(t.column(1), r))};
  }
  return out;
}

// Reference figures for the README, not gated: the prior-work workloads A
// and B (generated from the run's seed) joined by the stand-alone Balkesen
// NPJ/PRJ and by the engine's count(*) under BHJ and RJ, median of three.
// Every join must count one partner per probe tuple.
std::string BaselineSummary(uint64_t seed, ThreadPool& pool, Tracer& tracer,
                            uint64_t* attempted, uint64_t* failed) {
  Scope scope(tracer, "baseline");
  Rng rng(seed);
  std::string out = "{";
  for (int w = 0; w < 2; ++w) {
    std::unique_ptr<MicroWorkload> m = w == 0 ? MakeA(rng) : MakeB(rng);
    const uint64_t want = m->probe_tuples;
    auto median_of = [&](auto&& run) {
      std::vector<double> t;
      for (int r = 0; r < 3; ++r) {
        const double t0 = Now();
        const uint64_t n = run();
        t.push_back(Now() - t0);
        *attempted += 1;
        if (n != want) *failed += 1;
      }
      return Median(t);
    };
    double npj = 0, prj = 0;
    if (w == 0) {
      const auto build = ToTuples<Tuple8>(m->build);
      const auto probe = ToTuples<Tuple8>(m->probe);
      npj = median_of([&] { return BalkesenNPJ(build, probe, pool); });
      prj = median_of([&] { return BalkesenPRJ(build, probe, pool); });
    } else {
      const auto build = ToTuples<Tuple4>(m->build);
      const auto probe = ToTuples<Tuple4>(m->probe);
      npj = median_of([&] { return BalkesenNPJ(build, probe, pool); });
      prj = median_of([&] { return BalkesenPRJ(build, probe, pool); });
    }
    const auto plan = CountJoinPlan(*m);
    auto engine = [&](JoinStrategy s) {
      return median_of([&] {
        const QueryResult r = ExecuteQuery(*plan, Options(s), nullptr, &pool);
        return r.rows.size() == 1 ? static_cast<uint64_t>(
                                        std::get<int64_t>(r.rows[0][0]))
                                  : 0;
      });
    };
    const double bhj = engine(JoinStrategy::kBHJ);
    const double rj = engine(JoinStrategy::kRJ);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"npj_s\":%.6f,\"prj_s\":%.6f,"
                  "\"engine_bhj_s\":%.6f,\"engine_rj_s\":%.6f}",
                  w == 0 ? "" : ",", w == 0 ? "A" : "B", npj, prj, bhj, rj);
    out += buf;
  }
  return out + "}";
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const std::string& wl = args.workload;
  if (wl != "tpch" && wl != "join_wide") {
    std::fprintf(stderr, "unknown workload '%s'\n", wl.c_str());
    return 2;
  }
  PinWorkers();
  Tracer tracer(args.trace);
  Bench bench;
  ThreadPool pool(kThreads);

  // Set-up: table generation, then the first-use statistics and encoding
  // catalog builds for every base table.
  Layer setup_layer;
  {
    Scope setup(tracer, "setup");
    {
      Scope gen(tracer, "gen.tables");
      const double t0 = Now();
      if (wl == "tpch") {
        bench.db = GenerateTpch(kTpchScale, args.seed);
      } else {
        GenerateJoinWide(bench, args.seed);
      }
      setup_layer["gen.tables_s"] = Now() - t0;
    }
    if (bench.db != nullptr) {
      const TpchDb& db = *bench.db;
      bench.tables = {&db.region, &db.nation, &db.supplier, &db.customer,
                      &db.part,   &db.partsupp, &db.orders, &db.lineitem};
    } else {
      for (const auto& m : bench.micro) {
        bench.tables.push_back(&m->build);
        bench.tables.push_back(&m->probe);
      }
    }
    // Encoding first: statistics collection reads the dictionaries, so the
    // other order would bill the encoding to the statistics.
    for (const Table* t : bench.tables) {
      double t0 = Now();
      {
        Scope s(tracer, "storage.encode");
        EncodingCatalog::Global().Get(*t);
      }
      setup_layer["storage.encode_s"] += Now() - t0;
      t0 = Now();
      {
        Scope s(tracer, "stats.collect");
        StatsCatalog::Global().Get(*t);
      }
      setup_layer["stats.collect_s"] += Now() - t0;
    }
  }
  const double setup_s = Now();

  // References and the checks made before measuring (also the warm-up).
  if (wl == "tpch") {
    PrepareTpch(bench, &pool);
  } else {
    PrepareJoinWide(bench, &pool);
  }
  uint64_t attempted = bench.attempted;
  uint64_t failed = bench.failed;
  auto run_checked = [&](const QueryCase& q, JoinStrategy s, QueryStats* stats,
                         double* wall) {
    const double t0 = Now();
    QueryResult r = q.run(Options(s), stats);
    *wall = Now() - t0;
    attempted += 1;
    if (!q.check(r)) failed += 1;
  };
  if (wl != "tpch") {  // TPC-H warmed up while building its references
    for (JoinStrategy s : kStrategies) {
      for (const QueryCase& q : bench.queries) {
        QueryStats stats;
        double wall = 0;
        run_checked(q, s, &stats, &wall);
      }
    }
  }

  Layer kernel_layer;
  std::string baseline = "{}";
  if (args.trace) {
    MeasureKernels(tracer, kernel_layer);
    if (wl == "join_wide") {
      baseline = BaselineSummary(args.seed, pool, tracer, &attempted, &failed);
    }
  }

  // Measured rounds. In the traced run, odd rounds are traced and even
  // rounds are not, so the two can be compared.
  std::vector<double> pass_seconds[kNumStrategies];
  std::vector<double> traced_round_s, untraced_round_s;
  std::vector<Layer> round_layers;
  std::vector<Usage> pass_usage;
  std::map<std::string, std::vector<double>> query_wall;  // traced, by label
  std::string query_json;
  uint64_t bound_violations = 0;
  const double deadline = Now() + args.seconds;
  for (int round = 0; round < (args.trace ? 2 : 1) || Now() < deadline;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    const bool dump_json = traced && round == 1;
    Layer layer;
    double round_s = 0;
    int round_span = traced ? tracer.Begin("round") : -1;
    for (int k = 0; k < kNumStrategies; ++k) {
      const int si = (round + k) % kNumStrategies;
      const JoinStrategy s = kStrategies[si];
      const Usage u0 = ReadUsage();
      int pass_span = traced ? tracer.Begin(std::string("pass.") +
                                            kStrategyKeys[si])
                             : -1;
      double pass = 0;
      for (const QueryCase& q : bench.queries) {
        QueryStats stats;
        double wall = 0;
        int span = traced ? tracer.Begin("query." + q.name) : -1;
        run_checked(q, s, &stats, &wall);
        tracer.End(span);
        pass += wall;
        if (!traced) continue;
        CollectQuery(stats, wall, layer);
        const std::string label = q.name + "." + kStrategyKeys[si];
        query_wall[label].push_back(wall);
        double phases = 0;
        for (int p = 0; p < static_cast<int>(JoinPhase::kNumPhases); ++p) {
          phases += stats.phase_timer.seconds(static_cast<JoinPhase>(p));
        }
        if (stats.seconds > wall || phases > stats.seconds * (1 + 1e-9)) {
          bound_violations += 1;
        }
        if (dump_json) {
          query_json += std::string(query_json.empty() ? "" : ",") +
                        "\n{\"label\":\"" + label +
                        "\",\"metrics\":" + stats.metrics.ToJson() + "}";
        }
      }
      tracer.End(pass_span);
      const Usage u1 = ReadUsage();
      if (traced) {
        pass_usage.push_back({u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                              u1.minor_faults - u0.minor_faults,
                              u1.ctx_switches - u0.ctx_switches});
      }
      pass_seconds[si].push_back(pass);
      round_s += pass;
    }
    std::fprintf(stderr, "round %d%s:", round, traced ? " (traced)" : "");
    for (int si = 0; si < kNumStrategies; ++si) {
      std::fprintf(stderr, " %s=%.4f", kStrategyKeys[si],
                   pass_seconds[si].back());
    }
    std::fprintf(stderr, "\n");
    if (traced) {
      for (const PlanNode* rp : bench.rewrite_plans) {
        const double t0 = Now();
        Scope s(tracer, "rewrite.plan");
        RewriteResult rewritten = RewritePlan(*rp);
        layer["rewrite.plan_s"] += Now() - t0;
      }
      tracer.End(round_span);
      round_layers.push_back(std::move(layer));
      traced_round_s.push_back(round_s);
    } else {
      untraced_round_s.push_back(round_s);
    }
  }

  bool correct = failed == 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    for (int si = 0; si < kNumStrategies; ++si) {
      metrics.push_back({std::string("pass_") + kStrategyKeys[si] + "_s",
                         Median(pass_seconds[si]), "s"});
    }
    metrics.push_back({"peak_rss_mib", PeakRssMiB(), "MiB"});
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Per-layer metrics: medians over the traced rounds.
  auto med = [&](const std::string& key) {
    std::vector<double> v;
    for (const Layer& l : round_layers) {
      auto it = l.find(key);
      v.push_back(it == l.end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  auto ratio = [&](const std::string& num, const std::string& den) {
    const double d = med(den);
    return d > 0 ? med(num) / d : 0.0;
  };
  auto add = [&](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  };
  add("gen.tables_s", setup_layer["gen.tables_s"], "s");
  add("stats.collect_s", setup_layer["stats.collect_s"], "s");
  add("storage.encode_s", setup_layer["storage.encode_s"], "s");
  add("engine.exec_s", med("engine.exec_s"), "s");
  add("engine.outside_exec_s", med("engine.outside_exec_s"), "s");
  add("engine.agg_cpu_s", med("engine.agg_cpu_s"), "s");
  add("join.build_cpu_s", med("join.build_cpu_s"), "s");
  add("join.probe_cpu_s", med("join.probe_cpu_s"), "s");
  for (const char* p : kPhaseKeys) {
    const std::string key = std::string("join.phase.") + p;
    add(key + "_s", med(key + "_s"), "s");
    add(key + "_bytes", med(key + "_bytes"), "bytes");
  }
  add("hash_table.max_chain", med("hash_table.max_chain"), "count");
  add("hash_table.directory_bytes", med("hash_table.directory_bytes"), "bytes");
  add("partition.output_bytes", med("partition.output_bytes"), "bytes");
  add("partition.max_partition_share", med("partition.max_partition_share"),
      "ratio");
  add("filter.bloom_pass_rate",
      ratio("filter.bloom_passes", "filter.bloom_probes"), "ratio");
  add("engine.skew_bypass_tuples", med("engine.skew_bypass_tuples"), "count");
  add("advisor.picked.bhj", med("advisor.picked.bhj"), "count");
  add("advisor.picked.rj", med("advisor.picked.rj"), "count");
  add("advisor.picked.brj", med("advisor.picked.brj"), "count");
  add("advisor.mispredicts", med("advisor.mispredicts"), "count");
  add("rewrite.plan_s", med("rewrite.plan_s"), "s");
  add("storage.scan_read_bytes", med("storage.scan_read_bytes"), "bytes");
  add("storage.scan_plain_bytes", med("storage.scan_plain_bytes"), "bytes");
  for (const auto& [name, v] : kernel_layer) add(name, v, "ns");
  add("exec.busy_share", ratio("exec.busy_seconds", "exec.capacity_seconds"),
      "ratio");
  add("exec.worker_skew",
      ratio("exec.max_busy_seconds", "exec.mean_busy_seconds"), "ratio");
  // Means per pass: getrusage counts in scheduler ticks, so most single
  // passes read a sys time of 0 and a median would hide it.
  Usage total;
  for (const Usage& u : pass_usage) {
    total.user_s += u.user_s;
    total.sys_s += u.sys_s;
    total.minor_faults += u.minor_faults;
    total.ctx_switches += u.ctx_switches;
  }
  const double passes =
      static_cast<double>(std::max<size_t>(pass_usage.size(), 1));
  add("process.user_s", total.user_s / passes, "s");
  add("process.sys_s", total.sys_s / passes, "s");
  add("process.minor_faults", total.minor_faults / passes, "count");
  add("process.ctx_switches", total.ctx_switches / passes, "count");
  const double untraced = Median(untraced_round_s);
  const double traced = Median(traced_round_s);
  add("trace.overhead_share", untraced > 0 ? (traced - untraced) / untraced : 0,
      "ratio");

  const bool nesting = tracer.NestingHolds();
  if (!nesting || bound_violations > 0) correct = false;

  // The trace document: spans, each traced query's metrics JSON (first
  // traced round), and a summary with per-query times and the checks.
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + wl + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":");
    tracer.WriteEvents(out);
    std::fprintf(out, ",\n\"queries\":[%s],\n\"summary\":{",
                 query_json.c_str());
    std::fprintf(out,
                 "\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
                 "\"simd\":\"%s\",\"nesting_ok\":%s,\"bound_violations\":%llu,"
                 "\"traced_round_s\":%.6f,\"untraced_round_s\":%.6f,"
                 "\"baseline\":%s,\"query_wall_s\":{",
                 wl.c_str(), static_cast<unsigned long long>(args.seed),
                 kThreads, SimdTierName(ActiveSimdTier()),
                 nesting ? "true" : "false",
                 static_cast<unsigned long long>(bound_violations), traced,
                 untraced, baseline.c_str());
    bool first = true;
    for (const auto& [label, walls] : query_wall) {
      std::fprintf(out, "%s\"%s\":%.6f", first ? "" : ",", label.c_str(),
                   Median(walls));
      first = false;
    }
    std::fprintf(out, "}}}\n");
    std::fclose(out);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    correct = false;
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tpch|join_wide> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
