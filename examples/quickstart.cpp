// Quickstart: build two relations, join them with every strategy the
// library offers, and compare results and timings.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace pjoin;

int main() {
  // 1. Create columnar tables (the engine stores relations column-wise).
  Table users("users", Schema({{"u_id", DataType::kInt64, 0},
                               {"u_country", DataType::kInt64, 0},
                               {"u_name", DataType::kChar, 12}}));
  Table clicks("clicks", Schema({{"k_user", DataType::kInt64, 0},
                                 {"k_value", DataType::kFloat64, 0}}));
  Rng rng(7);
  const int64_t kUsers = 10000;
  for (int64_t u = 0; u < kUsers; ++u) {
    users.column(0).AppendInt64(u);
    users.column(1).AppendInt64(static_cast<int64_t>(rng.Below(30)));
    users.column(2).AppendString("user" + std::to_string(u));
    users.FinishRow();
  }
  for (int64_t c = 0; c < 500000; ++c) {
    // 20% of clicks reference unknown users (a selective join).
    clicks.column(0).AppendInt64(static_cast<int64_t>(rng.Below(kUsers * 5 / 4)));
    clicks.column(1).AppendFloat64(rng.NextDouble());
    clicks.FinishRow();
  }

  // 2. Build a query plan: clicks per country for matching users.
  //    Plans are join-strategy-agnostic; the executor decides whether each
  //    join partitions its inputs (radix join) or probes a global table.
  auto make_plan = [&] {
    return Aggregate(
        Join(/*build=*/ScanTable(&users), /*probe=*/ScanTable(&clicks),
             /*keys=*/{{"u_id", "k_user"}}),
        /*group_by=*/{"u_country"},
        {AggDef::CountStar("clicks"), AggDef::Sum("k_value", "value")});
  };

  // 3. Execute under each join strategy and compare. kAuto is the sensible
  //    default: the cost-based advisor answers "to partition, or not" per
  //    join, with a runtime fallback when the estimates turn out wrong.
  TablePrinter table({"strategy", "time [ms]", "throughput", "rows",
                      "bloom-dropped probe tuples"});
  QueryResult reference;
  std::string explain_analyze;
  for (JoinStrategy s : {JoinStrategy::kAuto, JoinStrategy::kBHJ,
                         JoinStrategy::kRJ, JoinStrategy::kBRJ,
                         JoinStrategy::kBRJAdaptive}) {
    auto plan = make_plan();
    ExecOptions options;
    options.join_strategy = s;
    QueryStats stats;
    QueryResult result = ExecuteQuery(*plan, options, &stats);
    if (reference.rows.empty()) {
      reference = result;
    } else if (!result.ApproxEquals(reference)) {
      std::printf("ERROR: strategies disagree!\n");
      return 1;
    }
    uint64_t dropped = 0;
    for (const JoinMetrics& j : stats.metrics.joins()) {
      dropped += j.bloom.negatives;
    }
    table.AddRow({JoinStrategyName(s),
                  TablePrinter::Double(stats.seconds * 1e3, 1),
                  TablePrinter::TuplesPerSec(stats.Throughput()),
                  std::to_string(result.num_rows()),
                  std::to_string(dropped)});
    if (s == JoinStrategy::kAuto) {
      explain_analyze = ExplainAnalyzePlan(*plan, options, stats);
    }
  }
  table.Print();

  // 4. EXPLAIN ANALYZE: the plan annotated with what one run actually did —
  //    per-operator row counts, the advisor's decision and cost breakdown,
  //    hash-table/partitioner shape, Bloom-filter pass rate, and the
  //    per-pipeline morsel distribution.
  std::printf("\nEXPLAIN ANALYZE (%s):\n%s",
              JoinStrategyName(JoinStrategy::kAuto), explain_analyze.c_str());

  std::printf("\nfirst rows of the (identical) result:\n%s",
              reference.ToString(5).c_str());
  return 0;
}
