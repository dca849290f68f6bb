// Cross-cutting integration tests: mixed join kinds and strategies in one
// plan, repeated execution, thread-count invariance, and memory accounting.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/plan.h"
#include "tpch/gen.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace pjoin {
namespace {

struct Warehouse {
  Table items{"items", Schema({{"i_id", DataType::kInt64, 0},
                               {"i_cat", DataType::kInt64, 0}})};
  Table stock{"stock", Schema({{"s_item", DataType::kInt64, 0},
                               {"s_qty", DataType::kInt64, 0}})};
  Table sales{"sales", Schema({{"x_item", DataType::kInt64, 0},
                               {"x_price", DataType::kFloat64, 0}})};

  Warehouse() {
    Rng rng(77);
    for (int64_t i = 0; i < 1000; ++i) {
      items.column(0).AppendInt64(i);
      items.column(1).AppendInt64(i % 13);
      items.FinishRow();
    }
    for (int64_t i = 0; i < 700; ++i) {  // 30% of items have no stock row
      stock.column(0).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
      stock.column(1).AppendInt64(static_cast<int64_t>(rng.Below(50)));
      stock.FinishRow();
    }
    for (int64_t i = 0; i < 80000; ++i) {
      sales.column(0).AppendInt64(static_cast<int64_t>(rng.Below(1500)));
      sales.column(1).AppendFloat64(static_cast<double>(rng.Below(100)));
      sales.FinishRow();
    }
  }
};

// items with stock (semi) joined against sales (inner), grouped by category.
std::unique_ptr<PlanNode> MixedKindPlan(const Warehouse& w) {
  auto stocked_items =
      Join(ScanTable(&w.stock), ScanTable(&w.items), {{"s_item", "i_id"}},
           JoinKind::kProbeSemi);
  auto with_sales = Join(std::move(stocked_items), ScanTable(&w.sales),
                         {{"i_id", "x_item"}});
  return Aggregate(std::move(with_sales), {"i_cat"},
                   {AggDef::CountStar("n"), AggDef::Sum("x_price", "rev")});
}

// Final partition storage of every radix join in the run.
uint64_t PartitionBytes(const QueryStats& stats) {
  uint64_t bytes = 0;
  for (const JoinMetrics& j : stats.metrics.joins()) {
    bytes += j.build_side.output_bytes + j.probe_side.output_bytes;
  }
  return bytes;
}

TEST(Integration, MixedJoinKindsAcrossStrategies) {
  Warehouse w;
  QueryResult reference;
  bool first = true;
  for (JoinStrategy s : {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                         JoinStrategy::kBRJ, JoinStrategy::kBRJAdaptive}) {
    ExecOptions options;
    options.join_strategy = s;
    QueryResult result = ExecuteQuery(*MixedKindPlan(w), options);
    if (first) {
      reference = result;
      first = false;
      EXPECT_EQ(result.num_rows(), 13u);
    } else {
      ASSERT_TRUE(result.ApproxEquals(reference)) << JoinStrategyName(s);
    }
  }
}

TEST(Integration, MixedStrategiesWithinOnePlan) {
  Warehouse w;
  ExecOptions base;
  base.join_strategy = JoinStrategy::kBHJ;
  QueryResult reference = ExecuteQuery(*MixedKindPlan(w), base);
  // Semi join as BRJ, inner join as BHJ — and vice versa.
  for (auto [j0, j1] : {std::pair{JoinStrategy::kBRJ, JoinStrategy::kBHJ},
                        std::pair{JoinStrategy::kBHJ, JoinStrategy::kRJ}}) {
    ExecOptions mixed;
    mixed.join_overrides[0] = j0;
    mixed.join_overrides[1] = j1;
    QueryResult result = ExecuteQuery(*MixedKindPlan(w), mixed);
    ASSERT_TRUE(result.ApproxEquals(reference));
  }
}

TEST(Integration, RepeatedExecutionIsStable) {
  Warehouse w;
  ThreadPool pool(2);
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBRJ;
  QueryResult first = ExecuteQuery(*MixedKindPlan(w), options, nullptr, &pool);
  for (int i = 0; i < 5; ++i) {
    QueryResult again =
        ExecuteQuery(*MixedKindPlan(w), options, nullptr, &pool);
    ASSERT_TRUE(again.ApproxEquals(first)) << "iteration " << i;
  }
}

TEST(Integration, ThreadCountInvariance) {
  auto db = GenerateTpch(0.01);
  const TpchQuery& q9 = GetTpchQuery(9);
  QueryResult reference;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ExecOptions options;
    options.join_strategy = JoinStrategy::kRJ;
    options.num_threads = threads;
    QueryResult result = q9.run(*db, options, nullptr, &pool);
    if (threads == 1) {
      reference = result;
    } else {
      ASSERT_TRUE(result.ApproxEquals(reference, 1e-6))
          << threads << " threads";
    }
  }
}

TEST(Integration, PartitionBytesReflectMaterialization) {
  Warehouse w;
  // BHJ never partitions; RJ materializes both sides of both joins.
  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  ExecOptions rj;
  rj.join_strategy = JoinStrategy::kRJ;
  QueryStats bhj_stats, rj_stats;
  ExecuteQuery(*MixedKindPlan(w), bhj, &bhj_stats);
  ExecuteQuery(*MixedKindPlan(w), rj, &rj_stats);
  EXPECT_EQ(PartitionBytes(bhj_stats), 0u);
  // At least (sales rows x padded tuple) of partition output.
  EXPECT_GT(PartitionBytes(rj_stats), 80000u * 16u);
}

TEST(Integration, BloomDroppedOnlyWhenFilterApplies) {
  Warehouse w;
  ExecOptions brj;
  brj.join_strategy = JoinStrategy::kBRJ;
  QueryStats stats;
  ExecuteQuery(*MixedKindPlan(w), brj, &stats);
  // sales reference items 0..1499 but only ~<=1000 exist and fewer are
  // stocked: the probe-side filter of the inner join must drop plenty.
  uint64_t dropped = 0;
  for (const JoinMetrics& j : stats.metrics.joins()) {
    dropped += j.bloom.negatives;
  }
  EXPECT_GT(dropped, 20000u);
}

}  // namespace
}  // namespace pjoin
