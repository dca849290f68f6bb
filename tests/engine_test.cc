// End-to-end engine tests: plans lowered to pipelines under every join
// strategy and materialization strategy must agree with each other and with
// hand-computed results.
#include <gtest/gtest.h>

#include <memory>

#include "engine/executor.h"
#include "engine/plan.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// Tiny star schema: dim(d_key, d_cat, d_name), fact(f_key, f_val, f_price).
struct TestDb {
  Table dim{"dim", Schema({{"d_key", DataType::kInt64, 0},
                           {"d_cat", DataType::kInt64, 0},
                           {"d_name", DataType::kChar, 8}})};
  Table fact{"fact", Schema({{"f_key", DataType::kInt64, 0},
                             {"f_val", DataType::kInt64, 0},
                             {"f_price", DataType::kFloat64, 0},
                             {"f_date", DataType::kDate, 0}})};

  TestDb(uint64_t dim_rows = 200, uint64_t fact_rows = 5000) {
    Rng rng(42);
    for (uint64_t i = 0; i < dim_rows; ++i) {
      dim.column(0).AppendInt64(static_cast<int64_t>(i));
      dim.column(1).AppendInt64(static_cast<int64_t>(i % 10));
      dim.column(2).AppendString("n" + std::to_string(i % 37));
      dim.FinishRow();
    }
    for (uint64_t i = 0; i < fact_rows; ++i) {
      // ~75% of fact rows reference an existing dim key.
      int64_t key = static_cast<int64_t>(rng.Below(dim_rows * 4 / 3));
      fact.column(0).AppendInt64(key);
      fact.column(1).AppendInt64(static_cast<int64_t>(rng.Below(100)));
      fact.column(2).AppendFloat64(static_cast<double>(rng.Below(1000)) / 10);
      fact.column(3).AppendInt32(MakeDate(1995, 1, 1) +
                                 static_cast<int32_t>(rng.Below(1000)));
      fact.FinishRow();
    }
  }
};

const std::vector<JoinStrategy> kAllStrategies = {
    JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kBRJ,
    JoinStrategy::kBRJAdaptive};

std::unique_ptr<PlanNode> SimpleJoinPlan(const TestDb& db) {
  return Aggregate(
      Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}}),
      {}, {AggDef::CountStar("n"), AggDef::Sum("f_val", "sv")});
}

TEST(Engine, ScanCountAll) {
  TestDb db;
  auto plan = Aggregate(ScanTable(&db.fact), {}, {AggDef::CountStar("n")});
  QueryResult result = ExecuteQuery(*plan, ExecOptions{});
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]),
            static_cast<int64_t>(db.fact.num_rows()));
}

TEST(Engine, ScanWithPredicates) {
  TestDb db;
  auto plan = Aggregate(
      ScanTable(&db.fact, {ScanPredicate::GeI("f_val", 50)}), {},
      {AggDef::CountStar("n"), AggDef::Min("f_val", "mn")});
  QueryResult result = ExecuteQuery(*plan, ExecOptions{});
  int64_t expected = 0;
  for (uint64_t r = 0; r < db.fact.num_rows(); ++r) {
    if (db.fact.column(1).GetInt64(r) >= 50) ++expected;
  }
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), expected);
  EXPECT_GE(std::get<double>(result.rows[0][1]), 50.0);
}

TEST(Engine, JoinCountAllStrategiesAgree) {
  TestDb db;
  // Reference: count fact rows whose key < dim_rows (dense dim keys).
  int64_t expected = 0;
  for (uint64_t r = 0; r < db.fact.num_rows(); ++r) {
    if (db.fact.column(0).GetInt64(r) <
        static_cast<int64_t>(db.dim.num_rows())) {
      ++expected;
    }
  }
  for (JoinStrategy s : kAllStrategies) {
    auto plan = SimpleJoinPlan(db);
    ExecOptions options;
    options.join_strategy = s;
    options.num_threads = 2;
    QueryResult result = ExecuteQuery(*plan, options);
    EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), expected)
        << JoinStrategyName(s);
  }
}

TEST(Engine, GroupByWithJoin) {
  TestDb db;
  auto make_plan = [&] {
    return Aggregate(
        Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}}),
        {"d_cat"}, {AggDef::CountStar("n"), AggDef::Sum("f_price", "rev")});
  };
  QueryResult reference;
  for (size_t i = 0; i < kAllStrategies.size(); ++i) {
    ExecOptions options;
    options.join_strategy = kAllStrategies[i];
    QueryResult result = ExecuteQuery(*make_plan(), options);
    EXPECT_EQ(result.num_rows(), 10u);
    if (i == 0) {
      reference = result;
    } else {
      EXPECT_TRUE(result.ApproxEquals(reference))
          << JoinStrategyName(kAllStrategies[i]);
    }
  }
}

TEST(Engine, GroupByCharColumn) {
  TestDb db;
  auto plan = Aggregate(ScanTable(&db.dim), {"d_name"},
                        {AggDef::CountStar("n")});
  QueryResult result = ExecuteQuery(*plan, ExecOptions{});
  EXPECT_EQ(result.num_rows(), 37u);
  int64_t total = 0;
  for (const auto& row : result.rows) total += std::get<int64_t>(row[1]);
  EXPECT_EQ(total, static_cast<int64_t>(db.dim.num_rows()));
}

TEST(Engine, MapComputedColumn) {
  TestDb db;
  MapDef def;
  def.name = "double_val";
  def.type = DataType::kInt64;
  def.inputs = {"f_val"};
  def.fn = [](const RowLayout& layout, const std::byte* row,
              const int* fields, std::byte* dst) {
    int64_t v = layout.GetInt64(row, fields[0]);
    int64_t out = v * 2;
    std::memcpy(dst, &out, 8);
  };
  auto plan =
      Aggregate(MapColumns(ScanTable(&db.fact), {std::move(def)}), {},
                {AggDef::Sum("double_val", "s2"), AggDef::Sum("f_val", "s1")});
  QueryResult result = ExecuteQuery(*plan, ExecOptions{});
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]),
            2 * std::get<int64_t>(result.rows[0][1]));
}

TEST(Engine, FilterOpAfterJoin) {
  TestDb db;
  for (JoinStrategy s : kAllStrategies) {
    FilterDef filter;
    filter.inputs = {"d_cat", "f_val"};
    filter.fn = [](const RowLayout& layout, const std::byte* row,
                   const int* fields) {
      return layout.GetInt64(row, fields[0]) ==
             layout.GetInt64(row, fields[1]) % 10;
    };
    auto plan = Aggregate(
        Filter(Join(ScanTable(&db.dim), ScanTable(&db.fact),
                    {{"d_key", "f_key"}}),
               std::move(filter)),
        {}, {AggDef::CountStar("n")});
    ExecOptions options;
    options.join_strategy = s;
    QueryResult result = ExecuteQuery(*plan, options);
    // Reference computation.
    int64_t expected = 0;
    for (uint64_t r = 0; r < db.fact.num_rows(); ++r) {
      int64_t key = db.fact.column(0).GetInt64(r);
      if (key >= static_cast<int64_t>(db.dim.num_rows())) continue;
      int64_t cat = db.dim.column(1).GetInt64(key);  // d_key == row index
      if (cat == db.fact.column(1).GetInt64(r) % 10) ++expected;
    }
    EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), expected)
        << JoinStrategyName(s);
  }
}

TEST(Engine, SemiAndAntiJoins) {
  TestDb db;
  for (JoinStrategy s : kAllStrategies) {
    ExecOptions options;
    options.join_strategy = s;
    // EXISTS: fact rows with a dim partner.
    auto semi = Aggregate(
        Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}},
             JoinKind::kProbeSemi),
        {}, {AggDef::CountStar("n")});
    // NOT EXISTS: fact rows without a dim partner.
    auto anti = Aggregate(
        Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}},
             JoinKind::kProbeAnti),
        {}, {AggDef::CountStar("n")});
    int64_t semi_n = std::get<int64_t>(
        ExecuteQuery(*semi, options).rows[0][0]);
    int64_t anti_n = std::get<int64_t>(
        ExecuteQuery(*anti, options).rows[0][0]);
    EXPECT_EQ(semi_n + anti_n, static_cast<int64_t>(db.fact.num_rows()))
        << JoinStrategyName(s);
  }
}

TEST(Engine, BuildAntiJoin) {
  // Dim rows with no fact reference (the Q21/Q22 NOT EXISTS pattern with the
  // big relation on the probe side).
  TestDb db;
  std::set<int64_t> referenced;
  for (uint64_t r = 0; r < db.fact.num_rows(); ++r) {
    referenced.insert(db.fact.column(0).GetInt64(r));
  }
  int64_t expected = 0;
  for (uint64_t r = 0; r < db.dim.num_rows(); ++r) {
    if (!referenced.count(db.dim.column(0).GetInt64(r))) ++expected;
  }
  for (JoinStrategy s : kAllStrategies) {
    ExecOptions options;
    options.join_strategy = s;
    auto plan = Aggregate(
        Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}},
             JoinKind::kBuildAnti),
        {}, {AggDef::CountStar("n")});
    EXPECT_EQ(std::get<int64_t>(ExecuteQuery(*plan, options).rows[0][0]),
              expected)
        << JoinStrategyName(s);
  }
}

TEST(Engine, MarkJoinFeedsFilter) {
  TestDb db;
  for (JoinStrategy s : kAllStrategies) {
    FilterDef keep_unmatched;
    keep_unmatched.inputs = {"has_dim"};
    keep_unmatched.fn = [](const RowLayout& layout, const std::byte* row,
                           const int* fields) {
      return layout.GetInt64(row, fields[0]) == 0;
    };
    auto plan = Aggregate(
        Filter(Join(ScanTable(&db.dim), ScanTable(&db.fact),
                    {{"d_key", "f_key"}}, JoinKind::kMark, "has_dim"),
               std::move(keep_unmatched)),
        {}, {AggDef::CountStar("n")});
    ExecOptions options;
    options.join_strategy = s;
    int64_t unmatched =
        std::get<int64_t>(ExecuteQuery(*plan, options).rows[0][0]);
    int64_t expected = 0;
    for (uint64_t r = 0; r < db.fact.num_rows(); ++r) {
      if (db.fact.column(0).GetInt64(r) >=
          static_cast<int64_t>(db.dim.num_rows())) {
        ++expected;
      }
    }
    EXPECT_EQ(unmatched, expected) << JoinStrategyName(s);
  }
}

TEST(Engine, TwoJoinPipeline) {
  // dim ⋈ (dim2 ⋈ fact): chained joins through one probe pipeline (BHJ) or
  // repeated pipeline breaking (RJ).
  TestDb db;
  Table dim2{"dim2", Schema({{"e_key", DataType::kInt64, 0},
                             {"e_weight", DataType::kInt64, 0}})};
  for (int64_t i = 0; i < 100; ++i) {
    dim2.column(0).AppendInt64(i);
    dim2.column(1).AppendInt64(i * 3);
    dim2.FinishRow();
  }
  QueryResult reference;
  bool first = true;
  for (JoinStrategy s : kAllStrategies) {
    auto inner = Join(ScanTable(&dim2), ScanTable(&db.fact),
                      {{"e_key", "f_val"}});
    auto outer = Join(ScanTable(&db.dim), std::move(inner),
                      {{"d_key", "f_key"}});
    auto plan = Aggregate(std::move(outer), {"d_cat"},
                          {AggDef::Sum("e_weight", "w")});
    ExecOptions options;
    options.join_strategy = s;
    options.num_threads = 2;
    QueryResult result = ExecuteQuery(*plan, options);
    if (first) {
      reference = result;
      first = false;
      EXPECT_GT(result.num_rows(), 0u);
    } else {
      EXPECT_TRUE(result.ApproxEquals(reference)) << JoinStrategyName(s);
    }
  }
}

TEST(Engine, LateMaterializationMatchesEarly) {
  TestDb db;
  for (JoinStrategy s : kAllStrategies) {
    auto make_plan = [&] {
      return Aggregate(
          Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}}),
          {"d_cat"}, {AggDef::Sum("f_price", "rev")});
    };
    ExecOptions early;
    early.join_strategy = s;
    ExecOptions late = early;
    late.late_materialization = true;
    QueryResult r_early = ExecuteQuery(*make_plan(), early);
    QueryResult r_late = ExecuteQuery(*make_plan(), late);
    EXPECT_TRUE(r_early.ApproxEquals(r_late)) << JoinStrategyName(s);
  }
}

TEST(Engine, LateColumnsAnalysis) {
  TestDb db;
  auto plan = Aggregate(
      Join(ScanTable(&db.dim), ScanTable(&db.fact), {{"d_key", "f_key"}}),
      {"d_cat"}, {AggDef::Sum("f_price", "rev")});
  std::set<std::string> late = internal::ComputeLateColumns(*plan);
  // f_price and d_cat are only used at the root: both can be deferred.
  EXPECT_TRUE(late.count("f_price"));
  EXPECT_TRUE(late.count("d_cat"));
  // Join keys cannot be late.
  EXPECT_FALSE(late.count("d_key"));
  EXPECT_FALSE(late.count("f_key"));
}

TEST(Engine, PerJoinStrategyOverride) {
  TestDb db;
  Table dim2{"dim2", Schema({{"e_key", DataType::kInt64, 0},
                             {"e_weight", DataType::kInt64, 0}})};
  for (int64_t i = 0; i < 100; ++i) {
    dim2.column(0).AppendInt64(i);
    dim2.column(1).AppendInt64(i);
    dim2.FinishRow();
  }
  auto make_plan = [&] {
    auto inner =
        Join(ScanTable(&dim2), ScanTable(&db.fact), {{"e_key", "f_val"}});
    auto outer =
        Join(ScanTable(&db.dim), std::move(inner), {{"d_key", "f_key"}});
    return Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});
  };
  ExecOptions base;
  base.join_strategy = JoinStrategy::kBHJ;
  QueryResult reference = ExecuteQuery(*make_plan(), base);
  // Flip only join #0 (the inner join, postorder) to BRJ.
  ExecOptions mixed = base;
  mixed.join_overrides[0] = JoinStrategy::kBRJ;
  QueryResult result = ExecuteQuery(*make_plan(), mixed);
  EXPECT_TRUE(result.ApproxEquals(reference));
}

TEST(Engine, StatsPopulated) {
  TestDb db;
  auto plan = SimpleJoinPlan(db);
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBRJ;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_EQ(stats.source_tuples, db.dim.num_rows() + db.fact.num_rows());
  EXPECT_EQ(stats.result_rows, 1u);
  EXPECT_GT(stats.Throughput(), 0.0);
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  EXPECT_GT(jm->build_side.output_bytes + jm->probe_side.output_bytes, 0u);
  EXPECT_GT(jm->bloom.negatives, 0u);  // ~25% of fact keys have no partner
}

TEST(Engine, EmptyResultQuery) {
  TestDb db;
  auto plan = Aggregate(
      ScanTable(&db.fact, {ScanPredicate::GtI("f_val", 1'000'000)}), {},
      {AggDef::CountStar("n")});
  QueryResult result = ExecuteQuery(*plan, ExecOptions{});
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), 0);
}

}  // namespace
}  // namespace pjoin
