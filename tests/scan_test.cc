// Tests for the table-scan source: predicate pushdown, tuple ids, byte
// accounting, and morsel coverage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/scan.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace pjoin {
namespace {

Table MakeNumbers(int64_t n) {
  Table t("numbers", Schema({{"n_val", DataType::kInt64, 0},
                             {"n_mod", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < n; ++i) {
    t.column(0).AppendInt64(i);
    t.column(1).AppendInt64(i % 7);
    t.FinishRow();
  }
  return t;
}

TEST(TableScan, EmitsAllRowsWithoutPredicates) {
  Table t = MakeNumbers(100000);
  RowLayout layout = RowLayout::FromSchema(t.schema(), {"n_val"});
  TableScanSource scan(&t, &layout, {});
  IntCollectSink sink(&layout);
  ThreadPool pool(4);
  ExecContext exec(&pool);
  Pipeline p;
  p.set_source(&scan);
  p.AddOperator(&sink);
  p.Run(exec);
  EXPECT_EQ(sink.count(), 100000u);
  EXPECT_EQ(scan.rows_scanned(), 100000u);
  EXPECT_EQ(scan.rows_passed(), 100000u);
  EXPECT_EQ(exec.source_tuples(), 100000u);
  // Every value exactly once.
  IntRows rows = sink.SortedRows();
  for (int64_t i = 0; i < 100000; ++i) {
    ASSERT_EQ(rows[i][0], i);
  }
}

TEST(TableScan, PredicatesNarrowSelection) {
  Table t = MakeNumbers(70000);
  RowLayout layout = RowLayout::FromSchema(t.schema(), {"n_val"});
  TableScanSource scan(&t, &layout,
                       {ScanPredicate::EqI("n_mod", 3),
                        ScanPredicate::LtI("n_val", 7000)});
  IntCollectSink sink(&layout);
  ThreadPool pool(2);
  ExecContext exec(&pool);
  Pipeline p;
  p.set_source(&scan);
  p.AddOperator(&sink);
  p.Run(exec);
  EXPECT_EQ(sink.count(), 1000u);  // i % 7 == 3 && i < 7000
  EXPECT_EQ(scan.rows_scanned(), 70000u);
  EXPECT_EQ(scan.rows_passed(), 1000u);
}

TEST(TableScan, TidColumnIsOneBasedRowId) {
  Table t = MakeNumbers(500);
  RowLayout layout({{"n_val", DataType::kInt64, 8, 0},
                    {"numbers.#tid", DataType::kInt64, 8, 0}});
  TableScanSource scan(&t, &layout, {});
  IntCollectSink sink(&layout);
  ThreadPool pool(1);
  ExecContext exec(&pool);
  Pipeline p;
  p.set_source(&scan);
  p.AddOperator(&sink);
  p.Run(exec);
  IntRows rows = sink.SortedRows();
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(rows[i][0], i);
    EXPECT_EQ(rows[i][1], i + 1);  // +1 sentinel: 0 means null
  }
}

TEST(TableScan, CountsReadBytes) {
  // Plain-column accounting: encoding off for the scope (with it on, the
  // scan reads narrow codes and the counter shrinks accordingly —
  // encoding_test.cc covers that side).
  const char* old_enc = getenv("PJOIN_ENCODING");
  const std::string saved = old_enc != nullptr ? old_enc : "";
  setenv("PJOIN_ENCODING", "0", 1);
  Table t = MakeNumbers(10000);
  RowLayout layout = RowLayout::FromSchema(t.schema(), {"n_val"});
  // Predicate column n_mod is read even though not emitted.
  TableScanSource scan(&t, &layout, {ScanPredicate::EqI("n_mod", 0)});
  IntCollectSink sink(&layout);
  ThreadPool pool(1);
  ExecContext exec(&pool);
  Pipeline p;
  p.set_source(&scan);
  p.AddOperator(&sink);
  p.Run(exec);
  uint64_t read = exec.MergedBytes().phase(JoinPhase::kProbePipeline).read;
  EXPECT_EQ(read, 10000u * 16u);  // 8 B emitted column + 8 B predicate column
  if (old_enc != nullptr) {
    setenv("PJOIN_ENCODING", saved.c_str(), 1);
  } else {
    unsetenv("PJOIN_ENCODING");
  }
}

TEST(LateMaterialization, OuterJoinNullTidsFetchAsZero) {
  // A right-outer join under LM produces build rows whose probe-side tids
  // are the zero null padding; the late load must fetch zeros, not row 0.
  Table dim("dim", Schema({{"d_key", DataType::kInt64, 0}}));
  Table fact("fact", Schema({{"f_key", DataType::kInt64, 0},
                             {"f_pay", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 10; ++i) {
    dim.column(0).AppendInt64(i);
    dim.FinishRow();
  }
  // Only keys 0..4 appear in fact; f_pay deliberately nonzero at row 0.
  for (int64_t i = 0; i < 5; ++i) {
    fact.column(0).AppendInt64(i);
    fact.column(1).AppendInt64(1000 + i);
    fact.FinishRow();
  }
  auto make_plan = [&] {
    return Aggregate(
        Join(ScanTable(&dim), ScanTable(&fact), {{"d_key", "f_key"}},
             JoinKind::kRightOuter),
        {}, {AggDef::Sum("f_pay", "total"), AggDef::CountStar("n")});
  };
  ExecOptions em;
  ExecOptions lm;
  lm.late_materialization = true;
  QueryResult r_em = ExecuteQuery(*make_plan(), em);
  QueryResult r_lm = ExecuteQuery(*make_plan(), lm);
  // 5 matched rows + 5 unmatched dim rows with null (0) payload.
  EXPECT_EQ(std::get<int64_t>(r_em.rows[0][1]), 10);
  EXPECT_EQ(std::get<int64_t>(r_em.rows[0][0]), 1000 + 1001 + 1002 + 1003 + 1004);
  EXPECT_TRUE(r_lm.ApproxEquals(r_em));
}

TEST(LateMaterialization, FetchesDeferColumnsByTid) {
  // A selective join under LM must produce the same aggregate as under EM
  // while carrying less data through the join (partition bytes shrink).
  Table dim("dim2", Schema({{"e_key", DataType::kInt64, 0}}));
  Table fact("fact2", Schema({{"g_key", DataType::kInt64, 0},
                              {"g_a", DataType::kInt64, 0},
                              {"g_b", DataType::kInt64, 0},
                              {"g_c", DataType::kInt64, 0},
                              {"g_d", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 64; ++i) {
    dim.column(0).AppendInt64(i);
    dim.FinishRow();
  }
  Rng rng(8);
  for (int64_t i = 0; i < 200000; ++i) {
    fact.column(0).AppendInt64(static_cast<int64_t>(rng.Below(4096)));
    for (int c = 1; c <= 4; ++c) {
      fact.column(c).AppendInt64(i + c);
    }
    fact.FinishRow();
  }
  auto make_plan = [&] {
    return Aggregate(
        Join(ScanTable(&dim), ScanTable(&fact), {{"e_key", "g_key"}}),
        {},
        {AggDef::Sum("g_a", "sa"), AggDef::Sum("g_b", "sb"),
         AggDef::Sum("g_c", "sc"), AggDef::Sum("g_d", "sd")});
  };
  ExecOptions em;
  em.join_strategy = JoinStrategy::kRJ;
  ExecOptions lm = em;
  lm.late_materialization = true;
  QueryStats em_stats, lm_stats;
  QueryResult r_em = ExecuteQuery(*make_plan(), em, &em_stats);
  QueryResult r_lm = ExecuteQuery(*make_plan(), lm, &lm_stats);
  EXPECT_TRUE(r_lm.ApproxEquals(r_em));
  // LM materializes key+tid (later padded) instead of key+4 payloads.
  const JoinMetrics* em_join = em_stats.metrics.FindJoin(0);
  const JoinMetrics* lm_join = lm_stats.metrics.FindJoin(0);
  ASSERT_NE(em_join, nullptr);
  ASSERT_NE(lm_join, nullptr);
  EXPECT_LT(
      lm_join->build_side.output_bytes + lm_join->probe_side.output_bytes,
      em_join->build_side.output_bytes + em_join->probe_side.output_bytes);
}

}  // namespace
}  // namespace pjoin
