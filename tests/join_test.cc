// Join correctness: BHJ, RJ, BRJ, and adaptive BRJ against a nested-loop
// reference for every join kind, over varied sizes, duplication factors, and
// selectivities. These are the invariants behind the paper's drop-in
// replacement claim: all joins must produce identical results.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exec/pipeline.h"
#include "exec/thread_pool.h"
#include "join/hash_join.h"
#include "join/join_types.h"
#include "join/radix_join.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace pjoin {
namespace {

constexpr int kBuildCols = 2;
constexpr int kProbeCols = 2;

RowLayout MakeLayout(const std::string& prefix, int cols) {
  std::vector<RowField> fields;
  for (int i = 0; i < cols; ++i) {
    fields.push_back(
        RowField{prefix + std::to_string(i), DataType::kInt64, 8, 0});
  }
  return RowLayout(std::move(fields));
}

RowLayout MakeOutputLayout(JoinKind kind) {
  std::vector<RowField> fields;
  for (int i = 0; i < kBuildCols; ++i) {
    fields.push_back(RowField{"b" + std::to_string(i), DataType::kInt64, 8, 0});
  }
  for (int i = 0; i < kProbeCols; ++i) {
    fields.push_back(RowField{"p" + std::to_string(i), DataType::kInt64, 8, 0});
  }
  if (kind == JoinKind::kMark) {
    fields.push_back(RowField{"mark", DataType::kInt64, 8, 0});
  }
  return RowLayout(std::move(fields));
}

JoinProjection MakeProjection(const RowLayout* build, const RowLayout* probe,
                              const RowLayout* out, JoinKind kind) {
  JoinProjection projection;
  projection.output = out;
  projection.build = build;
  projection.probe = probe;
  for (int i = 0; i < kBuildCols; ++i) projection.from_build.push_back({i, i});
  for (int i = 0; i < kProbeCols; ++i) {
    projection.from_probe.push_back({kBuildCols + i, i});
  }
  if (kind == JoinKind::kMark) {
    projection.mark_field = kBuildCols + kProbeCols;
  }
  return projection;
}

// Runs one join through real pipelines and returns sorted output rows.
IntRows RunJoin(JoinStrategy strategy, JoinKind kind, const IntRows& build,
                const IntRows& probe, int threads) {
  RowLayout build_layout = MakeLayout("b", kBuildCols);
  RowLayout probe_layout = MakeLayout("p", kProbeCols);
  RowLayout out_layout = MakeOutputLayout(kind);
  JoinProjection projection =
      MakeProjection(&build_layout, &probe_layout, &out_layout, kind);

  ThreadPool pool(threads);
  ExecContext exec(&pool);
  IntRowsSource build_src(&build_layout, &build);
  IntRowsSource probe_src(&probe_layout, &probe);
  IntCollectSink sink(&out_layout);

  if (strategy == JoinStrategy::kBHJ) {
    HashJoin join(kind, &build_layout, {0}, &probe_layout, {0}, projection);
    HashJoinBuildSink build_sink(&join);
    HashJoinProbe probe_op(&join);
    Pipeline build_pipe;
    build_pipe.set_source(&build_src);
    build_pipe.AddOperator(&build_sink);
    build_pipe.Run(exec);
    Pipeline probe_pipe;
    probe_pipe.set_source(&probe_src);
    probe_pipe.AddOperator(&probe_op);
    probe_pipe.AddOperator(&sink);
    probe_pipe.Run(exec);
    if (EmitsBuildRows(kind)) {
      HashJoinBuildScanSource scan(&join);
      Pipeline scan_pipe;
      scan_pipe.set_source(&scan);
      scan_pipe.AddOperator(&sink);
      scan_pipe.Run(exec);
    }
  } else {
    RadixJoin::Options options;
    options.strategy = strategy;
    options.expected_build_tuples = build.size() | 1;
    options.num_threads = threads;
    RadixJoin join(kind, &build_layout, {0}, &probe_layout, {0}, projection,
                   options);
    RadixBuildSink build_sink(&join);
    RadixProbeSink probe_sink(&join);
    PartitionJoinSource join_src(&join);
    Pipeline build_pipe;
    build_pipe.set_source(&build_src);
    build_pipe.AddOperator(&build_sink);
    build_pipe.Run(exec);
    Pipeline probe_pipe;
    probe_pipe.set_source(&probe_src);
    probe_pipe.AddOperator(&probe_sink);
    probe_pipe.Run(exec);
    Pipeline join_pipe;
    join_pipe.set_source(&join_src);
    join_pipe.AddOperator(&sink);
    join_pipe.Run(exec);
  }
  return sink.SortedRows();
}

IntRows MakeRelation(uint64_t rows, uint64_t key_universe, uint64_t seed,
                     int cols) {
  IntRows out;
  Rng rng(seed);
  out.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    std::vector<int64_t> row(cols);
    row[0] = static_cast<int64_t>(rng.Below(key_universe));
    for (int c = 1; c < cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

using JoinCase = std::tuple<JoinStrategy, JoinKind, int /*threads*/>;

class JoinCorrectnessTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinCorrectnessTest, MatchesReference) {
  auto [strategy, kind, threads] = GetParam();
  // ~50% of probe keys have partners; duplicates on both sides.
  IntRows build = MakeRelation(800, 500, 1, kBuildCols);
  IntRows probe = MakeRelation(5000, 1000, 2, kProbeCols);
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  ASSERT_EQ(actual.size(), expected.size())
      << JoinStrategyName(strategy) << "/" << JoinKindName(kind);
  EXPECT_EQ(actual, expected);
}

TEST_P(JoinCorrectnessTest, EmptyBuildSide) {
  auto [strategy, kind, threads] = GetParam();
  IntRows build;
  IntRows probe = MakeRelation(1000, 100, 3, kProbeCols);
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  EXPECT_EQ(actual, expected);
}

TEST_P(JoinCorrectnessTest, EmptyProbeSide) {
  auto [strategy, kind, threads] = GetParam();
  IntRows build = MakeRelation(500, 100, 4, kBuildCols);
  IntRows probe;
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  EXPECT_EQ(actual, expected);
}

TEST_P(JoinCorrectnessTest, AllKeysMatch) {
  auto [strategy, kind, threads] = GetParam();
  IntRows build = MakeRelation(300, 100, 5, kBuildCols);
  IntRows probe = MakeRelation(3000, 100, 6, kProbeCols);
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  EXPECT_EQ(actual, expected);
}

TEST_P(JoinCorrectnessTest, NoKeysMatch) {
  auto [strategy, kind, threads] = GetParam();
  IntRows build = MakeRelation(300, 100, 7, kBuildCols);
  IntRows probe = MakeRelation(2000, 100, 8, kProbeCols);
  for (auto& row : probe) row[0] += 1000000;  // disjoint key ranges
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  EXPECT_EQ(actual, expected);
}

TEST_P(JoinCorrectnessTest, HeavyDuplication) {
  auto [strategy, kind, threads] = GetParam();
  // Tiny key universe: every probe tuple matches many build tuples.
  IntRows build = MakeRelation(400, 10, 9, kBuildCols);
  IntRows probe = MakeRelation(1500, 15, 10, kProbeCols);
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, kBuildCols, kProbeCols);
  IntRows actual = RunJoin(strategy, kind, build, probe, threads);
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndKinds, JoinCorrectnessTest,
    ::testing::Combine(
        ::testing::Values(JoinStrategy::kBHJ, JoinStrategy::kRJ,
                          JoinStrategy::kBRJ, JoinStrategy::kBRJAdaptive),
        ::testing::Values(JoinKind::kInner, JoinKind::kProbeSemi,
                          JoinKind::kProbeAnti, JoinKind::kBuildSemi,
                          JoinKind::kBuildAnti, JoinKind::kLeftOuter,
                          JoinKind::kRightOuter, JoinKind::kMark),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      std::string name = JoinStrategyName(std::get<0>(info.param));
      name += "_";
      name += JoinKindName(std::get<1>(info.param));
      name += "_t" + std::to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (c == ' ' || c == '-' || c == '(' || c == ')') c = '_';
      }
      return name;
    });

// Larger randomized soak for inner joins across all strategies.
TEST(JoinSoak, LargeInnerJoinAllStrategiesAgree) {
  IntRows build = MakeRelation(20000, 15000, 11, kBuildCols);
  IntRows probe = MakeRelation(120000, 30000, 12, kProbeCols);
  IntRows reference =
      ReferenceJoin(build, probe, 0, JoinKind::kInner, kBuildCols, kProbeCols);
  for (JoinStrategy s : {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                         JoinStrategy::kBRJ, JoinStrategy::kBRJAdaptive}) {
    IntRows actual = RunJoin(s, JoinKind::kInner, build, probe, 4);
    ASSERT_EQ(actual.size(), reference.size()) << JoinStrategyName(s);
    ASSERT_EQ(actual, reference) << JoinStrategyName(s);
  }
}

// The Bloom filter must drop non-matching probe tuples before partitioning.
TEST(BloomRadixJoin, FilterDropsNonMatchingTuples) {
  RowLayout build_layout = MakeLayout("b", kBuildCols);
  RowLayout probe_layout = MakeLayout("p", kProbeCols);
  RowLayout out_layout = MakeOutputLayout(JoinKind::kInner);
  JoinProjection projection = MakeProjection(&build_layout, &probe_layout,
                                             &out_layout, JoinKind::kInner);
  IntRows build = MakeRelation(500, 500, 13, kBuildCols);
  IntRows probe = MakeRelation(20000, 500, 14, kProbeCols);
  for (size_t i = 0; i < probe.size(); ++i) {
    if (i % 20 != 0) probe[i][0] += 1000000;  // 95% never match
  }

  ThreadPool pool(2);
  ExecContext exec(&pool);
  RadixJoin::Options options;
  options.strategy = JoinStrategy::kBRJ;
  options.expected_build_tuples = build.size();
  options.num_threads = 2;
  RadixJoin join(JoinKind::kInner, &build_layout, {0}, &probe_layout, {0},
                 projection, options);
  RadixBuildSink build_sink(&join);
  RadixProbeSink probe_sink(&join);
  PartitionJoinSource join_src(&join);
  IntRowsSource build_src(&build_layout, &build);
  IntRowsSource probe_src(&probe_layout, &probe);
  IntCollectSink sink(&out_layout);

  Pipeline bp;
  bp.set_source(&build_src);
  bp.AddOperator(&build_sink);
  bp.Run(exec);
  Pipeline pp;
  pp.set_source(&probe_src);
  pp.AddOperator(&probe_sink);
  pp.Run(exec);
  Pipeline jp;
  jp.set_source(&join_src);
  jp.AddOperator(&sink);
  jp.Run(exec);

  // >=90% of the probe side must have been dropped pre-materialization
  // (95% minus Bloom false positives).
  EXPECT_GT(join.CollectMetrics().bloom.negatives, probe.size() * 9 / 10);
  EXPECT_LT(join.probe_partitioner().total_tuples(), probe.size() / 5);
  // And the result still matches the reference.
  IntRows expected = ReferenceJoin(build, probe, 0, JoinKind::kInner,
                                   kBuildCols, kProbeCols);
  EXPECT_EQ(sink.SortedRows(), expected);
}

// The adaptive BRJ must switch its filter off when everything passes.
TEST(BloomRadixJoin, AdaptiveSwitchesOffAtFullSelectivity) {
  RowLayout build_layout = MakeLayout("b", kBuildCols);
  RowLayout probe_layout = MakeLayout("p", kProbeCols);
  RowLayout out_layout = MakeOutputLayout(JoinKind::kInner);
  JoinProjection projection = MakeProjection(&build_layout, &probe_layout,
                                             &out_layout, JoinKind::kInner);
  IntRows build = MakeRelation(2000, 300, 15, kBuildCols);
  // Guarantee every probe key exists on the build side (true 100% match):
  for (int64_t k = 0; k < 300; ++k) build.push_back({k, 0});
  IntRows probe = MakeRelation(60000, 300, 16, kProbeCols);

  ThreadPool pool(1);
  ExecContext exec(&pool);
  RadixJoin::Options options;
  options.strategy = JoinStrategy::kBRJAdaptive;
  options.expected_build_tuples = build.size();
  options.num_threads = 1;
  RadixJoin join(JoinKind::kInner, &build_layout, {0}, &probe_layout, {0},
                 projection, options);
  RadixBuildSink build_sink(&join);
  RadixProbeSink probe_sink(&join);
  IntRowsSource build_src(&build_layout, &build);
  IntRowsSource probe_src(&probe_layout, &probe);

  Pipeline bp;
  bp.set_source(&build_src);
  bp.AddOperator(&build_sink);
  bp.Run(exec);
  Pipeline pp;
  pp.set_source(&probe_src);
  pp.AddOperator(&probe_sink);
  pp.Run(exec);

  EXPECT_FALSE(join.adaptive_controller().enabled());
  // Nothing may be dropped at 100% selectivity.
  EXPECT_EQ(join.CollectMetrics().bloom.negatives, 0u);
  EXPECT_EQ(join.probe_partitioner().total_tuples(), probe.size());
}

}  // namespace
}  // namespace pjoin
