// Microbenchmark lab: run any point of the paper's Section 5.4 design space
// from the command line.
//
//   ./build/examples/microbench_lab [--selectivity=PCT] [--payload=COLS]
//       [--zipf=Z] [--depth=D] [--scale=DIV] [--threads=N] [--reps=R]
//       [--lm]
//
// Examples:
//   ./build/examples/microbench_lab --selectivity=5
//   ./build/examples/microbench_lab --payload=4 --lm
//   ./build/examples/microbench_lab --zipf=1.5
//   ./build/examples/microbench_lab --depth=4
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util/harness.h"
#include "bench_util/workloads.h"
#include "util/env.h"
#include "util/table_printer.h"

using namespace pjoin;

namespace {

double FlagValue(int argc, char** argv, const char* name, double def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return def;
}

bool HasFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const double selectivity = FlagValue(argc, argv, "selectivity", 100.0);
  const int payload = static_cast<int>(FlagValue(argc, argv, "payload", 1));
  const double zipf = FlagValue(argc, argv, "zipf", 0.0);
  const int depth = static_cast<int>(FlagValue(argc, argv, "depth", 0));
  const int64_t divisor = static_cast<int64_t>(
      FlagValue(argc, argv, "scale", WorkloadScaleDivisor()));
  const int threads =
      static_cast<int>(FlagValue(argc, argv, "threads", DefaultThreads()));
  const int reps = static_cast<int>(FlagValue(argc, argv, "reps", 3));
  const bool lm = HasFlag(argc, argv, "lm");

  MicroWorkload w;
  std::unique_ptr<PlanNode> plan;
  std::string description;
  if (depth > 0) {
    w = MakeStarWorkload(divisor, depth);
    plan = StarJoinPlan(w);
    description = "star schema, depth " + std::to_string(depth);
  } else if (zipf > 0) {
    w = MakeSkewWorkload(divisor, zipf);
    plan = CountJoinPlan(w);
    description = "workload A with Zipf z=" + std::to_string(zipf);
  } else if (payload > 1 || lm) {
    w = MakePayloadWorkload(divisor, payload, selectivity / 100.0);
    plan = SumAllPayloadsPlan(w);
    description = "workload A, " + std::to_string(payload) +
                  " payload columns, selectivity " +
                  std::to_string(static_cast<int>(selectivity)) + "%";
  } else {
    w = MakeSelectivityWorkload(divisor, selectivity / 100.0);
    plan = CountJoinPlan(w);
    description = "workload A, selectivity " +
                  std::to_string(static_cast<int>(selectivity)) + "%";
  }

  std::printf("%s (build %llu, probe %llu tuples, %d thread(s)%s)\n\n",
              description.c_str(),
              static_cast<unsigned long long>(w.build_tuples),
              static_cast<unsigned long long>(w.probe_tuples), threads,
              lm ? ", late materialization" : "");

  ThreadPool pool(threads);
  TablePrinter table({"strategy", "time [ms]", "throughput [M T/s]",
                      "partition MiB", "bloom dropped"});
  for (JoinStrategy s : {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                         JoinStrategy::kBRJ, JoinStrategy::kBRJAdaptive}) {
    ExecOptions options;
    options.join_strategy = s;
    options.num_threads = threads;
    options.late_materialization = lm;
    QueryStats stats = MeasurePlan(*plan, options, reps, &pool);
    uint64_t partition_bytes = 0, dropped = 0;
    for (const JoinMetrics& j : stats.metrics.joins()) {
      partition_bytes += j.build_side.output_bytes + j.probe_side.output_bytes;
      dropped += j.bloom.negatives;
    }
    table.AddRow({JoinStrategyName(s),
                  TablePrinter::Double(stats.seconds * 1e3, 1),
                  TablePrinter::Double(stats.Throughput() / 1e6, 1),
                  TablePrinter::Double(partition_bytes / 1048576.0, 1),
                  std::to_string(dropped)});
  }
  table.Print();
  return 0;
}
