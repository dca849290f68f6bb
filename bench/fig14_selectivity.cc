// Figure 14: impact of pre-filtering the probe side with the Bloom filter —
// foreign-key selectivity sweep on workload A.
#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Figure 14: Impact of Bloom-filter early probing (selectivity sweep)",
      "Bandle et al., Figure 14",
      "workload A, probe size constant, match fraction varied");

  ThreadPool pool(threads);
  TablePrinter table({"join partners [%]", "BRJ [G T/s]", "BHJ [G T/s]",
                      "RJ [G T/s]", "BRJ adaptive [G T/s]", "filter dropped"});
  for (int partners = 0; partners <= 100; partners += 10) {
    MicroWorkload w =
        MakeSelectivityWorkload(divisor, partners / 100.0);
    auto plan = CountJoinPlan(w);
    QueryStats brj = MeasurePlan(
        *plan, bench::Options(JoinStrategy::kBRJ, threads), reps, &pool);
    QueryStats bhj = MeasurePlan(
        *plan, bench::Options(JoinStrategy::kBHJ, threads), reps, &pool);
    QueryStats rj = MeasurePlan(
        *plan, bench::Options(JoinStrategy::kRJ, threads), reps, &pool);
    QueryStats adaptive = MeasurePlan(
        *plan, bench::Options(JoinStrategy::kBRJAdaptive, threads), reps,
        &pool);
    uint64_t dropped = 0;
    for (const JoinMetrics& j : brj.metrics.joins()) {
      dropped += j.bloom.negatives;
    }
    table.AddRow({std::to_string(partners), bench::Gts(brj.Throughput()),
                  bench::Gts(bhj.Throughput()), bench::Gts(rj.Throughput()),
                  bench::Gts(adaptive.Throughput()),
                  std::to_string(dropped)});
    const std::string tag = "fig14 partners=" + std::to_string(partners);
    bench::DumpMetrics(tag + " BRJ", brj);
    bench::DumpMetrics(tag + " BRJadaptive", adaptive);
  }
  table.Print();
  std::printf(
      "\npaper shape: BRJ is up to ~50%% faster than RJ at low selectivity;\n"
      "RJ overtakes BRJ once >50%% of foreign keys find a partner; the\n"
      "adaptive BRJ tracks the better of the two (<10%% sampling overhead);\n"
      "RJ is 10-40%% faster than BHJ at low selectivity when all other\n"
      "parameters are near-optimal.\n");
  return 0;
}
