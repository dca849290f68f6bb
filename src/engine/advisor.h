// Cost-based join-strategy advisor: "to partition, or not to partition",
// answered per join at plan-lowering time (the paper's Section 5 decision,
// turned into an analytic model instead of a manual knob).
//
// For every join node the advisor scores
//   * BHJ  — materialize the build side once, probe fully pipelined; pays
//            one cache/DRAM miss per probe tuple when the table outgrows the
//            cache hierarchy,
//   * RJ   — partition both sides (bandwidth-bound multi-pass scatter) so
//            every per-partition table fits L2; pays the full partitioning
//            traffic on the probe side and breaks the probe pipeline,
//   * BRJ  — RJ plus a Bloom filter built from the build keys that prunes
//            non-joining probe tuples *before* they are partitioned,
// in a common currency (modeled bytes of memory traffic) and picks the
// cheapest, with the paper's asymmetry built in: partitioning must win by a
// clear margin before it is chosen, because the BHJ's downside is bounded
// while the RJ's is not (Section 5.2, "when in doubt, do not partition").
//
// Because estimates lie, advisor-chosen radix joins run under a runtime
// guardrail (AutoJoinRuntime): the build side is staged through the radix
// partitioner's pass 1 as usual, but if the staged tuple count overflows the
// estimate by kBuildOverflowFactor, the join falls back to BHJ on the spot —
// the staged [hash][row] tuples are re-routed into the chaining hash table
// without re-reading the input, and the probe and join pipelines execute the
// non-partitioned plan. The fallback is recorded in QueryMetrics.
#ifndef PJOIN_ENGINE_ADVISOR_H_
#define PJOIN_ENGINE_ADVISOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/plan.h"
#include "engine/sampler.h"
#include "exec/pipeline.h"
#include "join/hash_join.h"
#include "join/radix_join.h"
#include "storage/row_buffer.h"

namespace pjoin {

struct AdvisorOptions {
  // Cache-size overrides for the cost model; 0 = use the host's values from
  // GetCpuInfo(). Tests pin these to make decisions machine-independent.
  uint64_t l2_bytes = 0;
  uint64_t llc_bytes = 0;

  // A partitioned strategy is chosen only when its modeled cost is below
  // margin * cost(BHJ) — the "when in doubt, do not partition" asymmetry.
  double partition_margin = 0.9;

  // Memory budget for the I/O-aware cost term; 0 = read the process-wide
  // governor's budget (PJOIN_MEMORY_BUDGET). When the modeled build state
  // exceeds the budget the advisor adds spill I/O to each strategy — the
  // radix join spills its already-formed pass-1 partitions, while the BHJ
  // pays an extra re-pack pass on top, so inevitable spilling tilts the
  // decision toward partitioning (the NOCAP observation).
  uint64_t memory_budget = 0;

  // Build-side reservoir sample size for the skew estimate. The default
  // sentinel reads PJOIN_SKEW_SAMPLE (1024 unless overridden); 0 disables
  // the sampling pass and every skew cost term. Sampling uses a fixed seed,
  // so repeated plans of the same query decide identically.
  uint64_t skew_sample_size = UINT64_MAX;

  // Mid-query re-planning trigger. When the resolved value is > 0, every
  // advised join (BHJ picks included) runs guarded, and when the engine
  // choice resolves at the probe sink's Prepare it re-costs the strategy if
  // the observed build/probe q-error meets the threshold. 0 disables (the
  // plan-time choice runs, guarded only by the overflow fallback); the
  // default sentinel (-1) reads PJOIN_REPLAN_QERROR, which defaults to 0.
  double replan_qerror = -1.0;

  // Fault injection for re-planner tests and bench/ext_misestimate:
  // multiplies every join's build-side cardinality estimate inside the
  // advisor walk, compounding up the join chain. The default sentinel
  // (<= 0) reads PJOIN_EST_SCALE, which defaults to 1 (no corruption).
  double est_scale = 0.0;
};

// Runtime guardrail: an advisor-chosen radix join falls back to BHJ when
// the staged build side exceeds its estimate by this factor.
constexpr double kBuildOverflowFactor = 4.0;

// One join's scored decision. Costs are modeled bytes of memory traffic.
struct JoinDecision {
  JoinStrategy choice = JoinStrategy::kBHJ;
  uint64_t est_build_rows = 0;
  uint64_t est_probe_rows = 0;
  uint32_t build_width = 0;  // materialized build row bytes
  uint32_t probe_width = 0;  // probe row bytes entering the join
  int probe_depth = 0;       // joins below the probe side (pipeline depth)
  uint64_t est_out_rows = 0;        // estimated join output (AdvisePlan only)
  uint64_t est_build_base_rows = 0; // unfiltered build base-table cardinality
  uint64_t est_ht_bytes = 0; // BHJ hash table: entries + directory
  double est_pass_rate = 1.0;  // modeled Bloom pass rate (BRJ)
  double cost_bhj = 0;
  double cost_rj = 0;
  double cost_brj = 0;
  bool spill_expected = false;  // budgeted run: some strategy must spill
  // Skew estimate (populated when a build-side sample informed the costs).
  bool skew_sampled = false;
  uint64_t skew_sample_rows = 0;
  double est_top_share = 0;        // sampled share of the hottest key
  double est_topk_share = 0;       // sampled share of the top-16 keys
  double est_key_payload_corr = 0; // |Pearson r| of (key, payload) sample
  double est_max_partition_share = 0;  // max(hottest key, even 1/P spread)
  bool skew_overflow = false;  // share overflows one margin-scaled partition
  bool skew_defense = false;   // partitioned pick runs the runtime defense
  const char* reason = "";  // static string, stable across runs
};

class JoinAdvisor {
 public:
  // Walks the plan exactly like the executor's lowering (required-column
  // propagation, build side before probe side) and scores every join.
  // Returned decisions are keyed by the executor's post-order join id, so
  // the executor and EXPLAIN resolve kAuto identically by construction.
  static std::map<int, JoinDecision> AdvisePlan(const PlanNode& root,
                                                const AdvisorOptions& options);

  // The cost model proper, exposed for decision-surface tests.
  // `build_base_rows` is the unfiltered cardinality of the build subtree's
  // base table; est_build / base bounds the Bloom filter's pass rate under
  // the FK-containment assumption. `skew`, when present, is a build-side
  // sample summary that penalizes the partitioned strategies for the share
  // their hottest partition would absorb.
  static JoinDecision Decide(JoinKind kind, uint64_t est_build_rows,
                             uint64_t build_base_rows,
                             uint64_t est_probe_rows, uint32_t build_width,
                             uint32_t probe_width, int probe_depth,
                             const AdvisorOptions& options,
                             const SkewEstimate* skew = nullptr);

  // Largest build-side share one final partition can absorb before its
  // robin-hood table overflows the margin-scaled L2 target. Shares above it
  // mark the decision skew_overflow, penalize RJ/BRJ, and arm the runtime
  // defense on any partitioned pick.
  static double PartitionOverflowShare(uint64_t est_build_rows,
                                       uint32_t build_width,
                                       const AdvisorOptions& options);

  // Resolved re-plan trigger: options.replan_qerror, or PJOIN_REPLAN_QERROR
  // when the option holds the sentinel. > 0 arms deferred re-planning.
  static double ResolvedReplanThreshold(const AdvisorOptions& options);

  // Resolved estimate-corruption factor: options.est_scale, or
  // PJOIN_EST_SCALE when the option holds the sentinel.
  static double ResolvedEstimateScale(const AdvisorOptions& options);
};

// Copies the advisor's decision record into a join's metrics so EXPLAIN
// ANALYZE and the JSON export can show estimated vs actual.
void AttachAdvisorMetrics(JoinMetrics& m, const JoinDecision& d);

// Shared state of one advisor-chosen radix join running under the build
// guardrail. Owns both physical joins; only one of them executes the probe:
// the radix join on the happy path, the hash join after a fallback.
class AutoJoinRuntime {
 public:
  AutoJoinRuntime(JoinKind kind, const RowLayout* build_layout,
                  std::vector<int> build_keys, const RowLayout* probe_layout,
                  std::vector<int> probe_keys, JoinProjection projection,
                  const RadixJoin::Options& radix_options,
                  const JoinDecision& decision);

  JoinKind kind() const { return kind_; }
  RadixJoin& radix() { return *radix_; }
  HashJoin& hash() { return *hash_; }
  const JoinDecision& decision() const { return decision_; }

  bool fell_back() const { return fell_back_; }

  // --- engine decision -----------------------------------------------------
  // The build sink's Finish leaves the build side staged (DeferDecision);
  // the probe sink's Prepare picks the engine (ResolveDeferred), after every
  // join in the probe subtree has run its build.

  // Arms mid-query re-planning (PJOIN_REPLAN_QERROR > 0): joins in the probe
  // subtree (post-order ids [feedback_begin, feedback_end)) publish their
  // observed cardinality into ExecContext, and ResolveDeferred re-costs the
  // strategy with the staged build count and the feedback-corrected probe
  // estimate whenever either q-error reaches the threshold.
  void ArmReplan(double qerror_threshold, const AdvisorOptions& options,
                 int feedback_begin, int feedback_end);
  bool replan_armed() const { return replan_qerror_ > 0; }

  // Build pipeline finished: remember the staged tuple count and the sink
  // that can finalize the radix build and, when re-planning is armed,
  // publish this join's corrected output estimate for downstream joins.
  void DeferDecision(ExecContext& exec, RadixBuildSink* build_sink,
                     uint64_t staged);

  // The one place that picks BHJ or radix. Re-planning armed: reads upstream
  // cardinality feedback and re-costs if the q-error trigger fires.
  // Otherwise the overflow guardrail demotes a radix pick whose staged build
  // exceeds kBuildOverflowFactor times its estimate. Then either finalizes
  // the radix build or re-routes the staged tuples into the BHJ table.
  // Called from AutoProbeSink::Prepare — pipelines prepare and finish
  // serially, so no synchronization is needed.
  void ResolveDeferred(ExecContext& exec);

  // Feedback refinements on the resolved path (observed probe count, exact
  // join output); no-ops when re-planning is off.
  void RecordProbeFeedback(ExecContext& exec, uint64_t actual_probe);
  void RecordOutputFeedback(ExecContext& exec, uint64_t actual_out);

  void set_join_id(int id);
  int join_id() const { return radix_->join_id(); }

  // Metrics of whichever engine actually ran, plus the decision records.
  JoinMetrics CollectMetrics() const;

  // Fallback probe output: the BHJ probe emits output-format rows into
  // per-worker buffers here; the join source replays them downstream.
  void PrepareSpill(int num_threads, uint32_t out_stride);
  RowBuffer& spill(int thread_id) { return spill_[thread_id]; }
  int num_spill_buffers() const { return static_cast<int>(spill_.size()); }

 private:
  // Re-routes the staged pass-1 tuples into the chaining hash table and
  // finishes the BHJ build (an overflow demotion or a re-plan switch to BHJ).
  // The staged hashes are exactly what the chaining table keys on, so no
  // input re-read is needed.
  void RouteStagedToHashTable(ExecContext& exec);

  JoinKind kind_;
  JoinDecision decision_;
  JoinStrategy radix_strategy_;  // partitioned variant the radix engine runs
  uint64_t build_limit_;
  std::unique_ptr<RadixJoin> radix_;
  std::unique_ptr<HashJoin> hash_;
  bool fell_back_ = false;         // the hash engine executes this join
  bool overflow_demoted_ = false;  // guardrail demoted the pick (metrics)
  std::vector<RowBuffer> spill_;

  // Deferred-decision state (the replan fields only when armed).
  double replan_qerror_ = 0;  // 0 = re-planning off
  AdvisorOptions replan_options_;
  int feedback_begin_ = 0;
  int feedback_end_ = 0;
  bool decision_pending_ = false;
  uint64_t staged_build_ = 0;
  RadixBuildSink* deferred_build_sink_ = nullptr;
  ReplanMetrics replan_;
};

// Terminates the build pipeline of an advisor-chosen join. Stages tuples
// through the radix partitioner's pass 1; Finish leaves them staged for the
// runtime's decision (AutoJoinRuntime::ResolveDeferred).
class AutoBuildSink : public Operator {
 public:
  explicit AutoBuildSink(AutoJoinRuntime* rt) : rt_(rt), radix_sink_(&rt->radix()) {}

  void Prepare(ExecContext& exec) override;
  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return rt_->radix().build_layout();
  }

  const char* MetricsName() const override { return "auto_build"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(rt_->join_id());
  }

 private:
  AutoJoinRuntime* rt_;
  RadixBuildSink radix_sink_;
};

// Terminates the probe pipeline: radix probe sink on the happy path, BHJ
// probe (spilling its output) after a fallback. The mode is fixed by the
// time Prepare runs, because the build pipeline finished first.
class AutoProbeSink : public Operator {
 public:
  explicit AutoProbeSink(AutoJoinRuntime* rt);

  void Prepare(ExecContext& exec) override;
  void Open(ThreadContext& ctx) override;
  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return rt_->radix().probe_layout();
  }

  const char* MetricsName() const override { return "auto_probe"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(rt_->join_id());
  }

 private:
  // Fallback only: copies probe output batches into the runtime's spill.
  class SpillSink : public Operator {
   public:
    explicit SpillSink(AutoJoinRuntime* rt) : rt_(rt) {}
    void Consume(Batch& batch, ThreadContext& ctx) override;
    const RowLayout* OutputLayout() const override {
      return rt_->hash().projection().output;
    }

   private:
    AutoJoinRuntime* rt_;
  };

  AutoJoinRuntime* rt_;
  RadixProbeSink radix_sink_;
  HashJoinProbe hash_probe_;
  SpillSink spill_;
};

// Starts the join pipeline: partition-pair joining on the happy path; after
// a fallback it replays the spilled probe output and (for build-preserving
// kinds) the BHJ's post-probe hash-table scan.
class AutoJoinSource : public Source {
 public:
  explicit AutoJoinSource(AutoJoinRuntime* rt);

  void Prepare(ExecContext& exec) override;
  void Open(ThreadContext& ctx) override;
  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return rt_->radix().projection().output;
  }

  const char* MetricsName() const override { return "auto_join"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(rt_->join_id());
  }

 private:
  AutoJoinRuntime* rt_;
  PartitionJoinSource partition_src_;
  HashJoinBuildScanSource ht_scan_;
  std::atomic<int> spill_cursor_{0};
};

}  // namespace pjoin

#endif  // PJOIN_ENGINE_ADVISOR_H_
