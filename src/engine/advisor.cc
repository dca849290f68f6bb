#include "engine/advisor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "engine/coded_keys.h"
#include "spill/memory_governor.h"
#include "util/check.h"
#include "util/cpu_info.h"
#include "util/env.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {

// --- Cost-model calibration ------------------------------------------------
// All costs are modeled bytes of memory traffic per join. The constants
// encode the paper's Section 5 surfaces qualitatively: a non-partitioned
// probe pays at most two cache lines per tuple (directory slot + entry, with
// software prefetching hiding most of the latency), while partitioning pays
// a fixed number of full passes over padded tuples on both sides.

// Per-probe-tuple penalty (bytes) when the BHJ table lives in the LLC.
constexpr double kLlcMissBytes = 24.0;
// Per-probe-tuple penalty (bytes) when the BHJ table spills to DRAM:
// directory line plus entry line, discounted for prefetch overlap.
constexpr double kDramMissBytes = 96.0;
// Material passes over each side's padded partition tuples: pass-1 write,
// histogram re-scan, pass-2 read + write, join-phase read.
constexpr double kPassFactor = 5.0;
// Per-partition robin-hood insert cost per build tuple (bytes).
constexpr double kPartitionInsertBytes = 16.0;
// Pipeline-depth penalty per join below the probe side: partitioning breaks
// the probe pipeline, re-materializing work the joins below already paid for.
constexpr double kDepthPenalty = 0.05;
// Bloom filter: bytes touched per key on build and per tuple on probe.
constexpr double kBloomBytesPerKey = 8.0;
// False-positive allowance added to the modeled pass rate.
constexpr double kBloomFpAllowance = 0.05;
// Above this modeled pass rate a winning BRJ is demoted to the adaptive
// variant: the filter is likely useless and should be able to switch off.
constexpr double kAdaptivePassRate = 0.8;
// Cost (in modeled memory-traffic bytes) per byte of spill I/O. Buffered
// sequential temp-file I/O is slower than a DRAM pass but not catastrophically
// so; the factor applies to write + re-read of every spilled byte.
constexpr double kSpillIoFactor = 4.0;

// Stride of a [hash:8B][row] partition tuple as the radix partitioner pads
// it (power of two up to 64 bytes for write-combine buffers).
double PaddedPartitionStride(uint32_t row_width) {
  uint32_t s = 8 + row_width;
  if (s > 64) return (s + 7u) & ~7u;
  uint32_t p = 1;
  while (p < s) p <<= 1;
  return p;
}

// Share of the build side an evenly-loaded final partition would hold,
// mirroring ChooseRadixBits: fan-out targets half of L2 per partition
// (tuple + table-slot bytes), clamped to 16 total bits.
double EvenPartitionShare(uint64_t est_build_rows, uint32_t build_width,
                          uint64_t l2) {
  const double per_tuple = PaddedPartitionStride(build_width) + 24.0;
  const double budget = std::max(1.0, static_cast<double>(l2) / 2.0);
  const double want =
      std::max(1.0, static_cast<double>(est_build_rows) * per_tuple / budget);
  int bits = 1;
  while (bits < 16 && (1u << bits) < want) ++bits;
  return 1.0 / static_cast<double>(1u << bits);
}

// --- Plan walk -------------------------------------------------------------
// Mirrors the executor's lowering: the same required-column propagation and
// the same post-order join numbering, so decisions line up with
// ExecOptions::join_overrides and QueryMetrics join ids by construction.
// (Late materialization is not modeled; its narrower widths only make the
// non-partitioned side cheaper, which the margin rule already favors.)

struct WalkContext {
  const AdvisorOptions* options = nullptr;
  std::map<std::string, uint32_t> width;  // column name -> byte width
  std::map<int, JoinDecision>* out = nullptr;
  int next_join_id = 0;
  uint64_t skew_sample_size = 0;  // resolved: 0 disables sampling
  double est_scale = 1.0;         // resolved fault-injection factor
};

// (The base-column trace the skew sampler uses lives in plan.cc now —
// ResolveBaseColumn — shared with the statistics-backed join estimate.)

struct SubtreeInfo {
  uint64_t est_rows = 0;   // estimated output cardinality
  uint64_t base_rows = 0;  // unfiltered base-table cardinality (probe chain)
  int joins = 0;           // joins inside the subtree
};

void CollectProvidedNames(const PlanNode& node, std::set<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      for (const auto& def : node.table->schema().columns()) {
        out->insert(def.name);
      }
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      CollectProvidedNames(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectProvidedNames(*node.child, out);
      for (const auto& map : node.maps) out->insert(map.name);
      break;
    case PlanNode::Kind::kJoin:
      CollectProvidedNames(*node.build, out);
      CollectProvidedNames(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) out->insert(node.mark_name);
      break;
  }
}

void CollectWidths(const PlanNode& node, std::map<std::string, uint32_t>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      for (const auto& def : node.table->schema().columns()) {
        (*out)[def.name] = def.width();
      }
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      CollectWidths(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectWidths(*node.child, out);
      for (const auto& map : node.maps) {
        (*out)[map.name] = TypeWidth(map.type, map.char_len);
      }
      break;
    case PlanNode::Kind::kJoin:
      CollectWidths(*node.build, out);
      CollectWidths(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) (*out)[node.mark_name] = 8;
      break;
  }
}

uint32_t SumWidths(const WalkContext& ctx, const std::set<std::string>& names) {
  uint32_t w = 0;
  for (const auto& name : names) {
    auto it = ctx.width.find(name);
    if (it != ctx.width.end()) w += it->second;
  }
  return w;
}

SubtreeInfo Walk(const PlanNode& node, const std::set<std::string>& required,
                 WalkContext& ctx) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return SubtreeInfo{node.EstimateRows(), node.table->num_rows(), 0};
    case PlanNode::Kind::kFilter: {
      std::set<std::string> child_required = required;
      for (const auto& name : node.filter.inputs) child_required.insert(name);
      return Walk(*node.child, child_required, ctx);
    }
    case PlanNode::Kind::kMap: {
      std::set<std::string> child_required;
      std::set<std::string> produced;
      for (const auto& map : node.maps) produced.insert(map.name);
      for (const auto& name : required) {
        if (!produced.count(name)) child_required.insert(name);
      }
      for (const auto& map : node.maps) {
        for (const auto& name : map.inputs) child_required.insert(name);
      }
      return Walk(*node.child, child_required, ctx);
    }
    case PlanNode::Kind::kJoin: {
      std::set<std::string> build_names, probe_names;
      CollectProvidedNames(*node.build, &build_names);
      CollectProvidedNames(*node.probe, &probe_names);
      std::set<std::string> build_required, probe_required;
      for (const auto& name : required) {
        if (node.join_kind == JoinKind::kMark && name == node.mark_name) {
          continue;
        }
        if (build_names.count(name)) {
          build_required.insert(name);
        } else if (probe_names.count(name)) {
          probe_required.insert(name);
        }
      }
      for (const auto& [b, p] : node.keys) {
        build_required.insert(b);
        probe_required.insert(p);
      }
      SubtreeInfo build = Walk(*node.build, build_required, ctx);
      SubtreeInfo probe = Walk(*node.probe, probe_required, ctx);
      const int join_id = ctx.next_join_id++;
      // Fault injection (PJOIN_EST_SCALE / AdvisorOptions::est_scale):
      // corrupt the build-side estimate before costing. The corruption also
      // feeds the join-output estimate below, so it compounds up the chain
      // the way a real base-table misestimate would.
      uint64_t est_build = build.est_rows;
      if (ctx.est_scale != 1.0) {
        est_build = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(
                   static_cast<double>(build.est_rows) * ctx.est_scale)));
      }
      // Skew estimate: sample the build key's base column (fixed seed, so
      // EXPLAIN and execute decide identically run after run).
      SkewEstimate skew;
      if (ctx.skew_sample_size > 0 && !node.keys.empty()) {
        int key_col = -1;
        const Table* table =
            ResolveBaseColumn(*node.build, node.keys[0].first, &key_col);
        if (table != nullptr) {
          skew = SampleBuildColumn(*table, key_col, ctx.skew_sample_size);
        }
      }
      JoinDecision d = JoinAdvisor::Decide(
          node.join_kind, est_build, build.base_rows, probe.est_rows,
          SumWidths(ctx, build_required), SumWidths(ctx, probe_required),
          probe.joins, *ctx.options, skew.present ? &skew : nullptr);
      d.skew_sample_rows = skew.present ? skew.sample_rows : 0;
      d.est_build_base_rows = build.base_rows;
      d.est_out_rows = EstimateJoinOutputRows(node, est_build, probe.est_rows);
      (*ctx.out)[join_id] = d;
      return SubtreeInfo{d.est_out_rows, probe.base_rows,
                         build.joins + probe.joins + 1};
    }
    case PlanNode::Kind::kAgg:
      PJOIN_CHECK_MSG(false, "aggregate must be the root");
  }
  return {};
}

}  // namespace

std::map<int, JoinDecision> JoinAdvisor::AdvisePlan(
    const PlanNode& root, const AdvisorOptions& options) {
  PJOIN_CHECK(root.kind == PlanNode::Kind::kAgg);
  std::map<int, JoinDecision> decisions;
  WalkContext ctx;
  ctx.options = &options;
  ctx.out = &decisions;
  ctx.skew_sample_size = options.skew_sample_size == UINT64_MAX
                             ? SkewSampleSize()
                             : options.skew_sample_size;
  ctx.est_scale = ResolvedEstimateScale(options);
  CollectWidths(root, &ctx.width);
  // Keys that execute as 4-byte dictionary codes (engine/coded_keys.h) are
  // costed at the code width, so the advisor models the tuples the engine
  // actually moves. Deterministic: the executor runs the same collection
  // over the same plan, so EXPLAIN and execution decide identically.
  for (const CodedKeyPlan& plan : CollectCodedJoinKeys(root)) {
    ctx.width[plan.build_name] = 4;
    ctx.width[plan.probe_name] = 4;
  }

  std::set<std::string> root_required;
  for (const auto& name : root.group_by) root_required.insert(name);
  for (const auto& agg : root.aggs) {
    if (agg.op != AggDef::Op::kCountStar) root_required.insert(agg.input);
  }
  Walk(*root.child, root_required, ctx);
  return decisions;
}

double JoinAdvisor::PartitionOverflowShare(uint64_t est_build_rows,
                                           uint32_t build_width,
                                           const AdvisorOptions& options) {
  const uint64_t l2 =
      options.l2_bytes > 0 ? options.l2_bytes : GetCpuInfo().l2_bytes;
  const double per_tuple = PaddedPartitionStride(build_width) + 24.0;
  const double build =
      static_cast<double>(std::max<uint64_t>(1, est_build_rows));
  return std::min(1.0, options.partition_margin * static_cast<double>(l2) /
                           (build * per_tuple));
}

double JoinAdvisor::ResolvedReplanThreshold(const AdvisorOptions& options) {
  return options.replan_qerror < 0 ? ReplanQErrorThreshold()
                                   : options.replan_qerror;
}

double JoinAdvisor::ResolvedEstimateScale(const AdvisorOptions& options) {
  return options.est_scale <= 0 ? EstimateScale() : options.est_scale;
}

JoinDecision JoinAdvisor::Decide(JoinKind kind, uint64_t est_build_rows,
                                 uint64_t build_base_rows,
                                 uint64_t est_probe_rows, uint32_t build_width,
                                 uint32_t probe_width, int probe_depth,
                                 const AdvisorOptions& options,
                                 const SkewEstimate* skew) {
  const CpuInfo& cpu = GetCpuInfo();
  const uint64_t l2 = options.l2_bytes > 0 ? options.l2_bytes : cpu.l2_bytes;
  const uint64_t llc =
      options.llc_bytes > 0 ? options.llc_bytes : cpu.llc_bytes;

  JoinDecision d;
  d.est_build_rows = est_build_rows;
  d.est_probe_rows = est_probe_rows;
  d.build_width = build_width;
  d.probe_width = probe_width;
  d.probe_depth = probe_depth;

  const double build = static_cast<double>(std::max<uint64_t>(1, est_build_rows));
  const double probe = static_cast<double>(std::max<uint64_t>(1, est_probe_rows));

  // BHJ: the chaining table holds [next][hash][matched?][row] entries plus a
  // 2x directory of 8-byte tagged slots.
  const uint32_t header = TracksBuildMatches(kind) ? 24 : 16;
  const double entry = (header + build_width + 7u) & ~7u;
  d.est_ht_bytes = static_cast<uint64_t>(build * (entry + 16.0));

  double miss = kDramMissBytes;
  if (d.est_ht_bytes <= l2) {
    miss = 0.0;
  } else if (d.est_ht_bytes <= llc) {
    miss = kLlcMissBytes;
  }
  d.cost_bhj = 2.0 * build * entry + probe * (probe_width + miss);

  // RJ: kPassFactor passes over padded [hash][row] tuples on both sides plus
  // per-partition table inserts; partitioning the probe side also breaks the
  // pipeline below it (depth penalty).
  const double sb = PaddedPartitionStride(build_width);
  const double sp = PaddedPartitionStride(probe_width);
  const double depth_penalty = 1.0 + kDepthPenalty * probe_depth;
  const double build_part_cost =
      kPassFactor * build * sb + kPartitionInsertBytes * build;
  d.cost_rj = build_part_cost + kPassFactor * probe * sp * depth_penalty;

  // BRJ: the filter prunes the probe side before it is partitioned. Under
  // FK containment the pass rate is bounded by the surviving fraction of the
  // build side's base table, plus a false-positive allowance.
  const bool bloomable = RadixJoin::BloomApplicable(kind);
  const double sigma =
      build_base_rows > 0
          ? std::min(1.0, build / static_cast<double>(build_base_rows))
          : 1.0;
  d.est_pass_rate = std::min(1.0, sigma + kBloomFpAllowance);
  d.cost_brj =
      bloomable
          ? build_part_cost + kBloomBytesPerKey * (build + probe) +
                kPassFactor * probe * d.est_pass_rate * sp * depth_penalty
          : d.cost_rj;

  // Out-of-core term. With a memory budget below the modeled build state,
  // every strategy spills the overflow to temp files (write + re-read). The
  // I/O volume is the same order for all three, but the BHJ pays an extra
  // re-pack pass over the build side — it discovers the overflow only after
  // materializing the whole table — while the radix join's pass-1
  // pre-partitions are the spill unit: eviction is one sequential write of
  // chunks it had already formed. When spilling is inevitable, partitioning
  // is the cheaper on-ramp (the NOCAP observation).
  const uint64_t budget = options.memory_budget > 0
                              ? options.memory_budget
                              : MemoryGovernor::Global().budget();
  if (budget > 0) {
    if (d.est_ht_bytes > budget) {
      const double f =
          1.0 - static_cast<double>(budget) / static_cast<double>(d.est_ht_bytes);
      d.cost_bhj += build * entry /* re-pack pass */ +
                    kSpillIoFactor * 2.0 * f * (build * sb + probe * sp);
      d.spill_expected = true;
    }
    const double part_bytes = build * sb;
    if (part_bytes > budget) {
      const double f = 1.0 - static_cast<double>(budget) / part_bytes;
      d.cost_rj += kSpillIoFactor * 2.0 * f * (build * sb + probe * sp);
      if (bloomable) {
        d.cost_brj += kSpillIoFactor * 2.0 * f *
                      (build * sb + probe * d.est_pass_rate * sp);
      } else {
        d.cost_brj = d.cost_rj;
      }
      d.spill_expected = true;
    }
  }

  // Skew term. A radix join's hottest final partition holds at least the
  // hottest key's share of the build side; when that share overflows the
  // margin-scaled L2 target the per-partition table degenerates (Table 4's
  // collapse), so RJ/BRJ pay that share of the probe side at DRAM-miss cost
  // plus a re-split pass over the oversized build fraction. Uniform inputs
  // never trip this: an even 1/P spread is below the overflow share by
  // construction of the fan-out. Any partitioned strategy that still wins is
  // armed with the runtime defense (heavy-hitter bypass + re-split).
  d.est_max_partition_share = EvenPartitionShare(est_build_rows, build_width, l2);
  if (skew != nullptr && skew->present) {
    d.skew_sampled = true;
    d.skew_sample_rows = skew->sample_rows;
    d.est_top_share = skew->top_share;
    d.est_topk_share = skew->topk_share;
    d.est_key_payload_corr = skew->key_payload_corr;
    d.est_max_partition_share =
        std::max(d.est_max_partition_share, skew->top_share);
  }
  const double overflow_share =
      PartitionOverflowShare(est_build_rows, build_width, options);
  if (d.est_max_partition_share > overflow_share) {
    d.skew_overflow = true;
    const double share = d.est_max_partition_share;
    const double skew_penalty =
        share * probe * kDramMissBytes * depth_penalty +
        share * build * (sb + kPartitionInsertBytes);
    d.cost_rj += skew_penalty;
    if (bloomable) {
      d.cost_brj += skew_penalty;
    } else {
      d.cost_brj = d.cost_rj;
    }
  }

  // Decision. Hard rule first: a build side that fits L2 never partitions
  // (the paper's headline case — 58 of 59 TPC-H joins). Suspended when the
  // budget is below even that table: the decision must weigh spill I/O.
  if (d.est_ht_bytes <= l2 && (budget == 0 || d.est_ht_bytes <= budget)) {
    d.choice = JoinStrategy::kBHJ;
    d.reason = "build fits L2";
    return d;
  }
  const double best_partitioned =
      bloomable ? std::min(d.cost_rj, d.cost_brj) : d.cost_rj;
  if (best_partitioned < options.partition_margin * d.cost_bhj) {
    if (bloomable && d.cost_brj <= d.cost_rj) {
      if (d.est_pass_rate >= kAdaptivePassRate) {
        d.choice = JoinStrategy::kBRJAdaptive;
        d.reason = d.spill_expected
                       ? "spill inevitable; partition, filter uncertain"
                       : "partitioning cheaper; filter benefit uncertain";
      } else {
        d.choice = JoinStrategy::kBRJ;
        d.reason = d.spill_expected
                       ? "spill inevitable; filter shrinks spilled probe"
                       : "filter prunes probe before partitioning";
      }
    } else {
      d.choice = JoinStrategy::kRJ;
      d.reason = d.spill_expected ? "spill inevitable; partitioned spill cheaper"
                                  : "partitioning cheaper than cache misses";
    }
  } else {
    d.choice = JoinStrategy::kBHJ;
    d.reason = d.spill_expected ? "spill inevitable; hybrid hash still cheaper"
                                : d.skew_overflow
                                      ? "skewed build; partitioning collapses"
                                      : "partitioning not worth the bandwidth";
  }
  if (d.skew_overflow && d.choice != JoinStrategy::kBHJ) {
    d.skew_defense = true;
    d.reason = "skewed build; partitioned with skew defense";
  }
  return d;
}

void AttachAdvisorMetrics(JoinMetrics& m, const JoinDecision& d) {
  m.advisor.present = true;
  m.advisor.choice = d.choice;
  m.advisor.est_build_tuples = d.est_build_rows;
  m.advisor.est_probe_tuples = d.est_probe_rows;
  m.advisor.cost_bhj = d.cost_bhj;
  m.advisor.cost_rj = d.cost_rj;
  m.advisor.cost_brj = d.cost_brj;
  m.advisor.reason = d.reason;
  m.advisor.skew_sampled = d.skew_sampled;
  m.advisor.est_top_share = d.est_top_share;
  m.advisor.est_max_partition_share = d.est_max_partition_share;
  m.advisor.est_key_payload_corr = d.est_key_payload_corr;
  m.advisor.skew_defense = d.skew_defense;
  m.advisor.quality = StatsEnabled();
}

// --- Guarded runtime -------------------------------------------------------

AutoJoinRuntime::AutoJoinRuntime(JoinKind kind, const RowLayout* build_layout,
                                 std::vector<int> build_keys,
                                 const RowLayout* probe_layout,
                                 std::vector<int> probe_keys,
                                 JoinProjection projection,
                                 const RadixJoin::Options& radix_options,
                                 const JoinDecision& decision)
    : kind_(kind),
      decision_(decision),
      radix_strategy_(radix_options.strategy) {
  const double estimate =
      static_cast<double>(std::max<uint64_t>(1, decision.est_build_rows));
  build_limit_ = static_cast<uint64_t>(
      std::max(1.0, std::ceil(estimate * kBuildOverflowFactor)));
  radix_ = std::make_unique<RadixJoin>(kind, build_layout, build_keys,
                                       probe_layout, probe_keys, projection,
                                       radix_options);
  hash_ = std::make_unique<HashJoin>(kind, build_layout, std::move(build_keys),
                                     probe_layout, std::move(probe_keys),
                                     std::move(projection));
}

void AutoJoinRuntime::set_join_id(int id) {
  radix_->set_join_id(id);
  hash_->set_join_id(id);
}

JoinMetrics AutoJoinRuntime::CollectMetrics() const {
  JoinMetrics m =
      fell_back_ ? hash_->CollectMetrics() : radix_->CollectMetrics();
  AttachAdvisorMetrics(m, decision_);
  m.advisor.fell_back = overflow_demoted_;
  m.replan = replan_;
  return m;
}

void AutoJoinRuntime::PrepareSpill(int num_threads, uint32_t out_stride) {
  if (!spill_.empty()) return;
  spill_.reserve(num_threads);
  // A count(*)-only query projects zero columns out of the join; the spill
  // buffers then only track row counts (RowBuffer requires stride >= 1).
  const uint32_t stride = std::max<uint32_t>(1, out_stride);
  for (int i = 0; i < num_threads; ++i) spill_.emplace_back(stride);
}

void AutoJoinRuntime::ArmReplan(double qerror_threshold,
                                const AdvisorOptions& options,
                                int feedback_begin, int feedback_end) {
  replan_qerror_ = qerror_threshold;
  replan_options_ = options;
  feedback_begin_ = feedback_begin;
  feedback_end_ = feedback_end;
}

void AutoJoinRuntime::RouteStagedToHashTable(ExecContext& exec) {
  RadixPartitioner& part = radix_->build_partitioner();
  ChainingHashTable& ht = hash_->table();
  const uint32_t row_stride = radix_->build_layout()->stride();
  part.ForEachStagedTuple([&](uint64_t hash, const std::byte* row) {
    ht.MaterializeEntry(0, hash, row, row_stride);
  });
  // FinishBuild, not a raw Build: under a memory budget the re-routed BHJ
  // must be able to go hybrid (spill partitions) like a planned BHJ would.
  hash_->FinishBuild(exec);
}

void AutoJoinRuntime::DeferDecision(ExecContext& exec,
                                    RadixBuildSink* build_sink,
                                    uint64_t staged) {
  decision_pending_ = true;
  deferred_build_sink_ = build_sink;
  staged_build_ = staged;
  if (!replan_armed()) return;
  // Publish this join's corrected output estimate: downstream joins in the
  // same chain resolve after us and scale their probe estimate by the same
  // ratio the build side was off by.
  ExecContext::CardFeedback fb;
  fb.est_rows = decision_.est_out_rows;
  const double ratio =
      static_cast<double>(std::max<uint64_t>(1, staged)) /
      static_cast<double>(std::max<uint64_t>(1, decision_.est_build_rows));
  fb.corrected_rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(std::max<uint64_t>(
                 1, decision_.est_out_rows)) *
             ratio)));
  exec.RecordCardFeedback(join_id(), fb);
}

void AutoJoinRuntime::ResolveDeferred(ExecContext& exec) {
  if (!decision_pending_) return;
  decision_pending_ = false;
  // Correct the probe estimate from the nearest upstream join that already
  // published feedback (post-order: the probe subtree's top join has the
  // highest id below ours).
  const uint64_t est_probe =
      std::max<uint64_t>(1, decision_.est_probe_rows);
  uint64_t corrected_probe = est_probe;
  for (int id = feedback_end_ - 1; id >= feedback_begin_; --id) {
    const ExecContext::CardFeedback* fb = exec.FindCardFeedback(id);
    if (fb == nullptr) continue;
    const double ratio =
        static_cast<double>(std::max<uint64_t>(1, fb->corrected_rows)) /
        static_cast<double>(std::max<uint64_t>(1, fb->est_rows));
    corrected_probe = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround(static_cast<double>(est_probe) * ratio)));
    break;
  }
  replan_.enabled = replan_armed();
  replan_.staged_build_tuples = staged_build_;
  replan_.corrected_probe_tuples = corrected_probe;
  replan_.qerror_build =
      EstimateQError(decision_.est_build_rows, staged_build_);
  replan_.qerror_probe =
      EstimateQError(decision_.est_probe_rows, corrected_probe);

  bool use_bhj = decision_.choice == JoinStrategy::kBHJ;
  if (replan_armed() &&
      std::max(replan_.qerror_build, replan_.qerror_probe) >=
          replan_qerror_) {
    // Estimate wrong: re-cost the strategy with the observed build side and
    // the corrected probe side. The skew sample survives from plan time (it
    // sampled the base column, which did not change).
    replan_.triggered = true;
    SkewEstimate skew;
    skew.present = decision_.skew_sampled;
    skew.sample_rows = decision_.skew_sample_rows;
    skew.top_share = decision_.est_top_share;
    skew.topk_share = decision_.est_topk_share;
    skew.key_payload_corr = decision_.est_key_payload_corr;
    const uint64_t base =
        std::max(decision_.est_build_base_rows, staged_build_);
    JoinDecision re = JoinAdvisor::Decide(
        kind_, staged_build_, base, corrected_probe, decision_.build_width,
        decision_.probe_width, decision_.probe_depth, replan_options_,
        skew.present ? &skew : nullptr);
    replan_.recost_bhj = re.cost_bhj;
    replan_.recost_rj = re.cost_rj;
    replan_.recost_brj = re.cost_brj;
    // The re-plan is the paper's binary question — partition or not. The
    // partitioned variant (RJ/BRJ) stays whatever the engine was built as;
    // the Bloom filter cannot be retrofitted mid-query.
    use_bhj = re.choice == JoinStrategy::kBHJ;
  } else if (!use_bhj && staged_build_ > build_limit_) {
    // Overflow guardrail: the estimate undersold the build side badly
    // enough that the partition fan-out is mis-sized.
    overflow_demoted_ = true;
    use_bhj = true;
  }
  replan_.switched = use_bhj != (decision_.choice == JoinStrategy::kBHJ);
  replan_.final_choice = use_bhj ? JoinStrategy::kBHJ : radix_strategy_;
  if (use_bhj) {
    fell_back_ = true;
    Stopwatch watch;
    RouteStagedToHashTable(exec);
    exec.timer().Add(JoinPhase::kBuildPipeline, watch.ElapsedSeconds());
  } else {
    // Bloom sizing + Finalize, which times its own partitioning phases.
    deferred_build_sink_->Finish(exec);
  }
}

void AutoJoinRuntime::RecordProbeFeedback(ExecContext& exec,
                                          uint64_t actual_probe) {
  if (!replan_armed()) return;
  // Refine this join's published output estimate with the observed probe
  // count (build ratio was already folded in by DeferDecision).
  const ExecContext::CardFeedback* prev = exec.FindCardFeedback(join_id());
  if (prev == nullptr || prev->exact) return;
  ExecContext::CardFeedback fb = *prev;
  const double ratio =
      static_cast<double>(std::max<uint64_t>(1, actual_probe)) /
      static_cast<double>(std::max<uint64_t>(1, decision_.est_probe_rows));
  fb.corrected_rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(fb.corrected_rows) * ratio)));
  exec.RecordCardFeedback(join_id(), fb);
}

void AutoJoinRuntime::RecordOutputFeedback(ExecContext& exec,
                                           uint64_t actual_out) {
  if (!replan_armed()) return;
  ExecContext::CardFeedback fb;
  fb.est_rows = decision_.est_out_rows;
  fb.corrected_rows = actual_out;
  fb.exact = true;
  exec.RecordCardFeedback(join_id(), fb);
}

void AutoBuildSink::Prepare(ExecContext& exec) {
  radix_sink_.set_metrics(metrics_);
  radix_sink_.Prepare(exec);
}

void AutoBuildSink::Consume(Batch& batch, ThreadContext& ctx) {
  radix_sink_.Consume(batch, ctx);
}

void AutoBuildSink::Close(ThreadContext& ctx) { radix_sink_.Close(ctx); }

void AutoBuildSink::Finish(ExecContext& exec) {
  // Leave the build staged; the probe sink's Prepare resolves the engine.
  rt_->DeferDecision(exec, &radix_sink_,
                     rt_->radix().build_partitioner().PendingTuples());
}

AutoProbeSink::AutoProbeSink(AutoJoinRuntime* rt)
    : rt_(rt),
      radix_sink_(&rt->radix()),
      hash_probe_(&rt->hash()),
      spill_(rt) {}

void AutoProbeSink::Prepare(ExecContext& exec) {
  rt_->ResolveDeferred(exec);
  if (rt_->fell_back()) {
    rt_->PrepareSpill(exec.num_threads(),
                      rt_->hash().projection().output->stride());
    hash_probe_.set_metrics(metrics_);
    hash_probe_.set_next(&spill_);
    hash_probe_.Prepare(exec);
    spill_.Prepare(exec);
  } else {
    radix_sink_.set_metrics(metrics_);
    radix_sink_.Prepare(exec);
  }
}

void AutoProbeSink::Open(ThreadContext& ctx) {
  if (rt_->fell_back()) {
    hash_probe_.Open(ctx);
  } else {
    radix_sink_.Open(ctx);
  }
}

void AutoProbeSink::Consume(Batch& batch, ThreadContext& ctx) {
  if (rt_->fell_back()) {
    hash_probe_.Consume(batch, ctx);
  } else {
    radix_sink_.Consume(batch, ctx);
  }
}

void AutoProbeSink::Close(ThreadContext& ctx) {
  if (rt_->fell_back()) {
    hash_probe_.Close(ctx);
  } else {
    radix_sink_.Close(ctx);
  }
}

void AutoProbeSink::Finish(ExecContext& exec) {
  if (!rt_->fell_back()) radix_sink_.Finish(exec);
  if (metrics_ != nullptr) {
    rt_->RecordProbeFeedback(exec, metrics_->Totals().rows_in);
  }
}

void AutoProbeSink::SpillSink::Consume(Batch& batch, ThreadContext& ctx) {
  RowBuffer& buf = rt_->spill(ctx.thread_id);
  if (batch.layout->stride() == 0) {
    // Zero-width output rows: record the count, there is nothing to copy.
    for (uint32_t i = 0; i < batch.size; ++i) buf.AppendSlot();
    return;
  }
  for (uint32_t i = 0; i < batch.size; ++i) buf.Append(batch.Row(i));
}

AutoJoinSource::AutoJoinSource(AutoJoinRuntime* rt)
    : rt_(rt), partition_src_(&rt->radix()), ht_scan_(&rt->hash()) {}

void AutoJoinSource::Prepare(ExecContext& exec) {
  if (rt_->fell_back()) {
    spill_cursor_.store(0, std::memory_order_relaxed);
    if (EmitsBuildRows(rt_->kind())) {
      ht_scan_.set_metrics(metrics_);
      ht_scan_.Prepare(exec);
    }
  } else {
    partition_src_.set_metrics(metrics_);
    partition_src_.Prepare(exec);
  }
}

void AutoJoinSource::Open(ThreadContext& ctx) {
  if (!rt_->fell_back()) partition_src_.Open(ctx);
}

bool AutoJoinSource::ProduceMorsel(Operator& consumer, ThreadContext& ctx) {
  if (!rt_->fell_back()) return partition_src_.ProduceMorsel(consumer, ctx);
  const int idx = spill_cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx < rt_->num_spill_buffers()) {
    RowBuffer& buf = rt_->spill(idx);
    if (buf.size() == 0) return true;
    const RowLayout* out = rt_->radix().projection().output;
    buf.ForEachPage([&](const std::byte* rows, uint32_t count) {
      for (uint32_t off = 0; off < count; off += kBatchCapacity) {
        Batch batch;
        batch.layout = out;
        batch.rows = const_cast<std::byte*>(rows) +
                     static_cast<size_t>(off) * out->stride();
        batch.size = std::min<uint32_t>(kBatchCapacity, count - off);
        PushOut(consumer, batch, ctx);
      }
    });
    return true;
  }
  if (EmitsBuildRows(rt_->kind())) {
    return ht_scan_.ProduceMorsel(consumer, ctx);
  }
  return false;
}

void AutoJoinSource::Close(ThreadContext& ctx) {
  if (!rt_->fell_back()) partition_src_.Close(ctx);
}

void AutoJoinSource::Finish(ExecContext& exec) {
  if (metrics_ != nullptr) {
    rt_->RecordOutputFeedback(exec, metrics_->Totals().rows_out);
  }
}

}  // namespace pjoin
