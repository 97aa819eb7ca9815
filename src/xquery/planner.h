// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The cost-based step planner: a planning pass over a cached xquery::Expr
// that annotates each path step with a physical choice, driven by the
// pinned snapshot's goddag::SnapshotStats. Three decisions per step:
//
//   * indexed probe vs. full scan for the extended axes — cost model
//     below, evaluated against real per-snapshot statistics;
//   * predicate pushdown — a name test folds into the RangeIndex probe or
//     scan kernel as an interned-key compare, filtering candidates before
//     they materialise;
//   * conjunctive-predicate reordering — statically boolean predicate
//     lists run cheapest-first (AST size as the cost proxy). Positional
//     (integer-valued) predicates and analyze-string() bodies disqualify
//     a step: reordering those would change semantics, not just cost.
//
// Cost model (unit: one scalar node visit):
//     cost_indexed = Cp * log2(E + 1) + est_hits
//     cost_scan    = Cs * table_size      (Cs << 1: every scan runs the
//                                          vectorized RangeSoA kernels)
// with per-axis hit estimates from the stats: containment/overlap axes
// estimate the mean stabbing depth (total range length / text size), the
// ordering axes half the elements; a pushed-down name test scales the
// estimate by the name's selectivity. The practical crossover this
// produces: xancestor/xdescendant/overlapping stay indexed, while
// xfollowing/xpreceding — whose probes return ~half the document anyway —
// flip to the SIMD scan.
//
// Plans are performance-only: every choice returns byte-identical results
// (the planned-vs-forced test battery pins this), so a stale plan is
// merely slower, never wrong. PlanCache::PlanFor caches one plan per
// (expr, document, snapshot version) — hot traffic replans only on commit.

#ifndef MHX_XQUERY_PLANNER_H_
#define MHX_XQUERY_PLANNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "goddag/stats.h"
#include "xpath/axes.h"
#include "xquery/ast.h"

namespace mhx::xquery {

// Which physical plan an evaluation runs. kAuto is the planner; the force
// modes pin one strategy for tests, benches, and the byte-identity
// batteries (QueryOptions::plan_mode).
enum class PlanMode {
  kAuto,          // planner-chosen per step (the default)
  kForceNaive,    // every extended-axis step scans; no pushdown
  kForceIndexed,  // every extended-axis step probes the index; no pushdown
};

std::string_view PlanModeName(PlanMode mode);

// One step's annotations: the physical execution choice plus the planned
// predicate order and the cost-model inputs (kept for ExplainPlan).
struct StepPlan {
  xpath::StepExec exec;
  // Evaluation order of the step's predicates (indices into
  // PathStep::predicates); empty = source order (reordering not applicable
  // or not provably safe).
  std::vector<uint16_t> predicate_order;
  double est_hits = 0.0;
  double cost_indexed = 0.0;
  double cost_scan = 0.0;
};

// A whole query's step annotations, keyed by PathStep address (stable: the
// cached Expr owns its AST for the cache's lifetime). Built against one
// snapshot version; steps absent from the map run the default indexed
// probe.
struct QueryPlan {
  std::unordered_map<const PathStep*, StepPlan> steps;
  uint64_t snapshot_version = 0;
};

// Plans `root` against `stats` (the pinned snapshot's statistics block).
// Pure function: no locks, no globals — safe to call from any thread.
QueryPlan PlanQuery(const AstNode& root, const goddag::SnapshotStats& stats,
                    uint64_t snapshot_version);

// Human-readable plan rendering for the ExplainPlan debug surface and the
// CI plan-shape smoke: one line per planned step (axis, strategy, pushdown,
// estimates) plus a header with the snapshot statistics and the kernel ISA
// the dispatch resolved to.
std::string ExplainQueryPlan(const AstNode& root, const QueryPlan& plan,
                             const goddag::SnapshotStats& stats);

}  // namespace mhx::xquery

#endif  // MHX_XQUERY_PLANNER_H_
