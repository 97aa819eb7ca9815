// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "xpath/kernels.h"

namespace mhx::xquery {
namespace {

// Cost-model constants, in units of one scalar node visit. kProbeCost is
// the per-tree-level overhead of an index probe, kSoaScanCost the
// per-element cost of the vectorized RangeSoA kernels every scan runs (the
// E9 kernel lanes measure them ~10-20x faster than a scalar node-table
// walk; 0.05 keeps a safety margin).
constexpr double kProbeCost = 4.0;
constexpr double kSoaScanCost = 0.05;

// The extended axis a step reduces to when evaluated from a leaf context
// (mirrors the engine's LeafContextStep mapping), or the step's own axis
// when already extended. Returns false for axes the planner has no
// strategy choice for (pure tree walks).
bool ExtendedEquivalent(xpath::Axis axis, xpath::Axis* extended) {
  switch (axis) {
    case xpath::Axis::kAncestor:
    case xpath::Axis::kAncestorOrSelf:
    case xpath::Axis::kXAncestor:
      *extended = xpath::Axis::kXAncestor;
      return true;
    case xpath::Axis::kXDescendant:
      *extended = xpath::Axis::kXDescendant;
      return true;
    case xpath::Axis::kOverlapping:
      *extended = xpath::Axis::kOverlapping;
      return true;
    case xpath::Axis::kFollowing:
    case xpath::Axis::kXFollowing:
      *extended = xpath::Axis::kXFollowing;
      return true;
    case xpath::Axis::kPreceding:
    case xpath::Axis::kXPreceding:
      *extended = xpath::Axis::kXPreceding;
      return true;
    default:
      return false;
  }
}

// Expected base hits of one extended-axis evaluation from a typical
// context, before any name-test selectivity.
double EstimateHits(xpath::Axis extended, const goddag::SnapshotStats& stats) {
  const double text = static_cast<double>(std::max<size_t>(stats.text_size(), 1));
  const double elements = static_cast<double>(stats.element_count());
  switch (extended) {
    case xpath::Axis::kXAncestor:
    case xpath::Axis::kXDescendant:
    case xpath::Axis::kOverlapping:
      // Mean stabbing depth: the expected number of element ranges covering
      // a random text position. Containment in either direction (and proper
      // overlap, which is rarer still) returns at most the ranges a context
      // touches, and this measure tracks that without per-step context
      // knowledge.
      return static_cast<double>(stats.total_range_length()) / text;
    case xpath::Axis::kXFollowing:
    case xpath::Axis::kXPreceding:
      // Ordering axes return everything on one side of the context: half
      // the document in expectation. This is what flips them to the scan.
      return elements / 2.0;
    default:
      return 0.0;
  }
}

// True when a predicate provably evaluates to a boolean regardless of the
// item it filters — the precondition for reordering a conjunction. Integer
// results are positional tests (order-sensitive by definition), and any
// non-boolean root could produce one, so only boolean-rooted expressions
// qualify; analyze-string() anywhere in the subtree disqualifies too, since
// its temporary hierarchies register into the evaluation's overlay view in
// predicate order.
bool IsStaticallyBoolean(const AstNode& pred) {
  switch (pred.kind) {
    case ExprKind::kCompare:
    case ExprKind::kOr:
    case ExprKind::kAnd:
    case ExprKind::kQuantified:
      break;
    case ExprKind::kFunctionCall:
      if (pred.name != "not" && pred.name != "true" && pred.name != "false" &&
          pred.name != "matches") {
        return false;
      }
      break;
    default:
      return false;
  }
  return !ContainsAnalyzeString(pred);
}

// AST size as the reordering cost proxy: cheaper predicates filter first.
size_t SubtreeSize(const AstNode& node) {
  size_t n = 1;
  VisitSubExprs(node, [&n](const AstNode& child) { n += SubtreeSize(child); });
  return n;
}

void PlanStep(const PathStep& step, const goddag::SnapshotStats& stats,
              QueryPlan* plan) {
  StepPlan sp;
  bool interesting = false;

  xpath::Axis extended;
  if (step.primary == nullptr && ExtendedEquivalent(step.axis, &extended)) {
    interesting = true;
    const double table = static_cast<double>(stats.node_table_size());
    const double elements =
        static_cast<double>(std::max<size_t>(stats.element_count(), 1));
    double est = EstimateHits(extended, stats);
    sp.exec.pushdown = step.test == PathStep::Test::kName;
    if (sp.exec.pushdown) {
      est *= static_cast<double>(stats.name_count(step.name)) / elements;
    }
    sp.est_hits = est;
    sp.cost_indexed = kProbeCost * std::log2(elements + 1.0) + est;
    sp.cost_scan = kSoaScanCost * table;
    sp.exec.use_index = sp.cost_indexed <= sp.cost_scan;
  }

  if (step.predicates.size() >= 2 &&
      std::all_of(step.predicates.begin(), step.predicates.end(),
                  [](const std::unique_ptr<AstNode>& p) {
                    return IsStaticallyBoolean(*p);
                  })) {
    std::vector<uint16_t> order(step.predicates.size());
    std::iota(order.begin(), order.end(), static_cast<uint16_t>(0));
    std::vector<size_t> sizes(step.predicates.size());
    for (size_t i = 0; i < step.predicates.size(); ++i) {
      sizes[i] = SubtreeSize(*step.predicates[i]);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&sizes](uint16_t a, uint16_t b) {
                       return sizes[a] < sizes[b];
                     });
    // Only record an order that differs from the source: an empty vector is
    // the "run as written" fast path.
    if (!std::is_sorted(order.begin(), order.end())) {
      sp.predicate_order = std::move(order);
      interesting = true;
    }
  }

  if (interesting) plan->steps.emplace(&step, std::move(sp));
}

void WalkForPlans(const AstNode& node, const goddag::SnapshotStats& stats,
                  QueryPlan* plan) {
  if (node.kind == ExprKind::kPath) {
    for (const PathStep& step : node.steps) PlanStep(step, stats, plan);
  }
  VisitSubExprs(node, [&](const AstNode& child) {
    WalkForPlans(child, stats, plan);
  });
}

// Rendering helpers for ExplainQueryPlan.
void RenderSteps(const AstNode& node, const QueryPlan& plan,
                 std::ostringstream* out) {
  if (node.kind == ExprKind::kPath) {
    for (const PathStep& step : node.steps) {
      if (step.primary != nullptr) continue;
      auto it = plan.steps.find(&step);
      *out << "step " << xpath::AxisName(step.axis) << "::";
      switch (step.test) {
        case PathStep::Test::kName:
          *out << step.name;
          break;
        case PathStep::Test::kAnyElement:
          *out << "*";
          break;
        case PathStep::Test::kAnyNode:
          *out << "node()";
          break;
        case PathStep::Test::kLeaf:
          *out << "leaf()";
          break;
      }
      xpath::Axis extended;
      if (ExtendedEquivalent(step.axis, &extended)) {
        const StepPlan* sp = it != plan.steps.end() ? &it->second : nullptr;
        const bool use_index = sp == nullptr || sp->exec.use_index;
        *out << " strategy=" << (use_index ? "indexed" : "scan");
        if (sp != nullptr) {
          if (sp->exec.pushdown) *out << " pushdown=" << step.name;
          *out << " est_hits=" << static_cast<uint64_t>(sp->est_hits)
               << " cost_indexed=" << static_cast<uint64_t>(sp->cost_indexed)
               << " cost_scan=" << static_cast<uint64_t>(sp->cost_scan);
        }
      } else {
        *out << " strategy=arcs";
      }
      if (it != plan.steps.end() && !it->second.predicate_order.empty()) {
        *out << " predicate_order=[";
        for (size_t i = 0; i < it->second.predicate_order.size(); ++i) {
          if (i != 0) *out << ",";
          *out << it->second.predicate_order[i];
        }
        *out << "]";
      }
      *out << "\n";
    }
  }
  VisitSubExprs(node, [&](const AstNode& child) {
    RenderSteps(child, plan, out);
  });
}

}  // namespace

std::string_view PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kAuto:
      return "auto";
    case PlanMode::kForceNaive:
      return "force-naive";
    case PlanMode::kForceIndexed:
      return "force-indexed";
  }
  return "unknown";
}

QueryPlan PlanQuery(const AstNode& root, const goddag::SnapshotStats& stats,
                    uint64_t snapshot_version) {
  QueryPlan plan;
  plan.snapshot_version = snapshot_version;
  WalkForPlans(root, stats, &plan);
  return plan;
}

std::string ExplainQueryPlan(const AstNode& root, const QueryPlan& plan,
                             const goddag::SnapshotStats& stats) {
  std::ostringstream out;
  out << "plan version=" << plan.snapshot_version
      << " elements=" << stats.element_count()
      << " nodes=" << stats.node_table_size()
      << " names=" << stats.name_table_size()
      << " kernel=" << xpath::KernelIsaName(xpath::DispatchedKernelIsa())
      << "\n";
  RenderSteps(root, plan, &out);
  return out.str();
}

}  // namespace mhx::xquery
