// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xpath/axes.h"

#include <algorithm>

#include "xpath/kernels.h"

namespace mhx::xpath {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::NodeId;
using goddag::kInvalidNode;

bool IsExtendedAxis(Axis axis) {
  switch (axis) {
    case Axis::kXAncestor:
    case Axis::kXDescendant:
    case Axis::kOverlapping:
    case Axis::kXFollowing:
    case Axis::kXPreceding:
      return true;
    default:
      return false;
  }
}

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kXAncestor:
      return "xancestor";
    case Axis::kXDescendant:
      return "xdescendant";
    case Axis::kOverlapping:
      return "overlapping";
    case Axis::kXFollowing:
      return "xfollowing";
    case Axis::kXPreceding:
      return "xpreceding";
  }
  return "unknown";
}

bool ExtendedAxisMatches(Axis axis, const TextRange& context,
                         const TextRange& candidate) {
  switch (axis) {
    case Axis::kXAncestor:
      return candidate.Contains(context);
    case Axis::kXDescendant:
      return context.Contains(candidate);
    case Axis::kOverlapping:
      return OverlappingRange(context, candidate);
    case Axis::kXFollowing:
      return candidate.begin >= context.end;
    case Axis::kXPreceding:
      return candidate.end <= context.begin;
    default:
      return false;
  }
}

StatusOr<Axis> AxisFromName(std::string_view name) {
  static const std::map<std::string_view, Axis> kByName = {
      {"self", Axis::kSelf},
      {"child", Axis::kChild},
      {"parent", Axis::kParent},
      {"descendant", Axis::kDescendant},
      {"descendant-or-self", Axis::kDescendantOrSelf},
      {"ancestor", Axis::kAncestor},
      {"ancestor-or-self", Axis::kAncestorOrSelf},
      {"following-sibling", Axis::kFollowingSibling},
      {"preceding-sibling", Axis::kPrecedingSibling},
      {"following", Axis::kFollowing},
      {"preceding", Axis::kPreceding},
      {"xancestor", Axis::kXAncestor},
      {"xdescendant", Axis::kXDescendant},
      {"overlapping", Axis::kOverlapping},
      {"xfollowing", Axis::kXFollowing},
      {"xpreceding", Axis::kXPreceding},
  };
  auto it = kByName.find(name);
  if (it == kByName.end()) {
    return InvalidArgumentError("unknown axis '" + std::string(name) + "'");
  }
  return it->second;
}

NodeTest NodeTest::Any() { return NodeTest(Kind::kAny, {}); }

NodeTest NodeTest::Name(std::string name) {
  return NodeTest(Kind::kName, std::move(name));
}

bool NodeTest::Matches(const GNode& node) const {
  switch (kind_) {
    case Kind::kAny:
      return node.kind != GNodeKind::kFree;
    case Kind::kName:
      return node.kind == GNodeKind::kElement && node.name == name_;
  }
  return false;
}

AxisEvaluator::AxisEvaluator(const goddag::DocumentSnapshot* snapshot)
    : snapshot_(snapshot), goddag_(&snapshot->goddag()) {}

const goddag::RangeIndex& AxisEvaluator::index() const {
  // A writer-prebuilt index costs this evaluator nothing; a lazily indexed
  // snapshot is built exactly once, and the builder counts it (EnsureIndex
  // reports whether this call built).
  if (snapshot_->EnsureIndex()) ++index_rebuild_count_;
  return snapshot_->index();
}

void AxisEvaluator::NormalizeDocumentOrder(const goddag::OverlayView& view,
                                           std::vector<NodeId>* ids) const {
  if (ids->size() < 2) return;
  auto cmp = [&view](NodeId a, NodeId b) {
    const TextRange& ra = view.node(a).range;
    const TextRange& rb = view.node(b).range;
    if (ra != rb) return ra < rb;
    return a < b;
  };
  if (!std::is_sorted(ids->begin(), ids->end(), cmp)) {
    std::sort(ids->begin(), ids->end(), cmp);
  }
}

void AxisEvaluator::EvaluateExtendedIndexed(const TextRange& c,
                                            NodeId exclude, Axis axis,
                                            const goddag::ProbeFilter& filter,
                                            std::vector<NodeId>* out) const {
  const goddag::RangeIndex& idx = index();
  std::vector<NodeId> hits;
  switch (axis) {
    case Axis::kXAncestor:
      hits = idx.NodesContaining(c, filter);
      break;
    case Axis::kXDescendant:
      hits = idx.NodesContainedIn(c, filter);
      break;
    case Axis::kOverlapping:
      hits = idx.NodesOverlapping(c, filter);
      break;
    case Axis::kXFollowing:
      hits = idx.NodesBeginningAtOrAfter(c.end, filter);
      break;
    case Axis::kXPreceding:
      hits = idx.NodesEndingAtOrBefore(c.begin, filter);
      break;
    default:
      return;
  }
  out->reserve(hits.size());
  for (NodeId id : hits) {
    if (id != exclude) out->push_back(id);
  }
}

void AxisEvaluator::AppendOverlayMatches(const goddag::OverlayView& view,
                                         Axis axis,
                                         const TextRange& context_range,
                                         NodeId exclude, const NodeTest& test,
                                         std::vector<NodeId>* out) const {
  // A forked binding view holds only the overlays its own binding
  // created; everything else visible to it (kept hierarchies, the
  // enclosing overlays) lives up the parent chain.
  for (const goddag::OverlayView* v = &view; v != nullptr; v = v->parent()) {
    for (const auto& overlay : v->overlays()) {
      // The auto-created whole-text root is plumbing, not a result: start
      // at elements_begin() so it never shows up as an xancestor of
      // everything.
      for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
           ++id) {
        if (id == exclude) continue;
        const GNode& node = overlay->node(id);
        if (!test.Matches(node)) continue;
        if (ExtendedAxisMatches(axis, context_range, node.range)) {
          out->push_back(id);
        }
      }
    }
  }
}

void AxisEvaluator::EvaluateStandard(const goddag::OverlayView& view,
                                     NodeId context, Axis axis,
                                     std::vector<NodeId>* out) const {
  const GNode& node = view.node(context);
  const size_t first = out->size();
  switch (axis) {
    case Axis::kSelf:
      out->push_back(context);
      return;
    case Axis::kChild:
      out->insert(out->end(), node.children.begin(), node.children.end());
      return;
    case Axis::kParent:
      if (node.parent != kInvalidNode) out->push_back(node.parent);
      return;
    case Axis::kDescendantOrSelf:
      out->push_back(context);
      [[fallthrough]];
    case Axis::kDescendant: {
      // Iterative pre-order DFS over arcs.
      std::vector<NodeId> stack(node.children.rbegin(), node.children.rend());
      while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        out->push_back(id);
        const GNode& n = view.node(id);
        stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
      }
      return;
    }
    case Axis::kAncestorOrSelf:
      out->push_back(context);
      [[fallthrough]];
    case Axis::kAncestor: {
      // An overlay root's parent is the base GODDAG root, so the chain may
      // cross from overlay into base ids; the view resolves both.
      for (NodeId p = node.parent; p != kInvalidNode;
           p = view.node(p).parent) {
        out->push_back(p);
      }
      // The walk-up visits innermost-first — exactly reverse document order.
      // Reverse here so normalisation sees a sorted chain and skips the sort.
      std::reverse(out->begin() + first, out->end());
      return;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      if (node.parent == kInvalidNode) return;
      const std::vector<NodeId>& siblings = view.node(node.parent).children;
      auto self = std::find(siblings.begin(), siblings.end(), context);
      if (self == siblings.end()) return;
      if (axis == Axis::kFollowingSibling) {
        out->insert(out->end(), self + 1, siblings.end());
      } else {
        out->insert(out->end(), siblings.begin(), self);
      }
      return;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      // Within the context's own hierarchy. Because same-hierarchy ranges
      // nest or are disjoint, document-order following reduces to "begins at
      // or after my end" and preceding to "ends at or before my start". An
      // overlay node's hierarchy is its overlay.
      if (node.kind != GNodeKind::kElement) return;
      if (goddag::IsOverlayId(context)) {
        const goddag::GoddagOverlay* overlay = view.overlay_of(context);
        for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
             ++id) {
          const GNode& n = overlay->node(id);
          bool hit = axis == Axis::kFollowing
                         ? n.range.begin >= node.range.end
                         : n.range.end <= node.range.begin;
          if (hit && id != context) out->push_back(id);
        }
        return;
      }
      const goddag::Hierarchy& h = goddag_->hierarchy(node.hierarchy);
      for (NodeId id : h.nodes) {
        const GNode& n = goddag_->node(id);
        bool hit = axis == Axis::kFollowing ? n.range.begin >= node.range.end
                                           : n.range.end <= node.range.begin;
        if (hit && id != context) out->push_back(id);
      }
      return;
    }
    default:
      return;
  }
}

void AxisEvaluator::RetainMatches(const goddag::OverlayView& view,
                                  const NodeTest& test,
                                  std::vector<NodeId>* ids,
                                  size_t first) const {
  ids->erase(std::remove_if(ids->begin() + first, ids->end(),
                            [&](NodeId id) {
                              return !test.Matches(view.node(id));
                            }),
             ids->end());
}

bool AxisEvaluator::IsLiveContext(const goddag::OverlayView& view,
                                  NodeId context) const {
  if (goddag::IsOverlayId(context)) {
    if (view.overlay_of(context) == nullptr) return false;
  } else if (context >= goddag_->node_table_size()) {
    return false;
  }
  return view.node(context).kind != GNodeKind::kFree;
}

void AxisEvaluator::AppendAxis(const goddag::OverlayView& view,
                               NodeId context, Axis axis, const NodeTest& test,
                               const StepExec& exec,
                               std::vector<NodeId>* out) const {
  const size_t first = out->size();
  if (!IsExtendedAxis(axis)) {
    EvaluateStandard(view, context, axis, out);
    RetainMatches(view, test, out, first);
    return;
  }
  const TextRange& range = view.node(context).range;
  if (!EvaluateExtendedPlannedBase(range, context, axis, test, exec, out)) {
    RetainMatches(view, test, out, first);
  }
  AppendOverlayMatches(view, axis, range, context, test, out);
}

std::vector<NodeId> AxisEvaluator::CoveringContexts(
    const goddag::OverlayView& view, std::vector<NodeId> contexts,
    Axis axis) const {
  // Only elements have a following/preceding.
  const bool per_hierarchy =
      axis == Axis::kFollowing || axis == Axis::kPreceding;
  contexts.erase(
      std::remove_if(contexts.begin(), contexts.end(),
                     [&](NodeId c) {
                       return !IsLiveContext(view, c) ||
                              (per_hierarchy &&
                               view.node(c).kind != GNodeKind::kElement);
                     }),
      contexts.end());
  std::sort(contexts.begin(), contexts.end());
  contexts.erase(std::unique(contexts.begin(), contexts.end()),
                 contexts.end());
  auto range = [&view](NodeId id) -> const TextRange& {
    return view.node(id).range;
  };
  std::vector<NodeId> covering;
  switch (axis) {
    case Axis::kFollowing:
    case Axis::kPreceding:
    case Axis::kXFollowing:
    case Axis::kXPreceding: {
      // Every hit of a context lies beyond the extreme context m (smallest
      // end going forward, largest begin going back), so m's hits hold the
      // rest — except m itself, which another context reaches only when m
      // is an empty range sitting at that context's bound. The runner-up
      // reaches m exactly then and holds nothing else. following/preceding
      // pick per hierarchy; an overlay is its own hierarchy.
      const bool forward =
          axis == Axis::kFollowing || axis == Axis::kXFollowing;
      auto before = [&](NodeId a, NodeId b) {
        return forward ? range(a).end < range(b).end
                       : range(a).begin > range(b).begin;
      };
      std::map<uint64_t, std::pair<NodeId, NodeId>> extremes;
      for (NodeId c : contexts) {
        uint64_t group = 0;
        if (per_hierarchy) {
          group = goddag::IsOverlayId(c)
                      ? uint64_t{1} << 32 | view.overlay_of(c)->id_begin()
                      : view.node(c).hierarchy;
        }
        auto [it, fresh] = extremes.try_emplace(group, c, kInvalidNode);
        auto& [m, runner_up] = it->second;
        if (fresh) continue;
        if (before(c, m)) {
          runner_up = m;
          m = c;
        } else if (runner_up == kInvalidNode || before(c, runner_up)) {
          runner_up = c;
        }
      }
      for (const auto& [group, pick] : extremes) {
        covering.push_back(pick.first);
        if (range(pick.first).empty() && pick.second != kInvalidNode) {
          covering.push_back(pick.second);
        }
      }
      return covering;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      // A context below another context adds nothing: it and its
      // descendants are the other's descendants. Overlay arcs end at the
      // overlay root (the base root does not list it as a child).
      for (NodeId c : contexts) {
        bool inside = false;
        for (NodeId p = view.node(c).parent;
             p != kInvalidNode && !inside &&
             goddag::IsOverlayId(p) == goddag::IsOverlayId(c);
             p = view.node(p).parent) {
          inside = std::binary_search(contexts.begin(), contexts.end(), p);
        }
        if (!inside) covering.push_back(c);
      }
      return covering;
    case Axis::kXDescendant: {
      // A context whose range lies inside another context's range adds
      // nothing but itself, which the outer context reaches. Equal ranges
      // contain each other: of a group of equal-extent contexts the first
      // reaches the others, and the second reaches the first. In document
      // order, a group lies inside an earlier context iff one ends at or
      // after the group's end.
      std::sort(contexts.begin(), contexts.end(), [&](NodeId a, NodeId b) {
        return range(a) != range(b) ? range(a) < range(b) : a < b;
      });
      for (auto it = contexts.begin(); it != contexts.end();) {
        auto end = std::find_if(it, contexts.end(), [&](NodeId c) {
          return range(c) != range(*it);
        });
        if (covering.empty() || range(covering.back()).end < range(*it).end) {
          covering.push_back(*it);
          if (end - it > 1) covering.push_back(it[1]);
        }
        it = end;
      }
      return covering;
    }
    default:
      return contexts;
  }
}

std::vector<NodeId> AxisEvaluator::EvaluateSet(
    const goddag::OverlayView& view, const std::vector<NodeId>& contexts,
    Axis axis, const NodeTest& test, const StepExec& exec) const {
  std::vector<NodeId> out;
  for (NodeId c : CoveringContexts(view, contexts, axis)) {
    AppendAxis(view, c, axis, test, exec, &out);
  }
  NormalizeDocumentOrder(view, &out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool AxisEvaluator::EvaluateExtendedPlannedBase(
    const TextRange& context_range, NodeId exclude, Axis axis,
    const NodeTest& test, const StepExec& exec,
    std::vector<NodeId>* out) const {
  // The statistics are read only when pushdown or a scan needs them, so an
  // un-pushed indexed probe never forces a lazy stats build.
  const bool pushdown = exec.pushdown && test.is_name();
  uint32_t key = goddag::kNoNameKey;
  if (pushdown) {
    key = snapshot_->stats().name_key(test.name());
    if (key == goddag::kNoNameKey) {
      // No live base element bears this name: the base half is empty by
      // the statistics alone (overlay hits are the caller's job).
      return true;
    }
  }
  if (exec.use_index) {
    goddag::ProbeFilter filter;
    if (pushdown) filter = {snapshot_->stats().node_name_keys().data(), key};
    EvaluateExtendedIndexed(context_range, exclude, axis, filter, out);
  } else {
    ScanExtendedAxis(snapshot_->stats().soa(), axis, context_range, exclude,
                     key, KernelIsa::kAuto, out);
  }
  return pushdown;
}

std::vector<NodeId> AxisEvaluator::EvaluatePlanned(
    const goddag::OverlayView& view, NodeId context, Axis axis,
    const NodeTest& test, const StepExec& exec) const {
  std::vector<NodeId> out;
  if (!IsLiveContext(view, context)) return out;
  AppendAxis(view, context, axis, test, exec, &out);
  // Filtering before the sort returns the same bytes as sort-then-filter:
  // the comparator is a strict total order and removal is subset-stable.
  NormalizeDocumentOrder(view, &out);
  return out;
}

std::vector<NodeId> AxisEvaluator::EvaluateRangePlanned(
    const goddag::OverlayView& view, const TextRange& context, Axis axis,
    const NodeTest& test, const StepExec& exec) const {
  std::vector<NodeId> out;
  const bool base_filtered = EvaluateExtendedPlannedBase(
      context, kInvalidNode, axis, test, exec, &out);
  if (!base_filtered) RetainMatches(view, test, &out);
  AppendOverlayMatches(view, axis, context, kInvalidNode, test, &out);
  return out;
}

}  // namespace mhx::xpath
