// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xpath/axes.h"

#include <algorithm>

#include "xpath/kernels.h"

namespace mhx::xpath {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::NodeId;
using goddag::kInvalidNode;

namespace {

// `id` and its ancestors, the GODDAG root first.
std::vector<NodeId> PathFromRoot(const goddag::OverlayView& view, NodeId id) {
  std::vector<NodeId> path;
  for (; id != kInvalidNode; id = view.node(id).parent) path.push_back(id);
  std::reverse(path.begin(), path.end());
  return path;
}

// Whether `id` lies on following (`forward`) or preceding from `context`,
// an element of the same hierarchy or overlay: after the context in
// document order and not its descendant, or before it and not its
// ancestor. Same-hierarchy ranges nest or are disjoint, so "begins at or
// after the context's end" (ends at or before its start) decides every
// node but one that touches that bound while it or the context is empty:
// an empty element there may be a descendant, an element around an empty
// context its ancestor, and two empty elements at one offset are ordered
// by their tree positions alone. Those few are placed in the tree.
bool OnFollowingOrPreceding(const goddag::OverlayView& view, NodeId context,
                            NodeId id, bool forward) {
  if (id == context) return false;
  const TextRange& c = view.node(context).range;
  const TextRange& r = view.node(id).range;
  if (forward ? r.begin < c.end : r.end > c.begin) return false;
  const bool touches = forward ? r.begin == c.end : r.end == c.begin;
  if (!touches || (!r.empty() && !c.empty())) return true;
  const std::vector<NodeId> a = PathFromRoot(view, id);
  const std::vector<NodeId> b = PathFromRoot(view, context);
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i == a.size() || i == b.size()) return false;  // nested
  // a[i] and b[i] are children of a[i - 1]: their order is the answer.
  const std::vector<NodeId>& siblings = view.node(a[i - 1]).children;
  const bool after = std::find(siblings.begin(), siblings.end(), a[i]) >
                     std::find(siblings.begin(), siblings.end(), b[i]);
  return after == forward;
}

}  // namespace

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

bool IsReverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
    case Axis::kXAncestor:
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

std::optional<Axis> LeafContextAxis(Axis axis) {
  switch (axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kXAncestor:
      return Axis::kXAncestor;
    case Axis::kFollowing:
    case Axis::kXFollowing:
      return Axis::kXFollowing;
    case Axis::kPreceding:
    case Axis::kXPreceding:
      return Axis::kXPreceding;
    case Axis::kXDescendant:
    case Axis::kOverlapping:
      return axis;
    default:
      return std::nullopt;
  }
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
  const goddag::RangeIndex& idx = snapshot_->index();
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
  // created; the enclosing scopes' overlays live up the parent chain.
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
      // Within the context's own hierarchy; an overlay node's hierarchy is
      // its overlay.
      if (node.kind != GNodeKind::kElement) return;
      const bool forward = axis == Axis::kFollowing;
      auto visit = [&](NodeId id) {
        if (OnFollowingOrPreceding(view, context, id, forward)) {
          out->push_back(id);
        }
      };
      if (goddag::IsOverlayId(context)) {
        const goddag::GoddagOverlay* overlay = view.overlay_of(context);
        for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
             ++id) {
          visit(id);
        }
        return;
      }
      for (NodeId id : goddag_->hierarchy(node.hierarchy).nodes) visit(id);
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
      // Every hit of a context lies beyond the extreme bound (the smallest
      // end going forward, the largest begin going back), and a context
      // past it reaches only nodes that each context at the bound reaches
      // too. Among the contexts at the bound, an xfollowing/xpreceding hit
      // depends on the bound alone, except that no context reaches itself:
      // the first covers the others' hits, and a second covers the first,
      // which it reaches only when the first is empty. following/preceding
      // exclude each context's ancestors and descendants and place empty
      // elements at the bound by tree position, so every context at the
      // bound stays. They pick per hierarchy; an overlay is its own
      // hierarchy.
      const bool forward =
          axis == Axis::kFollowing || axis == Axis::kXFollowing;
      auto bound = [&](NodeId c) {
        return forward ? range(c).end : range(c).begin;
      };
      std::map<uint64_t, std::vector<NodeId>> at_bound;
      for (NodeId c : contexts) {
        uint64_t group = 0;
        if (per_hierarchy) {
          group = goddag::IsOverlayId(c)
                      ? uint64_t{1} << 32 | view.overlay_of(c)->id_begin()
                      : view.node(c).hierarchy;
        }
        std::vector<NodeId>& picks = at_bound[group];
        if (!picks.empty() && bound(c) != bound(picks[0])) {
          if (forward == (bound(c) > bound(picks[0]))) continue;
          picks.clear();
        }
        picks.push_back(c);
      }
      for (const auto& [group, picks] : at_bound) {
        size_t keep = picks.size();
        if (!per_hierarchy) {
          keep = range(picks[0]).empty() ? std::min<size_t>(keep, 2) : 1;
        }
        covering.insert(covering.end(), picks.begin(), picks.begin() + keep);
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
