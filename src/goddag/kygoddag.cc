// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/kygoddag.h"

#include <algorithm>

namespace mhx::goddag {

KyGoddag::KyGoddag(std::string base_text)
    : base_text_(std::make_shared<const std::string>(std::move(base_text))) {
  GNode root;
  root.kind = GNodeKind::kRoot;
  root.range = TextRange(0, base_text_->size());
  nodes_.push_back(std::move(root));
}

NodeId KyGoddag::AllocateNode() {
  if (!free_nodes_.empty()) {
    NodeId id = free_nodes_.back();
    free_nodes_.pop_back();
    return id;
  }
  nodes_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void KyGoddag::FreeNode(NodeId id) {
  GNode& n = nodes_[id];
  n.kind = GNodeKind::kFree;
  n.name.clear();
  n.attributes.clear();
  n.children.clear();
  n.parent = kInvalidNode;
  n.range = TextRange();
  free_nodes_.push_back(id);
}

HierarchyId KyGoddag::AllocateHierarchySlot() {
  if (!free_hierarchies_.empty()) {
    HierarchyId id = free_hierarchies_.back();
    free_hierarchies_.pop_back();
    return id;
  }
  hierarchies_.emplace_back();
  return static_cast<HierarchyId>(hierarchies_.size() - 1);
}

NodeId KyGoddag::ConvertXmlElement(const xml::Element& element,
                                   HierarchyId hierarchy, NodeId parent,
                                   Hierarchy* out) {
  // Recursion depth is bounded by the parser's kMaxElementDepth.
  NodeId id = AllocateNode();
  GNode& n = nodes_[id];
  n.kind = GNodeKind::kElement;
  n.hierarchy = hierarchy;
  n.name = element.name;
  n.attributes = element.attributes;
  n.range = element.range;
  n.parent = parent;
  out->nodes.push_back(id);
  ++element_count_;
  for (const xml::Element& child : element.children) {
    NodeId child_id = ConvertXmlElement(child, hierarchy, id, out);
    // Re-fetch: the nodes_ vector may have been reallocated by the recursion.
    nodes_[id].children.push_back(child_id);
  }
  return id;
}

StatusOr<HierarchyId> KyGoddag::AddHierarchy(const std::string& name,
                                             const xml::Document& doc) {
  const std::string& base = *base_text_;
  if (doc.text != base) {
    std::string detail;
    if (doc.text.size() != base.size()) {
      detail = "content length " + std::to_string(doc.text.size()) +
               " vs base " + std::to_string(base.size());
    } else {
      size_t diff = 0;
      while (diff < doc.text.size() && doc.text[diff] == base[diff]) {
        ++diff;
      }
      detail = "first difference at offset " + std::to_string(diff) + " ('" +
               doc.text.substr(diff, 8) + "' vs '" +
               base.substr(diff, 8) + "')";
    }
    return InvalidArgumentError("hierarchy '" + name +
                                "' does not encode the base text (" + detail +
                                ")");
  }
  HierarchyId hid = AllocateHierarchySlot();
  Hierarchy& h = hierarchies_[hid];
  h = Hierarchy();
  h.name = name;
  h.is_virtual = false;
  h.active = true;
  NodeId root_id = ConvertXmlElement(doc.root, hid, /*parent=*/0, &h);
  h.root = root_id;
  nodes_[0].children.push_back(root_id);
  ++revision_;
  leaves_dirty_ = true;
  return hid;
}

Status SortAndValidateVirtualElements(size_t text_size,
                                      std::vector<VirtualElement>* elements) {
  for (const VirtualElement& e : *elements) {
    if (e.range.empty()) {
      return InvalidArgumentError("virtual element '" + e.name +
                                  "' has an empty range " +
                                  e.range.ToString());
    }
    if (e.range.end > text_size) {
      return OutOfRangeError("virtual element '" + e.name + "' range " +
                             e.range.ToString() + " exceeds base text size " +
                             std::to_string(text_size));
    }
  }
  // Document order; with this ordering a containing element always comes
  // before the elements it contains, so a single stack pass both validates
  // nesting and builds the tree (overlap detection happens during the pass:
  // a popped element that still reaches into the next one is a conflict).
  std::sort(elements->begin(), elements->end(),
            [](const VirtualElement& a, const VirtualElement& b) {
              return a.range < b.range;
            });
  std::vector<const VirtualElement*> stack;
  for (const VirtualElement& e : *elements) {
    const VirtualElement* last_popped = nullptr;
    while (!stack.empty() && !stack.back()->range.Contains(e.range)) {
      last_popped = stack.back();
      stack.pop_back();
    }
    // Sorted order guarantees last_popped->range.begin <= e.range.begin and
    // rules out e containing last_popped, so reaching into e means proper
    // overlap.
    if (last_popped != nullptr && last_popped->range.end > e.range.begin) {
      return InvalidArgumentError(
          "virtual elements '" + last_popped->name + "' " +
          last_popped->range.ToString() + " and '" + e.name + "' " +
          e.range.ToString() + " overlap within one hierarchy");
    }
    stack.push_back(&e);
  }
  return OkStatus();
}

StatusOr<HierarchyId> KyGoddag::AddVirtualHierarchy(
    const std::string& name, std::vector<VirtualElement> elements) {
  const size_t n = base_text_->size();
  MHX_RETURN_IF_ERROR(SortAndValidateVirtualElements(n, &elements));

  HierarchyId hid = AllocateHierarchySlot();
  Hierarchy& h = hierarchies_[hid];
  h = Hierarchy();
  h.name = name;
  h.is_virtual = true;
  h.active = true;

  NodeId root_id = AllocateNode();
  {
    GNode& root = nodes_[root_id];
    root.kind = GNodeKind::kElement;
    root.hierarchy = hid;
    root.name = name;
    root.range = TextRange(0, n);
    root.parent = 0;
  }
  h.root = root_id;
  h.nodes.push_back(root_id);

  std::vector<NodeId> stack = {root_id};
  for (VirtualElement& e : elements) {
    while (stack.size() > 1 && !nodes_[stack.back()].range.Contains(e.range)) {
      stack.pop_back();
    }
    NodeId id = AllocateNode();
    GNode& node = nodes_[id];
    node.kind = GNodeKind::kElement;
    node.hierarchy = hid;
    node.name = std::move(e.name);
    node.attributes = std::move(e.attributes);
    node.range = e.range;
    node.parent = stack.back();
    nodes_[stack.back()].children.push_back(id);
    h.nodes.push_back(id);
    stack.push_back(id);
  }

  nodes_[0].children.push_back(root_id);
  element_count_ += h.nodes.size();
  ++revision_;
  leaves_dirty_ = true;
  return hid;
}

Status KyGoddag::RemoveVirtualHierarchy(HierarchyId id) {
  if (id >= hierarchies_.size() || !hierarchies_[id].active) {
    return NotFoundError("no active hierarchy " + std::to_string(id));
  }
  Hierarchy& h = hierarchies_[id];
  if (!h.is_virtual) {
    return FailedPreconditionError("hierarchy '" + h.name +
                                   "' is persistent and cannot be removed");
  }
  for (NodeId node_id : h.nodes) FreeNode(node_id);
  element_count_ -= h.nodes.size();
  auto& root_children = nodes_[0].children;
  root_children.erase(
      std::remove(root_children.begin(), root_children.end(), h.root),
      root_children.end());
  h = Hierarchy();
  free_hierarchies_.push_back(id);
  ++revision_;
  leaves_dirty_ = true;
  return OkStatus();
}

std::vector<Leaf> SplitLeaves(const std::vector<Leaf>& cells,
                              std::vector<size_t> cuts) {
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // Rewrite the partition around the cuts: unaffected cell runs between
  // consecutive cuts bulk-copy, only the cells a cut actually splits are
  // rebuilt piecewise.
  std::vector<Leaf> out;
  out.reserve(cells.size() + cuts.size());
  auto rest = cells.cbegin();  // first cell not yet emitted
  for (auto cut = cuts.cbegin(); cut != cuts.cend();) {
    // The cell containing this cut: the first with end > cut, at or after
    // `rest` (cuts ascend, so the search window only narrows).
    auto cell = std::upper_bound(rest, cells.cend(), *cut,
                                 [](size_t pos, const Leaf& leaf) {
                                   return pos < leaf.range.end;
                                 });
    out.insert(out.end(), rest, cell);
    rest = cell;
    if (cell == cells.cend()) break;
    if (cell->range.begin >= *cut) {
      ++cut;  // an existing boundary — no-op
      continue;
    }
    // Split this cell at every cut inside it.
    size_t begin = cell->range.begin;
    for (; cut != cuts.cend() && *cut < cell->range.end; ++cut) {
      out.push_back(Leaf{TextRange(begin, *cut)});
      begin = *cut;
    }
    out.push_back(Leaf{TextRange(begin, cell->range.end)});
    rest = cell + 1;
  }
  out.insert(out.end(), rest, cells.cend());
  return out;
}

const std::vector<Leaf>& KyGoddag::leaves() const {
  if (!leaves_dirty_) return leaves_;
  const size_t n = base_text_->size();
  std::vector<size_t> cuts;
  cuts.reserve(2 * element_count_);
  for (const GNode& node : nodes_) {
    if (node.kind != GNodeKind::kElement) continue;
    cuts.push_back(node.range.begin);
    cuts.push_back(node.range.end);
  }
  leaves_ = n == 0 ? std::vector<Leaf>()
                   : SplitLeaves({Leaf{TextRange(0, n)}}, std::move(cuts));
  leaves_dirty_ = false;
  return leaves_;
}

std::string KyGoddag::NodeString(NodeId id) const {
  const TextRange& r = nodes_[id].range;
  return base_text_->substr(r.begin, r.length());
}

}  // namespace mhx::goddag
