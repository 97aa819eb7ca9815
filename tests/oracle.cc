// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <tuple>
#include <utility>

#include "base/status_macros.h"
#include "xml/parser.h"

namespace mhx::oracle {

using goddag::GNode;
using goddag::GNodeKind;
using goddag::NodeId;
using xpath::Axis;

struct Oracle::Step {
  enum class Test { kName, kAnyElement, kLeaf };
  Axis axis = Axis::kChild;
  Test test = Test::kName;
  std::string name;
  std::vector<Predicate> predicates;
};

struct Oracle::Predicate {
  enum class Kind { kExists, kNotExists, kPosition };
  Kind kind = Kind::kExists;
  int64_t position = 0;
  std::vector<Step> path;
};

namespace {

// Every element of `a` is an element of `b`. The first/last comparison
// only rejects early; the loop is the definition.
bool Includes(const Extent& b, const Extent& a) {
  if (a.front() < b.front() || a.back() > b.back()) return false;
  return std::all_of(a.begin(), a.end(), [&b](uint32_t p) {
    return std::binary_search(b.begin(), b.end(), p);
  });
}

bool ShareLeaf(const Extent& a, const Extent& b) {
  const Extent& small = a.size() <= b.size() ? a : b;
  const Extent& large = a.size() <= b.size() ? b : a;
  return std::any_of(small.begin(), small.end(), [&large](uint32_t p) {
    return p % 2 == 1 && std::binary_search(large.begin(), large.end(), p);
  });
}

bool IsExtended(Axis axis) {
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

// The axes whose positions count from the context outwards. From a leaf,
// ancestor reads xancestor and preceding xpreceding, so those two count
// in reverse as well.
bool IsReverse(Axis axis) {
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

Status SyntaxError(std::string_view src, size_t pos, const std::string& what) {
  return InvalidArgumentError("oracle path '" + std::string(src) +
                              "' at " + std::to_string(pos) + ": " + what);
}

}  // namespace

bool Definition1(Axis axis, const Extent& c, const Extent& v) {
  switch (axis) {
    case Axis::kXAncestor:
      return Includes(v, c);
    case Axis::kXDescendant:
      return Includes(c, v);
    case Axis::kOverlapping:
      return ShareLeaf(c, v) && !Includes(c, v) && !Includes(v, c);
    case Axis::kXFollowing:
      return v.front() >= c.back();
    case Axis::kXPreceding:
      return v.back() <= c.front();
    default:
      return false;
  }
}

// Recursive descent over the grammar in oracle.h.
class PathParser {
 public:
  using Step = Oracle::Step;
  using Predicate = Oracle::Predicate;

  explicit PathParser(std::string_view src) : src_(src) {}

  StatusOr<std::vector<Step>> ParseAll() {
    Consume("/");
    MHX_ASSIGN_OR_RETURN(std::vector<Step> steps, ParsePath());
    if (pos_ != src_.size()) return SyntaxError(src_, pos_, "trailing input");
    return steps;
  }

 private:
  StatusOr<std::vector<Step>> ParsePath() {
    std::vector<Step> steps;
    do {
      MHX_ASSIGN_OR_RETURN(Step step, ParseStep());
      steps.push_back(std::move(step));
    } while (Consume("/"));
    return steps;
  }

  StatusOr<Step> ParseStep() {
    Step step;
    const size_t colons = src_.find("::", pos_);
    if (colons == std::string_view::npos) {
      return SyntaxError(src_, pos_, "expected axis::test");
    }
    MHX_ASSIGN_OR_RETURN(step.axis,
                         xpath::AxisFromName(src_.substr(pos_, colons - pos_)));
    pos_ = colons + 2;
    if (Consume("leaf()")) {
      step.test = Step::Test::kLeaf;
    } else if (Consume("*")) {
      step.test = Step::Test::kAnyElement;
    } else {
      step.name = ReadName();
      if (step.name.empty()) return SyntaxError(src_, pos_, "expected a test");
    }
    while (Consume("[")) {
      Predicate pred;
      if (pos_ < src_.size() && std::isdigit(src_[pos_])) {
        pred.kind = Predicate::Kind::kPosition;
        pred.position = std::stoll(ReadName());
      } else {
        const bool negated = Consume("not(");
        pred.kind =
            negated ? Predicate::Kind::kNotExists : Predicate::Kind::kExists;
        MHX_ASSIGN_OR_RETURN(pred.path, ParsePath());
        if (negated && !Consume(")")) {
          return SyntaxError(src_, pos_, "expected ')'");
        }
      }
      if (!Consume("]")) return SyntaxError(src_, pos_, "expected ']'");
      step.predicates.push_back(std::move(pred));
    }
    return step;
  }

  bool Consume(std::string_view token) {
    if (src_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  std::string ReadName() {
    const size_t begin = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '-' || src_[pos_] == '_' || src_[pos_] == '.')) {
      ++pos_;
    }
    return std::string(src_.substr(begin, pos_ - begin));
  }

  std::string_view src_;
  size_t pos_ = 0;
};

StatusOr<Oracle> Oracle::Create(const goddag::KyGoddag& kg) {
  Oracle oracle(&kg);
  const std::vector<goddag::Leaf>& leaves = kg.leaves();
  // boundaries[k] is the offset where leaf k begins; the last is the end.
  std::vector<size_t> boundaries;
  size_t end = 0;
  for (const goddag::Leaf& leaf : leaves) {
    if (leaf.range.begin != end || leaf.range.empty()) {
      return InternalError("leaf partition is not gap-free at " +
                           leaf.range.ToString());
    }
    boundaries.push_back(leaf.range.begin);
    end = leaf.range.end;
  }
  boundaries.push_back(end);
  auto boundary = [&boundaries](size_t offset) -> StatusOr<uint32_t> {
    auto it = std::lower_bound(boundaries.begin(), boundaries.end(), offset);
    if (it == boundaries.end() || *it != offset) {
      return InternalError("offset " + std::to_string(offset) +
                           " is not a leaf boundary");
    }
    return static_cast<uint32_t>(it - boundaries.begin());
  };
  oracle.extents_.resize(kg.node_table_size());
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    const GNode& node = kg.node(id);
    if (node.kind == GNodeKind::kFree) continue;
    MHX_ASSIGN_OR_RETURN(uint32_t first, boundary(node.range.begin));
    MHX_ASSIGN_OR_RETURN(uint32_t last, boundary(node.range.end));
    Extent& extent = oracle.extents_[id];
    for (uint32_t p = 2 * first; p <= 2 * last; ++p) extent.push_back(p);
  }
  return oracle;
}

Extent Oracle::LeafExtent(uint32_t leaf) const {
  return {2 * leaf, 2 * leaf + 1, 2 * leaf + 2};
}

const Extent& Oracle::ExtentOf(const Item& item, Extent* scratch) const {
  if (!item.is_leaf()) return extents_[item.node];
  *scratch = LeafExtent(item.leaf);
  return *scratch;
}

std::vector<NodeId> Oracle::Related(Axis axis, const Extent& c,
                                    NodeId exclude) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kg_->node_table_size(); ++id) {
    if (id == exclude || kg_->node(id).kind != GNodeKind::kElement) continue;
    if (Definition1(axis, c, extents_[id])) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Oracle::TreeAxis(NodeId context, Axis axis) const {
  const GNode& node = kg_->node(context);
  std::vector<NodeId> out;
  switch (axis) {
    case Axis::kSelf:
      out.push_back(context);
      break;
    case Axis::kChild:
      out = node.children;
      break;
    case Axis::kParent:
      if (node.parent != goddag::kInvalidNode) out.push_back(node.parent);
      break;
    case Axis::kDescendantOrSelf:
      out.push_back(context);
      [[fallthrough]];
    case Axis::kDescendant: {
      std::vector<NodeId> stack(node.children.rbegin(), node.children.rend());
      while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        out.push_back(id);
        const auto& children = kg_->node(id).children;
        stack.insert(stack.end(), children.rbegin(), children.rend());
      }
      break;
    }
    case Axis::kAncestorOrSelf:
      out.push_back(context);
      [[fallthrough]];
    case Axis::kAncestor:
      for (NodeId p = node.parent; p != goddag::kInvalidNode;
           p = kg_->node(p).parent) {
        out.push_back(p);
      }
      break;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      if (node.parent == goddag::kInvalidNode) break;
      const auto& siblings = kg_->node(node.parent).children;
      const auto self = std::find(siblings.begin(), siblings.end(), context);
      if (self == siblings.end()) break;
      if (axis == Axis::kFollowingSibling) {
        out.assign(self + 1, siblings.end());
      } else {
        out.assign(siblings.begin(), self);
      }
      break;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      // XPath's rule over the context's hierarchy tree, read off the arcs
      // alone: the nodes after the context in pre-order that are not its
      // descendants, or before it that are not its ancestors. Only
      // elements have a following and a preceding.
      if (node.kind != GNodeKind::kElement) break;
      NodeId top = context;
      while (kg_->node(kg_->node(top).parent).kind != GNodeKind::kRoot) {
        top = kg_->node(top).parent;
      }
      std::vector<NodeId> order = TreeAxis(top, Axis::kDescendantOrSelf);
      const size_t at = static_cast<size_t>(
          std::find(order.begin(), order.end(), context) - order.begin());
      if (axis == Axis::kFollowing) {
        // The descendants are the block right after the context.
        const size_t skip = TreeAxis(context, Axis::kDescendant).size();
        out.assign(order.begin() + at + 1 + skip, order.end());
      } else {
        const std::vector<NodeId> ancestors =
            TreeAxis(context, Axis::kAncestor);
        for (size_t i = 0; i < at; ++i) {
          if (std::find(ancestors.begin(), ancestors.end(), order[i]) ==
              ancestors.end()) {
            out.push_back(order[i]);
          }
        }
      }
      break;
    }
    default:
      break;
  }
  return out;
}

StatusOr<std::vector<Item>> Oracle::StepFrom(const Item& item,
                                             const Step& step) const {
  work_ += kg_->node_table_size();
  if (work_ > work_limit_) {
    return ResourceExhaustedError("oracle work limit exceeded");
  }
  std::vector<Item> out;
  Extent scratch;
  const Extent& extent = ExtentOf(item, &scratch);
  if (step.test == Step::Test::kLeaf) {
    switch (step.axis) {
      case Axis::kSelf:
        if (item.is_leaf()) out.push_back(item);
        return out;
      case Axis::kChild:
        // The leaves of the node that none of its children holds.
        if (item.is_leaf()) return out;
        for (uint32_t p : extent) {
          if (p % 2 == 0) continue;
          const auto& children = kg_->node(item.node).children;
          if (std::none_of(children.begin(), children.end(),
                           [&](NodeId child) {
                             return std::binary_search(
                                 extents_[child].begin(),
                                 extents_[child].end(), p);
                           })) {
            out.push_back({Item::kLeaf, p / 2});
          }
        }
        return out;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kXDescendant:
        for (uint32_t p : extent) {
          if (p % 2 == 1) out.push_back({Item::kLeaf, p / 2});
        }
        return out;
      default:
        return InvalidArgumentError("no leaf() step on axis " +
                                    std::string(xpath::AxisName(step.axis)));
    }
  }
  std::vector<NodeId> ids;
  if (item.is_leaf()) {
    Axis relation;
    switch (step.axis) {
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kXAncestor:
        relation = Axis::kXAncestor;
        break;
      case Axis::kFollowing:
      case Axis::kXFollowing:
        relation = Axis::kXFollowing;
        break;
      case Axis::kPreceding:
      case Axis::kXPreceding:
        relation = Axis::kXPreceding;
        break;
      case Axis::kXDescendant:
      case Axis::kOverlapping:
        relation = step.axis;
        break;
      default:
        return InvalidArgumentError("axis " +
                                    std::string(xpath::AxisName(step.axis)) +
                                    " cannot start from a leaf");
    }
    ids = Related(relation, extent, goddag::kInvalidNode);
  } else if (IsExtended(step.axis)) {
    ids = Related(step.axis, extent, item.node);
  } else {
    ids = TreeAxis(item.node, step.axis);
  }
  for (NodeId id : ids) {
    const GNode& node = kg_->node(id);
    if (node.kind != GNodeKind::kElement) continue;
    if (step.test == Step::Test::kName && node.name != step.name) continue;
    out.push_back({id, 0});
  }
  return out;
}

StatusOr<std::vector<Item>> Oracle::Filter(std::vector<Item> run,
                                           const Predicate& pred) const {
  std::vector<Item> kept;
  for (size_t i = 0; i < run.size(); ++i) {
    bool keep;
    if (pred.kind == Predicate::Kind::kPosition) {
      keep = pred.position == static_cast<int64_t>(i) + 1;
    } else {
      MHX_ASSIGN_OR_RETURN(std::vector<Item> hits,
                           EvalSteps({run[i]}, pred.path));
      keep = hits.empty() == (pred.kind == Predicate::Kind::kNotExists);
    }
    if (keep) kept.push_back(run[i]);
  }
  return kept;
}

void Oracle::SortAndDedup(std::vector<Item>* items) const {
  // Document order: first position ascending, the larger extent first, a
  // node before the leaf of the same extent, then NodeId.
  auto key = [this](const Item& item) {
    const uint32_t first = item.is_leaf() ? 2 * item.leaf
                                          : extents_[item.node].front();
    const uint32_t last = item.is_leaf() ? 2 * item.leaf + 2
                                         : extents_[item.node].back();
    return std::make_tuple(first, ~last, item.is_leaf(), item.node,
                           item.leaf);
  };
  std::sort(items->begin(), items->end(),
            [&key](const Item& a, const Item& b) { return key(a) < key(b); });
  items->erase(std::unique(items->begin(), items->end()), items->end());
}

StatusOr<std::vector<Item>> Oracle::EvalSteps(
    std::vector<Item> current, const std::vector<Step>& steps) const {
  for (const Step& step : steps) {
    std::vector<Item> next;
    for (const Item& item : current) {
      MHX_ASSIGN_OR_RETURN(std::vector<Item> run, StepFrom(item, step));
      work_ += run.size();
      // Predicates filter each context's run in document order, or in
      // reverse document order on a reverse axis.
      if (!step.predicates.empty()) {
        SortAndDedup(&run);
        if (IsReverse(step.axis)) std::reverse(run.begin(), run.end());
      }
      for (const Predicate& pred : step.predicates) {
        MHX_ASSIGN_OR_RETURN(run, Filter(std::move(run), pred));
      }
      next.insert(next.end(), run.begin(), run.end());
    }
    SortAndDedup(&next);
    current = std::move(next);
  }
  return current;
}

std::vector<NodeId> Oracle::ExtendedAxis(NodeId context, Axis axis) const {
  std::vector<Item> items;
  for (NodeId id : Related(axis, extents_[context], context)) {
    items.push_back({id, 0});
  }
  SortAndDedup(&items);
  std::vector<NodeId> out;
  for (const Item& item : items) out.push_back(item.node);
  return out;
}

StatusOr<std::vector<Item>> Oracle::Evaluate(std::string_view path) const {
  return EvaluateFrom({Item{kg_->root(), 0}}, path);
}

StatusOr<std::vector<Item>> Oracle::EvaluateFrom(
    const std::vector<Item>& contexts, std::string_view path) const {
  MHX_ASSIGN_OR_RETURN(std::vector<Step> steps, PathParser(path).ParseAll());
  work_ = 0;
  return EvalSteps(contexts, steps);
}

std::string Oracle::Listing(const std::vector<Item>& items) const {
  const std::vector<goddag::Leaf>& leaves = kg_->leaves();
  std::string out;
  for (const Item& item : items) {
    // An item's text is the text of the leaves it holds.
    std::string text;
    Extent scratch;
    for (uint32_t p : ExtentOf(item, &scratch)) {
      if (p % 2 == 0) continue;
      const TextRange& range = leaves[p / 2].range;
      text += kg_->base_text().substr(range.begin, range.length());
    }
    if (!item.is_leaf()) out += kg_->node(item.node).name;
    out += "[" + xml::EscapeText(text) + "]";
  }
  return out;
}

std::string ListingQuery(std::string_view path) {
  return "for $n in " + std::string(path) +
         " return (name($n), '[', string($n), ']')";
}

}  // namespace mhx::oracle
