// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// A test-only reference for the paper's path semantics, independent of the
// evaluator it checks. It has two parts:
//
//   * Definition1: the paper's extended axes as literal relations between
//     explicit leaf sets (Extent below), with no interval reduction;
//   * Oracle: a naive path interpreter that reads only a KyGoddag's node
//     table, parent/child arcs and leaf partition. Every step is evaluated
//     from each context item on its own, by brute force over the node
//     table; the runs are concatenated, then sorted into document order and
//     deduplicated.
//
// Nothing here reaches xpath/ beyond the Axis enum and its names: no
// AxisEvaluator, RangeIndex, RangeSoA, scan kernel or ExtendedAxisMatches,
// so a fault in any of those (or in the engine's set-step covering rules)
// cannot hide in the reference as well.
//
// The interpreter's path syntax is the subset below, which is also valid
// XQuery for the engine:
//
//   path      := '/'? step ('/' step)*
//   step      := axis '::' test predicate*
//   test      := name | '*' | 'leaf()'
//   predicate := '[' (integer | 'not(' path ')' | path) ']'
//
// A predicate path runs from the filtered item; an integer is a positional
// test over each context's run in document order, or in reverse document
// order on the reverse axes (parent, ancestor(-or-self),
// preceding(-sibling), xancestor and xpreceding), as XPath counts them.
// following and preceding follow XPath over the context's hierarchy tree:
// the nodes after it in pre-order that are not its descendants, or before
// it that are not its ancestors — read off the arcs, with no ranges.
// From a leaf, the name and '*' tests read the extended relation the axis
// reduces to there (a leaf lies in every hierarchy, so ancestor means
// xancestor, following xfollowing and preceding xpreceding), and leaf()
// steps read self, child and the descendant axes. Any other combination is
// an InvalidArgument error, as it is in the engine.

#ifndef MHX_TESTS_ORACLE_H_
#define MHX_TESTS_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "goddag/kygoddag.h"
#include "xpath/axes.h"

namespace mhx::oracle {

// What a node or leaf dominates over the leaf partition of L leaves, as
// sorted positions: 2k + 1 is leaf k, and 2k is boundary k, the offset
// where leaf k begins (boundary L is the text end). A non-empty element
// holds its leaves and every boundary from its start to its end. An empty
// element holds no leaf; as DESIGN.md's notes read it, it sits at a
// boundary position, so it holds that boundary alone — it intersects
// nothing, and it lies inside every element whose boundaries include it.
using Extent = std::vector<uint32_t>;

// Definition 1: whether a candidate with extent `v` stands in `axis`
// relation to a context with extent `c` (`axis` must be extended):
//   xancestor    v includes c
//   xdescendant  c includes v
//   overlapping  c and v share a leaf and neither includes the other
//   xfollowing   v's first position is at or after c's last
//   xpreceding   v's last position is at or before c's first
// The caller excludes the context itself.
bool Definition1(xpath::Axis axis, const Extent& c, const Extent& v);

// One result item: a node (an element or the GODDAG root), or a leaf of
// the partition.
struct Item {
  static constexpr goddag::NodeId kLeaf = goddag::kInvalidNode;
  goddag::NodeId node = kLeaf;  // kLeaf for a leaf
  uint32_t leaf = 0;            // the leaf index, for leaves only

  bool is_leaf() const { return node == kLeaf; }
  friend bool operator==(const Item& a, const Item& b) {
    return a.node == b.node && (!a.is_leaf() || a.leaf == b.leaf);
  }
};

class PathParser;

class Oracle {
 public:
  // Reads `kg`'s node table, arcs and leaf partition. Fails when an
  // element endpoint is not a boundary of the partition. `kg` must outlive
  // the oracle.
  static StatusOr<Oracle> Create(const goddag::KyGoddag& kg);

  // The elements in extended-axis `axis` relation to node `context`, the
  // context excluded, in document order.
  std::vector<goddag::NodeId> ExtendedAxis(goddag::NodeId context,
                                           xpath::Axis axis) const;

  // Evaluates `path` from the GODDAG root (a leading '/' is optional).
  StatusOr<std::vector<Item>> Evaluate(std::string_view path) const;

  // Evaluates the relative `path` from each of `contexts`.
  StatusOr<std::vector<Item>> EvaluateFrom(const std::vector<Item>& contexts,
                                           std::string_view path) const;

  // Bounds one Evaluate/EvaluateFrom call: past `units` of work (one unit
  // per node-table slot a step from one context visits, plus one per item
  // it returns) the call fails with ResourceExhausted, so a random path
  // whose brute-force cost explodes can be drawn again.
  void set_work_limit(size_t units) { work_limit_ = units; }

  // What the engine serialises for ListingQuery over these items: per item
  // its name (empty for a leaf), '[', its escaped text, ']'.
  std::string Listing(const std::vector<Item>& items) const;

 private:
  friend class PathParser;
  struct Step;
  struct Predicate;

  explicit Oracle(const goddag::KyGoddag* kg) : kg_(kg) {}

  Extent LeafExtent(uint32_t leaf) const;
  const Extent& ExtentOf(const Item& item, Extent* scratch) const;
  StatusOr<std::vector<Item>> EvalSteps(std::vector<Item> current,
                                        const std::vector<Step>& steps) const;
  StatusOr<std::vector<Item>> StepFrom(const Item& item,
                                       const Step& step) const;
  StatusOr<std::vector<Item>> Filter(std::vector<Item> run,
                                     const Predicate& pred) const;
  // Nodes reached along a tree axis, before the node test.
  std::vector<goddag::NodeId> TreeAxis(goddag::NodeId context,
                                       xpath::Axis axis) const;
  // Elements in `axis` relation to `c`, skipping `exclude`.
  std::vector<goddag::NodeId> Related(xpath::Axis axis, const Extent& c,
                                      goddag::NodeId exclude) const;
  void SortAndDedup(std::vector<Item>* items) const;

  const goddag::KyGoddag* kg_;
  // Per node-table slot; empty for free slots.
  std::vector<Extent> extents_;
  size_t work_limit_ = static_cast<size_t>(-1);
  // Work done by the running call (see set_work_limit).
  mutable size_t work_ = 0;
};

// The query whose output exposes a path result's order and duplicates item
// by item: for $n in PATH return (name($n), '[', string($n), ']').
std::string ListingQuery(std::string_view path);

}  // namespace mhx::oracle

#endif  // MHX_TESTS_ORACLE_H_
