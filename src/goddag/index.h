// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// RangeIndex is a static interval index over every live element node of a
// KyGoddag at construction time: the bulk lookup primitive behind the
// indexed evaluation mode of the extended axes (xpath/axes.h) and behind
// whole-document joins such as the word x line overlap join of the
// fragmentation comparison.
//
// Internally it keeps the elements sorted by range start with a segment tree
// of maximum range ends (an array-backed interval tree), plus a second
// ordering by range end. Stabbing-style queries (intersect / contain) run in
// O(log n + k); the order queries (begin-at-or-after / end-at-or-before) are
// a binary search plus a suffix/prefix copy.
//
// The index is a snapshot: it does not observe later mutations of the
// KyGoddag. Each published DocumentSnapshot owns the one index built for
// its immutable goddag; revision() records which goddag revision that was
// (the arena writer checks it).

#ifndef MHX_GODDAG_INDEX_H_
#define MHX_GODDAG_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/array_ref.h"
#include "base/text_range.h"
#include "goddag/kygoddag.h"

namespace mhx::goddag {

// Optional predicate pushdown applied *inside* an index probe, before
// candidates materialise: `name_keys` points at a per-node interned-name
// array aligned with the node table (SnapshotStats::node_name_keys) and
// `key` is the interned element name to keep. Default-constructed = keep
// everything. The planner builds these from a path step's name test so a
// probe returns only name-matching nodes instead of a superset the caller
// re-filters.
struct ProbeFilter {
  const uint32_t* name_keys = nullptr;
  uint32_t key = 0;

  // Whether node `id` survives the filter.
  bool Pass(NodeId id) const {
    return name_keys == nullptr || name_keys[id] == key;
  }
};

class RangeIndex {
 public:
  explicit RangeIndex(const KyGoddag* goddag);

  // Nodes whose range properly overlaps `range` (intersects, neither
  // contains the other) — the `overlapping` axis predicate. Here and
  // below, `filter` drops non-matching nodes inside the probe.
  std::vector<NodeId> NodesOverlapping(const TextRange& range,
                                       const ProbeFilter& filter = {}) const;

  // Nodes whose range shares at least one position with `range`.
  std::vector<NodeId> NodesIntersecting(const TextRange& range,
                                        const ProbeFilter& filter = {}) const;

  // Nodes whose range contains `range` (equal ranges included).
  std::vector<NodeId> NodesContaining(const TextRange& range,
                                      const ProbeFilter& filter = {}) const;

  // Nodes whose range is contained in `range` (equal ranges included).
  std::vector<NodeId> NodesContainedIn(const TextRange& range,
                                       const ProbeFilter& filter = {}) const;

  // Nodes whose range begins at or after `pos` (the xfollowing predicate).
  std::vector<NodeId> NodesBeginningAtOrAfter(
      size_t pos, const ProbeFilter& filter = {}) const;

  // Nodes whose range ends at or before `pos` (the xpreceding predicate).
  std::vector<NodeId> NodesEndingAtOrBefore(
      size_t pos, const ProbeFilter& filter = {}) const;

  // Number of indexed element nodes.
  size_t size() const { return by_begin_.size(); }

  // Revision of the KyGoddag this index was built from.
  uint64_t revision() const { return revision_; }

 private:
  struct Entry {
    TextRange range;
    NodeId id;
  };

  // The mmap-adoption path (goddag/persist.cc) constructs an empty index
  // and points the three arrays straight into the arena's prebuilt
  // kIndexByBegin / kIndexByEnd / kIndexMaxEnd sections.
  friend class ArenaLoader;
  friend class SnapshotWriter;
  RangeIndex() = default;

  static void BuildMaxEndTree(const Entry* entries, size_t tree_node,
                              size_t lo, size_t hi, uint64_t* max_end);
  void CollectIntersecting(size_t tree_node, size_t lo, size_t hi,
                           const TextRange& range, const ProbeFilter& filter,
                           std::vector<NodeId>* out) const;
  void CollectContaining(size_t tree_node, size_t lo, size_t hi,
                         const TextRange& range, const ProbeFilter& filter,
                         std::vector<NodeId>* out) const;
  void CollectOverlapping(size_t tree_node, size_t lo, size_t hi,
                          const TextRange& range, const ProbeFilter& filter,
                          std::vector<NodeId>* out) const;

  // ArrayRefs so the build path owns the arrays while the mmap path borrows
  // them out of the arena (base/array_ref.h).
  base::ArrayRef<Entry> by_begin_;    // sorted by (begin asc, end asc, id)
  base::ArrayRef<Entry> by_end_;      // sorted by (end asc, begin asc, id)
  base::ArrayRef<uint64_t> max_end_;  // segment tree over by_begin_
  uint64_t revision_ = 0;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_INDEX_H_
