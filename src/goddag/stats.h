// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// SnapshotStats: per-snapshot summary statistics plus a structure-of-arrays
// range table, built (or adopted from an arena) with the RangeIndex before
// a DocumentSnapshot is published and immutable thereafter (CONCURRENCY.md:
// the pin/publish contract). Two consumers:
//
//   * The XQuery step planner (xquery/planner.h) reads the counts —
//     elements per hierarchy, elements per name, a log2 range-length
//     histogram — to estimate extended-axis hit counts and pick indexed
//     probe vs. full scan per path step, and to order conjunctive
//     predicates cheapest-first.
//   * The vectorized extended-axis kernels (xpath/kernels.h) scan the
//     RangeSoA: every live element's (begin, end) packed into flat
//     uint32 arrays — branch-light, cache-dense, and SIMD-friendly where
//     the per-GNode scan (~100+ bytes per node, strings and vectors
//     inline) is neither.
//
// Element names are interned to dense uint32 keys so a name test can be
// pushed down into an index probe or kernel scan as one integer compare:
// node_name_keys is aligned with the node table (kNoNameKey for non-element
// slots), and RangeSoA carries the same key per entry.

#ifndef MHX_GODDAG_STATS_H_
#define MHX_GODDAG_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/array_ref.h"
#include "goddag/kygoddag.h"

namespace mhx::goddag {

// The name key of node-table slots that are not elements, and of lookups
// for names the snapshot does not contain. Never equal to any interned key.
inline constexpr uint32_t kNoNameKey = 0xffffffffu;

// The longest base text a document may have: RangeSoA packs every offset
// into a uint32. Builder::Build and the arena loader reject longer texts.
inline constexpr size_t kMaxTextSize = 0xffffffffu;

// Flat structure-of-arrays view of every live element's range, in NodeId
// order — the kernels' scan surface, present for every document. All four
// arrays share one length and hold raw (unbiased) offsets. The arrays are
// ArrayRefs: the build path owns them, the mmap-adoption path
// (goddag/persist.h) borrows them straight out of the arena's SoA sections.
struct RangeSoA {
  base::ArrayRef<uint32_t> begin;     // range.begin per live element
  base::ArrayRef<uint32_t> end;       // range.end per live element
  base::ArrayRef<uint32_t> name_key;  // interned element name per entry
  base::ArrayRef<NodeId> id;          // node-table id per entry

  // Number of packed elements.
  size_t size() const { return id.size(); }
};

// The statistics block described in the file comment. Construction walks
// the node table once; every accessor afterwards is a plain read, safe from
// any number of threads.
class SnapshotStats {
 public:
  // `goddag`'s base text must be at most kMaxTextSize characters.
  explicit SnapshotStats(const KyGoddag* goddag);

  // Live element nodes at build time (== RangeSoA::size).
  size_t element_count() const { return element_count_; }

  // Base-text length in characters.
  size_t text_size() const { return text_size_; }

  // Node-table size at build time (free slots included) — what the
  // planner's scan cost scales with.
  size_t node_table_size() const { return node_table_size_; }

  // Active hierarchies at build time.
  size_t hierarchy_count() const { return hierarchy_count_; }

  // Live elements of hierarchy `h` (0 for inactive/out-of-range slots).
  size_t hierarchy_element_count(HierarchyId h) const {
    return h < per_hierarchy_.size() ? per_hierarchy_[h] : 0;
  }

  // The interned key for an element name, or kNoNameKey when no live
  // element bears it — a kNoNameKey probe filter matches nothing.
  uint32_t name_key(std::string_view name) const;

  // Live elements named `name` (0 for unknown names).
  size_t name_count(std::string_view name) const;

  // Distinct live element names.
  size_t name_table_size() const { return name_counts_.size(); }

  // Per-node interned name keys, aligned with the node table: entry id is
  // kNoNameKey for non-element slots. The index/kernel pushdown filter
  // indexes this with candidate NodeIds.
  const base::ArrayRef<uint32_t>& node_name_keys() const {
    return node_name_keys_;
  }

  // Histogram of live-element range lengths: bucket b counts elements with
  // floor(log2(length)) == b (length 0 in bucket 0). 33 buckets cover every
  // size_t length a 32-bit text offset can produce.
  const std::vector<size_t>& range_length_log2_histogram() const {
    return length_log2_;
  }

  // Sum of all live-element range lengths. total / text_size is the mean
  // stabbing depth — the planner's xancestor hit estimate.
  size_t total_range_length() const { return total_range_length_; }

  // The packed scan surface.
  const RangeSoA& soa() const { return soa_; }

 private:
  // The mmap-adoption path (goddag/persist.cc) constructs an empty block
  // and fills it from the arena's stats sections, borrowing the two large
  // arrays (node_name_keys_, soa_) in place.
  friend class ArenaLoader;
  friend class SnapshotWriter;
  SnapshotStats() = default;

  size_t element_count_ = 0;
  size_t text_size_ = 0;
  size_t node_table_size_ = 0;
  size_t hierarchy_count_ = 0;
  size_t total_range_length_ = 0;
  std::vector<size_t> per_hierarchy_;
  std::unordered_map<std::string, uint32_t> name_keys_;
  std::vector<size_t> name_counts_;  // indexed by interned key
  base::ArrayRef<uint32_t> node_name_keys_;
  std::vector<size_t> length_log2_;
  RangeSoA soa_;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_STATS_H_
