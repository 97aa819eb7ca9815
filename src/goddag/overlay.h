// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Evaluation-scoped hierarchy overlays. A GoddagOverlay is one temporary
// virtual hierarchy (the kind analyze-string() materialises) held in a
// private node arena *outside* the base KyGoddag: the base document is never
// mutated, so any number of evaluations can build, read, and drop overlays
// concurrently while sharing one immutable base.
//
// Id namespace: overlay nodes live in the upper half of the NodeId space
// (kOverlayIdBit set). Blocks of ids are leased from an OverlayIdAllocator
// shared by every overlay that can ever meet in one view, so overlay ids
// never collide with base ids or with each other. An OverlayView is the
// single node-resolution seam readers go through: it resolves base ids
// against the KyGoddag, overlay ids against the (few) overlays registered
// with it, and answers leaf() lookups per range — the base cells inside the
// range, re-split at the overlay element endpoints that fall inside it.
//
// Lifetime rules: an overlay is immutable after Create and refcounted
// (shared_ptr); it releases its id block on destruction. A view registers
// overlays but never outlives the evaluation that owns it; the XQuery
// engine keeps an evaluation's overlays alive past the evaluation only
// through the KeptTemporaries handle (xquery/engine.h).
//
// Overlays sit *above* the MVCC document-version layer: an overlay
// annotates the one immutable snapshot its evaluation pinned and is never
// part of any published version — Writer commits and overlay builds never
// meet in a write. CONCURRENCY.md is the authoritative statement of the
// layering and of every lifetime rule summarised here.

#ifndef MHX_GODDAG_OVERLAY_H_
#define MHX_GODDAG_OVERLAY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "goddag/kygoddag.h"

namespace mhx::goddag {

// Overlay node ids occupy the upper half of the NodeId space. kInvalidNode
// also has the bit set and is never a valid overlay id.
inline constexpr NodeId kOverlayIdBit = 0x80000000u;

inline bool IsOverlayId(NodeId id) {
  return (id & kOverlayIdBit) != 0 && id != kInvalidNode;
}

// GNode::hierarchy value for overlay nodes: overlays are not entries of the
// base hierarchy table, so the field deliberately points nowhere.
inline constexpr HierarchyId kOverlayHierarchy = static_cast<HierarchyId>(-1);

// Thread-safe lessor of contiguous overlay-id blocks. All overlays that can
// appear together in one OverlayView must draw from the same allocator (the
// XQuery engine owns one per engine, shared with every overlay it creates
// so an overlay kept alive past the engine still releases safely). The
// namespace holds 2^31 - 1 ids; blocks come from a first-fit scan of the
// free list (released holes, coalesced when adjacent) and only then from
// the monotonic tail cursor. Reclamation is two-tier: tail rewind pulls
// the cursor back over a released suffix, and holes sandwiched under
// live blocks — the corpus reality of many long-lived engines sharing one
// process — are reused directly by first fit instead of waiting for the
// blocks above them to go. Exhaustion therefore requires ~2^31 overlay
// nodes in *live* blocks plus unfillable fragmentation slack.
class OverlayIdAllocator {
 public:
  // Leases a block of `count` ids and returns its first id (overlay bit
  // set), or kInvalidNode if the namespace is exhausted.
  NodeId Allocate(size_t count);
  // Returns a block previously obtained from Allocate, identified by its
  // first id.
  void Release(NodeId begin, size_t count);

 private:
  std::mutex mu_;
  uint32_t next_ = 0;
  uint64_t outstanding_ = 0;
  // Released blocks (offset -> count) not yet absorbed by a tail rewind:
  // blocks freed underneath a still-live block wait here and are reclaimed
  // the moment everything above them releases.
  std::map<uint32_t, uint32_t> freed_;
};

// One temporary virtual hierarchy over an immutable base document: an
// auto-created root element spanning the whole base text (plumbing — kept
// out of extended-axis scans, exactly like the root KyGoddag's virtual
// hierarchies auto-create) plus the given elements, which must pairwise
// nest or be disjoint. Nodes live at the contiguous id block
// [id_begin(), id_end()); the root is id_begin(), the elements follow in
// document order. Immutable after Create.
class GoddagOverlay {
 public:
  // Validates `elements` (same rules as KyGoddag::AddVirtualHierarchy) and
  // builds the hierarchy. Fails with the validation error, or with
  // ResourceExhausted when `ids` cannot lease a block. The overlay shares
  // ownership of the allocator, so it may outlive the engine that created
  // it (a KeptTemporaries handle held past engine destruction stays safe).
  static StatusOr<std::shared_ptr<const GoddagOverlay>> Create(
      const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
      const std::string& name, std::vector<VirtualElement> elements);

  ~GoddagOverlay();

  GoddagOverlay(const GoddagOverlay&) = delete;
  GoddagOverlay& operator=(const GoddagOverlay&) = delete;

  // The leased contiguous id block [id_begin(), id_end()). Immutable, so
  // every accessor on this class is safe from any thread without locking.
  NodeId id_begin() const { return id_begin_; }
  // One past the last id of the block.
  NodeId id_end() const {
    return id_begin_ + static_cast<NodeId>(arena_.size());
  }
  // Number of nodes (root + elements) in the overlay.
  size_t node_count() const { return arena_.size(); }
  // Whether `id` falls inside this overlay's id block.
  bool Contains(NodeId id) const {
    return id >= id_begin_ && id < id_end();
  }
  // The auto-created whole-text root. Plumbing, not a result: extended-axis
  // scans skip it (it would otherwise be an xancestor of every node).
  NodeId root() const { return id_begin_; }
  // First non-root element id; elements occupy [elements_begin(), id_end())
  // in document order.
  NodeId elements_begin() const { return id_begin_ + 1; }

  // The node stored at `id`; `Contains(id)` is the caller's precondition
  // (resolution normally goes through OverlayView::node).
  const GNode& node(NodeId id) const { return arena_[id - id_begin_]; }

 private:
  GoddagOverlay(std::shared_ptr<OverlayIdAllocator> ids, NodeId id_begin)
      : ids_(std::move(ids)), id_begin_(id_begin) {}

  std::shared_ptr<OverlayIdAllocator> ids_;
  NodeId id_begin_;
  std::vector<GNode> arena_;
};

// The read seam of one evaluation: an immutable base KyGoddag plus every
// overlay visible to the evaluation (hierarchies kept by earlier
// EvaluateKeepingTemporaries calls, then the evaluation's own). Node
// resolution, node-to-string, and leaf() lookups all go through here.
//
// Views form a fork chain: the engine forks a child view off the enclosing
// view for each binding of a loop whose body calls analyze-string(), and
// the binding registers its own overlays there, so sibling bindings never
// see each other's temporaries. A child resolves ids it does not own — and
// reads the cuts of the overlays it does not own — through its parent, so
// the enclosing overlays stay visible without being copied. At loop exit
// the engine re-adds the bindings' overlays to the enclosing view in
// binding order.
//
// Leaf lookups are per range: each view keeps only the sorted element
// endpoints ("cuts") of its own overlays, and a leaf lookup over a range
// reads the base cells in that range and splits them at the cuts inside
// it, gathered up the parent chain. A lookup therefore costs the
// range, not the document, and a fresh per-binding fork pays nothing for
// the partition it inherits.
//
// Not thread-safe for mutation: AddOverlay/AddOverlays may only be called
// by the evaluation that owns the view, never concurrently with its
// readers. A parent view must be frozen — no AddOverlay — while forked
// children exist; the engine guarantees this because a binding's fork is
// dropped before the loop registers anything on the enclosing view. Reads
// are const, touch no mutable state, and take no lock.
class OverlayView {
 public:
  // A root view over `base`, which must stay alive and structurally
  // unchanged for the view's lifetime — the engine satisfies this by
  // pointing views at the goddag of a pinned DocumentSnapshot.
  explicit OverlayView(const KyGoddag* base) : base_(base) {}

  // Forks a child view: ids and cuts the child does not
  // own resolve through `parent` (recursively up the fork tree). `parent`
  // must outlive the child and stay frozen while the child exists.
  explicit OverlayView(const OverlayView* parent)
      : base_(parent->base_), parent_(parent) {}

  // The parent this view was forked from, or nullptr for a root view.
  const OverlayView* parent() const { return parent_; }

  // The base document, its text, and the GODDAG root — straight
  // pass-throughs to the (immutable) base; safe from any thread.
  const KyGoddag& base() const { return *base_; }
  // The shared base text every hierarchy and overlay annotates.
  const std::string& base_text() const { return base_->base_text(); }
  // The base GODDAG's unique root node id.
  NodeId root() const { return base_->root(); }

  // Registers an overlay (kept sorted by id_begin for binary-search
  // resolution) and merges its element endpoints into this view's sorted
  // cuts. An overlay whose ids and endpoints all sort after the ones
  // already registered — analyze-string() run in document order — is
  // appended without a merge. Requires the base leaf partition to be
  // materialised (the engine does this before evaluation starts).
  void AddOverlay(std::shared_ptr<const GoddagOverlay> overlay);
  // Registers a batch of overlays at once — the kept set at evaluation
  // start, a loop's binding overlays at its exit — with at most
  // one sort of the batch's endpoints (none when its overlays come in
  // document order) and at most one merge into the existing cuts, instead
  // of one merge per overlay.
  void AddOverlays(std::vector<std::shared_ptr<const GoddagOverlay>> batch);

  // Overlays registered on THIS view — a forked child's parents hold
  // theirs; readers that must see every overlay visible to the view (the
  // axis layer's overlay scans) walk the parent() chain.
  bool has_overlays() const { return !overlays_.empty(); }
  const std::vector<std::shared_ptr<const GoddagOverlay>>& overlays() const {
    return overlays_;
  }

  // The overlay owning `id` — searched here, then up the parent chain —
  // or nullptr. `id` must be an overlay id.
  const GoddagOverlay* overlay_of(NodeId id) const;

  // Resolves any node id — base ids against the base document, overlay ids
  // against the registered overlays. Like KyGoddag::node, resolving an id
  // that does not exist is undefined behaviour.
  const GNode& node(NodeId id) const {
    return IsOverlayId(id) ? overlay_of(id)->node(id) : base_->node(id);
  }

  // Base-text content dominated by a node (any namespace).
  std::string NodeString(NodeId id) const;

  // Calls `emit(const TextRange&)`, in text order, for every leaf of this
  // view's partition that lies inside `range` — the partition being the
  // base cells re-split at the element endpoints of every overlay visible
  // to the view (this view's and each parent's). A node's range starts and
  // ends on leaf boundaries, so for a node range the emitted leaves tile
  // it exactly. Never emits an empty leaf: a cut on an existing cell
  // boundary, or a repeated cut, splits nothing. Costs a binary search
  // into the base cells and two into each chain view's cuts, plus the
  // leaves emitted; with no cut in `range` (endpoints included) the split
  // loop degenerates to copying the base cells inside `range`. Const and
  // lock-free.
  template <typename Emit>
  void AppendLeavesIn(const TextRange& range, Emit&& emit) const;

  // The whole partition, [0, n) through AppendLeavesIn. Built per call —
  // the engine itself only ever asks for ranges.
  std::vector<Leaf> leaves() const;

 private:
  // The shared body of AddOverlay/AddOverlays: moves the overlays out of
  // [first, last) into overlays_ and their endpoints into cuts_.
  void Register(std::shared_ptr<const GoddagOverlay>* first,
                std::shared_ptr<const GoddagOverlay>* last);

  // The cuts in [begin, end] of this view and every parent, sorted,
  // repeats allowed — the endpoints too, since an overlay element's range
  // may start or end inside a base cell.
  std::vector<size_t> CutsIn(const TextRange& range) const;

  const KyGoddag* base_;
  const OverlayView* parent_ = nullptr;
  // Sorted by id_begin (allocator blocks are disjoint, so this is a total
  // order).
  std::vector<std::shared_ptr<const GoddagOverlay>> overlays_;
  // Element endpoints of overlays_, sorted; a cut may repeat (an
  // AppendLeavesIn split skips a cut equal to the piece's begin). Parents'
  // cuts are not copied in; AppendLeavesIn reads them up the chain.
  std::vector<size_t> cuts_;
};

template <typename Emit>
void OverlayView::AppendLeavesIn(const TextRange& range, Emit&& emit) const {
  if (range.empty()) return;
  const std::vector<Leaf>& cells = base_->leaves();
  const std::vector<size_t> cuts = CutsIn(range);
  auto cut = cuts.begin();
  // The cell holding range.begin, then every cell up to range.end, each
  // split at the cuts inside it; pieces that stick out of `range` on
  // either side are not emitted.
  auto it = std::upper_bound(cells.begin(), cells.end(), range.begin,
                             [](size_t pos, const Leaf& leaf) {
                               return pos < leaf.range.end;
                             });
  for (; it != cells.end() && it->range.begin < range.end; ++it) {
    size_t begin = it->range.begin;
    for (; cut != cuts.end() && *cut < it->range.end; ++cut) {
      if (*cut == begin) continue;  // a cell boundary or a repeated cut
      if (begin >= range.begin) emit(TextRange(begin, *cut));
      begin = *cut;
    }
    if (begin >= range.begin && it->range.end <= range.end) {
      emit(TextRange(begin, it->range.end));
    }
  }
}

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_OVERLAY_H_
