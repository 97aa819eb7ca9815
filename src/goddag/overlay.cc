// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/overlay.h"

#include <algorithm>
#include <functional>

namespace mhx::goddag {

namespace {
// Ids run from kOverlayIdBit to kOverlayIdBit | kMaxOverlayOffset - 1;
// kInvalidNode (all bits set) stays unreachable.
constexpr uint32_t kMaxOverlayOffset = 0x7FFFFFFFu;
}  // namespace

NodeId OverlayIdAllocator::Allocate(size_t count) {
  if (count > kMaxOverlayOffset - next_) return kInvalidNode;
  const NodeId begin = kOverlayIdBit | next_;
  next_ += static_cast<uint32_t>(count);
  outstanding_ += count;
  return begin;
}

void OverlayIdAllocator::Release(NodeId /*begin*/, size_t count) {
  outstanding_ -= count;
  if (outstanding_ == 0) next_ = 0;
}

StatusOr<std::shared_ptr<const GoddagOverlay>> GoddagOverlay::Create(
    const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
    const std::string& name, std::vector<VirtualElement> elements) {
  const size_t n = base->base_text().size();
  MHX_RETURN_IF_ERROR(SortAndValidateVirtualElements(n, &elements));

  const size_t count = elements.size() + 1;  // + auto-created root
  NodeId id_begin = ids->Allocate(count);
  if (id_begin == kInvalidNode) {
    return ResourceExhaustedError(
        "overlay id namespace exhausted (2^31 overlay nodes alive)");
  }
  auto overlay = std::shared_ptr<GoddagOverlay>(
      new GoddagOverlay(std::move(ids), id_begin));
  overlay->arena_.resize(count);

  GNode& root = overlay->arena_[0];
  root.kind = GNodeKind::kElement;
  root.hierarchy = kOverlayHierarchy;
  root.name = name;
  root.range = TextRange(0, n);
  root.parent = base->root();

  // Elements arrive in document order, so a single stack pass builds the
  // tree (exactly as KyGoddag::AddVirtualHierarchy does for its arena).
  std::vector<NodeId> stack = {id_begin};
  NodeId next = id_begin + 1;
  for (VirtualElement& e : elements) {
    while (stack.size() > 1 &&
           !overlay->node(stack.back()).range.Contains(e.range)) {
      stack.pop_back();
    }
    GNode& node = overlay->arena_[next - id_begin];
    node.kind = GNodeKind::kElement;
    node.hierarchy = kOverlayHierarchy;
    node.name = std::move(e.name);
    node.attributes = std::move(e.attributes);
    node.range = e.range;
    node.parent = stack.back();
    overlay->arena_[stack.back() - id_begin].children.push_back(next);
    stack.push_back(next);
    ++next;
  }
  return std::shared_ptr<const GoddagOverlay>(std::move(overlay));
}

GoddagOverlay::~GoddagOverlay() { ids_->Release(id_begin_, arena_.size()); }

void OverlayView::AddOverlay(std::shared_ptr<const GoddagOverlay> overlay) {
  Register(&overlay, &overlay + 1);
}

void OverlayView::AddOverlays(
    std::vector<std::shared_ptr<const GoddagOverlay>> batch) {
  Register(batch.data(), batch.data() + batch.size());
}

namespace {
// Sorts the tail [old_size, end) of `v` and merges it into the sorted head.
// Each step is skipped when it has nothing to do, so registering overlays
// in document (and id) order costs one pass over the tail and appends.
template <typename T, typename Less>
void MergeSortedTail(std::vector<T>* v, size_t old_size, Less less) {
  const auto mid = v->begin() + old_size;
  if (!std::is_sorted(mid, v->end(), less)) std::sort(mid, v->end(), less);
  if (mid != v->begin() && mid != v->end() && less(*mid, *(mid - 1))) {
    std::inplace_merge(v->begin(), mid, v->end(), less);
  }
}
}  // namespace

void OverlayView::Register(std::shared_ptr<const GoddagOverlay>* first,
                           std::shared_ptr<const GoddagOverlay>* last) {
  const size_t old_overlays = overlays_.size();
  const size_t old_cuts = cuts_.size();
  for (auto* it = first; it != last; ++it) {
    // Element endpoints only: the plumbing root spans [0, n) and cuts
    // nothing.
    const GoddagOverlay& overlay = **it;
    const size_t overlay_cuts = cuts_.size();
    for (NodeId id = overlay.elements_begin(); id < overlay.id_end(); ++id) {
      const TextRange& range = overlay.node(id).range;
      cuts_.push_back(range.begin);
      cuts_.push_back(range.end);
    }
    // Sorted per overlay, a batch of overlays in document order needs no
    // sort as a whole.
    std::sort(cuts_.begin() + overlay_cuts, cuts_.end());
    overlays_.push_back(std::move(*it));
  }
  MergeSortedTail(&overlays_, old_overlays,
                  [](const std::shared_ptr<const GoddagOverlay>& a,
                     const std::shared_ptr<const GoddagOverlay>& b) {
                    return a->id_begin() < b->id_begin();
                  });
  MergeSortedTail(&cuts_, old_cuts, std::less<size_t>());
}

std::vector<size_t> OverlayView::CutsIn(const TextRange& range) const {
  std::vector<size_t> cuts;
  size_t views = 0;
  for (const OverlayView* view = this; view != nullptr;
       view = view->parent_) {
    const auto begin =
        std::lower_bound(view->cuts_.begin(), view->cuts_.end(), range.begin);
    const auto end = std::upper_bound(begin, view->cuts_.end(), range.end);
    if (begin == end) continue;
    cuts.insert(cuts.end(), begin, end);
    ++views;
  }
  // Each view's share is sorted; shares from several views interleave.
  if (views > 1) std::sort(cuts.begin(), cuts.end());
  return cuts;
}

std::vector<Leaf> OverlayView::leaves() const {
  std::vector<Leaf> out;
  out.reserve(base_->leaves().size());
  AppendLeavesIn(TextRange(0, base_->base_text().size()),
                 [&out](const TextRange& r) { out.push_back(Leaf{r}); });
  return out;
}

const GoddagOverlay* OverlayView::overlay_of(NodeId id) const {
  // The overlay whose id_begin is the last <= id; blocks are disjoint, so
  // either it contains the id or nothing does. Ids not registered here may
  // belong to the view this one was forked from.
  auto it = std::upper_bound(
      overlays_.begin(), overlays_.end(), id,
      [](NodeId value, const std::shared_ptr<const GoddagOverlay>& o) {
        return value < o->id_begin();
      });
  if (it != overlays_.begin()) {
    const GoddagOverlay* overlay = (it - 1)->get();
    if (overlay->Contains(id)) return overlay;
  }
  return parent_ != nullptr ? parent_->overlay_of(id) : nullptr;
}

std::string OverlayView::NodeString(NodeId id) const {
  const TextRange& r = node(id).range;
  return base_->base_text().substr(r.begin, r.length());
}

}  // namespace mhx::goddag
