// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The evaluation-scoped overlay layer: id-block allocation, overlay
// construction and resolution through OverlayView, range-scoped leaf
// lookups over the fork chain (checked against a whole-partition split),
// and view-aware axis evaluation (base index + overlay scan).

#include "goddag/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "goddag/snapshot.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xml/parser.h"
#include "xpath/axes.h"

namespace mhx::goddag {
namespace {

KyGoddag PaperGoddag() {
  KyGoddag kg(mhx::workload::kPaperBaseText);
  auto phys = mhx::xml::Parse(mhx::workload::kPaperPhysicalXml);
  auto strut = mhx::xml::Parse(mhx::workload::kPaperStructuralXml);
  EXPECT_TRUE(phys.ok());
  EXPECT_TRUE(strut.ok());
  EXPECT_TRUE(kg.AddHierarchy("physical", *phys).ok());
  EXPECT_TRUE(kg.AddHierarchy("structural", *strut).ok());
  return kg;
}

// Publishes `kg` as version 1 so an AxisEvaluator can bind to it.
std::shared_ptr<const DocumentSnapshot> Publish(KyGoddag kg) {
  return DocumentSnapshot::Create(
      std::make_shared<const KyGoddag>(std::move(kg)), /*version=*/1);
}

std::shared_ptr<const GoddagOverlay> MustCreate(
    const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
    const std::string& name, std::vector<VirtualElement> elements) {
  auto overlay =
      GoddagOverlay::Create(base, std::move(ids), name, std::move(elements));
  EXPECT_TRUE(overlay.ok()) << overlay.status();
  return *overlay;
}

std::vector<TextRange> Ranges(const std::vector<Leaf>& leaves) {
  std::vector<TextRange> out;
  for (const Leaf& leaf : leaves) out.push_back(leaf.range);
  return out;
}

TEST(OverlayIdAllocatorTest, BlocksAreDisjointAndTagged) {
  OverlayIdAllocator ids;
  NodeId a = ids.Allocate(3);
  NodeId b = ids.Allocate(5);
  EXPECT_TRUE(IsOverlayId(a));
  EXPECT_TRUE(IsOverlayId(b));
  EXPECT_EQ(b, a + 3);  // disjoint, in creation order
  ids.Release(a, 3);
  // A released block is not reused while another is leased.
  NodeId c = ids.Allocate(2);
  EXPECT_EQ(c, b + 5);
  ids.Release(b, 5);
  ids.Release(c, 2);
}

TEST(OverlayIdAllocatorTest, RewindsWhenDrainedAndFailsWhenExhausted) {
  OverlayIdAllocator ids;
  // Nearly exhaust the 2^31 - 1 namespace with one huge lease (ids are
  // counters, not memory — nothing this size is materialised).
  NodeId big = ids.Allocate(0x7FFFFF00u);
  ASSERT_NE(big, kInvalidNode);
  NodeId small = ids.Allocate(0x80);
  EXPECT_NE(small, kInvalidNode);                // still fits
  EXPECT_EQ(ids.Allocate(0x100), kInvalidNode);  // does not
  ids.Release(small, 0x80);
  EXPECT_EQ(ids.Allocate(0x100), kInvalidNode);  // big block still leased
  ids.Release(big, 0x7FFFFF00u);
  // Fully drained: the cursor rewinds and the namespace is fresh again.
  NodeId again = ids.Allocate(0x100);
  EXPECT_EQ(again, kOverlayIdBit);
  ids.Release(again, 0x100);
}

TEST(GoddagOverlayTest, BuildsRootedTreeInItsOwnNamespace) {
  KyGoddag kg = PaperGoddag();
  auto ids = std::make_shared<OverlayIdAllocator>();
  auto overlay = MustCreate(&kg, ids, "result",
                            {VirtualElement{"m", TextRange(9, 14), {}},
                             VirtualElement{"a", TextRange(11, 12), {}}});
  ASSERT_EQ(overlay->node_count(), 3u);
  EXPECT_TRUE(IsOverlayId(overlay->root()));
  const GNode& root = overlay->node(overlay->root());
  EXPECT_EQ(root.name, "result");
  EXPECT_EQ(root.range, TextRange(0, kg.base_text().size()));
  // The overlay root hangs off the *base* GODDAG root, but the base is
  // untouched: no new children, no revision bump, no element count change.
  EXPECT_EQ(root.parent, kg.root());
  EXPECT_EQ(kg.node(kg.root()).children.size(), 2u);
  EXPECT_EQ(kg.element_count(), 17u);
  // m nests under the root, a under m; all ids in the overlay namespace.
  const NodeId m = overlay->elements_begin();
  EXPECT_EQ(overlay->node(m).name, "m");
  EXPECT_EQ(overlay->node(m).parent, overlay->root());
  const NodeId a = m + 1;
  EXPECT_EQ(overlay->node(a).name, "a");
  EXPECT_EQ(overlay->node(a).parent, m);
}

TEST(GoddagOverlayTest, RejectsOverlappingElements) {
  KyGoddag kg = PaperGoddag();
  auto ids = std::make_shared<OverlayIdAllocator>();
  auto overlay = GoddagOverlay::Create(
      &kg, ids, "bad",
      {VirtualElement{"x", TextRange(0, 10), {}},
       VirtualElement{"y", TextRange(5, 15), {}}});
  EXPECT_FALSE(overlay.ok());
  EXPECT_EQ(overlay.status().code(), StatusCode::kInvalidArgument);
  // Validation failed before any lease: the namespace is untouched.
  NodeId probe = ids->Allocate(1);
  EXPECT_EQ(probe, kOverlayIdBit);
  ids->Release(probe, 1);
}

TEST(OverlayViewTest, ResolvesBaseAndOverlayIds) {
  KyGoddag kg = PaperGoddag();
  kg.leaves();  // materialise, as the engine does before evaluating
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  EXPECT_EQ(&view.node(kg.root()), &kg.node(kg.root()));

  auto overlay = MustCreate(&kg, ids, "result",
                            {VirtualElement{"m", TextRange(9, 14), {}}});
  const NodeId m = overlay->elements_begin();
  view.AddOverlay(overlay);
  EXPECT_EQ(view.overlay_of(m), overlay.get());
  EXPECT_EQ(view.node(m).name, "m");
  EXPECT_EQ(view.NodeString(m), "unawe");
  // Ids outside every registered block resolve to no overlay.
  EXPECT_EQ(view.overlay_of(overlay->id_end()), nullptr);
}

TEST(OverlayViewTest, MergedLeavesSplitAtOverlayBoundaries) {
  KyGoddag kg = PaperGoddag();
  const size_t base_cells = kg.leaves().size();
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  // Without overlays the view's partition is the base partition.
  EXPECT_EQ(Ranges(view.leaves()), Ranges(kg.leaves()));

  // "unawendendne" is [9,21); 11 and 12 are fresh boundaries, 9 is already
  // a word boundary in the base partition.
  view.AddOverlay(MustCreate(&kg, ids, "result",
                             {VirtualElement{"a", TextRange(11, 12), {}}}));
  const std::vector<Leaf>& merged = view.leaves();
  EXPECT_EQ(merged.size(), base_cells + 2);
  EXPECT_EQ(kg.leaves().size(), base_cells);  // base partition untouched
  // The merged partition still tiles [0, n).
  EXPECT_EQ(merged.front().range.begin, 0u);
  EXPECT_EQ(merged.back().range.end, kg.base_text().size());
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    EXPECT_EQ(merged[i].range.end, merged[i + 1].range.begin);
  }
  // Splicing an existing boundary is a no-op.
  view.AddOverlay(MustCreate(&kg, ids, "again",
                             {VirtualElement{"b", TextRange(11, 12), {}}}));
  EXPECT_EQ(view.leaves().size(), base_cells + 2);
}

TEST(OverlayViewTest, ExtendedAxesReadBaseIndexPlusOverlayScan) {
  const auto snapshot = Publish(PaperGoddag());
  const KyGoddag& kg = snapshot->goddag();
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  xpath::AxisEvaluator axes(snapshot.get());

  // The persistent <w> spanning "unawendendne" [9,21).
  NodeId word = kInvalidNode;
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind == GNodeKind::kElement &&
        kg.node(id).name == "w" && kg.node(id).range == TextRange(9, 21)) {
      word = id;
    }
  }
  ASSERT_NE(word, kInvalidNode);

  const size_t base_hits =
      axes.EvaluatePlanned(view, word, xpath::Axis::kXDescendant,
                           xpath::NodeTest::Any())
          .size();
  auto overlay = MustCreate(&kg, ids, "result",
                            {VirtualElement{"m", TextRange(9, 14), {}},
                             VirtualElement{"a", TextRange(11, 12), {}}});
  const NodeId m = overlay->elements_begin();
  view.AddOverlay(overlay);

  // xdescendant from the base word now also sees both overlay elements —
  // in document order, while a root view with no overlays still sees the
  // base hits alone.
  auto hits = axes.EvaluatePlanned(view, word, xpath::Axis::kXDescendant,
                                   xpath::NodeTest::Any());
  EXPECT_EQ(hits.size(), base_hits + 2);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end(),
                             [&](NodeId a, NodeId b) {
                               if (view.node(a).range != view.node(b).range) {
                                 return view.node(a).range <
                                        view.node(b).range;
                               }
                               return a < b;
                             }));
  EXPECT_EQ(axes.EvaluatePlanned(OverlayView(&kg), word,
                                 xpath::Axis::kXDescendant,
                                 xpath::NodeTest::Any())
                .size(),
            base_hits);

  // From the overlay side: xancestor of <a> climbs into the base document.
  const NodeId a = m + 1;
  auto ancestors = axes.EvaluatePlanned(view, a, xpath::Axis::kXAncestor,
                                        xpath::NodeTest::Name("w"));
  ASSERT_EQ(ancestors.size(), 1u);
  EXPECT_EQ(ancestors[0], word);

  // The plumbing root never leaks into extended axes.
  for (NodeId hit : axes.EvaluatePlanned(view, word, xpath::Axis::kXAncestor,
                                         xpath::NodeTest::Any())) {
    EXPECT_NE(hit, overlay->root());
  }

  // Leaf contexts: base index + overlay scan, unified.
  auto range_hits = axes.EvaluateRangePlanned(
      view, TextRange(11, 12), xpath::Axis::kXAncestor,
      xpath::NodeTest::Any(), xpath::StepExec());
  EXPECT_NE(std::find(range_hits.begin(), range_hits.end(), m),
            range_hits.end());
  EXPECT_NE(std::find(range_hits.begin(), range_hits.end(), word),
            range_hits.end());
}

TEST(OverlayViewTest, StandardAxesNavigateWithinTheOverlay) {
  const auto snapshot = Publish(PaperGoddag());
  const KyGoddag& kg = snapshot->goddag();
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  xpath::AxisEvaluator axes(snapshot.get());
  auto overlay = MustCreate(&kg, ids, "result",
                            {VirtualElement{"m", TextRange(4, 6), {}},
                             VirtualElement{"m", TextRange(9, 14), {}}});
  view.AddOverlay(overlay);
  const NodeId first = overlay->elements_begin();
  const NodeId second = first + 1;

  const xpath::NodeTest any = xpath::NodeTest::Any();
  auto children =
      axes.EvaluatePlanned(view, overlay->root(), xpath::Axis::kChild, any);
  EXPECT_EQ(children, (std::vector<NodeId>{first, second}));
  // following/preceding stay within the overlay "hierarchy".
  auto following =
      axes.EvaluatePlanned(view, first, xpath::Axis::kFollowing, any);
  EXPECT_EQ(following, (std::vector<NodeId>{second}));
  auto preceding =
      axes.EvaluatePlanned(view, second, xpath::Axis::kPreceding, any);
  EXPECT_EQ(preceding, (std::vector<NodeId>{first}));
  // ancestor climbs through the overlay root into the base GODDAG root.
  auto ancestors =
      axes.EvaluatePlanned(view, first, xpath::Axis::kAncestor, any);
  ASSERT_EQ(ancestors.size(), 2u);
  EXPECT_EQ(ancestors[0], kg.root());
  EXPECT_EQ(ancestors[1], overlay->root());
}

TEST(OverlayViewTest, BatchedSpliceHandlesManyBoundariesInOnePass) {
  // One overlay carrying many nested elements inside a single word: the
  // whole partition read back through leaves() must split exactly once at
  // each of its boundaries.
  KyGoddag kg = PaperGoddag();
  const size_t base_cells = kg.leaves().size();
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  // "unawendendne" is [9,21): nested elements [9,21) ⊃ [10,20) ⊃ ... make
  // 10 fresh interior boundaries (10..14 and 16..20); 9/21/15 stay word or
  // sibling edges.
  std::vector<VirtualElement> elements;
  for (size_t d = 0; d < 6; ++d) {
    elements.push_back(
        VirtualElement{"n", TextRange(9 + d, 21 - d), {}});
  }
  view.AddOverlay(MustCreate(&kg, ids, "deep", std::move(elements)));
  const std::vector<Leaf>& merged = view.leaves();
  EXPECT_EQ(merged.size(), base_cells + 10);
  EXPECT_EQ(merged.front().range.begin, 0u);
  EXPECT_EQ(merged.back().range.end, kg.base_text().size());
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    EXPECT_EQ(merged[i].range.end, merged[i + 1].range.begin);
    EXPECT_LT(merged[i].range.begin, merged[i].range.end);
  }
  // A second overlay merges its cuts into the ones already registered.
  view.AddOverlay(MustCreate(&kg, ids, "more",
                             {VirtualElement{"a", TextRange(2, 3), {}}}));
  EXPECT_EQ(view.leaves().size(), base_cells + 12);
}

TEST(OverlayViewTest, ForkedViewReadsThroughAndWritesPrivately) {
  const auto snapshot = Publish(PaperGoddag());
  const KyGoddag& kg = snapshot->goddag();
  auto ids = std::make_shared<OverlayIdAllocator>();
  xpath::AxisEvaluator axes(snapshot.get());

  // Coordinator view with one overlay ("the evaluation so far").
  OverlayView coordinator(&kg);
  auto kept = MustCreate(&kg, ids, "kept",
                         {VirtualElement{"m", TextRange(9, 14), {}}});
  const NodeId kept_m = kept->elements_begin();
  coordinator.AddOverlay(kept);
  const size_t coordinator_cells = coordinator.leaves().size();

  // A worker forks off the coordinator and creates its own overlay.
  OverlayView worker(&coordinator);
  EXPECT_EQ(worker.parent(), &coordinator);
  auto private_overlay = MustCreate(
      &kg, ids, "private", {VirtualElement{"a", TextRange(25, 27), {}}});
  const NodeId private_a = private_overlay->elements_begin();
  worker.AddOverlay(private_overlay);

  // Read-through: the fork resolves base ids, the coordinator's overlay
  // ids, and its own.
  EXPECT_EQ(&worker.node(kg.root()), &kg.node(kg.root()));
  EXPECT_EQ(worker.overlay_of(kept_m), kept.get());
  EXPECT_EQ(worker.node(kept_m).name, "m");
  EXPECT_EQ(worker.overlay_of(private_a), private_overlay.get());
  // Write isolation: the coordinator never sees the fork's overlay.
  EXPECT_EQ(coordinator.overlay_of(private_a), nullptr);
  EXPECT_EQ(coordinator.leaves().size(), coordinator_cells);
  // The fork's partition = the coordinator's partition re-split at its own
  // overlay's boundaries only ([25,27) adds two fresh cuts).
  EXPECT_EQ(worker.leaves().size(), coordinator_cells + 2);

  // Axis scans walk the fork chain: from a base context inside [9,14),
  // xancestor sees the coordinator's m through the fork...
  auto hits = axes.EvaluateRangePlanned(worker, TextRange(11, 12),
                                        xpath::Axis::kXAncestor,
                                        xpath::NodeTest::Any(),
                                        xpath::StepExec());
  EXPECT_NE(std::find(hits.begin(), hits.end(), kept_m), hits.end());
  // ...and the fork's private element is invisible through the
  // coordinator's view.
  auto parent_hits = axes.EvaluateRangePlanned(
      coordinator, TextRange(25, 27), xpath::Axis::kXAncestor,
      xpath::NodeTest::Any(), xpath::StepExec());
  EXPECT_EQ(std::find(parent_hits.begin(), parent_hits.end(), private_a),
            parent_hits.end());
  auto fork_hits = axes.EvaluateRangePlanned(
      worker, TextRange(25, 27), xpath::Axis::kXAncestor,
      xpath::NodeTest::Any(), xpath::StepExec());
  EXPECT_NE(std::find(fork_hits.begin(), fork_hits.end(), private_a),
            fork_hits.end());

  // Merge at join: re-registering the fork's overlay on the coordinator
  // makes it visible there, exactly as the engine does in binding order.
  coordinator.AddOverlay(private_overlay);
  EXPECT_EQ(coordinator.overlay_of(private_a), private_overlay.get());
  EXPECT_EQ(coordinator.leaves().size(), coordinator_cells + 2);
}


// --- range lookups against the whole-partition split ------------------------

// splitmix64: seeded, platform-deterministic.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

// A text offset in [lo, hi]: half the time snapped to the nearest base cell
// boundary at or after a uniform draw, so overlay endpoints often land on
// boundaries the base partition already has.
size_t DrawOffset(Rng* rng, const std::vector<size_t>& bounds, size_t lo,
                  size_t hi) {
  size_t pos = lo + rng->Below(hi - lo + 1);
  if (rng->Below(2) == 0) {
    auto it = std::lower_bound(bounds.begin(), bounds.end(), pos);
    if (it != bounds.end() && *it <= hi) pos = *it;
  }
  return pos;
}

// Elements nested inside `span` (non-empty), down to `depth` more levels:
// sometimes an equal-extent copy of `span`, then a few disjoint children.
void AddNested(Rng* rng, const std::vector<size_t>& bounds, TextRange span,
               int depth, std::vector<VirtualElement>* out) {
  out->push_back(VirtualElement{"e", span, {}});
  if (rng->Below(4) == 0) out->push_back(VirtualElement{"same", span, {}});
  if (depth == 0 || span.length() < 2) return;
  size_t pos = span.begin;
  for (size_t k = rng->Below(3); k > 0 && pos < span.end; --k) {
    const size_t begin = DrawOffset(rng, bounds, pos, span.end - 1);
    const size_t end = DrawOffset(rng, bounds, begin + 1, span.end);
    AddNested(rng, bounds, TextRange(begin, end), depth - 1, out);
    pos = end;
  }
}

// One random overlay: a few disjoint top-level elements, each with nested
// and equal-extent descendants; sometimes none at all (a bare root).
std::shared_ptr<const GoddagOverlay> RandomOverlay(
    Rng* rng, const KyGoddag& kg, const std::vector<size_t>& bounds,
    const std::shared_ptr<OverlayIdAllocator>& ids) {
  const size_t n = kg.base_text().size();
  std::vector<VirtualElement> elements;
  size_t pos = 0;
  for (size_t k = rng->Below(5); k > 0 && pos < n; --k) {
    const size_t begin = DrawOffset(rng, bounds, pos, n - 1);
    const size_t end =
        DrawOffset(rng, bounds, begin + 1, std::min(n, begin + 1 + n / 8));
    AddNested(rng, bounds, TextRange(begin, end), 2, &elements);
    pos = end;
  }
  return MustCreate(&kg, ids, "random", std::move(elements));
}

// The leaves of `cells` split at `cuts` that lie inside `range`: the
// whole-partition design the views replaced, kept as the oracle.
std::vector<TextRange> SplitThenRestrict(const std::vector<Leaf>& cells,
                                         const std::vector<size_t>& cuts,
                                         const TextRange& range) {
  std::vector<TextRange> out;
  for (const Leaf& leaf : SplitLeaves(cells, cuts)) {
    if (leaf.range.begin >= range.begin && leaf.range.end <= range.end) {
      out.push_back(leaf.range);
    }
  }
  return out;
}

std::vector<TextRange> LeavesIn(const OverlayView& view,
                                const TextRange& range) {
  std::vector<TextRange> out;
  view.AppendLeavesIn(range,
                      [&out](const TextRange& leaf) { out.push_back(leaf); });
  return out;
}

TEST(OverlayViewTest, RangeLeavesMatchWholePartitionSplit) {
  for (const size_t words : {40, 150, 400}) {
    SCOPED_TRACE("words=" + std::to_string(words));
    workload::EditionConfig config;
    config.seed = 7 + words;
    config.word_count = words;
    config.chars_per_line = 23;
    auto doc = workload::BuildEditionDocument(config);
    ASSERT_TRUE(doc.ok()) << doc.status();
    const auto snapshot = doc->PinSnapshot();
    const KyGoddag& kg = snapshot->goddag();
    const std::vector<Leaf>& cells = kg.leaves();
    const size_t n = kg.base_text().size();
    std::vector<size_t> bounds;
    for (const Leaf& leaf : cells) bounds.push_back(leaf.range.begin);
    bounds.push_back(n);
    std::vector<TextRange> base_ranges;
    for (NodeId id = 0; id < kg.node_table_size(); ++id) {
      if (kg.node(id).kind == GNodeKind::kElement) {
        base_ranges.push_back(kg.node(id).range);
      }
    }

    Rng rng(words);
    auto ids = std::make_shared<OverlayIdAllocator>();
    // Root, child, grandchild: each registers its overlays before the next
    // is forked (a parent stays frozen while children exist), the root's
    // as one AddOverlays batch and one AddOverlay, the others one by one.
    OverlayView root(&kg);
    std::vector<std::shared_ptr<const GoddagOverlay>> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(RandomOverlay(&rng, kg, bounds, ids));
    }
    root.AddOverlays(batch);
    root.AddOverlay(RandomOverlay(&rng, kg, bounds, ids));
    OverlayView child(&root);
    for (int i = 0; i < 3; ++i) {
      child.AddOverlay(RandomOverlay(&rng, kg, bounds, ids));
    }
    OverlayView grandchild(&child);
    for (int i = 0; i < 2; ++i) {
      grandchild.AddOverlay(RandomOverlay(&rng, kg, bounds, ids));
    }

    for (const OverlayView* view : {&root, &child, &grandchild}) {
      // Every endpoint on the chain, and every range a lookup can start
      // from: base elements, visible overlay elements, the whole text.
      std::vector<size_t> cuts;
      std::vector<TextRange> ranges = base_ranges;
      ranges.push_back(TextRange(0, n));
      for (const OverlayView* v = view; v != nullptr; v = v->parent()) {
        for (const auto& overlay : v->overlays()) {
          for (NodeId id = overlay->elements_begin(); id < overlay->id_end();
               ++id) {
            const TextRange& r = overlay->node(id).range;
            cuts.push_back(r.begin);
            cuts.push_back(r.end);
            ranges.push_back(r);
          }
        }
      }
      for (const TextRange& range : ranges) {
        ASSERT_EQ(LeavesIn(*view, range), SplitThenRestrict(cells, cuts, range))
            << "range " << range.ToString();
      }
      EXPECT_EQ(Ranges(view->leaves()),
                SplitThenRestrict(cells, cuts, TextRange(0, n)));
      EXPECT_TRUE(LeavesIn(*view, TextRange(5, 5)).empty());
    }
  }
}

// analyze-string() called word by word, outside a loop, registers one
// overlay at a time in document order; those adds append to the view's
// cuts without a merge, while an overlay that lands before them merges.
// Both must read back as the whole-partition split.
TEST(OverlayViewTest, InOrderAddsAppendAndLaterAddsMerge) {
  workload::EditionConfig config;
  config.seed = 11;
  config.word_count = 150;
  auto doc = workload::BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const auto snapshot = doc->PinSnapshot();
  const KyGoddag& kg = snapshot->goddag();
  const std::vector<Leaf>& cells = kg.leaves();
  const size_t n = kg.base_text().size();
  std::vector<size_t> bounds;
  for (const Leaf& leaf : cells) bounds.push_back(leaf.range.begin);

  Rng rng(3);
  auto ids = std::make_shared<OverlayIdAllocator>();
  OverlayView view(&kg);
  std::vector<size_t> cuts;
  std::vector<TextRange> ranges = {TextRange(0, n)};
  const auto add = [&](std::vector<VirtualElement> elements) {
    for (const VirtualElement& e : elements) {
      cuts.push_back(e.range.begin);
      cuts.push_back(e.range.end);
      ranges.push_back(e.range);
    }
    view.AddOverlay(MustCreate(&kg, ids, "word", std::move(elements)));
  };
  const auto check = [&] {
    for (const TextRange& range : ranges) {
      ASSERT_EQ(LeavesIn(view, range), SplitThenRestrict(cells, cuts, range))
          << "range " << range.ToString();
    }
  };
  // Per word: the word itself, an equal-extent copy (a repeated cut) and
  // a piece inside it, as a match would be.
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    const GNode& node = kg.node(id);
    if (node.kind != GNodeKind::kElement || node.name != "w" ||
        node.range.length() < 2) {
      continue;
    }
    const size_t begin =
        DrawOffset(&rng, bounds, node.range.begin, node.range.end - 1);
    const size_t end = DrawOffset(&rng, bounds, begin + 1, node.range.end);
    add({VirtualElement{"r", node.range, {}},
         VirtualElement{"same", node.range, {}},
         VirtualElement{"m", TextRange(begin, end), {}}});
  }
  check();
  add({VirtualElement{"early", TextRange(1, 4), {}}});
  check();
}

}  // namespace
}  // namespace mhx::goddag
