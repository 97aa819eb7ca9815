// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The evaluation-scoped overlay layer: id-block allocation, overlay
// construction and resolution through OverlayView, the merged leaf
// partition, and view-aware axis evaluation (base index + overlay scan).

#include "goddag/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "goddag/snapshot.h"
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
      std::make_shared<const KyGoddag>(std::move(kg)), /*version=*/1,
      /*prebuild_index=*/false);
}

std::shared_ptr<const GoddagOverlay> MustCreate(
    const KyGoddag* base, std::shared_ptr<OverlayIdAllocator> ids,
    const std::string& name, std::vector<VirtualElement> elements) {
  auto overlay =
      GoddagOverlay::Create(base, std::move(ids), name, std::move(elements));
  EXPECT_TRUE(overlay.ok()) << overlay.status();
  return *overlay;
}

TEST(OverlayIdAllocatorTest, BlocksAreDisjointAndTagged) {
  OverlayIdAllocator ids;
  NodeId a = ids.Allocate(3);
  NodeId b = ids.Allocate(5);
  EXPECT_TRUE(IsOverlayId(a));
  EXPECT_TRUE(IsOverlayId(b));
  EXPECT_GE(b, a + 3);  // disjoint, monotonic
  ids.Release(a, 3);
  ids.Release(b, 5);
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

TEST(OverlayIdAllocatorTest, TailRewindReclaimsChurnAboveAPinnedBlock) {
  OverlayIdAllocator ids;
  // A long-lived kept block pinned low in the namespace...
  NodeId pinned = ids.Allocate(4);
  ASSERT_NE(pinned, kInvalidNode);
  // ...must not stop released churn above it from being reclaimed: each
  // freed tail block rewinds the cursor, so the same ids recycle forever
  // instead of the namespace exhausting after 2^31 cumulative nodes.
  NodeId first = ids.Allocate(8);
  ids.Release(first, 8);
  for (int i = 0; i < 100; ++i) {
    NodeId block = ids.Allocate(8);
    EXPECT_EQ(block, first) << "iteration " << i;
    ids.Release(block, 8);
  }
  // Out-of-order release under a live block reclaims once the tail frees.
  NodeId lower = ids.Allocate(8);
  NodeId upper = ids.Allocate(8);
  ids.Release(lower, 8);   // sandwiched under `upper`: parked
  ids.Release(upper, 8);   // tail frees: rewind absorbs both
  EXPECT_EQ(ids.Allocate(8), lower);
  ids.Release(lower, 8);
  ids.Release(pinned, 4);
}

TEST(OverlayIdAllocatorTest, FirstFitReusesHolesUnderLiveBlocks) {
  OverlayIdAllocator ids;
  // Holes sandwiched under live blocks — many long-lived engines churning
  // in one process — are recycled directly, not parked until the blocks
  // above them release.
  NodeId a = ids.Allocate(8);
  NodeId pinned = ids.Allocate(4);  // stays live above the hole
  ids.Release(a, 8);
  EXPECT_EQ(ids.Allocate(8), a);  // exact fit, same ids
  ids.Release(a, 8);
  // A smaller block carves the hole's front; the remainder stays free.
  EXPECT_EQ(ids.Allocate(3), a);
  EXPECT_EQ(ids.Allocate(5), a + 3);
  // A block too large for the hole falls through to the tail.
  ids.Release(a, 3);
  NodeId tail = ids.Allocate(16);
  EXPECT_GE(tail & ~kOverlayIdBit, pinned & ~kOverlayIdBit);
  ids.Release(a + 3, 5);
  ids.Release(tail, 16);
  ids.Release(pinned, 4);
}

TEST(OverlayIdAllocatorTest, ReleaseCoalescesAdjacentHoles) {
  OverlayIdAllocator ids;
  NodeId a = ids.Allocate(4);
  NodeId b = ids.Allocate(4);
  NodeId c = ids.Allocate(4);
  NodeId pinned = ids.Allocate(4);
  // Release out of order: a and c are separate holes until b joins them.
  ids.Release(a, 4);
  ids.Release(c, 4);
  EXPECT_EQ(ids.Allocate(8), kOverlayIdBit | 16);  // no 8-hole yet: tail
  ids.Release(b, 4);  // bridges a..c into one 12-id hole
  EXPECT_EQ(ids.Allocate(12), a);
  ids.Release(a, 12);
  ids.Release(kOverlayIdBit | 16, 8);
  ids.Release(pinned, 4);
}

TEST(OverlayIdAllocatorTest, FirstFitPrefersTheLowestFittingHole) {
  OverlayIdAllocator ids;
  NodeId a = ids.Allocate(2);
  NodeId live1 = ids.Allocate(2);
  NodeId b = ids.Allocate(8);
  NodeId live2 = ids.Allocate(2);
  ids.Release(a, 2);
  ids.Release(b, 8);
  // Both holes fit a 2-block; the lower one wins even though the higher
  // was freed more recently and fits exactly its own size too.
  EXPECT_EQ(ids.Allocate(2), a);
  // The 8-hole serves the next fitting request.
  EXPECT_EQ(ids.Allocate(8), b);
  ids.Release(a, 2);
  ids.Release(b, 8);
  ids.Release(live1, 2);
  ids.Release(live2, 2);
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
  // Without overlays the view serves the base partition itself.
  EXPECT_EQ(&view.leaves(), &kg.leaves());

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
      axes.Evaluate(view, word, xpath::Axis::kXDescendant,
                    xpath::NodeTest::Any())
          .size();
  auto overlay = MustCreate(&kg, ids, "result",
                            {VirtualElement{"m", TextRange(9, 14), {}},
                             VirtualElement{"a", TextRange(11, 12), {}}});
  const NodeId m = overlay->elements_begin();
  view.AddOverlay(overlay);

  // xdescendant from the base word now also sees both overlay elements —
  // in document order, with the base-only overload unchanged.
  auto hits = axes.EvaluateAxisOnly(view, word, xpath::Axis::kXDescendant);
  EXPECT_EQ(hits.size(), base_hits + 2);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end(),
                             [&](NodeId a, NodeId b) {
                               if (view.node(a).range != view.node(b).range) {
                                 return view.node(a).range <
                                        view.node(b).range;
                               }
                               return a < b;
                             }));
  EXPECT_EQ(axes.EvaluateAxisOnly(word, xpath::Axis::kXDescendant).size(),
            base_hits);

  // From the overlay side: xancestor of <a> climbs into the base document.
  const NodeId a = m + 1;
  auto ancestors = axes.Evaluate(view, a, xpath::Axis::kXAncestor,
                                 xpath::NodeTest::Name("w"));
  ASSERT_EQ(ancestors.size(), 1u);
  EXPECT_EQ(ancestors[0], word);

  // The plumbing root never leaks into extended axes.
  for (NodeId hit :
       axes.EvaluateAxisOnly(view, word, xpath::Axis::kXAncestor)) {
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

  auto children = axes.EvaluateAxisOnly(view, overlay->root(),
                                        xpath::Axis::kChild);
  EXPECT_EQ(children, (std::vector<NodeId>{first, second}));
  // following/preceding stay within the overlay "hierarchy".
  auto following =
      axes.EvaluateAxisOnly(view, first, xpath::Axis::kFollowing);
  EXPECT_EQ(following, (std::vector<NodeId>{second}));
  auto preceding =
      axes.EvaluateAxisOnly(view, second, xpath::Axis::kPreceding);
  EXPECT_EQ(preceding, (std::vector<NodeId>{first}));
  // ancestor climbs through the overlay root into the base GODDAG root.
  auto ancestors = axes.EvaluateAxisOnly(view, first, xpath::Axis::kAncestor);
  ASSERT_EQ(ancestors.size(), 2u);
  EXPECT_EQ(ancestors[0], kg.root());
  EXPECT_EQ(ancestors[1], overlay->root());
}

TEST(OverlayViewTest, BatchedSpliceHandlesManyBoundariesInOnePass) {
  // One overlay carrying many nested elements inside a single word: every
  // boundary must land, exactly once, no matter how they batch up before
  // the first leaves() call.
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
  // A second batch drains incrementally on top of the merged partition.
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

}  // namespace
}  // namespace mhx::goddag
