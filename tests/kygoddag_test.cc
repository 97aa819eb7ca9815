// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "goddag/kygoddag.h"
#include "workload/paper_data.h"

namespace mhx::goddag {
namespace {

// Leaf partition as plain boundary offsets for easy comparison.
std::vector<size_t> Boundaries(const KyGoddag& kg) {
  std::vector<size_t> out;
  for (const Leaf& leaf : kg.leaves()) {
    if (out.empty()) out.push_back(leaf.range.begin);
    out.push_back(leaf.range.end);
  }
  return out;
}

// The reference partition: the boundary set recomputed from scratch from
// the node table — 0, the text size, and both ends of every live element.
std::vector<size_t> ReferenceBoundaries(const KyGoddag& kg) {
  std::set<size_t> cuts = {0, kg.base_text().size()};
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind != GNodeKind::kElement) continue;
    cuts.insert(kg.node(id).range.begin);
    cuts.insert(kg.node(id).range.end);
  }
  return std::vector<size_t>(cuts.begin(), cuts.end());
}

// The partition must tile [0, n) exactly.
void ExpectTiles(const KyGoddag& kg) {
  const auto& leaves = kg.leaves();
  ASSERT_FALSE(leaves.empty());
  EXPECT_EQ(leaves.front().range.begin, 0u);
  EXPECT_EQ(leaves.back().range.end, kg.base_text().size());
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].range.end, leaves[i + 1].range.begin);
    EXPECT_FALSE(leaves[i].range.empty());
  }
}

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

TEST(KyGoddagTest, BuildsHierarchiesOverSharedText) {
  KyGoddag kg = PaperGoddag();
  EXPECT_EQ(kg.base_text(), mhx::workload::kPaperBaseText);
  // physical: sheet + page + 3 lines = 5; structural: text + 2 s + 9 w = 12.
  EXPECT_EQ(kg.hierarchy(0).nodes.size(), 5u);
  EXPECT_EQ(kg.hierarchy(1).nodes.size(), 12u);
  EXPECT_EQ(kg.element_count(), 17u);
  // Both hierarchy roots hang off the GODDAG root.
  EXPECT_EQ(kg.node(kg.root()).children.size(), 2u);
  const GNode& sheet = kg.node(kg.hierarchy(0).root);
  EXPECT_EQ(sheet.name, "sheet");
  EXPECT_EQ(sheet.range, TextRange(0, kg.base_text().size()));
  ExpectTiles(kg);
}

TEST(KyGoddagTest, RejectsMisalignedHierarchy) {
  KyGoddag kg(mhx::workload::kPaperBaseText);
  auto other = mhx::xml::Parse("<t>some other text</t>");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(kg.AddHierarchy("bogus", *other).ok());
}

TEST(KyGoddagTest, NodeStringExtractsDominatedText) {
  KyGoddag kg = PaperGoddag();
  bool found = false;
  for (NodeId id : kg.hierarchy(1).nodes) {
    if (kg.node(id).name == "w" && kg.NodeString(id) == "unawendendne") {
      found = true;
      EXPECT_EQ(kg.node(id).range, TextRange(9, 21));
    }
  }
  EXPECT_TRUE(found);
}

TEST(KyGoddagTest, VirtualHierarchyAddRemoveRestoresPartition) {
  KyGoddag kg = PaperGoddag();
  std::vector<size_t> before = Boundaries(kg);
  auto h = kg.AddVirtualHierarchy(
      "match", {VirtualElement{"m", TextRange(11, 19), {}},
                VirtualElement{"g", TextRange(13, 17), {}}});
  ASSERT_TRUE(h.ok()) << h.status();
  ExpectTiles(kg);
  std::vector<size_t> during = Boundaries(kg);
  for (size_t pos : {11u, 13u, 17u, 19u}) {
    EXPECT_NE(std::find(during.begin(), during.end(), pos), during.end())
        << "missing boundary " << pos;
  }
  EXPECT_GT(during.size(), before.size());
  // The virtual hierarchy is navigable: match root -> m -> g.
  const Hierarchy& vh = kg.hierarchy(*h);
  EXPECT_TRUE(vh.is_virtual);
  ASSERT_EQ(vh.nodes.size(), 3u);
  EXPECT_EQ(kg.node(vh.root).name, "match");
  ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
  EXPECT_EQ(Boundaries(kg), before);
  ExpectTiles(kg);
}

TEST(KyGoddagTest, PartitionMatchesNodeTableAfterEveryChange) {
  // After every step of an add/remove sequence, the partition leaves()
  // derives must equal the boundary set recomputed from the node table.
  struct Op {
    TextRange a, b;
  };
  std::vector<Op> ops = {
      {TextRange(1, 49), TextRange(2, 48)},
      {TextRange(10, 20), TextRange(12, 18)},
      {TextRange(5, 45), TextRange(5, 44)},
      {TextRange(21, 22), TextRange(21, 22)},
      {TextRange(3, 30), TextRange(29, 30)},
  };
  KyGoddag kg = PaperGoddag();
  for (const Op& op : ops) {
    auto h = kg.AddVirtualHierarchy(
        "v", {VirtualElement{"x", op.a, {}}, VirtualElement{"y", op.b, {}}});
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(Boundaries(kg), ReferenceBoundaries(kg));
    ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
    EXPECT_EQ(Boundaries(kg), ReferenceBoundaries(kg));
  }
  // Stacked (not immediately removed) hierarchies must also agree.
  auto h1 =
      kg.AddVirtualHierarchy("a", {VirtualElement{"x", TextRange(7, 33), {}}});
  auto h2 = kg.AddVirtualHierarchy(
      "b", {VirtualElement{"y", TextRange(30, 40), {}}});
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(Boundaries(kg), ReferenceBoundaries(kg));
  ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h1).ok());
  // 30 stays a boundary (kept alive by h2), 7 and 33 go away.
  EXPECT_EQ(Boundaries(kg), ReferenceBoundaries(kg));
  ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h2).ok());
  EXPECT_EQ(Boundaries(kg), ReferenceBoundaries(kg));
}

TEST(KyGoddagTest, SharedBoundarySurvivesRemoval) {
  KyGoddag kg = PaperGoddag();
  // Word "unawendendne" already contributes boundaries 9 and 21; a virtual
  // element sharing them must not remove them when it goes away.
  auto h = kg.AddVirtualHierarchy("v",
                                  {VirtualElement{"x", TextRange(9, 21), {}}});
  ASSERT_TRUE(h.ok());
  std::vector<size_t> with = Boundaries(kg);
  ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
  std::vector<size_t> after = Boundaries(kg);
  EXPECT_EQ(with, after);  // 9 and 21 survive: the word still ends there
  EXPECT_EQ(after, ReferenceBoundaries(kg));
  EXPECT_NE(std::find(after.begin(), after.end(), 9u), after.end());
  EXPECT_NE(std::find(after.begin(), after.end(), 21u), after.end());
}

TEST(KyGoddagTest, VirtualHierarchyValidation) {
  KyGoddag kg = PaperGoddag();
  // Overlapping elements within one hierarchy are rejected.
  EXPECT_FALSE(kg.AddVirtualHierarchy(
                     "v", {VirtualElement{"x", TextRange(0, 10), {}},
                           VirtualElement{"y", TextRange(5, 15), {}}})
                   .ok());
  // Non-adjacent overlap hiding behind a nested chain is also rejected.
  EXPECT_FALSE(kg.AddVirtualHierarchy(
                     "v", {VirtualElement{"a", TextRange(0, 10), {}},
                           VirtualElement{"b", TextRange(1, 4), {}},
                           VirtualElement{"c", TextRange(2, 12), {}}})
                   .ok());
  // Out-of-bounds and empty ranges are rejected.
  EXPECT_FALSE(kg.AddVirtualHierarchy(
                     "v", {VirtualElement{"x", TextRange(0, 1000), {}}})
                   .ok());
  EXPECT_FALSE(
      kg.AddVirtualHierarchy("v", {VirtualElement{"x", TextRange(5, 5), {}}})
          .ok());
  // Removing a persistent hierarchy is refused; removing twice fails.
  EXPECT_FALSE(kg.RemoveVirtualHierarchy(0).ok());
  auto h = kg.AddVirtualHierarchy("v",
                                  {VirtualElement{"x", TextRange(1, 2), {}}});
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
  EXPECT_FALSE(kg.RemoveVirtualHierarchy(*h).ok());
}

TEST(KyGoddagTest, NodeAndHierarchySlotsAreRecycled) {
  KyGoddag kg = PaperGoddag();
  size_t table = kg.node_table_size();
  size_t hierarchies = kg.hierarchy_table_size();
  for (int i = 0; i < 100; ++i) {
    auto h = kg.AddVirtualHierarchy(
        "v", {VirtualElement{"x", TextRange(4, 40), {}},
              VirtualElement{"y", TextRange(6, 20), {}}});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
  }
  // One add/remove cycle may grow the tables once; they must not keep
  // growing.
  EXPECT_LE(kg.node_table_size(), table + 3);
  EXPECT_LE(kg.hierarchy_table_size(), hierarchies + 1);
}

TEST(KyGoddagTest, RevisionBumpsOnStructuralChange) {
  KyGoddag kg = PaperGoddag();
  uint64_t r0 = kg.revision();
  auto h = kg.AddVirtualHierarchy("v",
                                  {VirtualElement{"x", TextRange(1, 2), {}}});
  ASSERT_TRUE(h.ok());
  EXPECT_GT(kg.revision(), r0);
  uint64_t r1 = kg.revision();
  ASSERT_TRUE(kg.RemoveVirtualHierarchy(*h).ok());
  EXPECT_GT(kg.revision(), r1);
}

}  // namespace
}  // namespace mhx::goddag
