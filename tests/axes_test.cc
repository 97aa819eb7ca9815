// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "document.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xpath/axes.h"

namespace mhx::xpath {
namespace {

using goddag::DocumentSnapshot;
using goddag::GNodeKind;
using goddag::KyGoddag;
using goddag::NodeId;

constexpr Axis kExtendedAxes[] = {Axis::kXAncestor, Axis::kXDescendant,
                                  Axis::kOverlapping, Axis::kXFollowing,
                                  Axis::kXPreceding};

NodeId FindElement(const KyGoddag& kg, goddag::HierarchyId h,
                   const std::string& name, const std::string& text) {
  for (NodeId id : kg.hierarchy(h).nodes) {
    if (kg.node(id).name == name && kg.NodeString(id) == text) return id;
  }
  ADD_FAILURE() << "no <" << name << "> with text '" << text << "'";
  return goddag::kInvalidNode;
}

std::vector<std::string> Names(const KyGoddag& kg,
                               const std::vector<NodeId>& ids) {
  std::vector<std::string> out;
  for (NodeId id : ids) out.push_back(kg.node(id).name);
  return out;
}

class PaperAxesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = workload::BuildPaperDocument();
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
    snapshot_ = doc_->PinSnapshot();
  }

  std::unique_ptr<MultihierarchicalDocument> doc_;
  std::shared_ptr<const DocumentSnapshot> snapshot_;
};

TEST_F(PaperAxesTest, WordCrossingLinesOverlapsBoth) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto lines = axes.Evaluate(word, Axis::kOverlapping, NodeTest::Name("line"));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(kg.NodeString(lines[0]), "thaet is unawen");
  EXPECT_EQ(kg.NodeString(lines[1]), "dendne sceaft and ea");
  // A word wholly inside one line overlaps none (the line contains it).
  NodeId wyrd = FindElement(kg, 1, "w", "wyrd");
  EXPECT_TRUE(
      axes.Evaluate(wyrd, Axis::kOverlapping, NodeTest::Name("line")).empty());
}

TEST_F(PaperAxesTest, XAncestorSeesAcrossHierarchies) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  // "eac" [33,36) sits inside dmg [30,38), line-crossing damage.
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto ancestors = axes.EvaluateAxisOnly(eac, Axis::kXAncestor);
  std::vector<std::string> names = Names(kg, ancestors);
  // Own chain: text, s; physical: sheet, page; condition: cond, dmg;
  // restoration: rest.
  for (const char* expected : {"text", "s", "sheet", "page", "cond", "dmg",
                               "rest"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing xancestor " << expected;
  }
  // "eac" crosses the line boundary at 35, so no line *contains* it (the
  // lines show up on overlapping::, not xancestor::), and the word itself is
  // never its own xancestor.
  EXPECT_EQ(std::find(names.begin(), names.end(), "line"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "w"), names.end());
}

TEST_F(PaperAxesTest, XDescendantFindsDamageInsideWord) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto dmg = axes.Evaluate(word, Axis::kXDescendant, NodeTest::Name("dmg"));
  ASSERT_EQ(dmg.size(), 1u);
  EXPECT_EQ(kg.NodeString(dmg[0]), "nawe");
  // "sceaft" contains no damage.
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");
  EXPECT_TRUE(
      axes.Evaluate(sceaft, Axis::kXDescendant, NodeTest::Name("dmg")).empty());
}

TEST_F(PaperAxesTest, OrderingAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");  // [22,28)
  auto following = axes.Evaluate(sceaft, Axis::kXFollowing,
                                 NodeTest::Name("w"));
  EXPECT_EQ(Names(kg, following).size(), 5u);  // and eac swa some wyrd
  auto preceding = axes.Evaluate(sceaft, Axis::kXPreceding,
                                 NodeTest::Name("line"));
  ASSERT_EQ(preceding.size(), 1u);  // only line 1 [0,15) ends before 22
  EXPECT_EQ(kg.NodeString(preceding[0]), "thaet is unawen");
}

TEST_F(PaperAxesTest, StandardAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  NodeId root = kg.root();
  auto all = axes.EvaluateAxisOnly(root, Axis::kDescendant);
  EXPECT_EQ(all.size(), kg.element_count());
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto parent = axes.EvaluateAxisOnly(eac, Axis::kParent);
  ASSERT_EQ(parent.size(), 1u);
  EXPECT_EQ(kg.node(parent[0]).name, "s");
  auto ancestors = axes.EvaluateAxisOnly(eac, Axis::kAncestor);
  // s, text, GODDAG root — never crosses into other hierarchies.
  EXPECT_EQ(ancestors.size(), 3u);
  auto siblings = axes.EvaluateAxisOnly(eac, Axis::kFollowingSibling);
  EXPECT_EQ(Names(kg, siblings),
            (std::vector<std::string>{"w", "w", "w"}));  // swa some wyrd
  auto preceding_siblings = axes.EvaluateAxisOnly(eac, Axis::kPrecedingSibling);
  EXPECT_EQ(preceding_siblings.size(), 1u);  // and
  auto self = axes.EvaluateAxisOnly(eac, Axis::kSelf);
  EXPECT_EQ(self, std::vector<NodeId>{eac});
  // Standard following stays within the hierarchy.
  auto following = axes.EvaluateAxisOnly(eac, Axis::kFollowing);
  for (NodeId id : following) {
    EXPECT_EQ(kg.node(id).hierarchy, kg.node(eac).hierarchy);
  }
}

// The literal Definition 1, restated over node ranges: every element whose
// range stands in `axis` relation to the context's, minus the context
// itself, in document order (range, then NodeId).
std::vector<NodeId> Definition1(const KyGoddag& kg, NodeId context,
                                Axis axis) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (id == context || kg.node(id).kind != GNodeKind::kElement) continue;
    if (ExtendedAxisMatches(axis, kg.node(context).range, kg.node(id).range)) {
      out.push_back(id);
    }
  }
  std::stable_sort(out.begin(), out.end(), [&kg](NodeId a, NodeId b) {
    return kg.node(a).range < kg.node(b).range;
  });
  return out;
}

// The core equivalence: both extended-axis strategies — the indexed
// probe (the unplanned default) and the (vectorized) table scan — must
// return exactly the Definition-1 node set for every extended axis and
// every element context, on the paper document and on a generated edition
// with virtual hierarchies layered on top.
void ExpectStrategiesMatchDefinition1(const DocumentSnapshot& snapshot) {
  const KyGoddag& kg = snapshot.goddag();
  AxisEvaluator axes(&snapshot);
  const goddag::OverlayView base(&kg);
  const StepExec scan{/*use_index=*/false, /*pushdown=*/false};
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind != GNodeKind::kElement) continue;
    for (Axis axis : kExtendedAxes) {
      const std::vector<NodeId> expected = Definition1(kg, id, axis);
      EXPECT_EQ(axes.EvaluateAxisOnly(id, axis), expected)
          << "indexed, axis " << AxisName(axis) << " context node " << id
          << " '" << kg.node(id).name << "'";
      EXPECT_EQ(axes.EvaluatePlanned(base, id, axis, NodeTest::Any(), scan),
                expected)
          << "scan, axis " << AxisName(axis) << " context node " << id
          << " '" << kg.node(id).name << "'";
    }
  }
}

TEST_F(PaperAxesTest, NaiveAndIndexedAgreeOnPaperDocument) {
  ExpectStrategiesMatchDefinition1(*snapshot_);
}

TEST(EditionAxesTest, NaiveAndIndexedAgreeOnGeneratedEdition) {
  workload::EditionConfig config;
  config.seed = 11;
  config.word_count = 90;
  config.chars_per_line = 19;
  config.damage_coverage = 0.25;
  config.restoration_coverage = 0.2;
  auto doc = workload::BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  // Layer virtual hierarchies on top, one commit each, so recycled node
  // ids are exercised too.
  auto commit = [&doc](auto&& queue) {
    auto writer = doc->NewWriter();
    queue(writer);
    ASSERT_TRUE(writer.Commit().ok());
  };
  commit([](auto& w) {
    w.AddVirtualHierarchy(
        "match", {goddag::VirtualElement{"m", TextRange(10, 60), {}},
                  goddag::VirtualElement{"g", TextRange(20, 40), {}}});
  });
  commit([](auto& w) { w.RemoveVirtualHierarchy("match"); });
  commit([](auto& w) {
    w.AddVirtualHierarchy(
        "match2", {goddag::VirtualElement{"m", TextRange(15, 75), {}}});
  });
  ExpectStrategiesMatchDefinition1(*doc->PinSnapshot());
}

// MVCC isolation at the axis layer: an evaluator bound to version N keeps
// answering from N after a commit adds a hierarchy over the same word; an
// evaluator bound to N+1 sees the new elements, with no reader rebuild.
TEST(EditionAxesTest, EvaluatorKeepsItsSnapshotAcrossCommits) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok());
  const auto v1 = doc->PinSnapshot();
  AxisEvaluator at_v1(v1.get());
  const NodeId word = FindElement(v1->goddag(), 1, "w", "unawendendne");
  const std::vector<NodeId> before =
      at_v1.EvaluateAxisOnly(word, Axis::kXAncestor);

  auto writer = doc->NewWriter();
  writer.AddVirtualHierarchy(
      "v", {goddag::VirtualElement{"x", TextRange(9, 21), {}}});
  ASSERT_TRUE(writer.Commit().ok());
  const auto v2 = doc->PinSnapshot();
  ASSERT_NE(v1, v2);

  EXPECT_EQ(at_v1.EvaluateAxisOnly(word, Axis::kXAncestor), before);
  // The new <x> (same range as the word) plus the virtual root <v>.
  AxisEvaluator at_v2(v2.get());
  EXPECT_EQ(at_v2.EvaluateAxisOnly(word, Axis::kXAncestor).size(),
            before.size() + 2);
  EXPECT_EQ(at_v2.index_rebuild_count(), 0u);  // the writer prebuilt it
}

TEST(AxisNameTest, RoundTrips) {
  for (Axis axis : {Axis::kSelf, Axis::kChild, Axis::kParent, Axis::kDescendant,
                    Axis::kDescendantOrSelf, Axis::kAncestor,
                    Axis::kAncestorOrSelf, Axis::kFollowingSibling,
                    Axis::kPrecedingSibling, Axis::kFollowing, Axis::kPreceding,
                    Axis::kXAncestor, Axis::kXDescendant, Axis::kOverlapping,
                    Axis::kXFollowing, Axis::kXPreceding}) {
    auto parsed = AxisFromName(AxisName(axis));
    ASSERT_TRUE(parsed.ok()) << AxisName(axis);
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_FALSE(AxisFromName("sideways").ok());
  EXPECT_TRUE(IsExtendedAxis(Axis::kOverlapping));
  EXPECT_FALSE(IsExtendedAxis(Axis::kDescendant));
}

}  // namespace
}  // namespace mhx::xpath
