// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "document.h"
#include "oracle.h"
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
  const goddag::OverlayView base(&kg);
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto lines = axes.EvaluatePlanned(base, word, Axis::kOverlapping,
                                    NodeTest::Name("line"));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(kg.NodeString(lines[0]), "thaet is unawen");
  EXPECT_EQ(kg.NodeString(lines[1]), "dendne sceaft and ea");
  // A word wholly inside one line overlaps none (the line contains it).
  NodeId wyrd = FindElement(kg, 1, "w", "wyrd");
  EXPECT_TRUE(
      axes.EvaluatePlanned(base, wyrd, Axis::kOverlapping,
                           NodeTest::Name("line"))
          .empty());
}

TEST_F(PaperAxesTest, XAncestorSeesAcrossHierarchies) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  const goddag::OverlayView base(&kg);
  // "eac" [33,36) sits inside dmg [30,38), line-crossing damage.
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto ancestors =
      axes.EvaluatePlanned(base, eac, Axis::kXAncestor, NodeTest::Any());
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
  const goddag::OverlayView base(&kg);
  NodeId word = FindElement(kg, 1, "w", "unawendendne");
  auto dmg = axes.EvaluatePlanned(base, word, Axis::kXDescendant,
                                  NodeTest::Name("dmg"));
  ASSERT_EQ(dmg.size(), 1u);
  EXPECT_EQ(kg.NodeString(dmg[0]), "nawe");
  // "sceaft" contains no damage.
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");
  EXPECT_TRUE(
      axes.EvaluatePlanned(base, sceaft, Axis::kXDescendant,
                           NodeTest::Name("dmg"))
          .empty());
}

TEST_F(PaperAxesTest, OrderingAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  const goddag::OverlayView base(&kg);
  NodeId sceaft = FindElement(kg, 1, "w", "sceaft");  // [22,28)
  auto following = axes.EvaluatePlanned(base, sceaft, Axis::kXFollowing,
                                 NodeTest::Name("w"));
  EXPECT_EQ(Names(kg, following).size(), 5u);  // and eac swa some wyrd
  auto preceding = axes.EvaluatePlanned(base, sceaft, Axis::kXPreceding,
                                 NodeTest::Name("line"));
  ASSERT_EQ(preceding.size(), 1u);  // only line 1 [0,15) ends before 22
  EXPECT_EQ(kg.NodeString(preceding[0]), "thaet is unawen");
}

TEST_F(PaperAxesTest, StandardAxes) {
  const KyGoddag& kg = snapshot_->goddag();
  AxisEvaluator axes(snapshot_.get());
  const goddag::OverlayView base(&kg);
  NodeId root = kg.root();
  auto all =
      axes.EvaluatePlanned(base, root, Axis::kDescendant, NodeTest::Any());
  EXPECT_EQ(all.size(), kg.element_count());
  NodeId eac = FindElement(kg, 1, "w", "eac");
  auto parent = axes.EvaluatePlanned(base, eac, Axis::kParent, NodeTest::Any());
  ASSERT_EQ(parent.size(), 1u);
  EXPECT_EQ(kg.node(parent[0]).name, "s");
  auto ancestors =
      axes.EvaluatePlanned(base, eac, Axis::kAncestor, NodeTest::Any());
  // s, text, GODDAG root — never crosses into other hierarchies.
  EXPECT_EQ(ancestors.size(), 3u);
  auto siblings = axes.EvaluatePlanned(base, eac, Axis::kFollowingSibling,
                                       NodeTest::Any());
  EXPECT_EQ(Names(kg, siblings),
            (std::vector<std::string>{"w", "w", "w"}));  // swa some wyrd
  auto preceding_siblings = axes.EvaluatePlanned(
      base, eac, Axis::kPrecedingSibling, NodeTest::Any());
  EXPECT_EQ(preceding_siblings.size(), 1u);  // and
  auto self = axes.EvaluatePlanned(base, eac, Axis::kSelf, NodeTest::Any());
  EXPECT_EQ(self, std::vector<NodeId>{eac});
  // Standard following stays within the hierarchy.
  auto following =
      axes.EvaluatePlanned(base, eac, Axis::kFollowing, NodeTest::Any());
  for (NodeId id : following) {
    EXPECT_EQ(kg.node(id).hierarchy, kg.node(eac).hierarchy);
  }
}

// The core equivalence: both extended-axis strategies — the indexed
// probe (the default StepExec) and the (vectorized) table scan, each with
// and without the name test pushed down — must return exactly the
// Definition-1 oracle's node set (tests/oracle.h) for every extended axis
// and every element context, on the paper document and on a generated
// edition with virtual hierarchies layered on top.
void ExpectStrategiesMatchDefinition1(const DocumentSnapshot& snapshot) {
  const KyGoddag& kg = snapshot.goddag();
  auto oracle = oracle::Oracle::Create(kg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  AxisEvaluator axes(&snapshot);
  const goddag::OverlayView base(&kg);
  const StepExec execs[] = {{true, false}, {false, false}, {true, true},
                            {false, true}};
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind != GNodeKind::kElement) continue;
    for (Axis axis : kExtendedAxes) {
      const std::vector<NodeId> expected = oracle->ExtendedAxis(id, axis);
      // A name test keeps exactly the oracle's nodes of that name.
      std::vector<NodeId> named;
      for (NodeId hit : expected) {
        if (kg.node(hit).name == "w") named.push_back(hit);
      }
      for (const StepExec& exec : execs) {
        const std::string where =
            "use_index " + std::to_string(exec.use_index) + " pushdown " +
            std::to_string(exec.pushdown) + ", axis " +
            std::string(AxisName(axis)) + " context node " +
            std::to_string(id) + " '" + kg.node(id).name + "'";
        EXPECT_EQ(axes.EvaluatePlanned(base, id, axis, NodeTest::Any(), exec),
                  expected)
            << where;
        EXPECT_EQ(
            axes.EvaluatePlanned(base, id, axis, NodeTest::Name("w"), exec),
            named)
            << where << " test 'w'";
      }
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
  const goddag::OverlayView base_v1(&v1->goddag());
  const NodeId word = FindElement(v1->goddag(), 1, "w", "unawendendne");
  const std::vector<NodeId> before = at_v1.EvaluatePlanned(
      base_v1, word, Axis::kXAncestor, NodeTest::Any());

  auto writer = doc->NewWriter();
  writer.AddVirtualHierarchy(
      "v", {goddag::VirtualElement{"x", TextRange(9, 21), {}}});
  ASSERT_TRUE(writer.Commit().ok());
  const auto v2 = doc->PinSnapshot();
  ASSERT_NE(v1, v2);

  EXPECT_EQ(at_v1.EvaluatePlanned(base_v1, word, Axis::kXAncestor,
                                  NodeTest::Any()),
            before);
  // The new <x> (same range as the word) plus the virtual root <v>.
  AxisEvaluator at_v2(v2.get());
  const goddag::OverlayView base_v2(&v2->goddag());
  EXPECT_EQ(at_v2.EvaluatePlanned(base_v2, word, Axis::kXAncestor,
                                  NodeTest::Any())
                .size(),
            before.size() + 2);
}

// --- set-at-a-time steps -----------------------------------------------------

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,          Axis::kParent,
    Axis::kDescendant,     Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowingSibling, Axis::kPrecedingSibling,
    Axis::kFollowing,      Axis::kPreceding,      Axis::kXAncestor,
    Axis::kXDescendant,    Axis::kOverlapping,    Axis::kXFollowing,
    Axis::kXPreceding};

// The reference for EvaluateSet: each context's own planned evaluation,
// concatenated, sorted into document order and deduplicated.
std::vector<NodeId> PerContextUnion(const AxisEvaluator& axes,
                                    const goddag::OverlayView& view,
                                    const std::vector<NodeId>& contexts,
                                    Axis axis, const NodeTest& test,
                                    const StepExec& exec) {
  std::vector<NodeId> out;
  for (NodeId c : contexts) {
    const std::vector<NodeId> hits =
        axes.EvaluatePlanned(view, c, axis, test, exec);
    out.insert(out.end(), hits.begin(), hits.end());
  }
  std::sort(out.begin(), out.end(), [&view](NodeId a, NodeId b) {
    const TextRange& ra = view.node(a).range;
    const TextRange& rb = view.node(b).range;
    return ra != rb ? ra < rb : a < b;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// EvaluateSet must equal PerContextUnion for every axis, for a wildcard
// and for each name in `names`, under every strategy (probe or scan, name
// test pushed down or not), over every context subset of `pool` up to
// `max_subset` contexts and over the whole pool — each subset also
// reversed and repeated, since a step's contexts need not be sorted.
void ExpectSetMatchesPerContextUnion(const DocumentSnapshot& snapshot,
                                     const goddag::OverlayView& view,
                                     const std::vector<NodeId>& pool,
                                     const std::vector<std::string>& names,
                                     size_t max_subset) {
  const AxisEvaluator axes(&snapshot);
  std::vector<NodeTest> tests = {NodeTest::Any()};
  for (const std::string& name : names) tests.push_back(NodeTest::Name(name));
  const StepExec execs[] = {{true, false}, {false, false}, {true, true},
                            {false, true}};
  std::vector<std::vector<NodeId>> subsets = {pool};
  for (size_t i = 0; i < pool.size(); ++i) {
    subsets.push_back({pool[i]});
    for (size_t j = i + 1; j < pool.size() && max_subset >= 2; ++j) {
      subsets.push_back({pool[i], pool[j]});
      for (size_t k = j + 1; k < pool.size() && max_subset >= 3; ++k) {
        subsets.push_back({pool[i], pool[j], pool[k]});
      }
    }
  }
  for (const std::vector<NodeId>& contexts : subsets) {
    std::vector<NodeId> shuffled(contexts.rbegin(), contexts.rend());
    shuffled.insert(shuffled.end(), contexts.begin(), contexts.end());
    std::string label = "contexts";
    for (NodeId c : contexts) {
      label += " " + std::to_string(c) + "<" + view.node(c).name + ">" +
               view.node(c).range.ToString();
    }
    for (Axis axis : kAllAxes) {
      for (const NodeTest& test : tests) {
        for (const StepExec& exec : execs) {
          const std::vector<NodeId> expected =
              PerContextUnion(axes, view, contexts, axis, test, exec);
          const std::string where =
              label + "\naxis " + std::string(AxisName(axis)) + " test '" +
              test.name() + "' use_index " + std::to_string(exec.use_index) +
              " pushdown " + std::to_string(exec.pushdown);
          EXPECT_EQ(axes.EvaluateSet(view, contexts, axis, test, exec),
                    expected)
              << where;
          EXPECT_EQ(axes.EvaluateSet(view, shuffled, axis, test, exec),
                    expected)
              << where << " (reversed + repeated)";
        }
      }
    }
  }
}

std::unique_ptr<MultihierarchicalDocument> BuildSmallDocument(
    const std::string& text,
    const std::vector<std::pair<std::string, std::string>>& hierarchies) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText(text);
  for (const auto& [name, xml] : hierarchies) builder.AddHierarchy(name, xml);
  auto doc = builder.Build();
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return nullptr;
  return std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
}

// The GODDAG root and every live element, in id order.
std::vector<NodeId> AllNodes(const KyGoddag& kg) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind != GNodeKind::kFree) out.push_back(id);
  }
  return out;
}

// Empty-range elements as ordering-axis contexts: an empty context with
// the smallest end (largest begin) is reached by another context ending
// (beginning) where it sits, so the union must add it back.
TEST(SetStepTest, EmptyRangeContextsOnOrderingAxes) {
  auto doc = BuildSmallDocument(
      "abcdef", {{"marks", "<r><e/>abc<f/>def<g/></r>"},
                 {"words", "<q><x>abc</x><y>def</y></q>"}});
  ASSERT_NE(doc, nullptr);
  const auto snapshot = doc->PinSnapshot();
  const goddag::OverlayView view(&snapshot->goddag());
  ExpectSetMatchesPerContextUnion(*snapshot, view,
                                  AllNodes(snapshot->goddag()),
                                  {"f", "x", "nowhere"}, 3);
}

// Equal-extent elements in different hierarchies contain each other: as
// xdescendant contexts each must still appear in the other's result.
TEST(SetStepTest, EqualExtentContextsAcrossHierarchies) {
  auto doc = BuildSmallDocument(
      "abcd", {{"h1", "<a><p>ab</p><p>cd</p></a>"},
               {"h2", "<b><s>ab</s><t>cd</t></b>"},
               {"h3", "<c><u>abcd</u></c>"}});
  ASSERT_NE(doc, nullptr);
  const auto snapshot = doc->PinSnapshot();
  const goddag::OverlayView view(&snapshot->goddag());
  ExpectSetMatchesPerContextUnion(*snapshot, view,
                                  AllNodes(snapshot->goddag()),
                                  {"p", "s", "u"}, 3);
}

// Nested contexts of one hierarchy: a descendant context adds nothing of
// its own, and contexts in other hierarchies are not pruned by it.
TEST(SetStepTest, NestedSameHierarchyContextsForDescendant) {
  auto doc = BuildSmallDocument(
      "abcd", {{"h1", "<a><b><c>ab</c>c</b><d>d</d></a>"},
               {"h2", "<z>a<k>bc</k>d</z>"}});
  ASSERT_NE(doc, nullptr);
  const auto snapshot = doc->PinSnapshot();
  const goddag::OverlayView view(&snapshot->goddag());
  ExpectSetMatchesPerContextUnion(*snapshot, view,
                                  AllNodes(snapshot->goddag()),
                                  {"c", "k"}, 3);
}

// Overlay contexts (each overlay is its own hierarchy for following and
// preceding, and its arcs end at its root), mixed with base contexts, and
// a name test no base element bears — pushdown then empties the base half
// by the statistics alone while the overlay half still matches.
TEST_F(PaperAxesTest, SetStepsOverOverlayContexts) {
  const KyGoddag& kg = snapshot_->goddag();
  auto ids = std::make_shared<goddag::OverlayIdAllocator>();
  goddag::OverlayView view(&kg);
  auto first = goddag::GoddagOverlay::Create(
      &kg, ids, "result",
      {goddag::VirtualElement{"m", TextRange(9, 14), {}},
       goddag::VirtualElement{"a", TextRange(11, 12), {}},
       goddag::VirtualElement{"a", TextRange(12, 14), {}}});
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = goddag::GoddagOverlay::Create(
      &kg, ids, "result",
      {goddag::VirtualElement{"m", TextRange(0, 9), {}},
       goddag::VirtualElement{"m", TextRange(21, 30), {}}});
  ASSERT_TRUE(second.ok()) << second.status();
  std::vector<NodeId> pool;
  for (const auto& overlay : {*first, *second}) {
    view.AddOverlay(overlay);
    for (NodeId id = overlay->id_begin(); id < overlay->id_end(); ++id) {
      pool.push_back(id);
    }
  }
  pool.push_back(kg.root());
  pool.push_back(FindElement(kg, 1, "w", "unawendendne"));
  pool.push_back(FindElement(kg, 1, "w", "sceaft"));
  pool.push_back(kg.hierarchy(0).nodes[1]);
  ExpectSetMatchesPerContextUnion(*snapshot_, view, pool, {"m", "a", "w"},
                                  2);
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
