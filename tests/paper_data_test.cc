// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "workload/paper_data.h"
#include "xml/parser.h"
#include "xpath/axes.h"

namespace mhx::workload {
namespace {

TEST(PaperDataTest, EncodingsAlignWithBaseText) {
  for (const char* xml_source :
       {kPaperPhysicalXml, kPaperStructuralXml, kPaperRestorationXml,
        kPaperConditionXml}) {
    auto doc = xml::Parse(xml_source);
    ASSERT_TRUE(doc.ok()) << doc.status();
    EXPECT_EQ(doc->text, kPaperBaseText);
  }
}

TEST(PaperDataTest, BuildsWithFourHierarchies) {
  auto doc = BuildPaperDocument();
  ASSERT_TRUE(doc.ok()) << doc.status();
  const goddag::KyGoddag& kg = doc->goddag();
  EXPECT_EQ(kg.hierarchy(0).name, "physical");
  EXPECT_EQ(kg.hierarchy(1).name, "structural");
  EXPECT_EQ(kg.hierarchy(2).name, "restoration");
  EXPECT_EQ(kg.hierarchy(3).name, "condition");
  EXPECT_EQ(kg.base_text(), kPaperBaseText);
  // sheet+page+3 lines, text+2s+9w, rest+res, cond+2dmg.
  EXPECT_EQ(kg.element_count(), 5u + 12u + 2u + 3u);
}

TEST(PaperDataTest, FigureOneOverlapsArePresent) {
  auto doc = BuildPaperDocument();
  ASSERT_TRUE(doc.ok());
  const goddag::KyGoddag& kg = doc->goddag();
  const auto snapshot = doc->PinSnapshot();
  xpath::AxisEvaluator axes(snapshot.get());
  // The Example 1 word is broken across two lines.
  goddag::NodeId word = goddag::kInvalidNode;
  for (goddag::NodeId id : kg.hierarchy(1).nodes) {
    if (kg.node(id).name == "w" && kg.NodeString(id) == "unawendendne") {
      word = id;
    }
  }
  ASSERT_NE(word, goddag::kInvalidNode);
  EXPECT_EQ(
      axes.Evaluate(word, xpath::Axis::kOverlapping, xpath::NodeTest::Name("line"))
          .size(),
      2u);
  // The restoration span crosses the word boundary at 21: it overlaps the
  // word and reaches into "sceaft".
  auto res = axes.Evaluate(word, xpath::Axis::kOverlapping,
                           xpath::NodeTest::Name("res"));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(kg.NodeString(res[0]), "dendne s");
  // The second damage span crosses the line boundary at 35.
  bool damage_crosses_line = false;
  for (goddag::NodeId id : kg.hierarchy(3).nodes) {
    if (kg.node(id).name == "dmg" &&
        !axes.Evaluate(id, xpath::Axis::kOverlapping,
                       xpath::NodeTest::Name("line"))
             .empty()) {
      damage_crosses_line = true;
    }
  }
  EXPECT_TRUE(damage_crosses_line);
}

TEST(PaperDataTest, QueryConstantsAreDeclared) {
  // The engine PR consumes these; until then, pin that they exist, are
  // non-empty, and reference the extended-axis syntax they are meant to
  // exercise.
  EXPECT_NE(std::strstr(kQueryI1, "overlapping::"), nullptr);
  EXPECT_NE(std::strstr(kQueryI2, "xancestor::"), nullptr);
  EXPECT_NE(std::strstr(kQueryII1, "analyze-string"), nullptr);
  EXPECT_NE(std::strstr(kQueryIII1Intent, "xancestor::res"), nullptr);
  EXPECT_GT(std::strlen(kExpectedI1), 0u);
  EXPECT_GT(std::strlen(kExpectedI2), 0u);
  EXPECT_GT(std::strlen(kExpectedII1Coalesced), 0u);
  EXPECT_GT(std::strlen(kExpectedIII1IntentCoalesced), 0u);
}

}  // namespace
}  // namespace mhx::workload
