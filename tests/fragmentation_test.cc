// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/fragmentation.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xpath/axes.h"

namespace mhx::baseline {
namespace {

using goddag::GNodeKind;
using goddag::NodeId;

TEST(FragmentationTest, PaperDocumentFragmentsConflictingElements) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok());
  FragmentationEncoding enc = FragmentationEncoding::Encode(doc->goddag());
  EXPECT_EQ(enc.element_count(), doc->goddag().element_count());
  // Conflicts exist, so there must be strictly more fragments than elements.
  EXPECT_GT(enc.fragment_count(), enc.element_count());

  // "unawendendne" crosses a line boundary and a restoration boundary, so it
  // reassembles from several fragments — but to its exact original extent.
  auto words = enc.Reassemble("w");
  ASSERT_EQ(words.size(), 9u);
  bool found = false;
  for (const auto& w : words) {
    if (w.text == "unawendendne") {
      found = true;
      EXPECT_EQ(w.range, TextRange(9, 21));
    }
  }
  EXPECT_TRUE(found);

  // Lines reassemble to their full text as well.
  auto lines = enc.Reassemble("line");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "thaet is unawen");
  EXPECT_EQ(lines[1].text, "dendne sceaft and ea");
  EXPECT_EQ(lines[2].text, "c swa some wyrd");
}

TEST(FragmentationTest, FindByStringSeesReassembledText) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok());
  FragmentationEncoding enc = FragmentationEncoding::Encode(doc->goddag());
  auto hits = enc.FindByString("w", "unawendendne");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].range, TextRange(9, 21));
  EXPECT_TRUE(enc.FindByString("w", "unawen").empty());  // fragment text only
}

// The baseline must answer the E8 questions identically to the KyGODDAG
// axes — same pairs, same counts — so the benchmark compares equal work.
TEST(FragmentationTest, AgreesWithAxesOnEdition) {
  workload::EditionConfig config;
  config.seed = 23;
  config.word_count = 150;
  config.chars_per_line = 21;
  config.damage_coverage = 0.15;
  config.restoration_coverage = 0.15;
  auto doc = workload::BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok());
  const goddag::KyGoddag& kg = doc->goddag();
  FragmentationEncoding enc = FragmentationEncoding::Encode(kg);
  const auto snapshot = doc->PinSnapshot();
  xpath::AxisEvaluator axes(snapshot.get());

  size_t axis_pairs = 0;
  size_t axis_containing = 0;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const goddag::GNode& n = kg.node(id);
    if (n.kind != GNodeKind::kElement || n.name != "w") continue;
    axis_pairs +=
        axes.Evaluate(id, xpath::Axis::kOverlapping, xpath::NodeTest::Name("line"))
            .size();
    if (!axes.Evaluate(id, xpath::Axis::kXDescendant,
                       xpath::NodeTest::Name("dmg"))
             .empty()) {
      ++axis_containing;
    }
  }
  EXPECT_GT(axis_pairs, 0u);
  EXPECT_GT(axis_containing, 0u);
  EXPECT_EQ(enc.CountOverlapping("w", "line"), axis_pairs);
  EXPECT_EQ(enc.CountContaining("w", "dmg"), axis_containing);
}

TEST(FragmentationTest, NoConflictsMeansNoFragmentation) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText("ab cd");
  builder.AddHierarchy("words", "<t><w>ab</w> <w>cd</w></t>");
  auto doc = builder.Build();
  ASSERT_TRUE(doc.ok());
  FragmentationEncoding enc = FragmentationEncoding::Encode(doc->goddag());
  EXPECT_EQ(enc.fragment_count(), enc.element_count());
  EXPECT_EQ(enc.CountOverlapping("w", "t"), 0u);
}

}  // namespace
}  // namespace mhx::baseline
