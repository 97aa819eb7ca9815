// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <string>

#include "workload/generator.h"
#include "xml/parser.h"
#include "xpath/axes.h"

namespace mhx::workload {
namespace {

TEST(GeneratorTest, DeterministicForSameSeed) {
  EditionConfig config;
  config.seed = 42;
  config.word_count = 200;
  Edition a = GenerateEdition(config);
  Edition b = GenerateEdition(config);
  EXPECT_EQ(a.base_text, b.base_text);
  EXPECT_EQ(a.physical_xml, b.physical_xml);
  EXPECT_EQ(a.structural_xml, b.structural_xml);
  EXPECT_EQ(a.restoration_xml, b.restoration_xml);
  EXPECT_EQ(a.condition_xml, b.condition_xml);
  config.seed = 43;
  Edition c = GenerateEdition(config);
  EXPECT_NE(a.base_text, c.base_text);
}

TEST(GeneratorTest, AllHierarchiesEncodeTheBaseText) {
  EditionConfig config;
  config.seed = 3;
  config.word_count = 150;
  Edition e = GenerateEdition(config);
  ASSERT_FALSE(e.base_text.empty());
  for (const std::string* xml :
       {&e.physical_xml, &e.structural_xml, &e.restoration_xml,
        &e.condition_xml}) {
    auto doc = xml::Parse(*xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    EXPECT_EQ(doc->text, e.base_text);
  }
}

TEST(GeneratorTest, WordCountAndCoverageAreRespected) {
  EditionConfig config;
  config.seed = 9;
  config.word_count = 300;
  config.damage_coverage = 0.2;
  Edition e = GenerateEdition(config);
  auto structural = xml::Parse(e.structural_xml);
  ASSERT_TRUE(structural.ok());
  size_t words = 0;
  for (const auto& s : structural->root.children) {
    EXPECT_EQ(s.name, "s");
    words += s.children.size();
  }
  EXPECT_EQ(words, 300u);
  // Damage coverage lands near the requested fraction.
  auto condition = xml::Parse(e.condition_xml);
  ASSERT_TRUE(condition.ok());
  size_t covered = 0;
  for (const auto& dmg : condition->root.children) {
    covered += dmg.range.length();
  }
  double fraction =
      static_cast<double>(covered) / static_cast<double>(e.base_text.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.4);
}

TEST(GeneratorTest, ShortLinesProduceWordLineConflicts) {
  EditionConfig config;
  config.seed = 17;
  config.word_count = 100;
  config.chars_per_line = 13;
  auto doc = BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const goddag::KyGoddag& kg = doc->goddag();
  // Hierarchy ids follow AddHierarchy order.
  EXPECT_EQ(kg.hierarchy(0).name, "physical");
  EXPECT_EQ(kg.hierarchy(1).name, "structural");
  EXPECT_EQ(kg.hierarchy(2).name, "restoration");
  EXPECT_EQ(kg.hierarchy(3).name, "condition");
  const auto snapshot = doc->PinSnapshot();
  xpath::AxisEvaluator axes(snapshot.get());
  const goddag::OverlayView base(&snapshot->goddag());
  size_t conflicted_words = 0;
  for (goddag::NodeId id : kg.hierarchy(1).nodes) {
    const goddag::GNode& n = kg.node(id);
    if (n.kind == goddag::GNodeKind::kElement && n.name == "w" &&
        !axes.EvaluatePlanned(base, id, xpath::Axis::kOverlapping,
                              xpath::NodeTest::Name("line"))
             .empty()) {
      ++conflicted_words;
    }
  }
  EXPECT_GT(conflicted_words, 10u);
}

TEST(GeneratorTest, SampleVocabularyIsDeterministicAndAscii) {
  auto words = SampleVocabulary(13, 512);
  ASSERT_EQ(words.size(), 512u);
  EXPECT_EQ(words, SampleVocabulary(13, 512));
  for (const std::string& w : words) {
    ASSERT_FALSE(w.empty());
    for (char c : w) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << "non-ascii word: " << w;
    }
  }
}

TEST(GeneratorTest, TinyEditionsStillBuild) {
  EditionConfig config;
  config.seed = 1;
  config.word_count = 1;
  auto doc = BuildEditionDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_GT(doc->goddag().element_count(), 0u);
}

}  // namespace
}  // namespace mhx::workload
