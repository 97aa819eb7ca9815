// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <utility>

#include "document.h"
#include "workload/paper_data.h"

namespace mhx {
namespace {

TEST(DocumentBuilderTest, BuildsFromAlignedHierarchies) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText("ab cd");
  builder.AddHierarchy("words", "<t><w>ab</w> <w>cd</w></t>");
  builder.AddHierarchy("halves", "<h><p>ab c</p><p>d</p></h>");
  auto doc = builder.Build();
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->base_text(), "ab cd");
  EXPECT_EQ(doc->goddag().hierarchy(0).name, "words");
  EXPECT_EQ(doc->goddag().hierarchy(1).name, "halves");
  EXPECT_EQ(doc->goddag().element_count(), 6u);  // t + 2 w, h + 2 p
}

TEST(DocumentBuilderTest, RequiresBaseText) {
  MultihierarchicalDocument::Builder builder;
  builder.AddHierarchy("words", "<t>x</t>");
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kFailedPrecondition);
}

TEST(DocumentBuilderTest, RejectsMalformedXml) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText("x");
  builder.AddHierarchy("bad", "<t>x");
  auto doc = builder.Build();
  ASSERT_FALSE(doc.ok());
  // The error names the offending hierarchy.
  EXPECT_NE(doc.status().message().find("bad"), std::string::npos);
}

TEST(DocumentBuilderTest, RejectsMisalignedHierarchy) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText("ab cd");
  builder.AddHierarchy("words", "<t><w>ab</w> <w>ce</w></t>");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(DocumentBuilderTest, RejectsDuplicateHierarchyNames) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText("x");
  builder.AddHierarchy("h", "<t>x</t>");
  builder.AddHierarchy("h", "<u>x</u>");
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(DocumentTest, MoveKeepsGoddagAndEngineStable) {
  auto built = workload::BuildPaperDocument();
  ASSERT_TRUE(built.ok());
  const goddag::KyGoddag* goddag_before = &built->goddag();
  // Create the engine before the move: its back-reference must follow.
  xquery::Engine* engine_before = built->engine();
  MultihierarchicalDocument doc(std::move(built).value());
  EXPECT_EQ(&doc.goddag(), goddag_before);
  EXPECT_EQ(doc.engine(), engine_before);
  EXPECT_EQ(doc.engine()->document(), &doc);
}

TEST(DocumentTest, QueryEvaluatesThroughTheEngine) {
  auto doc = workload::BuildPaperDocument();
  ASSERT_TRUE(doc.ok());
  auto out = doc->Query(workload::kQueryI1);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, workload::kExpectedI1);
  auto* engine = doc->engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine, doc->engine());  // stable across calls
  auto direct = engine->Evaluate("(1, 2)");
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(*direct, "12");
}

}  // namespace
}  // namespace mhx
