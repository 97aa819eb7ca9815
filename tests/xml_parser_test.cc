// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include "xml/parser.h"

#include "mutation.h"
#include "workload/paper_data.h"

namespace mhx::xml {
namespace {

TEST(XmlParserTest, SimpleDocumentWithRanges) {
  auto doc = Parse("<a>hello <b>brave</b> world</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->text, "hello brave world");
  EXPECT_EQ(doc->element_count, 2u);
  EXPECT_EQ(doc->root.name, "a");
  EXPECT_EQ(doc->root.range, TextRange(0, 17));
  ASSERT_EQ(doc->root.children.size(), 1u);
  const Element& b = doc->root.children[0];
  EXPECT_EQ(b.name, "b");
  EXPECT_EQ(b.range, TextRange(6, 11));
  EXPECT_EQ(doc->text.substr(b.range.begin, b.range.length()), "brave");
}

TEST(XmlParserTest, AttributesAndSelfClosing) {
  auto doc = Parse("<r a=\"1\" b='two'><hr/><x c=\"&lt;3\"/></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_EQ(doc->root.attributes.size(), 2u);
  EXPECT_EQ(doc->root.attributes[0].first, "a");
  EXPECT_EQ(doc->root.attributes[0].second, "1");
  EXPECT_EQ(doc->root.attributes[1].second, "two");
  ASSERT_EQ(doc->root.children.size(), 2u);
  EXPECT_TRUE(doc->root.children[0].range.empty());
  ASSERT_NE(doc->root.children[1].FindAttribute("c"), nullptr);
  EXPECT_EQ(*doc->root.children[1].FindAttribute("c"), "<3");
  EXPECT_EQ(doc->root.children[1].FindAttribute("zz"), nullptr);
}

TEST(XmlParserTest, EntitiesAndCharacterReferences) {
  auto doc = Parse("<t>a&amp;b&lt;c&gt;d&apos;e&quot;f&#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->text, "a&b<c>d'e\"fAB");
}

TEST(XmlParserTest, CommentsCdataPrologAndPi) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?>\n<!DOCTYPE t>\n<!-- head -->\n"
      "<t>one<!-- mid -->two<![CDATA[<raw&>]]><?pi data?>three</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->text, "onetwo<raw&>three");
}

TEST(XmlParserTest, NestedRangesShareBoundaries) {
  auto doc = Parse("<a><b><c>x</c></b>y</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Element& b = doc->root.children[0];
  const Element& c = b.children[0];
  EXPECT_EQ(doc->root.range, TextRange(0, 2));
  EXPECT_EQ(b.range, TextRange(0, 1));
  EXPECT_EQ(c.range, TextRange(0, 1));
}

TEST(XmlParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("just text").ok());
  EXPECT_FALSE(Parse("<a>").ok());                  // unclosed
  EXPECT_FALSE(Parse("<a></b>").ok());              // mismatched
  EXPECT_FALSE(Parse("<a></a><b></b>").ok());       // two roots
  EXPECT_FALSE(Parse("<a>text</a>tail").ok());      // data after root
  EXPECT_FALSE(Parse("<a x=1></a>").ok());          // unquoted attribute
  EXPECT_FALSE(Parse("<a x=\"1\" x=\"2\"></a>").ok());  // duplicate attribute
  EXPECT_FALSE(Parse("<a>&unknown;</a>").ok());
  EXPECT_FALSE(Parse("<a>&#xZZ;</a>").ok());
  EXPECT_FALSE(Parse("<1tag></1tag>").ok());
}

TEST(XmlParserTest, RejectsPathologicalNestingInsteadOfOverflowing) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "<a>";
  auto doc = Parse(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("nesting"), std::string::npos);
  // Moderate nesting still parses.
  std::string moderate;
  for (int i = 0; i < 100; ++i) moderate += "<a>";
  moderate += "x";
  for (int i = 0; i < 100; ++i) moderate += "</a>";
  EXPECT_TRUE(Parse(moderate).ok());
}

TEST(XmlParserTest, ErrorMentionsByteOffset) {
  auto doc = Parse("<a></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("byte"), std::string::npos);
}

TEST(XmlParserTest, EscapeTextRoundTrips) {
  std::string raw = "a<b>&'\"c";
  auto doc = Parse("<t>" + EscapeText(raw) + "</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->text, raw);
}

// Reject, don't crash: mutations of valid documents either parse or fail
// with InvalidArgument; a parsed one keeps its ranges inside its text.
TEST(XmlParserTest, MutatedDocumentsParseOrReject) {
  const std::vector<std::string> seeds = {
      workload::kPaperPhysicalXml,
      workload::kPaperStructuralXml,
      "<?xml version=\"1.0\"?><!-- c --><r a=\"1\" b='&amp;'>x<![CDATA[<y>]]>"
      "&#65;&#x42;<e/><?pi z?><w>t</w></r>",
  };
  size_t parsed = 0;
  fuzz::ForEachMutation(
      seeds, "<>/=\"'&;#x!-?[]CDAT ab\n", 4000, 0x5EED1ull,
      [&parsed](const std::string& input) {
        auto doc = Parse(input);
        if (!doc.ok()) {
          EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument)
              << doc.status();
          return;
        }
        ++parsed;
        EXPECT_LE(doc->root.range.end, doc->text.size());
      });
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace mhx::xml
