// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/parser.h"

#include <gtest/gtest.h>

#include "mutation.h"
#include "workload/paper_data.h"
#include "xquery/ast.h"

namespace mhx::xquery {
namespace {

std::string Parsed(std::string_view query) {
  auto expr = ParseQuery(query);
  EXPECT_TRUE(expr.ok()) << expr.status();
  if (!expr.ok()) return "<parse error>";
  return DebugString((*expr)->root());
}

// --- AST shapes ------------------------------------------------------------

TEST(XQueryParserTest, LiteralsVariablesAndSequences) {
  EXPECT_EQ(Parsed("42"), "42");
  EXPECT_EQ(Parsed("'abc'"), "\"abc\"");
  EXPECT_EQ(Parsed("\"a''b\""), "\"a''b\"");
  EXPECT_EQ(Parsed("$w"), "$w");
  EXPECT_EQ(Parsed("()"), "(seq)");
  EXPECT_EQ(Parsed("(1, 2, 3)"), "(seq 1 2 3)");
  EXPECT_EQ(Parsed("1 + 2 * 3"), "(+ 1 (* 2 3))");
  EXPECT_EQ(Parsed("-1"), "(- 0 1)");
}

TEST(XQueryParserTest, PathsWithStandardAndExtendedAxes) {
  EXPECT_EQ(Parsed("/descendant::line"), "(path / descendant::line)");
  EXPECT_EQ(Parsed("/descendant::leaf()"), "(path / descendant::leaf())");
  EXPECT_EQ(Parsed("$l/descendant::leaf()"),
            "(path $l descendant::leaf())");
  EXPECT_EQ(Parsed("$leaf/xancestor::res"), "(path $leaf xancestor::res)");
  EXPECT_EQ(Parsed("xdescendant::w"), "(path xdescendant::w)");
  EXPECT_EQ(Parsed("//w"), "(path / descendant::w)");
  EXPECT_EQ(Parsed("/descendant::*"), "(path / descendant::*)");
  EXPECT_EQ(Parsed("w"), "(path child::w)");
}

TEST(XQueryParserTest, PredicatesNestAndCombine) {
  EXPECT_EQ(
      Parsed("/descendant::w[string(.) = 'x']"),
      "(path / descendant::w[(= (call string .) \"x\")])");
  EXPECT_EQ(
      Parsed("$leaf[ancestor::w[xancestor::dmg or overlapping::dmg]]"),
      "(path $leaf[(path ancestor::w[(or (path xancestor::dmg) "
      "(path overlapping::dmg))])])");
}

TEST(XQueryParserTest, FlworIfAndQuantifiers) {
  EXPECT_EQ(Parsed("for $w in /descendant::w return string($w)"),
            "(for $w (path / descendant::w) (call string $w))");
  EXPECT_EQ(Parsed("let $r := 1 return $r"), "(let $r 1 $r)");
  EXPECT_EQ(Parsed("for $a in 1, $b in 2 return $b"),
            "(for $a 1 (for $b 2 $b))");
  EXPECT_EQ(Parsed("if (1) then 2 else 3"), "(if 1 2 3)");
  EXPECT_EQ(
      Parsed("some $w in xdescendant::w satisfies string-length(string($w)) "
             "> 10"),
      "(some $w (path xdescendant::w) (> (call string-length "
      "(call string $w)) 10))");
}

TEST(XQueryParserTest, DirectConstructors) {
  EXPECT_EQ(Parsed("<br/>"), "(elem br)");
  EXPECT_EQ(Parsed("<b>{$leaf}</b>"), "(elem b (content {$leaf}))");
  EXPECT_EQ(Parsed("<line>{string($l)}</line>"),
            "(elem line (content {(call string $l)}))");
  EXPECT_EQ(
      Parsed("<span id=\"{name($w)}\"><b>{$w}</b></span>"),
      "(elem span @id=( {(call name $w)}) (content {(elem b "
      "(content {$w}))}))");
  EXPECT_EQ(Parsed("<x>ab {1} cd</x>"),
            "(elem x (content \"ab \" {1} \" cd\"))");
}

TEST(XQueryParserTest, KeywordsStayNamesOutsideTheirContexts) {
  // `for` only heads a FLWOR when a variable follows; here it is a step.
  EXPECT_EQ(Parsed("/descendant::for"), "(path / descendant::for)");
  EXPECT_EQ(Parsed("child::if"), "(path child::if)");
}

TEST(XQueryParserTest, PaperQueriesParse) {
  for (const char* query :
       {mhx::workload::kQueryI1, mhx::workload::kQueryI2,
        mhx::workload::kQueryII1, mhx::workload::kQueryIII1Intent}) {
    auto expr = ParseQuery(query);
    EXPECT_TRUE(expr.ok()) << query << "\n" << expr.status();
  }
}

// --- anchored errors -------------------------------------------------------

TEST(XQueryParserTest, ErrorsAreAnchoredToOffsets) {
  struct Case {
    const char* query;
    const char* fragment;
  };
  for (const Case& c : {
           Case{"for $w in", "expected an expression"},
           Case{"for $w in 1", "expected 'return'"},
           Case{"1 +", "expected an expression"},
           Case{"(1, 2", "expected ')'"},
           Case{"/descendant::", "expected a node test"},
           Case{"/sideways::w", "unknown axis 'sideways'"},
           Case{"$w[1", "expected ']'"},
           Case{"<a>{1}</b>", "mismatched closing tag"},
           Case{"<a>oops", "unterminated content"},
           Case{"<a>x}y</a>", "unescaped '}'"},
           Case{"<a b=\"x}y\"/>", "unescaped '}'"},
           Case{"'unterminated", "unterminated string literal"},
           Case{"if (1) then 2", "expected 'else'"},
       }) {
    auto expr = ParseQuery(c.query);
    ASSERT_FALSE(expr.ok()) << c.query;
    EXPECT_EQ(expr.status().code(), StatusCode::kInvalidArgument) << c.query;
    EXPECT_NE(expr.status().message().find("offset"), std::string::npos)
        << c.query << " -> " << expr.status().message();
    EXPECT_NE(expr.status().message().find(c.fragment), std::string::npos)
        << c.query << " -> " << expr.status().message();
  }
}

TEST(XQueryParserTest, HostileNestingErrorsInsteadOfOverflowing) {
  std::string deep(100000, '(');
  deep += "1";
  deep.append(100000, ')');
  auto expr = ParseQuery(deep);
  ASSERT_FALSE(expr.ok());
  EXPECT_NE(expr.status().message().find("nested deeper"), std::string::npos);

  std::string ctors;
  for (int i = 0; i < 100000; ++i) ctors += "<a>";
  expr = ParseQuery(ctors);
  ASSERT_FALSE(expr.ok());

  std::string chain = "1";
  for (int i = 0; i < 100000; ++i) chain += "+1";
  expr = ParseQuery(chain);
  ASSERT_FALSE(expr.ok());
  EXPECT_NE(expr.status().message().find("operator chain"),
            std::string::npos);

  std::string minuses(100000, '-');
  expr = ParseQuery(minuses + "1");
  ASSERT_FALSE(expr.ok());

  // Chains and parenthesis nesting share one depth budget: 200-long chains
  // nested 200 deep stay under each per-construct count but must still be
  // rejected (the AST would otherwise be ~40000 deep).
  std::string unit = "1";
  for (int i = 0; i < 200; ++i) unit += "+1";
  std::string composed;
  for (int i = 0; i < 200; ++i) composed += unit + "+(";
  composed += "1";
  composed.append(200, ')');
  expr = ParseQuery(composed);
  ASSERT_FALSE(expr.ok());
}

TEST(XQueryParserTest, IntegerLiteralOverflowIsAnError) {
  auto expr = ParseQuery("99999999999999999999999999");
  ASSERT_FALSE(expr.ok());
  EXPECT_NE(expr.status().message().find("integer literal out of range"),
            std::string::npos);
  // The maximum int64 still parses.
  EXPECT_TRUE(ParseQuery("9223372036854775807").ok());
  EXPECT_FALSE(ParseQuery("9223372036854775808").ok());
}

TEST(XQueryParserTest, ErrorOffsetsPointAtTheProblem) {
  auto expr = ParseQuery("/descendant::line[");
  ASSERT_FALSE(expr.ok());
  // The unterminated predicate is reported at the end of input, offset 18.
  EXPECT_NE(expr.status().message().find("offset 18"), std::string::npos)
      << expr.status().message();
}

// Reject, don't crash: mutations of valid queries either parse or fail
// with InvalidArgument.
TEST(XQueryParserTest, MutatedQueriesParseOrReject) {
  const std::vector<std::string> seeds = {
      workload::kQueryI1,
      workload::kQueryII1,
      workload::kQueryIII1Intent,
      "for $w in /descendant::w[2][xancestor::line] return "
      "<b id=\"{name($w)}\">{$w}</b>",
      "some $x in (1, 2 + 3 * 4) satisfies if ($x != 'a') then true() "
      "else count(/child::*/following::leaf()) >= -7",
      "let $r := analyze-string(., \".*<a>e</a>.*\") return $r/descendant::*",
  };
  size_t parsed = 0;
  fuzz::ForEachMutation(
      seeds, "()[]{}<>/=!,:$'\"*.-+ 019abdefilmnorstuwx", 2000, 0x5EED2ull,
      [&parsed](const std::string& query) {
        auto expr = ParseQuery(query);
        if (!expr.ok()) {
          EXPECT_EQ(expr.status().code(), StatusCode::kInvalidArgument)
              << expr.status();
          return;
        }
        ++parsed;
      });
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace mhx::xquery
