// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/engine.h"

#include <gtest/gtest.h>

#include "document.h"
#include "workload/paper_data.h"
#include "xquery/serialize.h"

namespace mhx::xquery {
namespace {

class XQueryEngineTest : public ::testing::Test {
 protected:
  XQueryEngineTest() {
    auto doc = workload::BuildPaperDocument();
    EXPECT_TRUE(doc.ok()) << doc.status();
    doc_ = std::make_unique<MultihierarchicalDocument>(
        std::move(doc).value());
  }

  std::string Query(std::string_view query) {
    auto out = doc_->Query(query);
    EXPECT_TRUE(out.ok()) << query << "\n" << out.status();
    return out.ok() ? *out : "<error>";
  }

  std::unique_ptr<MultihierarchicalDocument> doc_;
};

// --- the paper's Section 4 queries against their pinned serialisations -----

TEST_F(XQueryEngineTest, QueryI1MatchesPinnedOutput) {
  EXPECT_EQ(Query(workload::kQueryI1), workload::kExpectedI1);
}

TEST_F(XQueryEngineTest, QueryI2MatchesPinnedOutput) {
  EXPECT_EQ(Query(workload::kQueryI2), workload::kExpectedI2);
}

TEST_F(XQueryEngineTest, QueryII1MatchesPinnedOutputCoalesced) {
  EXPECT_EQ(CoalesceRuns(Query(workload::kQueryII1)),
            workload::kExpectedII1Coalesced);
}

TEST_F(XQueryEngineTest, QueryIII1MatchesPinnedOutputCoalesced) {
  EXPECT_EQ(CoalesceRuns(Query(workload::kQueryIII1Intent)),
            workload::kExpectedIII1IntentCoalesced);
}

// --- building blocks -------------------------------------------------------

TEST_F(XQueryEngineTest, AtomsAndArithmetic) {
  EXPECT_EQ(Query("42"), "42");
  EXPECT_EQ(Query("'abcd'"), "abcd");
  EXPECT_EQ(Query("(1 + 2) * 3 - 4"), "5");
  EXPECT_EQ(Query("(1, 2, 3)"), "123");
  EXPECT_EQ(Query("if (1 = 1) then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if (()) then 'y' else 'n'"), "n");
}

TEST_F(XQueryEngineTest, PathsCountsAndStrings) {
  EXPECT_EQ(Query("count(/descendant::w)"), "9");
  EXPECT_EQ(Query("count(/descendant::line)"), "3");
  EXPECT_EQ(Query("count(/descendant::leaf())"), "24");
  EXPECT_EQ(Query("string(/descendant::w[string(.) = 'sceaft'])"), "sceaft");
  EXPECT_EQ(Query("name(/descendant::line[1])"), "line");
  EXPECT_EQ(Query("count(/descendant::w[string-length(string(.)) > 5])"),
            "2");  // unawendendne, sceaft
}

TEST_F(XQueryEngineTest, ExtendedAxesInsidePredicates) {
  // "unawendendne" crosses the line boundary: one line contains part of it
  // via xdescendant, the other sees it via overlapping.
  EXPECT_EQ(
      Query("count(/descendant::line[overlapping::w[string(.) = "
            "'unawendendne']])"),
      "2");
  EXPECT_EQ(Query("count(/descendant::w[overlapping::line])"), "2");
  EXPECT_EQ(Query("count(/descendant::w[xancestor::dmg])"), "1");  // eac
}

TEST_F(XQueryEngineTest, FlworQuantifiersAndConstructors) {
  EXPECT_EQ(Query("for $s in /descendant::s return count($s/xdescendant::w)"),
            "45");  // 4 then 5, concatenated
  EXPECT_EQ(
      Query("count(/descendant::line[some $w in xdescendant::w satisfies "
            "string-length(string($w)) > 4])"),
      "2");
  EXPECT_EQ(Query("for $w in /descendant::w[string(.) = 'is'] return "
                  "<span id=\"{name($w)}\">{$w}</span>"),
            "<span id=\"w\"><w>is</w></span>");
  EXPECT_EQ(Query("<br/>"), "<br/>");
}

TEST_F(XQueryEngineTest, PositionalPredicatesApplyPerContextNode) {
  // XPath semantics: [1] selects the first child::w of EACH s element, not
  // the first of the merged union.
  EXPECT_EQ(Query("count(/descendant::s/child::w[1])"), "2");
  EXPECT_EQ(Query("for $w in /descendant::s/child::w[1] return string($w)"),
            "thaetand");
}

TEST_F(XQueryEngineTest, AnalyzeStringHandlesPlainUserGroups) {
  // "(t|T)" consumes a regex group number but names no fragment element;
  // only <a> materialises, and nothing reads out of bounds.
  EXPECT_EQ(
      Query("for $leaf in analyze-string(/descendant::w[string(.) = "
            "'thaet'], \"(t|T)h<a>a</a>et\")/descendant::leaf() return "
            "if ($leaf/xancestor::a) then <b>{$leaf}</b> else $leaf"),
      "th<b>a</b>et");
}

TEST_F(XQueryEngineTest, AnalyzeStringRootArtifactStaysOutOfExtendedAxes) {
  // The temporary hierarchy's auto-created whole-text root must not appear
  // as an xancestor of unrelated nodes while the temporary is alive:
  // "thaet" keeps its 7 persistent containers (sheet, page, line 1, text,
  // s 1, rest, cond).
  EXPECT_EQ(
      Query("let $r := analyze-string(/descendant::w[string(.) = "
            "'unawendendne'], \".*un<a>a</a>we.*\") return "
            "count(/descendant::w[string(.) = 'thaet']/xancestor::*)"),
      "7");
}

TEST_F(XQueryEngineTest, MatchesUsesThePikeVm) {
  EXPECT_EQ(Query("count(/descendant::w[matches(string(.), '.*ea.*')])"),
            "2");  // sceaft, eac
  EXPECT_EQ(Query("count(/descendant::w[matches(string(.), 'a')])"), "6");
}

TEST_F(XQueryEngineTest, MatchesFindsAnEndAnchorPastTheFirstPosition) {
  // No thread can run at offsets 0-2; the match is the empty one at 3.
  EXPECT_EQ(Query("if (matches('abc', '$')) then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if (matches('abc', 'c$')) then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if (matches('abc', 'b$')) then 'y' else 'n'"), "n");
}

TEST_F(XQueryEngineTest, EvaluationErrorsAreAnchored) {
  auto out = doc_->Query("$nosuch");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("undefined variable $nosuch"),
            std::string::npos);
  out = doc_->Query("string(");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  out = doc_->Query("nosuchfn(1)");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("unknown function nosuchfn()"),
            std::string::npos);
}

TEST_F(XQueryEngineTest, IntegerOverflowIsAnEvaluationError) {
  const char* overflowing[] = {
      "9223372036854775807 + 1",
      "0 - 9223372036854775807 - 2",
      "4611686018427387904 * 2",
  };
  for (const char* query : overflowing) {
    auto out = doc_->Query(query);
    ASSERT_FALSE(out.ok()) << query;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << query;
    EXPECT_NE(out.status().message().find("integer overflow"),
              std::string::npos)
        << query << "\n" << out.status();
  }
  // The representable extremes still evaluate.
  EXPECT_EQ(Query("0 - 9223372036854775807 - 1"), "-9223372036854775808");
  EXPECT_EQ(Query("9223372036854775806 + 1"), "9223372036854775807");
  EXPECT_EQ(Query("3037000499 * 3037000499"), "9223372030926249001");
}

// --- analyze-string temporaries in overlay namespaces ----------------------

// The paper's Example 1 through Evaluate: the temporary hierarchy is
// alive for the query that made it — its serialisation is the result —
// and the base document is untouched while it is.
TEST_F(XQueryEngineTest, AnalyzeStringKeepsAndCleansTemporaries) {
  const size_t persistent_nodes = doc_->goddag().element_count();
  const uint64_t revision = doc_->goddag().revision();
  const size_t leaves = doc_->PinSnapshot()->goddag().leaves().size();
  // wrapper [9,21) > m [9,14) > a [11,12) over "unawendendne".
  EXPECT_EQ(Query("analyze-string(/descendant::w[string(.) = 'unawendendne'],"
                  " \".*un<a>a</a>we.*\")"),
            "<analyze-string-result><m>un<a>a</a>we</m>ndendne"
            "</analyze-string-result>");
  // The hierarchy lived in an overlay namespace: the base document never
  // changed — the invariant that lets queries run concurrently.
  EXPECT_EQ(doc_->goddag().element_count(), persistent_nodes);
  EXPECT_EQ(doc_->goddag().revision(), revision);
  EXPECT_EQ(doc_->PinSnapshot()->goddag().leaves().size(), leaves);
}

// A query's temporaries are visible to its own later steps and gone in
// the next query.
TEST_F(XQueryEngineTest, TemporariesAreGoneInTheNextQuery) {
  EXPECT_EQ(Query("let $r := analyze-string(/descendant::w[string(.) = "
                  "'unawendendne'], \".*un<a>a</a>we.*\") return "
                  "count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "1");
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "0");
  // A failing query drops its temporaries too.
  EXPECT_FALSE(doc_->Query("let $r := analyze-string(/descendant::w[string(.)"
                           " = 'unawendendne'], \".*un<a>a</a>we.*\") "
                           "return $broken")
                   .ok());
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "0");
}

// Set-at-a-time steps from contexts in analyze-string overlays, mixed with
// base contexts and given out of document order: each overlay is its own
// hierarchy for following/preceding, and the extended axes see base and
// overlay nodes alike. One query materialises the overlays in a loop whose
// overlays reach the post-loop steps; the reference takes the step once
// per context (a for loop) and normalises the concatenation with a self::
// step.
TEST_F(XQueryEngineTest, SetStepsFromOverlayContextsMatchPerContextSteps) {
  Engine* engine = doc_->engine();
  const std::string analyse =
      "let $r := (for $w in /descendant::w[matches(string(.), '.*e.*')]"
      " return analyze-string($w, '.*<a>e</a>.*')) return ";
  // Overlay nodes hang off no base node: the extended axes reach them.
  ASSERT_NE(Query(analyse + "count(/descendant::line/xdescendant::a)"), "0");
  const char* kContexts[] = {
      "/descendant::line/xdescendant::a", "/descendant::line/xdescendant::m",
      "(/descendant::line/xdescendant::a, /descendant::w)"};
  const char* kSteps[] = {"following::*", "preceding::*", "following::a",
                          "xfollowing::*", "xpreceding::a",
                          "xdescendant::*", "descendant::*"};
  const size_t set_steps_before = engine->set_steps();
  for (const char* contexts : kContexts) {
    for (const char* step : kSteps) {
      const std::string path = std::string(contexts) + "/" + step;
      const std::string per_context = "(for $c in " + std::string(contexts) +
                                      " return $c/" + step + ")/self::*";
      auto listing = [&analyse](const std::string& p) {
        return analyse + "for $n in " + p +
               " return (name($n), '[', string($n), ']')";
      };
      EXPECT_EQ(Query(listing(path)), Query(listing(per_context))) << path;
    }
  }
  EXPECT_GT(engine->set_steps(), set_steps_before);
}

TEST_F(XQueryEngineTest, ComparisonsCoerceNumbersLikeXPath) {
  EXPECT_EQ(Query("if ('9' < 10) then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if (10 > '9') then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if ('10' < '9') then 'y' else 'n'"), "y");  // both strings
  EXPECT_EQ(Query("if ('abc' = 3) then 'y' else 'n'"), "n");   // NaN-like
  EXPECT_EQ(Query("if ('abc' != 3) then 'y' else 'n'"), "y");
  EXPECT_EQ(Query("if ('abc' < 3) then 'y' else 'n'"), "n");
}

TEST_F(XQueryEngineTest, AnalyzeStringCyclesNeverRebuildTheIndex) {
  const auto pinned = doc_->PinSnapshot();
  for (int i = 0; i < 20; ++i) {
    auto out = doc_->Query(workload::kQueryII1);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(CoalesceRuns(*out), workload::kExpectedII1Coalesced);
  }
  // The 20 overlay add/query/drop cycles above published nothing: the
  // same snapshot, with the index it was published with, is current.
  EXPECT_EQ(doc_->PinSnapshot(), pinned);
}

TEST_F(XQueryEngineTest, CommitIsVisibleToTheNextQueryWithoutRebuilds) {
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "0");
  {
    auto writer = doc_->NewWriter();
    writer.AddVirtualHierarchy(
        "notes", {goddag::VirtualElement{"note", TextRange(9, 21), {}}});
    ASSERT_TRUE(writer.Commit().ok());
  }
  // The next evaluation sees the new hierarchy on extended axes.
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "1");
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "1");
  {
    auto writer = doc_->NewWriter();
    writer.RemoveVirtualHierarchy("notes");
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "0");
}

TEST_F(XQueryEngineTest, TemporariesNeverServeStaleIndexEntries) {
  // Commit a new version so queries move to a fresh base index, then
  // materialise temporaries over "unawendendne". Overlay nodes must stay
  // out of that index (they are scanned, never indexed), yet be visible on
  // extended axes.
  {
    auto writer = doc_->NewWriter();
    writer.AddVirtualHierarchy(
        "notes", {goddag::VirtualElement{"note", TextRange(0, 5), {}}});
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(Query("let $r := analyze-string(/descendant::w[string(.) = "
                  "'unawendendne'], \".*un<a>a</a>we.*\") return "
                  "count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "1");
  // The next query runs a fresh analyze-string over a different word. The
  // old word's extended axes must see only the persistent <dmg> inside it
  // — the previous query's overlay nodes are gone, and the new overlay's
  // nodes sit at a different range.
  EXPECT_EQ(
      Query("let $r := analyze-string(/descendant::w[string(.) = 'sceaft'],"
            " 'sc<q>e</q>aft') return "
            "count(/descendant::w[string(.) = 'unawendendne']"
            "/xdescendant::*)"),
      "1");
}

TEST_F(XQueryEngineTest, QueryResultsAreStableAcrossRepeats) {
  // Temporaries from II.1 must not leak into later evaluations.
  EXPECT_EQ(CoalesceRuns(Query(workload::kQueryII1)),
            workload::kExpectedII1Coalesced);
  EXPECT_EQ(Query(workload::kQueryI2), workload::kExpectedI2);
  EXPECT_EQ(CoalesceRuns(Query(workload::kQueryII1)),
            workload::kExpectedII1Coalesced);
}

}  // namespace
}  // namespace mhx::xquery
