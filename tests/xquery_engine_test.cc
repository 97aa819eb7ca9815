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

// --- analyze-string temporaries in overlay namespaces ----------------------

TEST_F(XQueryEngineTest, AnalyzeStringKeepsAndCleansTemporaries) {
  Engine* engine = doc_->engine();
  const size_t persistent_nodes = doc_->goddag().element_count();
  const uint64_t revision = doc_->goddag().revision();
  const char* kCall =
      "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
      " \".*un<a>a</a>we.*\")";

  auto result = engine->EvaluateKeepingTemporaries(kCall);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->items.size(), 1u);
  // wrapper [9,21) > m [9,14) > a [11,12) over "unawendendne".
  EXPECT_EQ(result->items[0],
            "<analyze-string-result><m>un<a>a</a>we</m>ndendne"
            "</analyze-string-result>");
  EXPECT_EQ(engine->temporary_hierarchy_count(), 1u);
  EXPECT_EQ(result->temporaries.hierarchy_count(), 1u);
  // The kept hierarchy lives in an overlay namespace: the base document is
  // untouched even while it is alive — the invariant that lets queries run
  // concurrently.
  EXPECT_EQ(doc_->goddag().element_count(), persistent_nodes);
  EXPECT_EQ(doc_->goddag().revision(), revision);

  engine->CleanupTemporaries();
  EXPECT_EQ(engine->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(doc_->goddag().element_count(), persistent_nodes);
}

TEST_F(XQueryEngineTest, DroppingTheKeptHandleDropsTheHierarchies) {
  Engine* engine = doc_->engine();
  {
    auto kept = engine->EvaluateKeepingTemporaries(
        "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
        " \".*un<a>a</a>we.*\")");
    ASSERT_TRUE(kept.ok()) << kept.status();
    EXPECT_EQ(engine->temporary_hierarchy_count(), 1u);
    EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                    "/xdescendant::a)"),
              "1");
  }
  // The handle went out of scope: the hierarchies are unregistered without
  // any CleanupTemporaries call.
  EXPECT_EQ(engine->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "0");
}

TEST_F(XQueryEngineTest, PlainEvaluateLeavesKeptTemporariesAlive) {
  Engine* engine = doc_->engine();
  auto kept = engine->EvaluateKeepingTemporaries(
      "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
      " \".*un<a>a</a>we.*\")");
  ASSERT_TRUE(kept.ok()) << kept.status();
  ASSERT_EQ(engine->temporary_hierarchy_count(), 1u);

  // Interleaved plain evaluations — including failing ones — must tear
  // down only their own temporaries, and can see the kept hierarchy.
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "1");
  EXPECT_FALSE(doc_->Query("$broken").ok());
  EXPECT_EQ(CoalesceRuns(Query(workload::kQueryII1)),
            workload::kExpectedII1Coalesced);
  EXPECT_EQ(engine->temporary_hierarchy_count(), 1u);
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "1");

  engine->CleanupTemporaries();
  EXPECT_EQ(engine->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "0");
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
  Engine* engine = doc_->engine();
  for (int i = 0; i < 20; ++i) {
    auto out = doc_->Query(workload::kQueryII1);
    ASSERT_TRUE(out.ok()) << out.status();
  }
  // One build when the engine first materialised the base index; the 20
  // overlay add/query/drop cycles above paid zero rebuilds.
  EXPECT_EQ(engine->index_rebuild_count(), 1u);
  EXPECT_EQ(engine->temporary_hierarchy_count(), 0u);
}

TEST_F(XQueryEngineTest, CommitIsVisibleToTheNextQueryWithoutRebuilds) {
  Engine* engine = doc_->engine();
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "0");
  const size_t builds = engine->index_rebuild_count();
  {
    auto writer = doc_->NewWriter();
    writer.AddVirtualHierarchy(
        "notes", {goddag::VirtualElement{"note", TextRange(9, 21), {}}});
    ASSERT_TRUE(writer.Commit().ok());
  }
  // The next evaluation sees the new hierarchy on extended axes, and the
  // writer prebuilt the new version's index: readers rebuild nothing.
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "1");
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "1");
  EXPECT_EQ(engine->index_rebuild_count(), builds);
  {
    auto writer = doc_->NewWriter();
    writer.RemoveVirtualHierarchy("notes");
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(Query("count(/descendant::w[xancestor::note])"), "0");
  EXPECT_EQ(engine->index_rebuild_count(), builds);
}

TEST_F(XQueryEngineTest, TemporariesNeverServeStaleIndexEntries) {
  Engine* engine = doc_->engine();
  // Keep temporaries over "unawendendne", then commit a new version so
  // queries move to a fresh base index while they are alive. Overlay
  // nodes must stay out of that index (they are scanned, never indexed),
  // yet remain visible on extended axes.
  auto kept = engine->EvaluateKeepingTemporaries(
      "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
      " \".*un<a>a</a>we.*\")");
  ASSERT_TRUE(kept.ok()) << kept.status();
  {
    auto writer = doc_->NewWriter();
    writer.AddVirtualHierarchy(
        "notes", {goddag::VirtualElement{"note", TextRange(0, 5), {}}});
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(Query("count(/descendant::w[string(.) = 'unawendendne']"
                  "/xdescendant::a)"),
            "1");
  // Drop the kept hierarchy, then run a fresh analyze-string over a
  // different word. The old word's extended axes must see only the
  // persistent <dmg> inside it — the dropped overlay's nodes are gone, and
  // the new overlay's nodes sit at a different range.
  engine->CleanupTemporaries();
  EXPECT_EQ(
      Query("let $r := analyze-string(/descendant::w[string(.) = 'sceaft'],"
            " 'sc<q>e</q>aft') return "
            "count(/descendant::w[string(.) = 'unawendendne']"
            "/xdescendant::*)"),
      "1");
}

TEST(KeptTemporariesLifetimeTest, HandleMayOutliveTheEngine) {
  KeptTemporaries handle;
  {
    auto doc = workload::BuildPaperDocument();
    ASSERT_TRUE(doc.ok()) << doc.status();
    auto kept = doc->engine()->EvaluateKeepingTemporaries(
        "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
        " \".*un<a>a</a>we.*\")");
    ASSERT_TRUE(kept.ok()) << kept.status();
    handle = std::move(kept->temporaries);
    EXPECT_EQ(handle.hierarchy_count(), 1u);
  }
  // Document and engine are gone; the handle still owns the overlay (which
  // shares the id allocator) and must release without touching freed
  // engine state — ASan guards this path.
  EXPECT_EQ(handle.hierarchy_count(), 1u);
  handle.Release();
  EXPECT_EQ(handle.hierarchy_count(), 0u);
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
