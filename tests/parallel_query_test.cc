// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The loop-evaluation and ordering-guarantee contracts:
//  * the Section 4 queries and synthetic FLWOR / quantifier / analyze-string
//    loops evaluate deterministically: repeated evaluation on one engine is
//    byte-identical and matches the pinned outputs;
//  * each loop binding sees only its own analyze-string() temporaries, the
//    first failing binding's error wins, and a quantifier returns what its
//    first deciding-or-failing binding decided;
//  * concurrent doc->Query() calls on one document are safe;
//  * the guarantee-driven step merge equals the Definition-1 oracle's
//    path interpreter (tests/oracle.h), which sort+dedups after every
//    step, for every axis and for predicates over multi-context steps.
//
// Several test names still say "threads" or "parallel": they are kept so
// the test ids stay stable, and each now pins the serial semantics the
// old thread-count comparison was checking against.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "document.h"
#include "oracle.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xquery/serialize.h"

namespace mhx::xquery {
namespace {

class ParallelQueryTest : public ::testing::Test {
 protected:
  ParallelQueryTest() {
    auto paper = workload::BuildPaperDocument();
    EXPECT_TRUE(paper.ok()) << paper.status();
    paper_ = std::make_unique<MultihierarchicalDocument>(
        std::move(paper).value());

    workload::EditionConfig config;
    config.seed = 29;
    config.word_count = 200;
    config.damage_coverage = 0.12;
    config.restoration_coverage = 0.15;
    auto edition = workload::BuildEditionDocument(config);
    EXPECT_TRUE(edition.ok()) << edition.status();
    edition_ = std::make_unique<MultihierarchicalDocument>(
        std::move(edition).value());
  }

  static std::string MustQuery(const MultihierarchicalDocument& doc,
                               std::string_view query,
                               const QueryOptions& options = QueryOptions()) {
    auto out = doc.Query(query, options);
    EXPECT_TRUE(out.ok()) << query << "\n" << out.status();
    return out.ok() ? *out : "<error>";
  }

  std::unique_ptr<MultihierarchicalDocument> paper_;
  std::unique_ptr<MultihierarchicalDocument> edition_;
};

// --- deterministic loops ---------------------------------------------------

TEST_F(ParallelQueryTest, Section4QueriesByteIdenticalWithFourThreads) {
  // A second evaluation on the same engine (warm plan cache, recycled
  // overlay ids) reproduces the first byte for byte.
  const char* queries[] = {workload::kQueryI1, workload::kQueryI2,
                           workload::kQueryII1, workload::kQueryIII1Intent};
  for (const char* query : queries) {
    const std::string first = MustQuery(*paper_, query);
    EXPECT_FALSE(first.empty()) << query;
    EXPECT_EQ(first, MustQuery(*paper_, query)) << query;
  }
}

TEST_F(ParallelQueryTest, QuantifiersByteIdenticalWithFourThreads) {
  // Each quantifier agrees with the count it abbreviates, evaluated again.
  const struct {
    const char* quantified;
    const char* expected;
  } cases[] = {
      {"count(/descendant::line[some $w in xdescendant::w satisfies "
       "string-length(string($w)) > 10])",
       "count(/descendant::line[count(xdescendant::w"
       "[string-length(string(.)) > 10]) > 0])"},
      {"count(/descendant::line[every $w in xdescendant::w satisfies "
       "string-length(string($w)) > 1])",
       "count(/descendant::line[count(xdescendant::w"
       "[string-length(string(.)) > 1]) = count(xdescendant::w)])"},
      {"some $w in /descendant::w satisfies matches(string($w), 'ea')",
       "count(/descendant::w[matches(string(.), 'ea')]) > 0"},
      {"every $w in /descendant::w satisfies string-length(string($w)) > 0",
       "count(/descendant::w[string-length(string(.)) > 0]) = "
       "count(/descendant::w)"},
  };
  for (const auto& c : cases) {
    const std::string first = MustQuery(*edition_, c.quantified);
    EXPECT_EQ(first, MustQuery(*edition_, c.expected)) << c.quantified;
    EXPECT_EQ(first, MustQuery(*edition_, c.quantified)) << c.quantified;
  }
}

// --- analyze-string in loop bodies -----------------------------------------

// The paper's hottest body shape (scenario II): analyze-string inside a
// `for`, leaf() steps over the temporary hierarchy, xancestor reads of the
// match elements. Each binding evaluates in its own forked view.
static const char* kAnalyzeStringForBody =
    "for $w in /descendant::w[matches(string(.), '.*ea.*')] return ("
    "  let $r := analyze-string($w, '.*ea.*')"
    "  return"
    "    for $leaf in $r/descendant::leaf()"
    "    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf"
    "  , <br/> )";

TEST_F(ParallelQueryTest, AnalyzeStringForBodyByteIdenticalAcrossThreads) {
  const std::string first = MustQuery(*edition_, kAnalyzeStringForBody);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("<b>"), std::string::npos);
  EXPECT_EQ(MustQuery(*edition_, kAnalyzeStringForBody), first);
}

TEST_F(ParallelQueryTest, BindingIsolationIsThreadCountInvariant) {
  // A body that reads temporaries through an absolute extended-axis path
  // — the shape that would observe sibling bindings' trees if any leaked.
  // Under the binding scoping rule every iteration sees only its own
  // analyze-string tree (plus enclosing-scope temporaries), so each
  // binding's count is its own match count — what a descendant step from
  // its own result wrapper counts. A leak would make the counts grow along
  // the loop.
  const char* query =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return "
      "(let $r := analyze-string($w, '.*e.*') return "
      "<c>{count(/xdescendant::m)}</c>)";
  const char* own_counts =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return "
      "<c>{count(analyze-string($w, '.*e.*')/descendant::m)}</c>";
  const std::string out = MustQuery(*edition_, query);
  EXPECT_EQ(out.substr(0, 8), "<c>1</c>");  // first binding: own tree only
  EXPECT_EQ(out, MustQuery(*edition_, own_counts));
}

TEST_F(ParallelQueryTest, PaperQueryII1ByteIdenticalAcrossThreads) {
  const std::string first = MustQuery(*paper_, workload::kQueryII1);
  EXPECT_EQ(CoalesceRuns(first), workload::kExpectedII1Coalesced);
  EXPECT_EQ(MustQuery(*paper_, workload::kQueryII1), first);
}

TEST_F(ParallelQueryTest, LoopBindingOverlaysReachPostLoopStepsInBindingOrder) {
  // Every binding's overlay survives the loop-exit merge: the steps after
  // the loop see one result wrapper per binding.
  const std::string bindings = MustQuery(
      *edition_, "count(/descendant::w[matches(string(.), '.*ea.*')])");
  ASSERT_GT(std::stoul(bindings), 1u);
  const char* wrappers =
      "let $r := (for $w in /descendant::w[matches(string(.), '.*ea.*')]"
      " return analyze-string($w, '.*ea.*')) return "
      "count(/xdescendant::analyze-string-result)";
  EXPECT_EQ(MustQuery(*edition_, wrappers), bindings);
  // Two bindings analyse the same word, so their wrappers and <m>s have
  // equal ranges and document order falls back to overlay ids: the
  // post-loop step lists them in binding order.
  auto in_order = [this](const std::string& patterns) {
    return MustQuery(
        *paper_,
        "let $w := /descendant::w[string(.) = 'sceaft'] return "
        "let $r := (for $p in (" + patterns + ") return "
        "analyze-string($w, $p)) return "
        "for $a in $w/xdescendant::analyze-string-result "
        "return name($a/child::m/child::*)");
  };
  EXPECT_EQ(in_order("'sc<x>e</x>aft', 'sc<y>e</y>aft'"), "xy");
  EXPECT_EQ(in_order("'sc<y>e</y>aft', 'sc<x>e</x>aft'"), "yx");
}

// --- loop errors and quantifier deciders -----------------------------------

TEST_F(ParallelQueryTest, ErrorsSurfaceFromParallelIterations) {
  // $undefined errors in every iteration; the first one surfaces, and
  // again on a second evaluation.
  const char* query = "for $w in /descendant::w return $undefined";
  auto first = edition_->Query(query);
  auto again = edition_->Query(query);
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(again.ok());
  EXPECT_NE(first.status().message().find("undefined variable $undefined"),
            std::string::npos)
      << first.status();
  EXPECT_EQ(first.status().code(), again.status().code());
  EXPECT_EQ(first.status().message(), again.status().message());
}

// The first token of a loop that tags each word with the outcome its
// binding would have — which binding decides, in document order.
std::string FirstTag(const MultihierarchicalDocument& doc,
                     const std::string& tagging_query) {
  auto out = doc.Query(tagging_query);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? out->substr(0, out->find(' ')) : "<error>";
}

TEST_F(ParallelQueryTest, MidSequenceErrorKeepsLowestBindingPrecedence) {
  // Only some bindings fail, at three distinct error sites ($first for
  // '.*ea.*' words, $second for other '.*o.*' words, $last for the last
  // word): the reported error is the lowest-indexed failing binding's —
  // whichever site that is in document order — never a later one's.
  const char* query =
      "for $w in /descendant::w return "
      "if (count($w/following::w) = 0) then $last "
      "else if (matches(string($w), '.*ea.*')) then $first "
      "else if (matches(string($w), '.*o.*')) then $second "
      "else string-length(string($w))";
  const std::string tags =
      MustQuery(*edition_,
                "for $w in /descendant::w return "
                "if (count($w/following::w) = 0) then 'last ' "
                "else if (matches(string($w), '.*ea.*')) then 'first ' "
                "else if (matches(string($w), '.*o.*')) then 'second ' "
                "else ''");
  // The edition has both kinds of words, ahead of the last one.
  ASSERT_NE(tags.find("first"), std::string::npos);
  ASSERT_NE(tags.find("second"), std::string::npos);
  const std::string winner = tags.substr(0, tags.find(' '));
  ASSERT_NE(winner, "last");
  auto out = edition_->Query(query);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("undefined variable $" + winner),
            std::string::npos)
      << out.status();
}

TEST_F(ParallelQueryTest, QuantifierEventPrecedenceMatchesSerialExactly) {
  // Deciders and errors at different binding indices: the quantifier
  // returns exactly what its lowest-indexed deciding-or-failing binding
  // decided, and never evaluates a binding past it.
  //
  // Decider (length > 0) at binding 0 precedes every '.*ea.*' error
  // binding: true, never the later error.
  EXPECT_EQ(MustQuery(*edition_,
                      "some $w in /descendant::w satisfies "
                      "(if (matches(string($w), '.*ea.*')) then $boom "
                      "else string-length(string($w)) > 0)"),
            "true");
  // No decider exists (every length > 0 holds), so the first '.*ea.*'
  // binding's error is the event.
  auto every = edition_->Query(
      "every $w in /descendant::w satisfies "
      "(if (matches(string($w), '.*ea.*')) then $boom "
      "else string-length(string($w)) > 0)");
  ASSERT_FALSE(every.ok());
  EXPECT_NE(every.status().message().find("undefined variable $boom"),
            std::string::npos)
      << every.status();
  // Error site vs. deciders: whichever comes first in binding order wins.
  const std::string winner =
      FirstTag(*edition_,
               "for $w in /descendant::w return "
               "if (matches(string($w), '.*o.*')) then 'error ' "
               "else if (string-length(string($w)) > 8) then 'true ' "
               "else ''");
  auto some = edition_->Query(
      "some $w in /descendant::w satisfies "
      "(if (matches(string($w), '.*o.*')) then $oops "
      "else string-length(string($w)) > 8)");
  if (winner == "error") {
    ASSERT_FALSE(some.ok());
    EXPECT_NE(some.status().message().find("undefined variable $oops"),
              std::string::npos)
        << some.status();
  } else {
    ASSERT_TRUE(some.ok()) << some.status();
    EXPECT_EQ(*some, winner.empty() ? "false" : "true");
  }
}

// --- concurrent doc->Query() ----------------------------------------------

TEST_F(ParallelQueryTest, ConcurrentQueriesOnOneDocument) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &failures] {
      for (int i = 0; i < kIterations; ++i) {
        auto out = paper_->Query(workload::kQueryI1);
        if (!out.ok() || *out != workload::kExpectedI1) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParallelQueryTest, ConcurrentSafeAndTemporaryCreatingQueries) {
  // Plain readers race an analyze-string query; with evaluation-scoped
  // overlays both run truly concurrently, must keep producing their pinned
  // outputs, and no temporaries may leak.
  constexpr int kIterations = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &failures] {
      for (int i = 0; i < kIterations; ++i) {
        auto out = paper_->Query(workload::kQueryI1);
        if (!out.ok() || *out != workload::kExpectedI1) ++failures;
      }
    });
  }
  threads.emplace_back([this, &failures] {
    for (int i = 0; i < kIterations; ++i) {
      auto out = paper_->Query(workload::kQueryII1);
      if (!out.ok()) ++failures;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- ordering guarantees ---------------------------------------------------

// The shared axis battery: every axis (standard, extended, and the leaf()
// node test), evaluated from many context nodes so the cross-context merge
// runs — and so every planner strategy choice gets exercised.
constexpr const char* kAxisBatteryQueries[] = {
    "/descendant::w/self::w",
    "/descendant::line/child::*",
    "/descendant::w/parent::s",
    "/descendant::s/descendant::w",
    "/descendant::s/descendant-or-self::*",
    "/descendant::w/ancestor::*",
    "/descendant::w/ancestor-or-self::*",
    "/descendant::w/following-sibling::w",
    "/descendant::w/preceding-sibling::w",
    "/descendant::w/following::w",
    "/descendant::w/preceding::w",
    "/descendant::w/xancestor::line",
    "/descendant::line/xdescendant::w",
    "/descendant::w/overlapping::line",
    "/descendant::w/xfollowing::dmg",
    "/descendant::w/xpreceding::res",
    "/descendant::line/descendant::leaf()",
    "/descendant::w/descendant::leaf()/ancestor::line",
    "/descendant::dmg/xdescendant::w/xancestor::line",
    // Context sets whose union collapses to a few covering contexts.
    "/descendant::dmg/xfollowing::w",
    "/descendant::res/xpreceding::line",
    "/descendant::line/following::line",
    "/descendant::dmg/preceding::*",
    "/descendant::s/xdescendant::*",
    "/descendant::w/xdescendant::*",
    "/descendant::*/descendant::leaf()",
};

// Checks one path's count and item listing against the oracle.
void ExpectMatchesOracle(const MultihierarchicalDocument& doc,
                         std::string_view path) {
  const auto snapshot = doc.PinSnapshot();
  auto oracle = oracle::Oracle::Create(snapshot->goddag());
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto expected = oracle->Evaluate(path);
  ASSERT_TRUE(expected.ok()) << path << "\n" << expected.status();
  auto count = doc.Query("count(" + std::string(path) + ")");
  ASSERT_TRUE(count.ok()) << path << "\n" << count.status();
  EXPECT_EQ(*count, std::to_string(expected->size())) << path;
  auto listing = doc.Query(oracle::ListingQuery(path));
  ASSERT_TRUE(listing.ok()) << path << "\n" << listing.status();
  EXPECT_EQ(*listing, oracle->Listing(*expected)) << path;
}

// The guarantee-driven path must match the brute-force step interpreter.
TEST_F(ParallelQueryTest, GuaranteeDrivenMergeMatchesBruteForcePerAxis) {
  for (const char* query : kAxisBatteryQueries) {
    ExpectMatchesOracle(*edition_, query);
  }
}

// Predicates over a step taken from many contexts. A predicate whose
// verdict depends on its item alone keeps exactly the oracle union's items
// that pass it — whether it filters each context's run (a path predicate)
// or the union once (a statically boolean one). A positional predicate
// keeps per-context semantics: every word contributes its own first
// xfollowing dmg.
TEST_F(ParallelQueryTest, SetStepPredicatesMatchReferenceFilters) {
  const auto snapshot = edition_->PinSnapshot();
  auto oracle = oracle::Oracle::Create(snapshot->goddag());
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto size_of = [&](const char* path) {
    auto items = oracle->Evaluate(path);
    EXPECT_TRUE(items.ok()) << path << "\n" << items.status();
    return items.ok() ? items->size() : 0;
  };
  // Non-vacuous: the filter drops some items, and the positional test
  // keeps more than a union-wide [1] would.
  const size_t unfiltered = size_of("/descendant::w/xfollowing::dmg");
  const size_t containing_w =
      size_of("/descendant::w/xfollowing::dmg[xdescendant::w]");
  ASSERT_LT(containing_w, unfiltered);
  ASSERT_GT(containing_w, 0u);
  ASSERT_GT(size_of("/descendant::w/xfollowing::dmg[1]"), 1u);

  // count(...) > 0 is the statically boolean form of the path predicate.
  EXPECT_EQ(
      MustQuery(*edition_, "count(/descendant::w/xfollowing::dmg"
                           "[count(xdescendant::w) > 0])"),
      std::to_string(containing_w));
  for (const char* path :
       {"/descendant::w/xfollowing::dmg[xdescendant::w]",
        "/descendant::w/xfollowing::dmg[not(xdescendant::w)]",
        "/descendant::w/xfollowing::dmg[1]"}) {
    ExpectMatchesOracle(*edition_, path);
  }
}

TEST_F(ParallelQueryTest, LeafScanSkipsSorts) {
  const size_t before = edition_->engine()->sorts_skipped();
  auto out = edition_->Query("count(/descendant::leaf())");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(edition_->engine()->sorts_skipped(), before);
}

}  // namespace
}  // namespace mhx::xquery
