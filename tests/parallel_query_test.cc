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
//  * the guarantee-driven step merge equals a test-side step interpreter
//    that sort+dedups after every step, for every axis;
//  * every plan mode (kAuto / kForceNaive / kForceIndexed) matches that
//    interpreter across the axis battery, and the pinned Section 4
//    outputs — plans move cost, never results.
//
// Several test names still say "threads" or "parallel": they are kept so
// the test ids stay stable, and each now pins the serial semantics the
// old thread-count comparison was checking against.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "document.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xml/parser.h"
#include "xpath/axes.h"
#include "xquery/parser.h"
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
  // No temporaries may leak, and overlay churn never rebuilds the base
  // index.
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(edition_->engine()->index_rebuild_count(), 1u);
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

TEST_F(ParallelQueryTest, KeptTemporariesFromWorkerSubOverlaysSurviveMerge) {
  // A loop that keeps its temporaries: every binding's overlay must
  // survive the loop-exit merge into the kept registry, in binding order,
  // and a second keeping evaluation keeps exactly as many.
  const char* query =
      "for $w in /descendant::w[matches(string(.), '.*ea.*')] return "
      "count(analyze-string($w, '.*ea.*')/descendant::leaf())";
  const size_t bindings = std::stoul(MustQuery(
      *edition_, "count(/descendant::w[matches(string(.), '.*ea.*')])"));
  auto first = edition_->engine()->EvaluateKeepingTemporaries(query);
  ASSERT_TRUE(first.ok()) << first.status();
  const size_t kept_first = first->temporaries.hierarchy_count();
  ASSERT_GT(kept_first, 1u);  // many bindings, one overlay each
  EXPECT_EQ(kept_first, bindings);
  first->temporaries.Release();
  ASSERT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);

  auto again = edition_->engine()->EvaluateKeepingTemporaries(query);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->items, first->items);
  EXPECT_EQ(again->temporaries.hierarchy_count(), kept_first);
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), kept_first);
  // The kept overlays are live: later evaluations see their match
  // elements on extended axes.
  auto m_count = edition_->Query("count(/descendant::w/xancestor::m)");
  ASSERT_TRUE(m_count.ok()) << m_count.status();
  EXPECT_NE(*m_count, "0");
  again->temporaries.Release();
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);
  auto m_count_after = edition_->Query("count(/descendant::w/xancestor::m)");
  ASSERT_TRUE(m_count_after.ok()) << m_count_after.status();
  EXPECT_EQ(*m_count_after, "0");
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
  EXPECT_EQ(paper_->engine()->temporary_hierarchy_count(), 0u);
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

// --- the test-side step interpreter ---------------------------------------

// One item of a reference evaluation: a node, or a leaf cell (node =
// kInvalidNode) identified by its range.
struct RefItem {
  goddag::NodeId node;
  TextRange range;
};

// Document order over mixed node/leaf items: begin ascending, longer range
// first, a node before the leaf sharing its range, NodeId last.
auto RefOrderKey(const RefItem& item) {
  const bool leaf = item.node == goddag::kInvalidNode;
  return std::make_tuple(item.range.begin, ~item.range.end, leaf, item.node);
}

// Evaluates an absolute path of `axis::test` steps (test: a name, `*`, or
// `leaf()`) one step at a time, with brute-force step semantics: the
// context items' results are concatenated, then sorted into document order
// and deduplicated after every step — no ordering guarantee is relied on.
// Node contexts step through the public AxisEvaluator; leaf() steps and
// leaf contexts read the snapshot's leaf partition and node table. Covers
// the step shapes kAxisBatteryQueries uses.
std::vector<RefItem> ReferencePath(const goddag::DocumentSnapshot& snapshot,
                                   std::string_view path) {
  const goddag::KyGoddag& kg = snapshot.goddag();
  const xpath::AxisEvaluator axes(&snapshot);
  const goddag::OverlayView base(&kg);
  std::vector<RefItem> current = {{kg.root(), kg.node(kg.root()).range}};
  while (!path.empty()) {
    path.remove_prefix(1);  // the '/'
    const std::string_view step = path.substr(0, path.find('/'));
    path.remove_prefix(step.size());
    const size_t colons = step.find("::");
    auto axis = xpath::AxisFromName(step.substr(0, colons));
    EXPECT_TRUE(axis.ok()) << step;
    if (!axis.ok()) return {};
    const std::string_view test = step.substr(colons + 2);
    std::vector<RefItem> next;
    for (const RefItem& item : current) {
      const bool from_leaf = item.node == goddag::kInvalidNode;
      if (test == "leaf()") {
        EXPECT_TRUE(!from_leaf && *axis == xpath::Axis::kDescendant) << step;
        for (const goddag::Leaf& leaf : kg.leaves()) {
          if (item.range.Contains(leaf.range)) {
            next.push_back({goddag::kInvalidNode, leaf.range});
          }
        }
        continue;
      }
      std::vector<goddag::NodeId> ids;
      if (from_leaf) {
        // A leaf lies in every hierarchy: its ancestors are the elements
        // whose range contains it.
        EXPECT_EQ(*axis, xpath::Axis::kAncestor) << step;
        for (goddag::NodeId id = 0; id < kg.node_table_size(); ++id) {
          if (kg.node(id).kind == goddag::GNodeKind::kElement &&
              kg.node(id).range.Contains(item.range)) {
            ids.push_back(id);
          }
        }
      } else {
        ids = axes.EvaluatePlanned(base, item.node, *axis,
                                   xpath::NodeTest::Any());
      }
      for (goddag::NodeId id : ids) {
        const goddag::GNode& node = kg.node(id);
        if (node.kind != goddag::GNodeKind::kElement) continue;
        if (test == "*" || node.name == test) next.push_back({id, node.range});
      }
    }
    std::sort(next.begin(), next.end(),
              [](const RefItem& a, const RefItem& b) {
                return RefOrderKey(a) < RefOrderKey(b);
              });
    next.erase(std::unique(next.begin(), next.end(),
                           [](const RefItem& a, const RefItem& b) {
                             return RefOrderKey(a) == RefOrderKey(b);
                           }),
               next.end());
    current = std::move(next);
  }
  return current;
}

// The query whose output exposes a path result's order and duplicates
// item by item, and the reference rendering of the same.
std::string ListingQuery(std::string_view path) {
  return "for $n in " + std::string(path) +
         " return (name($n), '[', string($n), ']')";
}

std::string ReferenceListing(const goddag::DocumentSnapshot& snapshot,
                             const std::vector<RefItem>& items) {
  const goddag::KyGoddag& kg = snapshot.goddag();
  std::string out;
  for (const RefItem& item : items) {
    if (item.node != goddag::kInvalidNode) out += kg.node(item.node).name;
    out += "[" +
           xml::EscapeText(kg.base_text().substr(item.range.begin,
                                                 item.range.length())) +
           "]";
  }
  return out;
}

// Checks one battery path's count and item listing against the reference.
void ExpectMatchesReference(const MultihierarchicalDocument& doc,
                            std::string_view path,
                            const QueryOptions& options) {
  const auto snapshot = doc.PinSnapshot();
  const std::vector<RefItem> expected = ReferencePath(*snapshot, path);
  const std::string label = std::string(path) + "\nplan mode " +
                            std::string(PlanModeName(options.plan_mode));
  auto count = doc.Query("count(" + std::string(path) + ")", options);
  ASSERT_TRUE(count.ok()) << label << "\n" << count.status();
  EXPECT_EQ(*count, std::to_string(expected.size())) << label;
  auto listing = doc.Query(ListingQuery(path), options);
  ASSERT_TRUE(listing.ok()) << label << "\n" << listing.status();
  EXPECT_EQ(*listing, ReferenceListing(*snapshot, expected)) << label;
}

// The guarantee-driven path must match the brute-force step interpreter.
TEST_F(ParallelQueryTest, GuaranteeDrivenMergeMatchesBruteForcePerAxis) {
  for (const char* query : kAxisBatteryQueries) {
    ExpectMatchesReference(*edition_, query, QueryOptions());
  }
}

// The planner's byte-identity contract: every plan mode — the cost-based
// kAuto and both forced strategies — matches the reference for the whole
// axis battery, and all of them serialise the bare path identically. A
// plan is allowed to move cost, never results.
TEST_F(ParallelQueryTest, PlanModesByteIdenticalAcrossAxesAndThreads) {
  const PlanMode modes[] = {PlanMode::kAuto, PlanMode::kForceNaive,
                            PlanMode::kForceIndexed};
  for (const char* query : kAxisBatteryQueries) {
    const std::string baseline = MustQuery(*edition_, query, QueryOptions());
    for (PlanMode mode : modes) {
      QueryOptions options;
      options.plan_mode = mode;
      ExpectMatchesReference(*edition_, query, options);
      EXPECT_EQ(MustQuery(*edition_, query, options), baseline)
          << query << "\nplan mode " << PlanModeName(mode);
    }
  }
}

// Same contract on the paper's Section 4 queries: every plan mode must
// reproduce the published outputs exactly.
TEST_F(ParallelQueryTest, Section4QueriesPlanModeInvariantAcrossThreads) {
  struct Pinned {
    const char* query;
    const char* expected;
    bool coalesce;
  };
  const Pinned kPinned[] = {
      {workload::kQueryI1, workload::kExpectedI1, false},
      {workload::kQueryI2, workload::kExpectedI2, false},
      {workload::kQueryII1, workload::kExpectedII1Coalesced, true},
      {workload::kQueryIII1Intent, workload::kExpectedIII1IntentCoalesced,
       true},
  };
  for (const Pinned& p : kPinned) {
    for (PlanMode mode :
         {PlanMode::kAuto, PlanMode::kForceNaive, PlanMode::kForceIndexed}) {
      QueryOptions options;
      options.plan_mode = mode;
      const std::string out = MustQuery(*paper_, p.query, options);
      EXPECT_EQ(p.coalesce ? CoalesceRuns(out) : out, p.expected)
          << p.query << "\nplan mode " << PlanModeName(mode);
    }
  }
}

// Predicates over a step taken from many contexts. A predicate whose
// verdict depends on its item alone keeps exactly the reference union's
// items that pass it — whether it filters each context's run (a path
// predicate) or the union once (a statically boolean one). A positional
// predicate keeps per-context semantics: every word contributes its own
// first xfollowing dmg.
TEST_F(ParallelQueryTest, SetStepPredicatesMatchReferenceFilters) {
  const auto snapshot = edition_->PinSnapshot();
  const goddag::KyGoddag& kg = snapshot->goddag();
  const xpath::AxisEvaluator axes(snapshot.get());
  const goddag::OverlayView base(&kg);
  const std::vector<RefItem> unfiltered =
      ReferencePath(*snapshot, "/descendant::w/xfollowing::dmg");
  std::vector<RefItem> containing_w;
  for (const RefItem& item : unfiltered) {
    if (!axes.EvaluatePlanned(base, item.node, xpath::Axis::kXDescendant,
                              xpath::NodeTest::Name("w"))
             .empty()) {
      containing_w.push_back(item);
    }
  }
  std::vector<RefItem> first_per_word;
  for (const RefItem& word : ReferencePath(*snapshot, "/descendant::w")) {
    const std::vector<goddag::NodeId> hits =
        axes.EvaluatePlanned(base, word.node, xpath::Axis::kXFollowing,
                             xpath::NodeTest::Name("dmg"));
    if (!hits.empty()) {
      first_per_word.push_back({hits[0], kg.node(hits[0]).range});
    }
  }
  std::sort(first_per_word.begin(), first_per_word.end(),
            [](const RefItem& a, const RefItem& b) {
              return RefOrderKey(a) < RefOrderKey(b);
            });
  first_per_word.erase(
      std::unique(first_per_word.begin(), first_per_word.end(),
                  [](const RefItem& a, const RefItem& b) {
                    return a.node == b.node;
                  }),
      first_per_word.end());
  // Non-vacuous: the filter drops some items, and the positional test
  // keeps more than a union-wide [1] would.
  ASSERT_LT(containing_w.size(), unfiltered.size());
  ASSERT_FALSE(containing_w.empty());
  ASSERT_GT(first_per_word.size(), 1u);

  const std::pair<const char*, const std::vector<RefItem>*> kCases[] = {
      {"/descendant::w/xfollowing::dmg[xdescendant::w]", &containing_w},
      {"/descendant::w/xfollowing::dmg[count(xdescendant::w) > 0]",
       &containing_w},
      {"/descendant::w/xfollowing::dmg[1]", &first_per_word},
  };
  for (const auto& [path, expected] : kCases) {
    for (PlanMode mode :
         {PlanMode::kAuto, PlanMode::kForceNaive, PlanMode::kForceIndexed}) {
      QueryOptions options;
      options.plan_mode = mode;
      const std::string label = std::string(path) + "\nplan mode " +
                                std::string(PlanModeName(mode));
      EXPECT_EQ(MustQuery(*edition_, "count(" + std::string(path) + ")",
                          options),
                std::to_string(expected->size()))
          << label;
      EXPECT_EQ(MustQuery(*edition_, ListingQuery(path), options),
                ReferenceListing(*snapshot, *expected))
          << label;
    }
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
