// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The parallel-evaluation and ordering-guarantee contracts:
//  * QueryOptions{threads} results are byte-identical to serial evaluation,
//    on the paper's Section 4 queries and on synthetic editions;
//  * IsParallelSafe classifies side-effecting subtrees correctly;
//  * concurrent doc->Query() calls on one document are safe;
//  * the guarantee-driven step merge equals a test-side step interpreter
//    that sort+dedups after every step, for every axis;
//  * every plan mode (kAuto / kForceNaive / kForceIndexed) matches that
//    interpreter across the axis battery, and the pinned Section 4
//    outputs, at threads {1, 4, 8} — plans move cost, never results.

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
#include "xquery/ast.h"
#include "xquery/parser.h"
#include "xquery/serialize.h"

namespace mhx::xquery {
namespace {

QueryOptions Threads(unsigned n) {
  QueryOptions options;
  options.threads = n;
  return options;
}

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
                               const QueryOptions& options) {
    auto out = doc.Query(query, options);
    EXPECT_TRUE(out.ok()) << query << "\n" << out.status();
    return out.ok() ? *out : "<error>";
  }

  std::unique_ptr<MultihierarchicalDocument> paper_;
  std::unique_ptr<MultihierarchicalDocument> edition_;
};

// --- parallel == serial ----------------------------------------------------

TEST_F(ParallelQueryTest, Section4QueriesByteIdenticalWithFourThreads) {
  const char* queries[] = {workload::kQueryI1, workload::kQueryI2,
                           workload::kQueryII1, workload::kQueryIII1Intent};
  for (const char* query : queries) {
    EXPECT_EQ(MustQuery(*paper_, query, Threads(1)),
              MustQuery(*paper_, query, Threads(4)))
        << query;
  }
}

TEST_F(ParallelQueryTest, EditionFlworByteIdenticalAndActuallyParallel) {
  const char* query =
      "for $w in /descendant::w return <l>{string-length(string($w))}</l>";
  const std::string serial = MustQuery(*edition_, query, Threads(1));
  const size_t tasks_before = edition_->engine()->parallel_tasks();
  EXPECT_EQ(serial, MustQuery(*edition_, query, Threads(4)));
  // The body is parallel-safe and binds many words: the fan-out must have
  // actually dispatched tasks, not silently fallen back to serial.
  EXPECT_GT(edition_->engine()->parallel_tasks(), tasks_before);
}

// threads: 0 and 1 are the same request — serial evaluation. All three
// spellings (0, 1, default) must produce the same output through the same
// plan: no pool tasks dispatched, identical sort-skip behaviour.
TEST_F(ParallelQueryTest, ThreadsZeroOneAndDefaultShareTheSerialPath) {
  const char* query =
      "for $w in /descendant::w return <l>{string-length(string($w))}</l>";
  // Prime the prepared-query cache so every measured run is evaluation only.
  const std::string expected = MustQuery(*edition_, query, QueryOptions());
  struct Plan {
    size_t tasks;
    size_t skips;
  };
  auto run = [&](const QueryOptions& options) {
    const size_t tasks_before = edition_->engine()->parallel_tasks();
    const size_t skips_before = edition_->engine()->sorts_skipped();
    EXPECT_EQ(MustQuery(*edition_, query, options), expected)
        << "threads=" << options.threads;
    return Plan{edition_->engine()->parallel_tasks() - tasks_before,
                edition_->engine()->sorts_skipped() - skips_before};
  };
  const Plan by_default = run(QueryOptions());
  const Plan zero = run(Threads(0));
  const Plan one = run(Threads(1));
  // Serial path: nothing dispatched to the pool under any spelling...
  EXPECT_EQ(by_default.tasks, 0u);
  EXPECT_EQ(zero.tasks, 0u);
  EXPECT_EQ(one.tasks, 0u);
  // ...and the same step plan (sort skips are a per-evaluation constant on
  // the serial path).
  EXPECT_EQ(zero.skips, by_default.skips);
  EXPECT_EQ(one.skips, by_default.skips);
}

TEST_F(ParallelQueryTest, QuantifiersByteIdenticalWithFourThreads) {
  const char* queries[] = {
      "count(/descendant::line[some $w in xdescendant::w satisfies "
      "string-length(string($w)) > 10])",
      "count(/descendant::line[every $w in xdescendant::w satisfies "
      "string-length(string($w)) > 1])",
      "some $w in /descendant::w satisfies matches(string($w), 'ea')",
      "every $w in /descendant::w satisfies string-length(string($w)) > 0",
  };
  for (const char* query : queries) {
    EXPECT_EQ(MustQuery(*edition_, query, Threads(1)),
              MustQuery(*edition_, query, Threads(4)))
        << query;
  }
}

// --- intra-query parallel analyze-string -----------------------------------

// The paper's hottest body shape (scenario II): analyze-string inside a
// `for`, leaf() steps over the temporary hierarchy, xancestor reads of the
// match elements. Workers evaluate it in private sub-overlays merged at
// join — output must be byte-identical to serial at every width.
static const char* kAnalyzeStringForBody =
    "for $w in /descendant::w[matches(string(.), '.*ea.*')] return ("
    "  let $r := analyze-string($w, '.*ea.*')"
    "  return"
    "    for $leaf in $r/descendant::leaf()"
    "    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf"
    "  , <br/> )";

TEST_F(ParallelQueryTest, AnalyzeStringForBodyByteIdenticalAcrossThreads) {
  const std::string serial =
      MustQuery(*edition_, kAnalyzeStringForBody, Threads(1));
  ASSERT_FALSE(serial.empty());
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, MustQuery(*edition_, kAnalyzeStringForBody,
                                Threads(threads)))
        << "threads=" << threads;
  }
  // No temporaries may leak from any width, and overlay churn never
  // rebuilds the base index.
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(edition_->engine()->index_rebuild_count(), 1u);
}

TEST_F(ParallelQueryTest, AnalyzeStringForBodyActuallyFansOut) {
  // Prime the query cache, then prove the parallel run dispatched helper
  // tasks instead of silently falling back to the serial loop (the old
  // IsParallelSafe rejected analyze-string bodies outright).
  const std::string serial =
      MustQuery(*edition_, kAnalyzeStringForBody, Threads(1));
  const size_t tasks_before = edition_->engine()->parallel_tasks();
  EXPECT_EQ(serial, MustQuery(*edition_, kAnalyzeStringForBody, Threads(4)));
  EXPECT_GT(edition_->engine()->parallel_tasks(), tasks_before);
}

TEST_F(ParallelQueryTest, BindingIsolationIsThreadCountInvariant) {
  // A body that reads temporaries through an absolute extended-axis path
  // — the shape that would observe sibling bindings' trees if any leaked.
  // Under the binding scoping rule every iteration sees only its own
  // analyze-string tree (plus enclosing-scope temporaries), serial and
  // parallel alike, so the count per binding is that binding's own match
  // count and the output is identical at every width. (The serial loop
  // formerly accumulated temporaries across bindings, making output
  // thread-count dependent.)
  const char* query =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return "
      "(let $r := analyze-string($w, '.*e.*') return "
      "<c>{count(/xdescendant::m)}</c>)";
  const std::string serial = MustQuery(*edition_, query, Threads(1));
  EXPECT_EQ(serial.substr(0, 8), "<c>1</c>");  // first binding: own tree only
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, MustQuery(*edition_, query, Threads(threads)))
        << "threads=" << threads;
  }
}

TEST_F(ParallelQueryTest, PaperQueryII1ByteIdenticalAcrossThreads) {
  const std::string serial =
      MustQuery(*paper_, workload::kQueryII1, Threads(1));
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(serial,
              MustQuery(*paper_, workload::kQueryII1, Threads(threads)))
        << "threads=" << threads;
  }
}

TEST_F(ParallelQueryTest, KeptTemporariesFromWorkerSubOverlaysSurviveMerge) {
  // A parallel loop that keeps its temporaries: every worker-created
  // overlay must survive the join into the kept registry, in binding
  // order, exactly as the serial evaluation keeps them.
  const char* query =
      "for $w in /descendant::w[matches(string(.), '.*ea.*')] return "
      "count(analyze-string($w, '.*ea.*')/descendant::leaf())";
  auto serial = edition_->engine()->EvaluateKeepingTemporaries(query);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const size_t kept_serial = serial->temporaries.hierarchy_count();
  ASSERT_GT(kept_serial, 1u);  // many bindings, one overlay each
  serial->temporaries.Release();
  ASSERT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);

  QueryOptions four;
  four.threads = 4;
  auto parallel =
      edition_->engine()->EvaluateKeepingTemporaries(query, four);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->items, serial->items);
  EXPECT_EQ(parallel->temporaries.hierarchy_count(), kept_serial);
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), kept_serial);
  // The kept worker overlays are live: later evaluations see their match
  // elements on extended axes.
  auto m_count = edition_->Query("count(/descendant::w/xancestor::m)");
  ASSERT_TRUE(m_count.ok()) << m_count.status();
  EXPECT_NE(*m_count, "0");
  parallel->temporaries.Release();
  EXPECT_EQ(edition_->engine()->temporary_hierarchy_count(), 0u);
  auto m_count_after = edition_->Query("count(/descendant::w/xancestor::m)");
  ASSERT_TRUE(m_count_after.ok()) << m_count_after.status();
  EXPECT_EQ(*m_count_after, "0");
}

TEST_F(ParallelQueryTest, ErrorsSurfaceFromParallelIterations) {
  // $undefined errors in every iteration; parallel evaluation must report
  // the same status an all-serial run does.
  const char* query = "for $w in /descendant::w return $undefined";
  auto serial = edition_->Query(query, Threads(1));
  auto parallel = edition_->Query(query, Threads(4));
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().code(), parallel.status().code());
  EXPECT_EQ(serial.status().message(), parallel.status().message());
}

TEST_F(ParallelQueryTest, MidSequenceErrorKeepsLowestBindingPrecedence) {
  // Only some bindings fail, at two distinct error sites ($first for
  // '.*ea.*' words, $second for other '.*o.*' words): the error the join
  // reports must be the lowest-indexed failing binding's — whichever site
  // that is in document order — not whichever slot recorded its event
  // first under work-stealing.
  const char* query =
      "for $w in /descendant::w return "
      "if (matches(string($w), '.*ea.*')) then $first "
      "else if (matches(string($w), '.*o.*')) then $second "
      "else string-length(string($w))";
  auto serial = edition_->Query(query, Threads(1));
  ASSERT_FALSE(serial.ok());  // the edition has both kinds of words
  for (unsigned threads : {2u, 4u, 8u}) {
    auto parallel = edition_->Query(query, Threads(threads));
    ASSERT_FALSE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel.status().code(), serial.status().code());
    EXPECT_EQ(parallel.status().message(), serial.status().message())
        << "threads=" << threads;
  }
}

TEST_F(ParallelQueryTest, QuantifierEventPrecedenceMatchesSerialExactly) {
  // Deciders racing errors at different binding indices: the join must
  // return exactly what the serial walk returns — the lowest-indexed
  // deciding-or-failing binding wins, speculative later events are
  // discarded.
  const char* queries[] = {
      // Decider (length > 0, binding 0) precedes the '.*ea.*' error
      // bindings: must return true, never the speculative error.
      "some $w in /descendant::w satisfies "
      "(if (matches(string($w), '.*ea.*')) then $boom "
      "else string-length(string($w)) > 0)",
      // No decider exists (every length > 0 holds), so the first '.*ea.*'
      // binding's error is the event: must error, with its message.
      "every $w in /descendant::w satisfies "
      "(if (matches(string($w), '.*ea.*')) then $boom "
      "else string-length(string($w)) > 0)",
      // Error site before most deciders: whichever comes first in binding
      // order wins; serial defines it.
      "some $w in /descendant::w satisfies "
      "(if (matches(string($w), '.*o.*')) then $oops "
      "else string-length(string($w)) > 8)",
  };
  for (const char* query : queries) {
    auto serial = edition_->Query(query, Threads(1));
    for (unsigned threads : {2u, 4u, 8u}) {
      auto parallel = edition_->Query(query, Threads(threads));
      ASSERT_EQ(parallel.ok(), serial.ok())
          << query << "\nthreads=" << threads;
      if (serial.ok()) {
        EXPECT_EQ(*parallel, *serial) << query << "\nthreads=" << threads;
      } else {
        EXPECT_EQ(parallel.status().code(), serial.status().code());
        EXPECT_EQ(parallel.status().message(), serial.status().message())
            << query << "\nthreads=" << threads;
      }
    }
  }
}

// --- IsParallelSafe --------------------------------------------------------

// The classification is table-driven: this test pins every built-in's row,
// so adding a function without deciding its parallel safety — or silently
// flipping one — fails here first.
TEST(IsParallelSafeTest, PinsEveryBuiltinClassification) {
  struct Expected {
    std::string_view name;
    bool parallel_safe;
  };
  // analyze-string is safe because workers materialise temporaries into
  // private sub-overlay namespaces merged at join; everything else is a
  // pure value function.
  const Expected expected[] = {
      {"string", true},  {"string-length", true},
      {"count", true},   {"name", true},
      {"not", true},     {"true", true},
      {"false", true},   {"matches", true},
      {"analyze-string", true},
  };
  const auto& table = BuiltinFunctions();
  ASSERT_EQ(table.size(), std::size(expected));
  for (const Expected& e : expected) {
    const BuiltinFunction* row = FindBuiltin(e.name);
    ASSERT_NE(row, nullptr) << e.name;
    EXPECT_EQ(row->parallel_safe, e.parallel_safe) << e.name;
  }
  EXPECT_EQ(FindBuiltin("no-such-function"), nullptr);
}

TEST(IsParallelSafeTest, ClassifiesSubtrees) {
  struct Case {
    const char* query;
    bool safe;
  };
  const Case cases[] = {
      {"for $w in /descendant::w return string($w)", true},
      {"count(/descendant::w[string-length(string(.)) > 8])", true},
      {"some $w in /descendant::w satisfies matches(string($w), 'a')", true},
      // Constructors are pure fragments here — parallel-safe.
      {"for $w in /descendant::w return <b>{$w}</b>", true},
      // analyze-string materialises its temporary hierarchies into
      // worker-private sub-overlays now: safe anywhere a body can hide it —
      // constructor content, predicates, attributes.
      {"analyze-string(/descendant::w, 'a')", true},
      {"for $w in /descendant::w return "
       "<r>{analyze-string($w, 'a')}</r>",
       true},
      {"count(/descendant::w[analyze-string(., 'a')])", true},
      {"for $w in /descendant::w return "
       "<r id=\"{analyze-string($w, 'a')}\"/>",
       true},
      // Unknown function names stay conservatively unsafe.
      {"for $w in /descendant::w return mystery($w)", false},
      {"some $w in /descendant::w satisfies mystery($w)", false},
  };
  for (const Case& c : cases) {
    auto expr = ParseQuery(c.query);
    ASSERT_TRUE(expr.ok()) << c.query << "\n" << expr.status();
    EXPECT_EQ(IsParallelSafe((*expr)->root()), c.safe) << c.query;
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
        ids = axes.EvaluateAxisOnly(item.node, *axis);
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
                            std::string(PlanModeName(options.plan_mode)) +
                            " threads " + std::to_string(options.threads);
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
// axis battery, serial and fanned out, and all of them serialise the bare
// path identically. A plan is allowed to move cost, never results.
TEST_F(ParallelQueryTest, PlanModesByteIdenticalAcrossAxesAndThreads) {
  const PlanMode modes[] = {PlanMode::kAuto, PlanMode::kForceNaive,
                            PlanMode::kForceIndexed};
  for (const char* query : kAxisBatteryQueries) {
    const std::string baseline = MustQuery(*edition_, query, QueryOptions());
    for (PlanMode mode : modes) {
      for (unsigned threads : {1u, 4u}) {
        QueryOptions options;
        options.plan_mode = mode;
        options.threads = threads;
        ExpectMatchesReference(*edition_, query, options);
        EXPECT_EQ(MustQuery(*edition_, query, options), baseline)
            << query << "\nplan mode " << PlanModeName(mode) << " threads "
            << threads;
      }
    }
  }
}

// Same contract on the paper's Section 4 queries, across fan-out widths:
// every plan mode must reproduce the published outputs exactly.
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
      for (unsigned threads : {1u, 4u, 8u}) {
        QueryOptions options;
        options.plan_mode = mode;
        options.threads = threads;
        const std::string out = MustQuery(*paper_, p.query, options);
        EXPECT_EQ(p.coalesce ? CoalesceRuns(out) : out, p.expected)
            << p.query << "\nplan mode " << PlanModeName(mode)
            << " threads " << threads;
      }
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
