// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Differential test of the engine against the Definition-1 oracle
// (tests/oracle.h). Each seed generates an edition (workload::
// GenerateEdition), adds a fifth parsed hierarchy of empty milestones and
// equal-extent segments, and commits a resident virtual hierarchy of
// equal-extent and nested elements through Writer::AddVirtualHierarchy
// (which takes non-empty ranges only, hence the parsed milestones). Random
// paths over all 16 axes — name, '*' and leaf() tests, existence and
// positional predicates, multi-context steps, leaf contexts and
// let-bound variables — must give the oracle's count and item listing.
//
// Editions come in two sizes that put the planner on either side of its
// crossover: at kScanWords every planned extended step scans the RangeSoA,
// at kProbeWords the containment steps probe the RangeIndex. With name
// tests pushed down and '*' tests un-pushed, both strategies are checked
// end to end, with and without pushdown; the engine's plan counters show
// that they ran.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status_macros.h"
#include "document.h"
#include "oracle.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xpath/axes.h"

namespace mhx {
namespace {

using goddag::NodeId;
using oracle::Oracle;
using xpath::Axis;

// The planner's crossover lies between these sizes for the editions built
// below (their extra hierarchies included): every planned extended step
// scans at the first, and containment steps probe the index at the second.
constexpr size_t kScanWords = 300;
constexpr size_t kProbeWords = 600;
constexpr size_t kSeedsPerSize = 2;
constexpr size_t kRandomPathsPerEdition = 60;
// The oracle's work bound per random path (Oracle::set_work_limit): paths
// past it are drawn again.
constexpr size_t kWorkLimit = 1 << 19;

// splitmix64, so a seed draws the same editions and paths everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Uniform(size_t n) { return static_cast<size_t>(Next() % n); }
  template <typename T, size_t N>
  const T& Pick(const T (&items)[N]) {
    return items[Uniform(N)];
  }

 private:
  uint64_t state_;
};

// The edition's words as ranges: GenerateEdition joins them by single
// spaces.
std::vector<TextRange> WordRanges(const std::string& text) {
  std::vector<TextRange> words;
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ') {
      if (i > begin) words.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  return words;
}

// A fifth parsed hierarchy: empty <pb/> and <cb/> milestones at word
// starts, inside words, as the last child of a <seg> and in pairs at both
// text ends and at some word ends; <seg> copies of word extents (equal to
// the <w> of another hierarchy), some inside an equal-extent <hi>.
std::string MarksXml(const std::string& text, Rng& rng) {
  std::string xml = "<marks><pb/><cb/>";
  size_t pos = 0;
  for (const TextRange& range : WordRanges(text)) {
    xml += text.substr(pos, range.begin - pos);
    const std::string word =
        xml::EscapeText(text.substr(range.begin, range.length()));
    const size_t roll = rng.Uniform(100);
    if (roll < 6) {
      xml += "<pb/>" + word;
    } else if (roll < 10 && word.size() > 2) {
      xml += word.substr(0, 2) + "<cb/>" + word.substr(2);
    } else if (roll < 14) {
      xml += "<seg>" + word + "</seg>";
    } else if (roll < 17) {
      xml += "<hi><seg>" + word + "</seg></hi>";
    } else if (roll < 19) {
      xml += "<seg>" + word + "<pb/></seg>";
    } else if (roll < 21) {
      xml += word + "<pb/><cb/>";
    } else {
      xml += word;
    }
    pos = range.end;
  }
  return xml + text.substr(pos) + "<cb/><pb/></marks>";
}

// A resident virtual hierarchy over the structural one: <app> copies of
// sentence extents, <rdg> copies of word extents (some holding an
// equal-extent <lem>), and <note> spans strictly inside words.
std::vector<goddag::VirtualElement> Apparatus(const goddag::KyGoddag& kg,
                                              Rng& rng) {
  std::vector<goddag::VirtualElement> elements;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const goddag::GNode& node = kg.node(id);
    const size_t roll = rng.Uniform(100);
    if (node.name == "s" && roll < 25) {
      elements.push_back({"app", node.range, {}});
    } else if (node.name == "w") {
      if (roll < 10) elements.push_back({"rdg", node.range, {}});
      if (roll < 4) elements.push_back({"lem", node.range, {}});
      if (roll >= 90 && node.range.length() > 3) {
        elements.push_back(
            {"note", TextRange(node.range.begin + 1, node.range.end - 1), {}});
      }
    }
  }
  return elements;
}

std::unique_ptr<MultihierarchicalDocument> BuildOracleEdition(uint64_t seed,
                                                              size_t words) {
  workload::EditionConfig config;
  config.seed = seed;
  config.word_count = words;
  config.damage_coverage = 0.15;
  config.restoration_coverage = 0.15;
  workload::Edition edition = workload::GenerateEdition(config);
  Rng rng(seed);
  std::string marks = MarksXml(edition.base_text, rng);
  // Hierarchy ids as in workload::BuildEditionDocument (1 is structural),
  // then 4 for the milestones.
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText(std::move(edition.base_text));
  builder.AddHierarchy("physical", std::move(edition.physical_xml));
  builder.AddHierarchy("structural", std::move(edition.structural_xml));
  builder.AddHierarchy("restoration", std::move(edition.restoration_xml));
  builder.AddHierarchy("condition", std::move(edition.condition_xml));
  builder.AddHierarchy("marks", std::move(marks));
  auto doc = builder.Build();
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return nullptr;
  auto out = std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
  auto writer = out->NewWriter();
  writer.AddVirtualHierarchy("apparatus",
                             Apparatus(out->PinSnapshot()->goddag(), rng));
  const auto committed = writer.Commit();
  EXPECT_TRUE(committed.ok()) << committed.status();
  return committed.ok() ? std::move(out) : nullptr;
}

constexpr const char* kNames[] = {
    "sheet", "page", "line", "text", "s",   "w",         "rest",
    "res",   "cond", "dmg",  "marks", "pb", "cb",        "seg",
    "hi",    "app",  "rdg",  "lem",  "note", "apparatus", "nowhere"};

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,            Axis::kParent,
    Axis::kDescendant,     Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowingSibling, Axis::kPrecedingSibling,
    Axis::kFollowing,      Axis::kPreceding,        Axis::kXAncestor,
    Axis::kXDescendant,    Axis::kOverlapping,      Axis::kXFollowing,
    Axis::kXPreceding};
// The axes a name or '*' step can take from a leaf.
constexpr Axis kFromLeafAxes[] = {
    Axis::kAncestor,   Axis::kAncestorOrSelf, Axis::kXAncestor,
    Axis::kFollowing,  Axis::kXFollowing,     Axis::kPreceding,
    Axis::kXPreceding, Axis::kXDescendant,    Axis::kOverlapping};
// The axes a leaf() step can take, from a node or a leaf.
constexpr Axis kLeafTestAxes[] = {Axis::kSelf, Axis::kChild,
                                  Axis::kDescendant, Axis::kDescendantOrSelf,
                                  Axis::kXDescendant};

// Random paths in the oracle's syntax, valid for the engine: a step after
// a leaf() step only takes the axes a leaf context supports.
class PathGenerator {
 public:
  explicit PathGenerator(uint64_t seed) : rng_(seed) {}

  // 1 to 3 steps from the root. The first step is a descendant step half
  // the time, so later steps usually run over many contexts.
  std::vector<std::string> Steps() {
    std::vector<std::string> steps;
    bool leaves = false;
    const size_t count = 1 + rng_.Uniform(3);
    for (size_t i = 0; i < count; ++i) {
      const bool descendant = i == 0 && rng_.Uniform(2) == 0;
      steps.push_back(Step(&leaves, /*depth=*/0, descendant));
    }
    return steps;
  }

  // A draw from the same stream, for the choices made around a path.
  size_t Uniform(size_t n) { return rng_.Uniform(n); }

 private:
  // `leaves` says whether the context items are leaves, and becomes
  // whether this step's results are.
  std::string Step(bool* leaves, int depth, bool descendant) {
    Axis axis;
    std::string test;
    if (rng_.Uniform(100) < 15) {
      axis = rng_.Pick(kLeafTestAxes);
      test = "leaf()";
      *leaves = true;
    } else {
      axis = descendant ? Axis::kDescendant
             : *leaves  ? rng_.Pick(kFromLeafAxes)
                        : rng_.Pick(kAllAxes);
      test = rng_.Uniform(100) < 40 ? "*" : rng_.Pick(kNames);
      *leaves = false;
    }
    std::string step = std::string(xpath::AxisName(axis)) + "::" + test;
    const size_t roll = rng_.Uniform(100);
    const size_t predicates = depth > 0 ? 0 : roll < 25 ? 1 : roll < 32 ? 2 : 0;
    for (size_t i = 0; i < predicates; ++i) {
      step += "[" + Predicate(*leaves, depth + 1) + "]";
    }
    return step;
  }

  std::string Predicate(bool item_is_leaf, int depth) {
    const size_t kind = rng_.Uniform(3);
    if (kind == 0) return std::to_string(1 + rng_.Uniform(3));
    std::string path;
    bool leaves = item_is_leaf;
    const size_t count = 1 + rng_.Uniform(2);
    for (size_t i = 0; i < count; ++i) {
      if (i != 0) path += "/";
      path += Step(&leaves, depth, /*descendant=*/false);
    }
    return kind == 1 ? path : "not(" + path + ")";
  }

  Rng rng_;
};

std::string Join(const std::vector<std::string>& steps, size_t begin,
                 size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (i != begin) out += "/";
    out += steps[i];
  }
  return out;
}

// The oracle's items for `head` — or, when `tail` is set, for
// `let $v := head return $v/tail`.
StatusOr<std::vector<oracle::Item>> OracleItems(const Oracle& oracle,
                                                const std::string& head,
                                                const std::string& tail) {
  MHX_ASSIGN_OR_RETURN(std::vector<oracle::Item> items,
                       oracle.Evaluate(head));
  if (tail.empty()) return items;
  return oracle.EvaluateFrom(items, tail);
}

// The engine's count and item listing of the same path equal `expected`.
void ExpectEngineGives(const MultihierarchicalDocument& doc,
                       const Oracle& oracle, const std::string& head,
                       const std::string& tail,
                       const std::vector<oracle::Item>& expected) {
  const std::string label = tail.empty() ? head : head + " | $v/" + tail;
  const std::string prefix =
      tail.empty() ? "" : "let $v := " + head + " return ";
  const std::string path = tail.empty() ? head : "$v/" + tail;
  auto count = doc.Query(prefix + "count(" + path + ")");
  ASSERT_TRUE(count.ok()) << label << "\n" << count.status();
  EXPECT_EQ(*count, std::to_string(expected.size())) << label;
  auto listing = doc.Query(prefix + oracle::ListingQuery(path));
  ASSERT_TRUE(listing.ok()) << label << "\n" << listing.status();
  EXPECT_EQ(*listing, oracle.Listing(expected)) << label;
}

// Fixed shapes every edition runs besides the random paths: set steps whose
// union rests on the covering-context identities (empty extremes, equal
// extents, nested contexts), self exclusion on the containment axes, leaf
// contexts, and the predicate kinds.
constexpr const char* kBattery[] = {
    "/descendant::pb/xfollowing::*",
    "/descendant::cb/xpreceding::pb",
    "/descendant::marks/child::*/xfollowing::*",
    "/descendant::marks/child::*/xpreceding::*",
    "/descendant::w/xancestor::*",
    "/descendant::seg/xancestor::*",
    "/descendant::rdg/xdescendant::*",
    "/descendant::*/xdescendant::*",
    "/descendant::w/overlapping::*",
    "/descendant::line/overlapping::w",
    "/descendant::line/xfollowing::line",
    "/descendant::line/xpreceding::*",
    "/descendant::w/xfollowing::dmg",
    "/descendant::w/xpreceding::res",
    "/descendant::pb/xancestor::*",
    "/descendant::seg/following::*",
    "/descendant::seg/preceding::pb",
    "/descendant::seg/following::pb",
    "/descendant::pb/following::*",
    "/descendant::cb/preceding::*",
    "/descendant::pb/preceding::seg",
    "/descendant::marks/descendant::*/following::*",
    "/descendant::marks/descendant::*/preceding::*",
    "/descendant::s/descendant-or-self::*",
    "/descendant::*/descendant::leaf()",
    "/descendant::s/child::leaf()",
    "/descendant::rdg/xdescendant::leaf()/ancestor::*",
    "/descendant::leaf()/xfollowing::pb",
    "/descendant::leaf()/overlapping::*",
    "/child::*/following-sibling::*",
    "/descendant::w/xfollowing::dmg[1]",
    "/descendant::line/xfollowing::dmg[xdescendant::w]",
    "/descendant::dmg[not(xdescendant::w)][overlapping::line]",
    "/descendant::line[xdescendant::pb][2]",
    "/descendant::w/ancestor::*[1]",
    "/descendant::pb/ancestor-or-self::*[2]",
    "/descendant::w/parent::*[1]",
    "/descendant::w/preceding-sibling::w[1]",
    "/descendant::pb/preceding::*[1]",
    "/descendant::w/xancestor::*[2]",
    "/descendant::line/xpreceding::dmg[1]",
    "/descendant::leaf()/ancestor::*[1]",
};

// The engine's plan counters, summed over editions.
struct PlanCounts {
  size_t scanned = 0;
  size_t indexed = 0;
  size_t pushdowns = 0;
};

// Runs the battery and kRandomPathsPerEdition random paths on each of
// kSeedsPerSize seeds' editions of `words` words.
PlanCounts RunEditions(size_t words) {
  PlanCounts counts;
  for (uint64_t seed = 1; seed <= kSeedsPerSize; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                 std::to_string(words) + " words");
    const auto doc = BuildOracleEdition(seed, words);
    if (doc == nullptr) return counts;
    const auto snapshot = doc->PinSnapshot();
    auto oracle = Oracle::Create(snapshot->goddag());
    EXPECT_TRUE(oracle.ok()) << oracle.status();
    if (!oracle.ok()) return counts;
    for (const char* path : kBattery) {
      auto expected = oracle->Evaluate(path);
      EXPECT_TRUE(expected.ok()) << path << "\n" << expected.status();
      if (expected.ok()) ExpectEngineGives(*doc, *oracle, path, "", *expected);
    }
    // Random paths until kRandomPathsPerEdition of them ran within the
    // work limit; draws past it are skipped, and may not dominate.
    oracle->set_work_limit(kWorkLimit);
    PathGenerator paths(seed * 1000003 + words);
    size_t ran = 0;
    size_t skipped = 0;
    while (ran < kRandomPathsPerEdition && skipped < kRandomPathsPerEdition) {
      const std::vector<std::string> steps = paths.Steps();
      // Half the multi-step paths bind a prefix to a variable.
      size_t split = steps.size();
      if (steps.size() >= 2 && paths.Uniform(2) == 0) {
        split = 1 + paths.Uniform(steps.size() - 1);
      }
      const std::string head = "/" + Join(steps, 0, split);
      const std::string tail = Join(steps, split, steps.size());
      auto expected = OracleItems(*oracle, head, tail);
      if (expected.status().code() == StatusCode::kResourceExhausted) {
        ++skipped;
        continue;
      }
      EXPECT_TRUE(expected.ok()) << head << " | " << tail << "\n"
                                 << expected.status();
      if (expected.ok()) ExpectEngineGives(*doc, *oracle, head, tail, *expected);
      ++ran;
    }
    EXPECT_EQ(ran, kRandomPathsPerEdition) << skipped << " paths skipped";
    counts.scanned += doc->engine()->plan_steps_scanned();
    counts.indexed += doc->engine()->plan_steps_indexed();
    counts.pushdowns += doc->engine()->plan_pushdowns();
  }
  return counts;
}

TEST(OracleTest, ScanPlannedEditionsMatchTheOracle) {
  const PlanCounts counts = RunEditions(kScanWords);
  EXPECT_GT(counts.scanned, 0u);
  EXPECT_EQ(counts.indexed, 0u) << "the small editions should plan scans";
  EXPECT_GT(counts.pushdowns, 0u);
}

TEST(OracleTest, ProbePlannedEditionsMatchTheOracle) {
  const PlanCounts counts = RunEditions(kProbeWords);
  EXPECT_GT(counts.indexed, 0u) << "the large editions should plan probes";
  EXPECT_GT(counts.scanned, 0u);
  EXPECT_GT(counts.pushdowns, 0u);
}

// A one-hierarchy document over `text`.
std::unique_ptr<MultihierarchicalDocument> SmallDocument(std::string text,
                                                         std::string xml) {
  MultihierarchicalDocument::Builder builder;
  builder.SetBaseText(std::move(text));
  builder.AddHierarchy("h", std::move(xml));
  auto doc = builder.Build();
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return nullptr;
  return std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
}

// The oracle lists `listing` for `path`, and the engine gives the same.
void ExpectPinned(const MultihierarchicalDocument& doc,
                  const std::string& path, const std::string& listing) {
  const auto snapshot = doc.PinSnapshot();
  auto oracle = Oracle::Create(snapshot->goddag());
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto items = oracle->Evaluate(path);
  ASSERT_TRUE(items.ok()) << path << "\n" << items.status();
  EXPECT_EQ(oracle->Listing(*items), listing) << path;
  ExpectEngineGives(doc, *oracle, path, "", *items);
}

// XPath's following and preceding exclude the context's descendants and
// ancestors, also when they are empty elements at the context's bounds,
// and two empty elements at one offset are ordered by the tree.
TEST(OracleTest, FollowingAndPrecedingExcludeAncestorsAndDescendants) {
  const auto doc = SmallDocument("abcdef", "<r><s><f/>abc<e/></s>def</r>");
  ASSERT_NE(doc, nullptr);
  ExpectPinned(*doc, "/descendant::s/following::e", "");
  ExpectPinned(*doc, "/descendant::s/preceding::f", "");
  ExpectPinned(*doc, "/descendant::f/following::s", "");
  ExpectPinned(*doc, "/descendant::e/preceding::s", "");
  ExpectPinned(*doc, "/descendant::f/following::*", "e[]");
  ExpectPinned(*doc, "/descendant::e/preceding::*", "f[]");

  // A set step over contexts that share the smallest end: t reaches e,
  // its parent s does not, so neither alone covers the union.
  const auto tie = SmallDocument("abcx", "<r><s>a<t>bc</t><e/></s>x</r>");
  ASSERT_NE(tie, nullptr);
  ExpectPinned(*tie, "/descendant::*/following::e", "e[]");
  ExpectPinned(*tie, "/descendant::t/following::*", "e[]");
  ExpectPinned(*tie, "/descendant::*/preceding::t", "t[bc]");

  const auto empties = SmallDocument("xy", "<r><a><f/></a><b><g/></b>xy</r>");
  ASSERT_NE(empties, nullptr);
  ExpectPinned(*empties, "/descendant::b/following::*", "");
  ExpectPinned(*empties, "/descendant::f/following::*", "b[]g[]");
  ExpectPinned(*empties, "/descendant::g/preceding::*", "a[]f[]");
  ExpectPinned(*empties, "/descendant::b/preceding::*", "a[]f[]");
}

// Positional predicates on the reverse axes count from the context
// outwards; the result still comes back in document order.
TEST(OracleTest, ReverseAxesCountPositionsFromTheContext) {
  const auto doc = SmallDocument("abcdef", "<r><s><f/>abc<e/></s>def</r>");
  ASSERT_NE(doc, nullptr);
  ExpectPinned(*doc, "/descendant::e/ancestor::*[1]", "s[abc]");
  ExpectPinned(*doc, "/descendant::e/ancestor::*[2]", "r[abcdef]");
  ExpectPinned(*doc, "/descendant::e/ancestor-or-self::*[1]", "e[]");
  ExpectPinned(*doc, "/descendant::e/parent::*[1]", "s[abc]");
  ExpectPinned(*doc, "/descendant::e/preceding-sibling::*[1]", "f[]");
  ExpectPinned(*doc, "/descendant::e/xancestor::*[1]", "s[abc]");
  ExpectPinned(*doc, "/descendant::e/xpreceding::*[1]", "f[]");
  ExpectPinned(*doc, "/descendant::leaf()/ancestor::*[1]", "r[abcdef]s[abc]");
  ExpectPinned(*doc, "/descendant::e/ancestor::*[2][1]", "r[abcdef]");
  // Forward axes keep counting in document order.
  ExpectPinned(*doc, "/descendant::s/descendant::*[1]", "f[]");
}

// Definition 1 on hand-built extents over three leaves (positions 0..6):
// an empty element sits at a boundary, shares no leaf, lies inside every
// element whose boundaries include it, and orders by that boundary.
TEST(OracleTest, Definition1TreatsEmptyElementsAsBoundaries) {
  const oracle::Extent all = {0, 1, 2, 3, 4, 5, 6};
  const oracle::Extent first = {0, 1, 2};
  const oracle::Extent last_two = {2, 3, 4, 5, 6};
  const oracle::Extent empty_at_1 = {2};
  const oracle::Extent empty_at_2 = {4};
  using oracle::Definition1;
  EXPECT_TRUE(Definition1(Axis::kXAncestor, empty_at_1, first));
  EXPECT_TRUE(Definition1(Axis::kXAncestor, empty_at_1, last_two));
  EXPECT_TRUE(Definition1(Axis::kXDescendant, all, empty_at_2));
  EXPECT_FALSE(Definition1(Axis::kXDescendant, first, empty_at_2));
  EXPECT_FALSE(Definition1(Axis::kOverlapping, last_two, empty_at_2));
  EXPECT_TRUE(Definition1(Axis::kXFollowing, first, empty_at_1));
  EXPECT_TRUE(Definition1(Axis::kXFollowing, empty_at_1, last_two));
  EXPECT_TRUE(Definition1(Axis::kXPreceding, empty_at_1, first));
  EXPECT_FALSE(Definition1(Axis::kXPreceding, empty_at_1, last_two));
  // Equal extents contain each other and do not overlap.
  EXPECT_TRUE(Definition1(Axis::kXAncestor, first, first));
  EXPECT_TRUE(Definition1(Axis::kXDescendant, first, first));
  EXPECT_FALSE(Definition1(Axis::kOverlapping, first, first));
  // Proper overlap shares a leaf, and neither holds the other.
  const oracle::Extent middle = {2, 3, 4};
  const oracle::Extent first_two = {0, 1, 2, 3, 4};
  EXPECT_TRUE(Definition1(Axis::kOverlapping, first_two, last_two));
  EXPECT_FALSE(Definition1(Axis::kOverlapping, first_two, middle));
}

}  // namespace
}  // namespace mhx
