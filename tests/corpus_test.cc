// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// CorpusService: LRU residency and eviction order, capacity-1 thrash,
// cross-document plan-cache sharing, admission-control backpressure, and
// the eviction-vs-pin lifetime rules.

#include "corpus/corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace mhx::corpus {
namespace {

workload::EditionConfig SmallEdition(uint64_t seed) {
  workload::EditionConfig config;
  config.seed = seed;
  config.word_count = 40;
  return config;
}

CorpusOptions SerialOptions(size_t capacity) {
  CorpusOptions options;
  options.capacity = capacity;
  return options;
}

constexpr char kPathQuery[] = "/descendant::line";
constexpr char kHeavyQuery[] =
    "for $w in /descendant::w[matches(string(.), \".*a.*\")]\n"
    "return analyze-string($w, \".*a.*\")";

TEST(CorpusServiceTest, QueryMatchesDirectDocument) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(7)).ok());

  auto direct = workload::BuildEditionDocument(SmallEdition(7));
  ASSERT_TRUE(direct.ok());
  auto expected = direct->Query(kPathQuery);
  ASSERT_TRUE(expected.ok());

  auto out = corpus.Query("a", kPathQuery);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(*out, *expected);
}

TEST(CorpusServiceTest, UnknownDocumentAndDuplicateRegistration) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  EXPECT_EQ(corpus.Register("a", SmallEdition(2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corpus.Query("missing", kPathQuery).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(corpus.BuildCount("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(CorpusServiceTest, ParseErrorsSurfaceWithoutBuildingTheDocument) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  EXPECT_FALSE(corpus.Query("a", "for $x in").ok());
  EXPECT_EQ(*corpus.BuildCount("a"), 0u);
  EXPECT_EQ(corpus.stats().resident_documents, 0u);
}

TEST(CorpusServiceTest, EvictsLeastRecentlyQueriedDocument) {
  CorpusService corpus(SerialOptions(2));
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        corpus.Register("doc" + std::to_string(i), SmallEdition(i + 1)).ok());
  }
  ASSERT_TRUE(corpus.Query("doc0", kPathQuery).ok());
  ASSERT_TRUE(corpus.Query("doc1", kPathQuery).ok());
  // Touch doc0 so doc1 is the LRU victim when doc2 arrives.
  ASSERT_TRUE(corpus.Query("doc0", kPathQuery).ok());
  ASSERT_TRUE(corpus.Query("doc2", kPathQuery).ok());

  EXPECT_EQ(corpus.stats().resident_documents, 2u);
  EXPECT_EQ(corpus.stats().evictions, 1u);
  // doc0 and doc2 are resident (no rebuild); doc1 was evicted and rebuilds.
  ASSERT_TRUE(corpus.Query("doc0", kPathQuery).ok());
  ASSERT_TRUE(corpus.Query("doc2", kPathQuery).ok());
  EXPECT_EQ(*corpus.BuildCount("doc0"), 1u);
  EXPECT_EQ(*corpus.BuildCount("doc2"), 1u);
  ASSERT_TRUE(corpus.Query("doc1", kPathQuery).ok());
  EXPECT_EQ(*corpus.BuildCount("doc1"), 2u);
}

TEST(CorpusServiceTest, CapacityOneThrashRebuildsEveryAlternation) {
  CorpusService corpus(SerialOptions(1));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Register("b", SmallEdition(2)).ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());
    ASSERT_TRUE(corpus.Query("b", kPathQuery).ok());
  }
  EXPECT_EQ(corpus.stats().resident_documents, 1u);
  EXPECT_EQ(*corpus.BuildCount("a"), 3u);
  EXPECT_EQ(*corpus.BuildCount("b"), 3u);
  EXPECT_EQ(corpus.stats().evictions, 5u);
  // Repeating one name stops the churn.
  ASSERT_TRUE(corpus.Query("b", kPathQuery).ok());
  EXPECT_EQ(*corpus.BuildCount("b"), 3u);
}

TEST(CorpusServiceTest, PlanCacheIsSharedAcrossDocuments) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Register("b", SmallEdition(2)).ok());
  ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());
  const size_t misses_after_first = corpus.stats().plan_misses;
  EXPECT_EQ(misses_after_first, 1u);
  // The same text against another document parses zero more times.
  ASSERT_TRUE(corpus.Query("b", kPathQuery).ok());
  EXPECT_EQ(corpus.stats().plan_misses, misses_after_first);
  EXPECT_GT(corpus.stats().plan_hits, 0u);
  EXPECT_EQ(corpus.plans()->plan_count(), 1u);
}

TEST(CorpusServiceTest, PlanCacheSurvivesEviction) {
  CorpusService corpus(SerialOptions(1));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Register("b", SmallEdition(2)).ok());
  ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());
  ASSERT_TRUE(corpus.Query("b", kPathQuery).ok());  // evicts a
  ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());  // rebuilds a, plan hits
  EXPECT_EQ(corpus.stats().plan_misses, 1u);
}

TEST(CorpusServiceTest, PinKeepsDocumentUsableAcrossEviction) {
  CorpusService corpus(SerialOptions(1));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Register("b", SmallEdition(2)).ok());

  auto pinned = corpus.Pin("a");
  ASSERT_TRUE(pinned.ok());
  auto before = (*pinned)->Query(kPathQuery);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(corpus.Query("b", kPathQuery).ok());  // evicts a
  EXPECT_EQ(corpus.stats().evictions, 1u);

  // The service dropped its reference; the pin still owns a live document.
  auto after = (*pinned)->Query(kPathQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST(AdmissionControllerTest, RejectsWhenSlotsAndQueueAreFull) {
  AdmissionController admission("test", /*slots=*/1, /*queue_limit=*/0);
  ASSERT_TRUE(admission.Acquire().ok());
  EXPECT_EQ(admission.in_flight(), 1u);
  Status second = admission.Acquire();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.message().rfind("test admission queue full", 0), 0u)
      << second;
  EXPECT_EQ(admission.rejected(), 1u);
  admission.Release();
  EXPECT_TRUE(admission.Acquire().ok());
  admission.Release();
}

TEST(AdmissionControllerTest, QueuedAcquireWaitsForRelease) {
  AdmissionController admission("test", /*slots=*/1, /*queue_limit=*/4);
  ASSERT_TRUE(admission.Acquire().ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    ASSERT_TRUE(admission.Acquire().ok());
    acquired = true;
    admission.Release();
  });
  EXPECT_FALSE(acquired.load());
  admission.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(admission.rejected(), 0u);
}

TEST(CorpusServiceTest, HeavyQueriesAreRejectedWithBackpressureStatus) {
  CorpusOptions options = SerialOptions(4);
  options.max_heavy_in_flight = 0;  // every heavy query bounces
  CorpusService corpus(options);
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());

  // Cheap path queries are never admission-controlled.
  ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());

  auto heavy = corpus.Query("a", kHeavyQuery);
  EXPECT_EQ(heavy.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(corpus.stats().heavy_rejections, 1u);
  EXPECT_EQ(corpus.stats().heavy_in_flight, 0u);
}

TEST(CorpusServiceTest, HeavyQueriesRunWhenAdmitted) {
  CorpusOptions options = SerialOptions(4);
  options.max_heavy_in_flight = 2;
  CorpusService corpus(options);
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());

  auto direct = workload::BuildEditionDocument(SmallEdition(1));
  ASSERT_TRUE(direct.ok());
  auto expected = direct->Query(kHeavyQuery);
  ASSERT_TRUE(expected.ok());

  auto out = corpus.Query("a", kHeavyQuery);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(*out, *expected);
  EXPECT_EQ(corpus.stats().heavy_in_flight, 0u);  // ticket released
  EXPECT_EQ(corpus.stats().heavy_rejections, 0u);
}

TEST(CorpusServiceTest, CommitIsVisibleToLaterQueriesWithoutRebuilding) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(7)).ok());
  auto before = corpus.Query("a", "count(/descendant::*[self::gap])");
  ASSERT_TRUE(before.ok());

  auto version = corpus.CommitVirtualHierarchy(
      "a", "damage", {goddag::VirtualElement{"gap", TextRange(2, 9), {}}});
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 2u);

  auto after = corpus.Query("a", "count(/descendant::*[self::gap])");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
  // The commit mutated the resident document in place (MVCC version, not a
  // rebuild) and is counted.
  EXPECT_EQ(*corpus.BuildCount("a"), 1u);
  EXPECT_EQ(corpus.stats().writes, 1u);
  EXPECT_EQ(corpus.stats().write_rejections, 0u);

  auto removed = corpus.RemoveVirtualHierarchy("a", "damage");
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 3u);
  auto restored = corpus.Query("a", "count(/descendant::*[self::gap])");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, *before);
  EXPECT_EQ(corpus.stats().writes, 2u);
}

TEST(CorpusServiceTest, WritesAreRejectedWithBackpressureStatus) {
  CorpusOptions options = SerialOptions(4);
  options.max_writers_in_flight = 0;  // every write bounces
  CorpusService corpus(options);
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  auto version = corpus.CommitVirtualHierarchy(
      "a", "damage", {goddag::VirtualElement{"gap", TextRange(2, 9), {}}});
  EXPECT_EQ(version.status().code(), StatusCode::kResourceExhausted);
  // The message names the class that refused: write admission, not the
  // analyze-string (heavy query) queue.
  EXPECT_NE(version.status().message().find("write admission"),
            std::string::npos)
      << version.status();
  EXPECT_EQ(version.status().message().find("analyze-string"),
            std::string::npos)
      << version.status();
  EXPECT_EQ(corpus.stats().write_rejections, 1u);
  EXPECT_EQ(corpus.stats().writes, 0u);
  // A rejected write never built the (cold) document.
  EXPECT_EQ(*corpus.BuildCount("a"), 0u);
}

TEST(CorpusServiceTest, WriteErrorsSurfaceAndUnknownDocumentIsNotFound) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  EXPECT_EQ(corpus
                .CommitVirtualHierarchy(
                    "missing", "damage",
                    {goddag::VirtualElement{"gap", TextRange(2, 9), {}}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(corpus.RemoveVirtualHierarchy("a", "never-added").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(corpus.stats().writes, 0u);
}

TEST(CorpusServiceTest, MvccMetricsAreExported) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Query("a", kPathQuery).ok());
  ASSERT_TRUE(corpus
                  .CommitVirtualHierarchy(
                      "a", "damage",
                      {goddag::VirtualElement{"gap", TextRange(2, 9), {}}})
                  .ok());
  const std::string text = corpus.metrics().TextExport();
  EXPECT_NE(text.find("mhx_corpus_writes_total 1"), std::string::npos);
  EXPECT_NE(text.find("mhx_corpus_write_rejected_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("mhx_goddag_live_snapshots"), std::string::npos);
  EXPECT_NE(text.find("mhx_engine_snapshot_pins_total"), std::string::npos);
  EXPECT_NE(text.find("mhx_engine_overlay_id_exhausted_total 0"),
            std::string::npos);
  EXPECT_GT(corpus.stats().snapshot_pins, 0u);
  EXPECT_GT(corpus.stats().live_snapshots, 0u);
  EXPECT_EQ(corpus.stats().overlay_id_exhausted, 0u);
}

TEST(CorpusServiceTest, RegexDfaFallbacksCountCachedPatterns) {
  CorpusService corpus(SerialOptions(4));
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  // ".*a.*" gets a DFA; "[ab]*a[ab]{12}" needs 2^13 states and falls back
  // to the Pike VM. Repeating a query hits the cache and counts nothing.
  for (int i = 0; i < 2; ++i) {
    for (const char* pattern : {".*a.*", "[ab]*a[ab]{12}"}) {
      auto out = corpus.Query(
          "a", std::string("count(/descendant::w[matches(string(.), '") +
                   pattern + "')])");
      ASSERT_TRUE(out.ok()) << out.status().message();
    }
  }
  EXPECT_NE(corpus.metrics().TextExport().find(
                "mhx_regex_dfa_fallbacks_total 1\n"),
            std::string::npos);
}

TEST(CorpusServiceTest, SharedPoolServesParallelQueriesAcrossDocuments) {
  CorpusOptions options;
  options.capacity = 4;
  CorpusService corpus(options);
  ASSERT_TRUE(corpus.Register("a", SmallEdition(1)).ok());
  ASSERT_TRUE(corpus.Register("b", SmallEdition(2)).ok());

  for (const char* name : {"a", "b"}) {
    auto config = SmallEdition(name[0] == 'a' ? 1 : 2);
    auto direct = workload::BuildEditionDocument(config);
    ASSERT_TRUE(direct.ok());
    auto expected = direct->Query(kHeavyQuery);
    ASSERT_TRUE(expected.ok());
    auto out = corpus.Query(name, kHeavyQuery);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(*out, *expected) << name;
  }
}

}  // namespace
}  // namespace mhx::corpus
