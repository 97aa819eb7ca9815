// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The concurrency stress binary the TSan CI lane runs on its own: it
// hammers every cross-thread path at once — concurrent readers, concurrent
// analyze-string() queries building evaluation-scoped overlays (previously
// single-flight behind an exclusive lock), kept-temporaries registry churn,
// intra-query thread-pool fan-out, lazy engine/axes/cache initialisation
// races, and the raw ThreadPool. Iteration counts are deliberately modest:
// under TSan the point is interleaving coverage, not throughput.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "corpus/corpus.h"
#include "document.h"
#include "obs/trace.h"
#include "workload/generator.h"
#include "workload/paper_data.h"

namespace mhx {
namespace {

// Iteration multiplier: MHX_STRESS_ITERS=N scales every loop below by N.
// The CI TSan lane re-runs the heaviest case standalone with this bumped,
// buying interleaving coverage without slowing the ordinary ctest pass.
int StressIters(int base) {
  static const int multiplier = [] {
    const char* value = std::getenv("MHX_STRESS_ITERS");
    if (value != nullptr) {
      const int parsed = std::atoi(value);
      if (parsed > 0) return parsed;
    }
    return 1;
  }();
  return base * multiplier;
}

TEST(ConcurrencyStressTest, ColdEngineInitRace) {
  // All threads race the lazy engine/axes/index creation on a fresh doc.
  auto built = workload::BuildPaperDocument();
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&doc, &failures] {
      auto out = doc.Query(workload::kQueryI1);
      if (!out.ok() || *out != workload::kExpectedI1) ++failures;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyStressTest, MixedWorkloadOnOneDocument) {
  workload::EditionConfig config;
  config.seed = 31;
  config.word_count = 120;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto built = workload::BuildEditionDocument(config);
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();

  QueryOptions parallel;
  parallel.threads = 3;

  const std::string flwor_expected =
      *doc.Query("for $w in /descendant::w return string-length(string($w))");
  const std::string count_expected =
      *doc.Query("count(/descendant::w[overlapping::line])");

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Shared-lock readers, some with intra-query fan-out.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        auto out = t % 2 == 0
                       ? doc.Query(
                             "for $w in /descendant::w return "
                             "string-length(string($w))",
                             parallel)
                       : doc.Query("count(/descendant::w[overlapping::line])");
        const std::string& expected =
            t % 2 == 0 ? flwor_expected : count_expected;
        if (!out.ok() || *out != expected) ++failures;
      }
    });
  }
  // analyze-string queries: their temporary virtual hierarchies live in
  // evaluation-scoped overlays, so they run concurrently with every reader
  // above instead of serialising behind an exclusive lock.
  threads.emplace_back([&doc, &failures] {
    for (int i = 0; i < 6; ++i) {
      auto out = doc.Query(
          "for $w in /descendant::w[matches(string(.), 'ea')] return "
          "count(analyze-string($w, '.*ea.*')/descendant::leaf())");
      if (!out.ok()) ++failures;
    }
  });
  // Quantifier fan-out with short-circuit cancellation.
  threads.emplace_back([&doc, &parallel, &failures] {
    for (int i = 0; i < 6; ++i) {
      auto out = doc.Query(
          "some $w in /descendant::w satisfies "
          "string-length(string($w)) > 9",
          parallel);
      if (!out.ok()) ++failures;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(doc.engine()->temporary_hierarchy_count(), 0u);
}

// N threads running the same analyze-string() query (paper query II.1) on
// one document at once — structurally impossible before evaluation-scoped
// overlays, when temporary hierarchies were document-global mutations
// behind an exclusive lock. Every thread's every output must be
// byte-identical to the serial evaluation, and nothing may leak.
TEST(ConcurrencyStressTest, ConcurrentAnalyzeStringIsByteIdentical) {
  auto built = workload::BuildPaperDocument();
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();
  auto serial = doc.Query(workload::kQueryII1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const std::string expected = *serial;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&doc, &expected, &failures] {
      for (int i = 0; i < StressIters(8); ++i) {
        auto out = doc.Query(workload::kQueryII1);
        if (!out.ok() || *out != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(doc.engine()->temporary_hierarchy_count(), 0u);
  // Overlay churn never rebuilds the base index.
  EXPECT_EQ(doc.engine()->index_rebuild_count(), 1u);
  // And never runs the overlay-id space dry.
  EXPECT_EQ(doc.engine()->overlay_id_exhausted(), 0u);
}

// The MVCC tentpole under TSan: a writer thread commits version after
// version (adding and removing a virtual hierarchy through the Writer
// path) while 8 reader threads run Section-4 paper queries. Readers never
// block on the writer and every result must equal one of the quiesced
// per-version references — the membership check catches torn reads, TSan
// catches unsynchronised ones.
TEST(ConcurrencyStressTest, MutateWhileQueryingRace) {
  auto built = workload::BuildPaperDocument();
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();
  const char* kRaceQuery = "count(/descendant::*[overlapping::gap])";
  const std::vector<goddag::VirtualElement> damage = {
      goddag::VirtualElement{"gap", TextRange(4, 9), {}},
      goddag::VirtualElement{"gap", TextRange(30, 41), {}}};

  // Quiesced references: without and with the hierarchy.
  const std::string expected_without = *doc.Query(kRaceQuery);
  const std::string expected_i1 = *doc.Query(workload::kQueryI1);
  std::string expected_with;
  {
    auto writer = doc.NewWriter();
    writer.AddVirtualHierarchy("damage", damage);
    ASSERT_TRUE(writer.Commit().ok());
    expected_with = *doc.Query(kRaceQuery);
    auto writer2 = doc.NewWriter();
    writer2.RemoveVirtualHierarchy("damage");
    ASSERT_TRUE(writer2.Commit().ok());
  }
  ASSERT_NE(expected_without, expected_with);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < StressIters(10); ++i) {
        if (t % 2 == 0) {
          // This query's answer is hierarchy-independent: one fixed
          // expectation regardless of where the writer is.
          auto out = doc.Query(workload::kQueryI1);
          if (!out.ok() || *out != expected_i1) ++failures;
        } else {
          auto out = doc.Query(kRaceQuery);
          if (!out.ok() ||
              (*out != expected_without && *out != expected_with)) {
            ++failures;
          }
        }
      }
    });
  }
  std::thread writer_thread([&] {
    bool present = false;
    while (!stop.load(std::memory_order_relaxed)) {
      auto writer = doc.NewWriter();
      if (present) {
        writer.RemoveVirtualHierarchy("damage");
      } else {
        writer.AddVirtualHierarchy("damage", damage);
      }
      if (!writer.Commit().ok()) ++failures;
      present = !present;
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  writer_thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Readers paid exactly one index build (version 1's lazy one); every
  // committed version's index came prebuilt from the writer thread.
  EXPECT_EQ(doc.engine()->index_rebuild_count(), 1u);
  EXPECT_EQ(doc.engine()->overlay_id_exhausted(), 0u);
}

// Kept-temporaries registry churn racing readers: one thread keeps and
// releases handles (EvaluateKeepingTemporaries / handle drop) while others
// evaluate queries whose views snapshot the registry. Reader results vary
// legitimately with keep/release timing only in ways the assertions below
// are insensitive to (kQueryI1 touches no analyze-string names).
TEST(ConcurrencyStressTest, KeptTemporariesChurnUnderConcurrentReaders) {
  auto built = workload::BuildPaperDocument();
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&doc, &failures] {
      for (int i = 0; i < 10; ++i) {
        auto out = doc.Query(workload::kQueryI1);
        if (!out.ok() || *out != workload::kExpectedI1) ++failures;
      }
    });
  }
  threads.emplace_back([&doc, &failures] {
    for (int i = 0; i < 10; ++i) {
      auto kept = doc.engine()->EvaluateKeepingTemporaries(
          "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
          " \".*un<a>a</a>we.*\")");
      if (!kept.ok() || kept->temporaries.hierarchy_count() != 1) ++failures;
      // The handle drops at scope end, unregistering the hierarchy.
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(doc.engine()->temporary_hierarchy_count(), 0u);
}

// Intra-query fan-out (work-stealing slots building worker-private
// sub-overlays via analyze-string inside the loop body) racing engine-level
// concurrency: plain readers, a second fanned-out analyze-string query, and
// kept-temporaries churn, all on one engine. This is the full PR-5 surface
// in one pot — worker view forks, the shared OverlayIdAllocator, sub-overlay
// merges at join, the kept registry, and the pool's help-drain path.
TEST(ConcurrencyStressTest, IntraQueryFanOutRacesEngineLevelQueries) {
  workload::EditionConfig config;
  config.seed = 37;
  config.word_count = 120;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto built = workload::BuildEditionDocument(config);
  ASSERT_TRUE(built.ok()) << built.status();
  MultihierarchicalDocument doc = std::move(built).value();

  const char* kFanOutQuery =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return ("
      "  let $r := analyze-string($w, '.*e.*')"
      "  return for $leaf in $r/descendant::leaf()"
      "  return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf"
      "  , <br/> )";
  // The kept temporaries stay visible to every query on the engine while
  // their handle lives, so they annotate only words the fan-out query never
  // reads (no 'e'): the fan-out output stays independent of the churn.
  const char* kKeepQuery =
      "for $w in /descendant::w[not(matches(string(.), '.*e.*'))]"
      "[matches(string(.), '.*a.*')] return "
      "count(analyze-string($w, '.*a.*')/descendant::leaf())";

  QueryOptions fan_out;
  fan_out.threads = 4;
  auto fan_out_serial = doc.Query(kFanOutQuery);
  ASSERT_TRUE(fan_out_serial.ok()) << fan_out_serial.status();
  const std::string fan_out_expected = *fan_out_serial;
  auto reader_serial = doc.Query("count(/descendant::w[overlapping::line])");
  ASSERT_TRUE(reader_serial.ok()) << reader_serial.status();
  const std::string reader_expected = *reader_serial;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Two threads running the fanned-out analyze-string query: intra-query
  // worker slots of both queries interleave on the shared pool.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < StressIters(6); ++i) {
        auto out = doc.Query(kFanOutQuery, fan_out);
        if (!out.ok() || *out != fan_out_expected) ++failures;
      }
    });
  }
  // Plain engine-level readers.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < StressIters(8); ++i) {
        auto out = doc.Query("count(/descendant::w[overlapping::line])");
        if (!out.ok() || *out != reader_expected) ++failures;
      }
    });
  }
  // Kept-temporaries churn from a parallel evaluation: worker sub-overlays
  // merge into the kept registry, readers snapshot it mid-churn, then the
  // handle drops.
  threads.emplace_back([&] {
    for (int i = 0; i < StressIters(5); ++i) {
      auto kept = doc.engine()->EvaluateKeepingTemporaries(kKeepQuery,
                                                           fan_out);
      if (!kept.ok() || kept->temporaries.hierarchy_count() == 0) ++failures;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(doc.engine()->temporary_hierarchy_count(), 0u);
  EXPECT_EQ(doc.engine()->index_rebuild_count(), 1u);
}

// The corpus-service surface in one pot: capacity-2 LRU churn across four
// documents while clients query (cheap and analyze-string-heavy, serial
// and fanned out through the shared pool), a pin thread queries evicted-
// but-pinned documents directly, and a kept thread holds KeptTemporaries
// handles past its pin — so eviction destroys engines under live handles.
// Every result is verified against a per-document serial reference; the
// TSan CI lane re-runs this with MHX_STRESS_ITERS bumped.
TEST(ConcurrencyStressTest, CorpusOpenEvictQueryKeptRace) {
  corpus::CorpusOptions options;
  options.capacity = 2;
  options.pool_threads = 2;
  options.max_heavy_in_flight = 2;
  options.heavy_queue_limit = 64;  // roomy: rejection is corpus_test's job
  corpus::CorpusService service(options);

  constexpr int kDocs = 4;
  const char* kCheapQuery = "/descendant::line";
  const char* kHeavyQuery =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return ("
      "  let $r := analyze-string($w, '.*e.*')"
      "  return for $leaf in $r/descendant::leaf()"
      "  return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf"
      "  , <br/> )";
  std::vector<std::string> expected_cheap(kDocs);
  std::vector<std::string> expected_heavy(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    workload::EditionConfig config;
    config.seed = 61 + d;
    config.word_count = 60;
    config.damage_coverage = 0.12;
    config.restoration_coverage = 0.15;
    ASSERT_TRUE(service.Register("doc" + std::to_string(d), config).ok());
    auto direct = workload::BuildEditionDocument(config);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto cheap = direct->Query(kCheapQuery);
    auto heavy = direct->Query(kHeavyQuery);
    ASSERT_TRUE(cheap.ok() && heavy.ok());
    expected_cheap[d] = *cheap;
    expected_heavy[d] = *heavy;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Query clients: mixed cheap/heavy traffic, serial and parallel, across
  // all documents — each access may build, hit, or evict.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < StressIters(8); ++i) {
        const int d = (i + t) % kDocs;
        const bool heavy = (i + t) % 3 == 0;
        QueryOptions query_options;
        query_options.threads = i % 2 == 0 ? 2 : 1;
        auto out = service.Query("doc" + std::to_string(d),
                                 heavy ? kHeavyQuery : kCheapQuery,
                                 query_options);
        if (!out.ok() ||
            *out != (heavy ? expected_heavy[d] : expected_cheap[d])) {
          ++failures;
        }
      }
    });
  }
  // Pin thread: pins rotate across documents and query directly, so the
  // pinned document keeps answering even while the LRU evicts it.
  threads.emplace_back([&] {
    for (int i = 0; i < StressIters(8); ++i) {
      const int d = i % kDocs;
      auto pinned = service.Pin("doc" + std::to_string(d));
      if (!pinned.ok()) {
        ++failures;
        continue;
      }
      auto out = (*pinned)->Query(kCheapQuery);
      if (!out.ok() || *out != expected_cheap[d]) ++failures;
    }
  });
  // Kept thread: holds a KeptTemporaries handle after dropping its pin, so
  // churn from the other threads can evict and destroy the engine under a
  // live handle — which must stay inert-safe.
  threads.emplace_back([&] {
    for (int i = 0; i < StressIters(4); ++i) {
      const int d = (i + 1) % kDocs;
      xquery::KeptTemporaries held;
      {
        auto pinned = service.Pin("doc" + std::to_string(d));
        if (!pinned.ok()) {
          ++failures;
          continue;
        }
        auto kept =
            (*pinned)->engine()->EvaluateKeepingTemporaries(kHeavyQuery);
        if (!kept.ok()) {
          ++failures;
          continue;
        }
        held = std::move(kept->temporaries);
      }  // pin dropped; `held` may now outlive the document
      std::this_thread::yield();
      held.Release();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.stats().heavy_rejections, 0u);
  EXPECT_EQ(service.stats().overlay_id_exhausted, 0u);
}

#if defined(__unix__) || defined(__APPLE__)
// Mapped-snapshot lifetime under MVCC churn: a capacity-1 corpus with an
// arena spill directory, so every LRU miss adopts an mmap-backed snapshot
// and every alternation evicts one. A pin thread holds pinned (typically
// mapped) documents across evictions and keeps querying them — the mapping
// must stay alive and byte-identical for exactly as long as the pin does,
// while churn threads destroy and reload documents underneath. The TSan CI
// lane re-runs this standalone with MHX_STRESS_ITERS bumped.
TEST(ConcurrencyStressTest, EvictionVsPinnedMappedSnapshotRace) {
  char dir_template[] = "/tmp/mhx_stress_spill.XXXXXX";
  char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  corpus::CorpusOptions options;
  options.capacity = 1;  // every alternation evicts
  options.pool_threads = 2;
  options.spill_dir = dir;
  corpus::CorpusService service(options);

  constexpr int kDocs = 3;
  const char* kQuery = "/descendant::line";
  std::vector<std::string> expected(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    workload::EditionConfig config;
    config.seed = 81 + d;
    config.word_count = 60;
    config.damage_coverage = 0.12;
    config.restoration_coverage = 0.15;
    ASSERT_TRUE(service.Register("doc" + std::to_string(d), config).ok());
    auto direct = workload::BuildEditionDocument(config);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto reference = direct->Query(kQuery);
    ASSERT_TRUE(reference.ok()) << reference.status();
    expected[d] = *reference;
  }
  // Warm every document once so its spill arena exists: all later misses
  // come back as mapped snapshots, which is the lifetime under test.
  for (int d = 0; d < kDocs; ++d) {
    auto out = service.Query("doc" + std::to_string(d), kQuery);
    ASSERT_TRUE(out.ok()) << out.status();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Churn threads rotate documents through the capacity-1 LRU, so mapped
  // snapshots are adopted and evicted continuously.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < StressIters(10); ++i) {
        const int d = (i + t) % kDocs;
        auto out = service.Query("doc" + std::to_string(d), kQuery);
        if (!out.ok() || *out != expected[d]) ++failures;
      }
    });
  }
  // Pin thread: queries a pinned document repeatedly while the churn above
  // evicts it — the pin (and with it the arena mapping) must keep every
  // answer byte-identical until it drops.
  threads.emplace_back([&] {
    for (int i = 0; i < StressIters(6); ++i) {
      const int d = i % kDocs;
      auto pinned = service.Pin("doc" + std::to_string(d));
      if (!pinned.ok()) {
        ++failures;
        continue;
      }
      for (int q = 0; q < 3; ++q) {
        auto out = (*pinned)->Query(kQuery);
        if (!out.ok() || *out != expected[d]) ++failures;
        std::this_thread::yield();
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(service.stats().mmap_loads, 0u);
  EXPECT_EQ(service.stats().load_fallbacks, 0u);
}
#endif  // defined(__unix__) || defined(__APPLE__)

// Observability under churn: a threshold-0 corpus (every query lands in
// the slow-query ring) serves traced fan-out queries and untraced queries
// while one thread dumps the slow log and exports metrics in a loop and
// LRU churn across three documents builds and evicts engines underneath.
// Exercises the caller-trace path, the internal slow-log trace path, the
// per-slot scheduler tracing, and the ring's record/dump race at once;
// the TSan CI lane re-runs this standalone.
TEST(ConcurrencyStressTest, TracedQueriesSlowLogDumpRaceCorpusChurn) {
  corpus::CorpusOptions options;
  options.capacity = 2;
  options.pool_threads = 2;
  options.max_heavy_in_flight = 2;
  options.heavy_queue_limit = 64;
  options.slow_query_threshold_us = 0;  // capture every query
  options.slow_query_log_capacity = 8;
  corpus::CorpusService service(options);

  constexpr int kDocs = 3;
  const char* kCheapQuery = "/descendant::line";
  const char* kHeavyQuery =
      "for $w in /descendant::w[matches(string(.), '.*e.*')] return "
      "analyze-string($w, '.*e.*')/descendant::leaf()";
  std::vector<std::string> expected_cheap(kDocs);
  std::vector<std::string> expected_heavy(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    workload::EditionConfig config;
    config.seed = 71 + d;
    config.word_count = 60;
    config.damage_coverage = 0.12;
    config.restoration_coverage = 0.15;
    ASSERT_TRUE(service.Register("doc" + std::to_string(d), config).ok());
    auto direct = workload::BuildEditionDocument(config);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto cheap = direct->Query(kCheapQuery);
    auto heavy = direct->Query(kHeavyQuery);
    ASSERT_TRUE(cheap.ok() && heavy.ok());
    expected_cheap[d] = *cheap;
    expected_heavy[d] = *heavy;
  }

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Traced clients: each query carries its own caller trace through the
  // fan-out scheduler; spans must come back well-formed every time.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < StressIters(8); ++i) {
        const int d = (i + t) % kDocs;
        const bool heavy = (i + t) % 2 == 0;
        obs::QueryTrace trace;
        QueryOptions query_options;
        query_options.threads = 2;
        query_options.trace = &trace;
        auto out = service.Query("doc" + std::to_string(d),
                                 heavy ? kHeavyQuery : kCheapQuery,
                                 query_options);
        if (!out.ok() ||
            *out != (heavy ? expected_heavy[d] : expected_cheap[d])) {
          ++failures;
          continue;
        }
        bool saw_evaluate = false;
        for (const obs::QueryTrace::Span& span : trace.spans()) {
          if (span.end_ns < span.begin_ns) ++failures;
          if (span.name == "evaluate") saw_evaluate = true;
        }
        if (!saw_evaluate) ++failures;
      }
    });
  }
  // Untraced client: the default path must not regress or race while
  // traced queries and the slow log run beside it.
  threads.emplace_back([&] {
    for (int i = 0; i < StressIters(12); ++i) {
      const int d = i % kDocs;
      auto out = service.Query("doc" + std::to_string(d), kCheapQuery);
      if (!out.ok() || *out != expected_cheap[d]) ++failures;
    }
  });
  // Observer: dumps the slow-query ring and exports metrics while the
  // writers above wrap it and the LRU churns documents.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& record : service.DumpSlowQueries()) {
        if (record.query.empty()) ++failures;  // torn record
      }
      if (service.metrics().TextExport().empty()) ++failures;
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(service.stats().slow_queries, 0u);
  EXPECT_FALSE(service.DumpSlowQueries().empty());
}

TEST(ConcurrencyStressTest, ThreadPoolSubmitRace) {
  base::ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &sum] {
      std::vector<std::future<int>> futures;
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.Submit([i] { return i; }));
      }
      for (auto& future : futures) sum += future.get();
    });
  }
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(sum.load(), 4L * (49 * 50 / 2));
}

}  // namespace
}  // namespace mhx
