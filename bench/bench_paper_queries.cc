// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiments E3-E7 (DESIGN.md): the paper's Section 4 queries and the
// Example 1 analyze-string() call on the Figure 1 document, plus the same
// queries scaled up on synthetic editions. Each benchmark also verifies the
// expected output so timings are of *correct* executions.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xquery/serialize.h"

namespace {

using mhx::MultihierarchicalDocument;

MultihierarchicalDocument* PaperDoc() {
  static MultihierarchicalDocument* doc = [] {
    auto d = mhx::workload::BuildPaperDocument();
    if (!d.ok()) std::abort();
    return new MultihierarchicalDocument(std::move(d).value());
  }();
  return doc;
}

void VerifyOrAbort(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "verification failed: %s\n", what);
    std::abort();
  }
}

void BM_QueryI1_LinesContainingWord(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  for (auto _ : state) {
    auto out = doc->Query(mhx::workload::kQueryI1);
    VerifyOrAbort(out.ok() && *out == mhx::workload::kExpectedI1, "I.1");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QueryI1_LinesContainingWord);

void BM_QueryI2_DamagedWordsHighlighted(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  for (auto _ : state) {
    auto out = doc->Query(mhx::workload::kQueryI2);
    VerifyOrAbort(out.ok() && *out == mhx::workload::kExpectedI2, "I.2");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QueryI2_DamagedWordsHighlighted);

void BM_QueryII1_AnalyzeStringHighlight(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  for (auto _ : state) {
    auto out = doc->Query(mhx::workload::kQueryII1);
    VerifyOrAbort(out.ok() && mhx::xquery::CoalesceRuns(*out) ==
                                  mhx::workload::kExpectedII1Coalesced,
                  "II.1");
    benchmark::DoNotOptimize(out);
  }
  // analyze-string() temporaries live in evaluation-scoped overlays that
  // never enter the base RangeIndex; every iteration's add/query/drop
  // cycle must cost zero rebuilds (the counter stays at the single
  // initial build, flat in iteration count).
  state.counters["index_rebuilds"] =
      static_cast<double>(doc->engine()->index_rebuild_count());
}
BENCHMARK(BM_QueryII1_AnalyzeStringHighlight);

void BM_QueryIII1_RestoredItalicized(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  for (auto _ : state) {
    auto out = doc->Query(mhx::workload::kQueryIII1Intent);
    VerifyOrAbort(out.ok() && mhx::xquery::CoalesceRuns(*out) ==
                                  mhx::workload::kExpectedIII1IntentCoalesced,
                  "III.1");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QueryIII1_RestoredItalicized);

void BM_Example1_AnalyzeString(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  auto* engine = doc->engine();
  const char* kCall =
      "analyze-string(/descendant::w[string(.) = 'unawendendne'],"
      " \".*un<a>a</a>we.*\")";
  for (auto _ : state) {
    // The KeptTemporaries handle inside the result keeps the virtual
    // hierarchy alive; dropping it at the end of the iteration is the
    // entire teardown (no CleanupTemporaries round-trip).
    auto result = engine->EvaluateKeepingTemporaries(kCall);
    VerifyOrAbort(result.ok() && result->items.size() == 1, "Example 1");
  }
  state.counters["index_rebuilds"] =
      static_cast<double>(engine->index_rebuild_count());
}
BENCHMARK(BM_Example1_AnalyzeString);

// The overlay acceptance lane: four threads running the analyze-string
// query II.1 concurrently on one document — single-flight by design under
// the old exclusive eval lock, truly concurrent with evaluation-scoped
// overlays. Every output must stay byte-identical to the pinned
// serialisation, and the shared base index must never rebuild: the overlay
// namespaces keep `index_rebuilds` flat at 1 no matter how many
// analyze-string cycles race.
void BM_AnalyzeString_Concurrent4(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  for (auto _ : state) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([doc, &failures] {
        auto out = doc->Query(mhx::workload::kQueryII1);
        if (!out.ok() || mhx::xquery::CoalesceRuns(*out) !=
                             mhx::workload::kExpectedII1Coalesced) {
          ++failures;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    VerifyOrAbort(failures.load() == 0, "II.1 concurrent");
  }
  VerifyOrAbort(doc->engine()->index_rebuild_count() == 1,
                "index_rebuilds stayed flat (=1) under concurrency");
  state.counters["index_rebuilds"] =
      static_cast<double>(doc->engine()->index_rebuild_count());
}
BENCHMARK(BM_AnalyzeString_Concurrent4)->UseRealTime();

// The acceptance lane for the parallel execution layer: all four Section 4
// queries with QueryOptions{threads: 4}, each iteration verified against the
// same pinned serialisations as the serial benchmarks above — parallel
// evaluation must be byte-identical.
void BM_PaperQueries_Parallel4(benchmark::State& state) {
  MultihierarchicalDocument* doc = PaperDoc();
  mhx::QueryOptions options;
  options.threads = 4;
  for (auto _ : state) {
    auto i1 = doc->Query(mhx::workload::kQueryI1, options);
    VerifyOrAbort(i1.ok() && *i1 == mhx::workload::kExpectedI1,
                  "I.1 parallel");
    auto i2 = doc->Query(mhx::workload::kQueryI2, options);
    VerifyOrAbort(i2.ok() && *i2 == mhx::workload::kExpectedI2,
                  "I.2 parallel");
    auto ii1 = doc->Query(mhx::workload::kQueryII1, options);
    VerifyOrAbort(ii1.ok() && mhx::xquery::CoalesceRuns(*ii1) ==
                                  mhx::workload::kExpectedII1Coalesced,
                  "II.1 parallel");
    auto iii1 = doc->Query(mhx::workload::kQueryIII1Intent, options);
    VerifyOrAbort(iii1.ok() && mhx::xquery::CoalesceRuns(*iii1) ==
                                   mhx::workload::kExpectedIII1IntentCoalesced,
                  "III.1 parallel");
    benchmark::DoNotOptimize(iii1);
  }
  state.counters["parallel_tasks"] =
      static_cast<double>(doc->engine()->parallel_tasks());
}
BENCHMARK(BM_PaperQueries_Parallel4);

// --- The same query shapes on growing synthetic editions -------------------

// Keyed by (words, threads): the engine's pool grows to the largest
// `threads` it has seen, so sharing one engine across parallel lanes would
// let a wide lane inflate a narrow one's real concurrency.
MultihierarchicalDocument* EditionDoc(size_t words, unsigned threads = 1) {
  static auto* cache =
      new std::map<std::pair<size_t, unsigned>, MultihierarchicalDocument*>();
  const auto key = std::make_pair(words, threads);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  mhx::workload::EditionConfig config;
  config.seed = 99;
  config.word_count = words;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto d = mhx::workload::BuildEditionDocument(config);
  if (!d.ok()) std::abort();
  auto* doc = new MultihierarchicalDocument(std::move(d).value());
  (*cache)[key] = doc;
  return doc;
}

void BM_ScenarioI2_Scaled(benchmark::State& state) {
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  const char* kQuery = R"(
for $l in /descendant::line
    [xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))";
  for (auto _ : state) {
    auto out = doc->Query(kQuery);
    VerifyOrAbort(out.ok(), "scenario I.2 scaled");
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioI2_Scaled)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

// The paper's hottest workload (query II.1 / E5-E7 shape) with an intra-
// query threads axis (arg 1 = QueryOptions::threads; /1 is the serial
// baseline). Worker slots evaluate the analyze-string bodies in private
// sub-overlays, each slot claiming the next chunk of bindings off a shared
// cursor so the regex-skewed iteration costs balance — every parallel iteration is
// verified byte-identical to the serial output of the same edition, and
// `index_rebuilds` must stay flat at 1 no matter the width. Counters:
// `parallel_tasks` and `sorts_skipped`, engine-lifetime monotonic.
void BM_ScenarioII_AnalyzeStringScaled(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(1));
  MultihierarchicalDocument* doc = EditionDoc(state.range(0), threads);
  const char* kQuery = R"(
for $w in /descendant::w[matches(string(.), ".*ea.*")]
return (
  let $r := analyze-string($w, ".*ea.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))";
  mhx::QueryOptions options;
  options.threads = threads;
  // The serial reference is computed once per edition size (the benchmark
  // function is entered several times per lane for iteration estimation;
  // the workload is seeded, so every lane of one size expects one string).
  const std::string& expected = [&]() -> const std::string& {
    static auto* cache = new std::map<size_t, std::string>();
    auto it = cache->find(state.range(0));
    if (it == cache->end()) {
      auto serial = doc->Query(kQuery);
      VerifyOrAbort(serial.ok(), "scenario II scaled (serial reference)");
      it = cache->emplace(state.range(0), *serial).first;
    }
    return it->second;
  }();
  for (auto _ : state) {
    auto out = doc->Query(kQuery, options);
    VerifyOrAbort(out.ok() && *out == expected,
                  "scenario II scaled (parallel == serial)");
    benchmark::DoNotOptimize(out);
  }
  VerifyOrAbort(doc->engine()->index_rebuild_count() == 1,
                "index_rebuilds stayed flat (=1) under intra-query fan-out");
  state.counters["index_rebuilds"] =
      static_cast<double>(doc->engine()->index_rebuild_count());
  state.counters["parallel_tasks"] =
      static_cast<double>(doc->engine()->parallel_tasks());
  state.counters["sorts_skipped"] =
      static_cast<double>(doc->engine()->sorts_skipped());
}
// No ->Complexity(): a BigO fit over args mixing a threads axis into the
// same N would blend serial and parallel timings into a meaningless curve.
BENCHMARK(BM_ScenarioII_AnalyzeStringScaled)
    ->Args({100, 1})
    ->Args({400, 1})
    ->Args({1600, 1})
    ->Args({1600, 2})
    ->Args({1600, 4});

}  // namespace

BENCHMARK_MAIN();
