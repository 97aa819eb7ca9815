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
  // wrapper [9,21) > m [9,14) > a [11,12) over "unawendendne".
  const char* kExpected =
      "<analyze-string-result><m>un<a>a</a>we</m>ndendne"
      "</analyze-string-result>";
  for (auto _ : state) {
    // The temporary hierarchy lives for this evaluation only; its teardown
    // is part of every iteration.
    auto out = engine->Evaluate(kCall);
    VerifyOrAbort(out.ok() && *out == kExpected, "Example 1");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Example1_AnalyzeString);

// The overlay acceptance lane: four threads running the analyze-string
// query II.1 concurrently on one document — single-flight by design under
// the old exclusive eval lock, truly concurrent with evaluation-scoped
// overlays. Every output must stay byte-identical to the pinned
// serialisation.
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
}
BENCHMARK(BM_AnalyzeString_Concurrent4)->UseRealTime();

// --- The same query shapes on growing synthetic editions -------------------

// Keyed by word count.
MultihierarchicalDocument* EditionDoc(size_t words) {
  static auto* cache = new std::map<size_t, MultihierarchicalDocument*>();
  auto it = cache->find(words);
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
  (*cache)[words] = doc;
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

// The paper's hottest workload (query II.1 / E5-E7 shape) on growing
// editions. Each binding evaluates its analyze-string body in a forked
// overlay view; every iteration is verified byte-identical to the first
// evaluation of the same edition. Counter `sorts_skipped` is
// engine-lifetime monotonic.
void BM_ScenarioII_AnalyzeStringScaled(benchmark::State& state) {
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  const char* kQuery = R"(
for $w in /descendant::w[matches(string(.), ".*ea.*")]
return (
  let $r := analyze-string($w, ".*ea.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))";
  auto reference = doc->Query(kQuery);
  VerifyOrAbort(reference.ok(), "scenario II scaled (reference)");
  for (auto _ : state) {
    auto out = doc->Query(kQuery);
    VerifyOrAbort(out.ok() && *out == *reference,
                  "scenario II scaled (repeatable)");
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
  state.counters["sorts_skipped"] =
      static_cast<double>(doc->engine()->sorts_skipped());
}
BENCHMARK(BM_ScenarioII_AnalyzeStringScaled)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
