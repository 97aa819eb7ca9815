// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiment E12 (DESIGN.md): the XQuery pipeline itself — parsing cost for
// the paper's queries, and evaluation cost decomposed over FLWOR iteration,
// predicates, constructors, and serialization.

#include <benchmark/benchmark.h>

#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xquery/parser.h"

namespace {

using mhx::MultihierarchicalDocument;

void BM_Parse_PaperQueries(benchmark::State& state) {
  const char* queries[] = {
      mhx::workload::kQueryI1, mhx::workload::kQueryI2,
      mhx::workload::kQueryII1, mhx::workload::kQueryIII1Intent};
  for (auto _ : state) {
    for (const char* q : queries) {
      auto e = mhx::xquery::ParseQuery(q);
      if (!e.ok()) std::abort();
      benchmark::DoNotOptimize(e);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_Parse_PaperQueries);

void BM_Parse_DeepNesting(benchmark::State& state) {
  // Parser stress: nested parens/constructors.
  std::string query = "1";
  for (int i = 0; i < 64; ++i) query = "(" + query + " + 1)";
  for (auto _ : state) {
    auto e = mhx::xquery::ParseQuery(query);
    if (!e.ok()) std::abort();
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_Parse_DeepNesting);

// Documents are cached per size.
MultihierarchicalDocument* EditionDoc(size_t words) {
  static auto* cache = new std::map<size_t, MultihierarchicalDocument*>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  mhx::workload::EditionConfig config;
  config.seed = 53;
  config.word_count = words;
  auto d = mhx::workload::BuildEditionDocument(config);
  if (!d.ok()) std::abort();
  auto* doc = new MultihierarchicalDocument(std::move(d).value());
  (*cache)[words] = doc;
  return doc;
}

void RunQuery(benchmark::State& state, const char* query) {
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  for (auto _ : state) {
    auto out = doc->Query(query);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
  // Engine-lifetime counters (monotonic; EditionDoc caches documents, so
  // they aggregate across size args — nonzero is the claim, not the value).
  state.counters["sorts_skipped"] =
      static_cast<double>(doc->engine()->sorts_skipped());
}

void BM_Eval_FlworIteration(benchmark::State& state) {
  RunQuery(state, "for $w in /descendant::w return string-length(string($w))");
}
BENCHMARK(BM_Eval_FlworIteration)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_Eval_PredicateFilter(benchmark::State& state) {
  RunQuery(state,
           "count(/descendant::w[string-length(string(.)) > 8])");
}
BENCHMARK(BM_Eval_PredicateFilter)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_Eval_ExtendedAxisQuery(benchmark::State& state) {
  RunQuery(state, "count(/descendant::w[overlapping::line])");
}
BENCHMARK(BM_Eval_ExtendedAxisQuery)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Complexity();

void BM_Eval_ConstructorHeavy(benchmark::State& state) {
  RunQuery(state,
           "for $w in /descendant::w return <span id=\"{name($w)}\">"
           "<b>{$w}</b></span>");
}
BENCHMARK(BM_Eval_ConstructorHeavy)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_Eval_LeafScan(benchmark::State& state) {
  RunQuery(state, "count(/descendant::leaf())");
}
BENCHMARK(BM_Eval_LeafScan)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_Eval_Quantified(benchmark::State& state) {
  RunQuery(state,
           "count(/descendant::line[some $w in xdescendant::w satisfies "
           "string-length(string($w)) > 10])");
}
BENCHMARK(BM_Eval_Quantified)->Arg(100)->Arg(400)->Complexity();

}  // namespace

BENCHMARK_MAIN();
