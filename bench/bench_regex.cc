// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiment E11 (DESIGN.md): throughput of the regex substrate behind
// matches() and analyze-string() — literal cores, wildcard contexts, classes,
// alternations, capture groups, and the XML-fragment translation, including
// the pathological case where backtracking engines blow up and the DFA and
// the Pike VM stay linear. ContainsMatch runs the DFA; the PikeFallback lane
// times the same words on a pattern past the DFA budget.

#include <benchmark/benchmark.h>

#include <string>

#include "regex/fragment_pattern.h"
#include "regex/regex.h"
#include "workload/generator.h"

namespace {

using mhx::regex::Regex;

std::string CorpusText(size_t words) {
  mhx::workload::EditionConfig config;
  config.seed = 41;
  config.word_count = words;
  return mhx::workload::GenerateEdition(config).base_text;
}

Regex MustCompile(const char* pattern) {
  auto re = Regex::Compile(pattern);
  if (!re.ok()) std::abort();
  return std::move(re).value();
}

void BM_Compile(benchmark::State& state) {
  for (auto _ : state) {
    auto re = Regex::Compile("(un)(a(we)?|[b-d]+){1,3}(end|ne)$");
    if (!re.ok()) std::abort();
    benchmark::DoNotOptimize(re);
  }
}
BENCHMARK(BM_Compile);

void RunSearch(benchmark::State& state, const char* pattern) {
  std::string text = CorpusText(static_cast<size_t>(state.range(0)));
  Regex re = MustCompile(pattern);
  for (auto _ : state) {
    auto matches = re.FindAll(text);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          text.size());
}

void BM_FindAll_Literal(benchmark::State& state) {
  RunSearch(state, "sceaft");
}
BENCHMARK(BM_FindAll_Literal)->Arg(1000)->Arg(8000);

void BM_FindAll_Class(benchmark::State& state) {
  RunSearch(state, "[aeiou][^aeiou ]+");
}
BENCHMARK(BM_FindAll_Class)->Arg(1000)->Arg(8000);

void BM_FindAll_Alternation(benchmark::State& state) {
  RunSearch(state, "sceaft|hweo|thyt|frean");
}
BENCHMARK(BM_FindAll_Alternation)->Arg(1000)->Arg(8000);

void BM_FindAll_Captures(benchmark::State& state) {
  RunSearch(state, "(s(c)e)(aft)");
}
BENCHMARK(BM_FindAll_Captures)->Arg(1000)->Arg(8000);

void BM_ContainsMatch_WildcardContext(benchmark::State& state) {
  // The paper's matches(string(.), ".*unawe.*") shape on word-sized inputs.
  auto words = mhx::workload::SampleVocabulary(13, 512);
  Regex re = MustCompile(".*ea.*");
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& w : words) {
      if (re.ContainsMatch(w)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          words.size());
}
BENCHMARK(BM_ContainsMatch_WildcardContext);

void BM_ContainsMatch_PikeFallback(benchmark::State& state) {
  // The same words against a pattern past the DFA's state budget ("an e
  // followed by 12 more characters" needs 2^12 states): every call runs
  // the Pike VM, the engine the DFA replaces for existence tests.
  auto words = mhx::workload::SampleVocabulary(13, 512);
  Regex re = MustCompile(".*e.{12}.*");
  if (re.has_dfa()) std::abort();
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& w : words) {
      if (re.ContainsMatch(w)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          words.size());
}
BENCHMARK(BM_ContainsMatch_PikeFallback);

void BM_PathologicalLinear(benchmark::State& state) {
  // (a|a)*b over a^n: exponential for backtrackers, linear for the DFA.
  std::string text(static_cast<size_t>(state.range(0)), 'a');
  Regex re = MustCompile("(a|a)*b");
  for (auto _ : state) {
    bool hit = re.FullMatch(text);
    if (hit) std::abort();
    benchmark::DoNotOptimize(hit);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathologicalLinear)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Complexity();

void BM_FragmentPatternTranslate(benchmark::State& state) {
  for (auto _ : state) {
    auto f = mhx::regex::TranslateFragmentPattern(
        ".*un<a>a<b>w</b>e</a>nden<c>dne</c>.*");
    if (!f.ok()) std::abort();
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FragmentPatternTranslate);

void BM_Example1Pipeline(benchmark::State& state) {
  // Strip context wildcards, translate the fragment pattern, compile, match —
  // the full regex-side pipeline of one analyze-string() call.
  for (auto _ : state) {
    std::string core =
        mhx::regex::StripContextWildcards(".*un<a>a</a>we.*");
    auto f = mhx::regex::TranslateFragmentPattern(core);
    if (!f.ok()) std::abort();
    auto re = Regex::Compile(f->regex);
    if (!re.ok()) std::abort();
    auto matches = re->FindAll("unawendendne");
    if (matches.size() != 1) std::abort();
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_Example1Pipeline);

}  // namespace

BENCHMARK_MAIN();
