// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiment E8 (DESIGN.md): KyGODDAG extended axes vs. the single-document
// fragmentation encoding (the authors' DEXA'05 comparison, which the paper
// cites as "a steep price at query processing time").
//
// Both sides answer the same whole-element questions:
//   * overlap join  — which words overlap which lines (the paper's I.1);
//   * containment   — which words contain damage (the paper's I.2 filter);
//   * string search — find words by full text (fragmented words must be
//                     reassembled before their text can even be compared).
//
// Expected shape: the KyGODDAG answers from its interval index; the
// fragmentation side must reassemble fragments first, so its cost grows with
// the fragment count (overlap density × document size), and the gap widens
// as lines get shorter (more markup conflicts).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "baseline/fragmentation.h"
#include "goddag/persist.h"
#include "workload/generator.h"
#include "goddag/index.h"
#include "xpath/axes.h"

namespace {

using mhx::MultihierarchicalDocument;
using mhx::baseline::FragmentationEncoding;
using mhx::TextRange;
using mhx::goddag::NodeId;
using mhx::xpath::Axis;
using mhx::xpath::AxisEvaluator;
using mhx::xpath::NodeTest;

struct Setup {
  MultihierarchicalDocument* doc;
  FragmentationEncoding* enc;
};

/// args: (word_count, chars_per_line). Shorter lines = more fragmentation.
Setup GetSetup(int64_t words, int64_t chars_per_line) {
  static auto* cache = new std::map<std::pair<int64_t, int64_t>, Setup>();
  auto key = std::make_pair(words, chars_per_line);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  mhx::workload::EditionConfig config;
  config.seed = 29;
  config.word_count = static_cast<size_t>(words);
  config.chars_per_line = static_cast<size_t>(chars_per_line);
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto d = mhx::workload::BuildEditionDocument(config);
  if (!d.ok()) std::abort();
  Setup setup;
  setup.doc = new MultihierarchicalDocument(std::move(d).value());
  setup.enc = new FragmentationEncoding(
      FragmentationEncoding::Encode(setup.doc->goddag()));
  (*cache)[key] = setup;
  return setup;
}

// --- Overlap join: words × lines -------------------------------------------

void BM_OverlapJoin_KyGoddag(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  const auto snapshot = setup.doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base(&snapshot->goddag());
  size_t total = 0;
  for (auto _ : state) {
    size_t pairs = 0;
    for (NodeId id : kg.hierarchy(1).nodes) {
      const auto& n = kg.node(id);
      if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w") {
        pairs += axes.EvaluatePlanned(base, id, Axis::kOverlapping,
                                      NodeTest::Name("line"))
                     .size();
      }
    }
    total = pairs;
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(total);
}
BENCHMARK(BM_OverlapJoin_KyGoddag)
    ->Args({400, 60})
    ->Args({400, 30})
    ->Args({400, 15})
    ->Args({1600, 30})
    ->Args({6400, 30});

void BM_OverlapJoin_KyGoddagIndexRaw(benchmark::State& state) {
  // The same join through the RangeIndex directly (no per-call sorting or
  // node-test dispatch) — the bulk primitive a query optimizer would use.
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  mhx::goddag::RangeIndex index(&kg);
  size_t total = 0;
  for (auto _ : state) {
    size_t pairs = 0;
    for (NodeId id : kg.hierarchy(1).nodes) {
      const auto& n = kg.node(id);
      if (n.kind != mhx::goddag::GNodeKind::kElement || n.name != "w") {
        continue;
      }
      for (NodeId m : index.NodesOverlapping(n.range)) {
        const auto& gm = kg.node(m);
        if (gm.kind == mhx::goddag::GNodeKind::kElement &&
            gm.name == "line") {
          ++pairs;
        }
      }
    }
    total = pairs;
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(total);
}
BENCHMARK(BM_OverlapJoin_KyGoddagIndexRaw)
    ->Args({400, 60})
    ->Args({400, 30})
    ->Args({400, 15})
    ->Args({1600, 30})
    ->Args({6400, 30});

void BM_OverlapJoin_Fragmentation(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  size_t total = 0;
  for (auto _ : state) {
    size_t pairs = setup.enc->CountOverlapping("w", "line");
    total = pairs;
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(total);
  state.counters["fragments"] =
      static_cast<double>(setup.enc->fragment_count());
}
BENCHMARK(BM_OverlapJoin_Fragmentation)
    ->Args({400, 60})
    ->Args({400, 30})
    ->Args({400, 15})
    ->Args({1600, 30})
    ->Args({6400, 30});

// --- Point query: does THIS word cross a line boundary? -----------------------
//
// The structural advantage of the KyGODDAG: a single-element question costs
// one indexed lookup; the fused encoding must reassemble the whole element
// table before it can even see whole words.

void BM_PointOverlap_KyGoddag(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  const auto snapshot = setup.doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base(&snapshot->goddag());
  // Middle word of the document.
  std::vector<NodeId> words;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const auto& n = kg.node(id);
    if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w") {
      words.push_back(id);
    }
  }
  NodeId target = words[words.size() / 2];
  for (auto _ : state) {
    auto lines = axes.EvaluatePlanned(base, target, Axis::kOverlapping,
                                      NodeTest::Name("line"));
    benchmark::DoNotOptimize(lines);
  }
}
BENCHMARK(BM_PointOverlap_KyGoddag)
    ->Args({400, 30})
    ->Args({1600, 30})
    ->Args({6400, 30});

void BM_PointOverlap_Fragmentation(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  // The same middle word, identified by its range.
  std::vector<TextRange> words;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const auto& n = kg.node(id);
    if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w") {
      words.push_back(n.range);
    }
  }
  TextRange target = words[words.size() / 2];
  for (auto _ : state) {
    // Reassemble both element tables (mandatory under fragmentation), find
    // the target word, then check it against the lines.
    auto ws = setup.enc->Reassemble("w");
    auto lines = setup.enc->Reassemble("line");
    size_t hits = 0;
    for (const auto& w : ws) {
      if (w.range == target) {
        for (const auto& l : lines) {
          if (mhx::OverlappingRange(w.range, l.range)) ++hits;
        }
      }
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PointOverlap_Fragmentation)
    ->Args({400, 30})
    ->Args({1600, 30})
    ->Args({6400, 30});

// --- Containment: words containing damage ------------------------------------

void BM_Containment_KyGoddag(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  const auto snapshot = setup.doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base(&snapshot->goddag());
  for (auto _ : state) {
    size_t count = 0;
    for (NodeId id : kg.hierarchy(1).nodes) {
      const auto& n = kg.node(id);
      if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w" &&
          !axes.EvaluatePlanned(base, id, Axis::kXDescendant,
                                NodeTest::Name("dmg"))
               .empty()) {
        ++count;
      }
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Containment_KyGoddag)->Args({400, 30})->Args({1600, 30});

void BM_Containment_Fragmentation(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  for (auto _ : state) {
    size_t count = setup.enc->CountContaining("w", "dmg");
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Containment_Fragmentation)->Args({400, 30})->Args({1600, 30});

// --- String search across fragment boundaries ---------------------------------

void BM_StringSearch_KyGoddag(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  // The target word's text: pick the word overlapping a line if any (worst
  // case for the baseline), else the middle word.
  const auto snapshot = setup.doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base(&snapshot->goddag());
  std::string target;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const auto& n = kg.node(id);
    if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w" &&
        !axes.EvaluatePlanned(base, id, Axis::kOverlapping,
                              NodeTest::Name("line"))
             .empty()) {
      target = kg.NodeString(id);
      break;
    }
  }
  if (target.empty()) target = "xqzy";
  for (auto _ : state) {
    size_t hits = 0;
    for (NodeId id : kg.hierarchy(1).nodes) {
      const auto& n = kg.node(id);
      if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w" &&
          kg.NodeString(id) == target) {
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StringSearch_KyGoddag)->Args({1600, 30});

void BM_StringSearch_Fragmentation(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  const auto& kg = setup.doc->goddag();
  const auto snapshot = setup.doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base(&snapshot->goddag());
  std::string target;
  for (NodeId id : kg.hierarchy(1).nodes) {
    const auto& n = kg.node(id);
    if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w" &&
        !axes.EvaluatePlanned(base, id, Axis::kOverlapping,
                              NodeTest::Name("line"))
             .empty()) {
      target = kg.NodeString(id);
      break;
    }
  }
  if (target.empty()) target = "xqzy";
  for (auto _ : state) {
    auto hits = setup.enc->FindByString("w", target);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StringSearch_Fragmentation)->Args({1600, 30});

// --- Encoding cost itself -----------------------------------------------------

void BM_Encode_Fragmentation(benchmark::State& state) {
  Setup setup = GetSetup(state.range(0), state.range(1));
  for (auto _ : state) {
    auto enc = FragmentationEncoding::Encode(setup.doc->goddag());
    benchmark::DoNotOptimize(enc);
  }
}
BENCHMARK(BM_Encode_Fragmentation)->Args({400, 30})->Args({1600, 30});

// --- Cold start: reparse vs mmap (goddag/persist.h) ---------------------------
//
// What it costs to bring an edition from "nothing resident" to
// "query-ready snapshot with index and stats". The XML-reparse lane is
// what every cold start cost before the arena format; the mmap lane
// validates and adopts the same snapshot out of an on-disk arena.
// Counters: load_us (best observed cold start; gated by
// tools/bench_compare.py) and, on Linux, resident_kb after the lane — the
// mapped structures are file-backed pages, not heap.

long long ColdNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ResidentKb() {
#if defined(__linux__)
  // /proc/self/statm field 2: resident pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long total = 0, resident = 0;
  const int matched = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (matched != 2) return 0.0;
  return static_cast<double>(resident) * 4096.0 / 1024.0;
#else
  return 0.0;
#endif
}

// The arena file for a (words, chars_per_line) pair, written once.
const std::string& ColdStartArena(int64_t words, int64_t chars_per_line) {
  static auto* cache = new std::map<std::pair<int64_t, int64_t>,
                                    std::string>();
  const auto key = std::make_pair(words, chars_per_line);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  Setup setup = GetSetup(words, chars_per_line);
  const char* tmp = std::getenv("TMPDIR");
  std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                     "/bench_vs_frag." + std::to_string(words) + "." +
                     std::to_string(chars_per_line) + ".mhxa";
  auto written =
      mhx::goddag::WriteSnapshotFile(*setup.doc->PinSnapshot(), path);
  if (!written.ok()) std::abort();
  return cache->emplace(key, std::move(path)).first->second;
}

void BM_ColdStart_XmlReparse(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 29;
  config.word_count = static_cast<size_t>(state.range(0));
  config.chars_per_line = static_cast<size_t>(state.range(1));
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  long long best_us = -1;
  for (auto _ : state) {
    const long long begin = ColdNowUs();
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    auto snapshot = doc->PinSnapshot();
    const long long took = ColdNowUs() - begin;
    if (best_us < 0 || took < best_us) best_us = took;
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["load_us"] = static_cast<double>(best_us);
  state.counters["resident_kb"] = ResidentKb();
}
BENCHMARK(BM_ColdStart_XmlReparse)->Args({1600, 30})->Args({6400, 30});

void BM_ColdStart_MmapLoad(benchmark::State& state) {
  const std::string& path = ColdStartArena(state.range(0), state.range(1));
  long long best_us = -1;
  for (auto _ : state) {
    const long long begin = ColdNowUs();
    auto mapped = mhx::goddag::LoadSnapshotFile(path);
    if (!mapped.ok()) std::abort();
    const long long took = ColdNowUs() - begin;
    if (best_us < 0 || took < best_us) best_us = took;
    benchmark::DoNotOptimize(mapped->snapshot);
  }
  state.counters["load_us"] = static_cast<double>(best_us);
  state.counters["resident_kb"] = ResidentKb();
}
BENCHMARK(BM_ColdStart_MmapLoad)->Args({1600, 30})->Args({6400, 30});

void BM_ColdStart_FragmentationEncode(benchmark::State& state) {
  // The baseline's cold start: reparse (it consumes the same XML) plus
  // the fragmentation encode of the whole goddag.
  mhx::workload::EditionConfig config;
  config.seed = 29;
  config.word_count = static_cast<size_t>(state.range(0));
  config.chars_per_line = static_cast<size_t>(state.range(1));
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  long long best_us = -1;
  for (auto _ : state) {
    const long long begin = ColdNowUs();
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    auto enc = FragmentationEncoding::Encode(doc->goddag());
    const long long took = ColdNowUs() - begin;
    if (best_us < 0 || took < best_us) best_us = took;
    benchmark::DoNotOptimize(enc);
  }
  state.counters["load_us"] = static_cast<double>(best_us);
  state.counters["resident_kb"] = ResidentKb();
}
BENCHMARK(BM_ColdStart_FragmentationEncode)->Args({1600, 30});

}  // namespace

BENCHMARK_MAIN();
