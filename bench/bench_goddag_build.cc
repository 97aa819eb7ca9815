// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiments E1/E2/E10 (DESIGN.md): KyGODDAG construction cost vs. edition
// size and number of hierarchies, plus the cost of virtual-hierarchy
// add/remove cycles (what every analyze-string() call pays). The E10 lanes
// mutate a bench-owned Clone() of the edition's goddag and time the
// library's own leaves() derivation after each change. Build publishes
// version 1 complete, so the BM_Build* lanes include the RangeIndex and
// SnapshotStats builds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "document.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xml/parser.h"

namespace {

using mhx::goddag::KyGoddag;

void BM_BuildPaperDocument(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = mhx::workload::BuildPaperDocument();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildPaperDocument);

void BM_BuildEdition_BySize(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition edition = mhx::workload::GenerateEdition(config);
  size_t bytes = edition.base_text.size();
  for (auto _ : state) {
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes *
                          4);  // 4 encodings parsed per build
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildEdition_BySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity();

void BM_BuildEdition_ByHierarchyCount(benchmark::State& state) {
  // 1..4 hierarchies over the same base text.
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = 800;
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  std::vector<std::pair<std::string, std::string>> all = {
      {"physical", e.physical_xml},
      {"structural", e.structural_xml},
      {"restoration", e.restoration_xml},
      {"condition", e.condition_xml},
  };
  int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mhx::MultihierarchicalDocument::Builder builder;
    builder.SetBaseText(e.base_text);
    for (int i = 0; i < count; ++i) {
      builder.AddHierarchy(all[i].first, all[i].second);
    }
    auto doc = builder.Build();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildEdition_ByHierarchyCount)->DenseRange(1, 4);

void BM_VirtualHierarchyCycle(benchmark::State& state) {
  // Add + remove a virtual hierarchy (the analyze-string() substrate) on an
  // edition of the given size, reading the leaf partition after each
  // change.
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  std::unique_ptr<KyGoddag> kg = doc->goddag().Clone();
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(n / 4, n / 2), {}},
         mhx::goddag::VirtualElement{"m", mhx::TextRange(n / 3, n / 2 - 1),
                                     {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
    if (!kg->RemoveVirtualHierarchy(*h).ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VirtualHierarchyCycle)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity();

void BM_XmlParseOnly(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  for (auto _ : state) {
    auto doc = mhx::xml::Parse(e.structural_xml);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          e.structural_xml.size());
}
BENCHMARK(BM_XmlParseOnly)->Arg(400)->Arg(6400);

void BM_LeafPartitionRebuild(benchmark::State& state) {
  // Isolated cost of deriving the leaf partition after a structural
  // change: one whole-text virtual element, so every derivation sees two
  // extra cuts. Each iteration performs one add + leaves() + remove +
  // leaves() cycle, all timed.
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  std::unique_ptr<KyGoddag> kg = doc->goddag().Clone();
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(1, n - 1), {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
    (void)kg->RemoveVirtualHierarchy(*h);
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeafPartitionRebuild)->Arg(400)->Arg(1600)->Arg(6400)->Complexity();

// --- E10 follow-up: range-scoped leaf() lookups on overlay views ---------

// A `words`-word edition (arg 0) plus what II.1's analyze-string($w,
// ".*ea.*") builds per matching word: one overlay with the word-spanning
// result wrapper and an <m> per "ea" in the word.
struct LeavesInFixture {
  std::unique_ptr<mhx::MultihierarchicalDocument> doc;
  std::shared_ptr<mhx::goddag::OverlayIdAllocator> ids;
  std::vector<std::shared_ptr<const mhx::goddag::GoddagOverlay>> overlays;
  std::vector<mhx::TextRange> words;  // the analysed word of each overlay
};

LeavesInFixture* MakeLeavesInFixture(size_t words) {
  static auto* cache = new std::map<size_t, LeavesInFixture*>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  auto* fx = new LeavesInFixture();
  mhx::workload::EditionConfig config;
  config.seed = 7;
  config.word_count = words;
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  fx->doc = std::make_unique<mhx::MultihierarchicalDocument>(
      std::move(doc).value());
  const KyGoddag& g = fx->doc->goddag();
  fx->ids = std::make_shared<mhx::goddag::OverlayIdAllocator>();
  const std::string& text = g.base_text();
  for (mhx::goddag::NodeId id = 0; id < g.node_table_size(); ++id) {
    const mhx::goddag::GNode& node = g.node(id);
    if (node.kind != mhx::goddag::GNodeKind::kElement || node.name != "w") {
      continue;
    }
    std::vector<mhx::goddag::VirtualElement> elements{
        {"analyze-string-result", node.range, {}}};
    for (size_t pos = text.find("ea", node.range.begin);
         pos != std::string::npos && pos + 2 <= node.range.end;
         pos = text.find("ea", pos + 2)) {
      elements.push_back({"m", mhx::TextRange(pos, pos + 2), {}});
    }
    if (elements.size() == 1) continue;
    auto overlay = mhx::goddag::GoddagOverlay::Create(
        &g, fx->ids, "analyze-string-result", std::move(elements));
    if (!overlay.ok()) std::abort();
    fx->overlays.push_back(*overlay);
    fx->words.push_back(node.range);
  }
  if (fx->overlays.empty()) std::abort();
  (*cache)[words] = fx;
  return fx;
}

// II.1's per-binding path, one analysed word per iteration: a fresh child
// view forked off the evaluation's root view, the word's overlay
// registered on it, and the word's leaves looked up. Reads only the word's
// range, so the time per word stays flat as the edition grows.
void BM_OverlayLeavesIn(benchmark::State& state) {
  LeavesInFixture* fx = MakeLeavesInFixture(state.range(0));
  const mhx::goddag::OverlayView root(&fx->doc->goddag());
  size_t word = 0;
  size_t leaves = 0;
  for (auto _ : state) {
    mhx::goddag::OverlayView view(&root);
    view.AddOverlay(fx->overlays[word]);
    view.AppendLeavesIn(fx->words[word],
                        [&leaves](const mhx::TextRange&) { ++leaves; });
    if (++word == fx->overlays.size()) word = 0;
  }
  benchmark::DoNotOptimize(leaves);
  state.counters["leaves_per_word"] =
      static_cast<double>(leaves) / static_cast<double>(state.iterations());
  state.counters["analysed_words"] =
      static_cast<double>(fx->overlays.size());
}
BENCHMARK(BM_OverlayLeavesIn)->Arg(400)->Arg(1600)->Arg(6400);

// The whole-partition export, OverlayView::leaves(), with every analysed
// word's overlay registered on one view in a single AddOverlays batch:
// O(partition) per call, the cost each binding's first leaf() step paid
// before lookups became range-scoped.
void BM_OverlayLeaves_WholePartition(benchmark::State& state) {
  LeavesInFixture* fx = MakeLeavesInFixture(state.range(0));
  mhx::goddag::OverlayView view(&fx->doc->goddag());
  view.AddOverlays(fx->overlays);
  size_t cells = 0;
  for (auto _ : state) {
    cells = view.leaves().size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OverlayLeaves_WholePartition)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity();

// Registration on one view of every analysed word's overlay: arg 1 = 0
// adds them one AddOverlay at a time, in document order (analyze-string()
// called per word in a predicate, where no loop batches the calls);
// arg 1 = 1 adds them as one AddOverlays batch (a loop's binding overlays
// at its exit).
// Time per overlay (items_per_second) should stay about flat as the
// edition grows: in-order adds append, and a batch costs one sort.
void BM_OverlayRegister(benchmark::State& state) {
  LeavesInFixture* fx = MakeLeavesInFixture(state.range(0));
  const bool batched = state.range(1) != 0;
  for (auto _ : state) {
    mhx::goddag::OverlayView view(&fx->doc->goddag());
    if (batched) {
      view.AddOverlays(fx->overlays);
    } else {
      for (const auto& overlay : fx->overlays) view.AddOverlay(overlay);
    }
    benchmark::DoNotOptimize(view.has_overlays());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx->overlays.size()));
  state.counters["analysed_words"] =
      static_cast<double>(fx->overlays.size());
}
BENCHMARK(BM_OverlayRegister)
    ->Args({400, 0})
    ->Args({1600, 0})
    ->Args({6400, 0})
    ->Args({400, 1})
    ->Args({1600, 1})
    ->Args({6400, 1});

}  // namespace

BENCHMARK_MAIN();
