// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiment E9 (DESIGN.md): the ablation the paper lists as future work —
// extended-axis evaluation with the leaf-interval RangeIndex vs. the naive
// full scan of the literal Definition 1, swept over edition size. The
// indexed lanes run AxisEvaluator over a pinned snapshot; the naive lanes
// time a bench-local literal Definition-1 loop (node-table scan, then
// document-order sort), the same work the evaluator's former naive mode
// did, so the two lanes of one axis return identical node sets.
//
// Expected shape: the naive scan is linear in the total node count for every
// axis; the indexed ordering axes (xfollowing/xpreceding) and containment/
// overlap axes narrow candidates by binary search, winning by a growing
// factor as documents grow.
//
// The BM_Kernel_* lanes isolate the extended-axis scan kernels
// (xpath/kernels.h) over the snapshot's packed RangeSoA: the autovec
// scalar core vs. the runtime-dispatched SIMD path (SSE2/AVX2 on x86_64),
// per axis, on a small and a large edition. Report-only — no pinned
// baseline — but the large-edition SIMD lane is expected to hold ≥2x over
// scalar; the `isa` counter label records what the dispatch resolved to.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "goddag/stats.h"
#include "workload/generator.h"
#include "xpath/axes.h"
#include "xpath/kernels.h"

namespace {

using mhx::MultihierarchicalDocument;
using mhx::goddag::NodeId;
using mhx::xpath::Axis;
using mhx::xpath::AxisEvaluator;

MultihierarchicalDocument* EditionDoc(size_t words) {
  static auto* cache = new std::map<size_t, MultihierarchicalDocument*>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  mhx::workload::EditionConfig config;
  config.seed = 17;
  config.word_count = words;
  config.chars_per_line = 30;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto d = mhx::workload::BuildEditionDocument(config);
  if (!d.ok()) std::abort();
  auto* doc = new MultihierarchicalDocument(std::move(d).value());
  (*cache)[words] = doc;
  return doc;
}

/// Sample of context nodes: every k-th word element.
std::vector<NodeId> WordSample(const MultihierarchicalDocument& doc,
                               size_t max_count) {
  std::vector<NodeId> words;
  const auto& kg = doc.goddag();
  for (NodeId id : kg.hierarchy(1).nodes) {
    const auto& n = kg.node(id);
    if (n.kind == mhx::goddag::GNodeKind::kElement && n.name == "w") {
      words.push_back(id);
    }
  }
  if (words.size() > max_count) {
    std::vector<NodeId> sampled;
    size_t step = words.size() / max_count;
    for (size_t i = 0; i < words.size(); i += step) sampled.push_back(words[i]);
    return sampled;
  }
  return words;
}

// The literal Definition 1: every element whose range stands in `axis`
// relation to the context's, minus the context, in document order.
std::vector<NodeId> Definition1(const mhx::goddag::KyGoddag& kg,
                                NodeId context, Axis axis) {
  std::vector<NodeId> out;
  const mhx::TextRange& c = kg.node(context).range;
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (id == context) continue;
    const auto& node = kg.node(id);
    if (node.kind != mhx::goddag::GNodeKind::kElement) continue;
    if (mhx::xpath::ExtendedAxisMatches(axis, c, node.range)) {
      out.push_back(id);
    }
  }
  auto cmp = [&kg](NodeId a, NodeId b) {
    const mhx::TextRange& ra = kg.node(a).range;
    const mhx::TextRange& rb = kg.node(b).range;
    if (ra != rb) return ra < rb;
    return a < b;
  };
  if (!std::is_sorted(out.begin(), out.end(), cmp)) {
    std::sort(out.begin(), out.end(), cmp);
  }
  return out;
}

void RunAxis(benchmark::State& state, Axis axis, bool use_index) {
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  const auto snapshot = doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  std::vector<NodeId> contexts = WordSample(*doc, 64);
  size_t results = 0;
  for (auto _ : state) {
    for (NodeId context : contexts) {
      auto nodes = use_index ? axes.EvaluateAxisOnly(context, axis)
                             : Definition1(snapshot->goddag(), context, axis);
      results += nodes.size();
      benchmark::DoNotOptimize(nodes);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          contexts.size());
  state.counters["avg_result"] = static_cast<double>(results) /
                                 (static_cast<double>(state.iterations()) *
                                  contexts.size());
  state.SetComplexityN(state.range(0));
}

#define AXIS_BENCH(name, axis)                                     \
  void BM_##name##_Naive(benchmark::State& state) {                \
    RunAxis(state, axis, /*use_index=*/false);                     \
  }                                                                \
  BENCHMARK(BM_##name##_Naive)->Arg(100)->Arg(400)->Arg(1600)->Complexity(); \
  void BM_##name##_Indexed(benchmark::State& state) {              \
    RunAxis(state, axis, /*use_index=*/true);                      \
  }                                                                \
  BENCHMARK(BM_##name##_Indexed)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

AXIS_BENCH(XAncestor, Axis::kXAncestor)
AXIS_BENCH(XDescendant, Axis::kXDescendant)
AXIS_BENCH(Overlapping, Axis::kOverlapping)
AXIS_BENCH(XFollowing, Axis::kXFollowing)
AXIS_BENCH(XPreceding, Axis::kXPreceding)

#undef AXIS_BENCH

// The per-document statistics block the kernels read; built once per
// edition size, like EditionDoc.
const mhx::goddag::SnapshotStats* EditionStats(size_t words) {
  static auto* cache =
      new std::map<size_t, const mhx::goddag::SnapshotStats*>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  const auto* stats =
      new mhx::goddag::SnapshotStats(&EditionDoc(words)->goddag());
  (*cache)[words] = stats;
  return stats;
}

void RunKernel(benchmark::State& state, Axis axis, mhx::xpath::KernelIsa isa) {
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  const mhx::goddag::SnapshotStats* stats = EditionStats(state.range(0));
  const mhx::xpath::KernelIsa resolved =
      isa == mhx::xpath::KernelIsa::kAuto ? mhx::xpath::DispatchedKernelIsa()
                                          : isa;
  std::vector<NodeId> contexts = WordSample(*doc, 64);
  const auto& kg = doc->goddag();
  size_t results = 0;
  std::vector<NodeId> out;
  for (auto _ : state) {
    for (NodeId context : contexts) {
      out.clear();
      mhx::xpath::ScanExtendedAxis(stats->soa(), axis, kg.node(context).range,
                                   context, mhx::goddag::kNoNameKey, resolved,
                                   &out);
      results += out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          contexts.size() * stats->soa().size());
  state.counters["avg_result"] = static_cast<double>(results) /
                                 (static_cast<double>(state.iterations()) *
                                  contexts.size());
  state.SetLabel(std::string(mhx::xpath::KernelIsaName(resolved)));
}

#define KERNEL_BENCH(name, axis)                                          \
  void BM_Kernel_##name##_Scalar(benchmark::State& state) {               \
    RunKernel(state, axis, mhx::xpath::KernelIsa::kScalar);               \
  }                                                                       \
  BENCHMARK(BM_Kernel_##name##_Scalar)->Arg(100)->Arg(1600);              \
  void BM_Kernel_##name##_Simd(benchmark::State& state) {                 \
    RunKernel(state, axis, mhx::xpath::KernelIsa::kAuto);                 \
  }                                                                       \
  BENCHMARK(BM_Kernel_##name##_Simd)->Arg(100)->Arg(1600);

KERNEL_BENCH(XAncestor, Axis::kXAncestor)
KERNEL_BENCH(XDescendant, Axis::kXDescendant)
KERNEL_BENCH(Overlapping, Axis::kOverlapping)
KERNEL_BENCH(XFollowing, Axis::kXFollowing)
KERNEL_BENCH(XPreceding, Axis::kXPreceding)

#undef KERNEL_BENCH

void BM_StandardDescendant(benchmark::State& state) {
  // Baseline context: a standard tree axis for comparison.
  MultihierarchicalDocument* doc = EditionDoc(state.range(0));
  const auto snapshot = doc->PinSnapshot();
  AxisEvaluator axes(snapshot.get());
  for (auto _ : state) {
    auto nodes = axes.EvaluateAxisOnly(doc->goddag().root(),
                                       Axis::kDescendant);
    benchmark::DoNotOptimize(nodes);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StandardDescendant)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

}  // namespace

BENCHMARK_MAIN();
