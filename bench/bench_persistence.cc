// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The zero-copy persistence lane (DESIGN.md "On-disk format"): cold-start
// cost of an mmap-adopted arena versus the XML reparse + index rebuild it
// replaces, plus the serialization cost a writer pays to produce one.
//
// Both cold-start lanes end in the same place — a query-ready
// DocumentSnapshot with its RangeIndex and stats materialised — so their
// ratio is the paper-scale O(1) cold-start claim measured directly. The
// `load_us` counter carries the best observed cold start per lane; the
// Release CI gates it through tools/bench_compare.py alongside p95/qps.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "document.h"
#include "goddag/arena.h"
#include "goddag/persist.h"
#include "workload/generator.h"

namespace {

using mhx::MultihierarchicalDocument;

mhx::workload::EditionConfig ConfigFor(int64_t words) {
  mhx::workload::EditionConfig config;
  config.seed = 29;
  config.word_count = static_cast<size_t>(words);
  config.chars_per_line = 30;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

// The serialized arena for a word count, built once per process and shared
// by every lane (in memory; the mmap lane writes it to a file once too).
const std::string& ArenaImage(int64_t words) {
  static auto* cache = new std::map<int64_t, std::string>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  auto doc = mhx::workload::BuildEditionDocument(ConfigFor(words));
  if (!doc.ok()) std::abort();
  auto image = mhx::goddag::SerializeSnapshot(*doc->PinSnapshot());
  if (!image.ok()) std::abort();
  return cache->emplace(words, std::move(image).value()).first->second;
}

const std::string& ArenaFile(int64_t words) {
  static auto* cache = new std::map<int64_t, std::string>();
  auto it = cache->find(words);
  if (it != cache->end()) return it->second;
  std::string path = "bench_persistence." + std::to_string(words) + ".mhxa";
  const char* tmp = std::getenv("TMPDIR");
  path = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + path;
  const std::string& image = ArenaImage(words);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || std::fwrite(image.data(), 1, image.size(), f) !=
                          image.size()) {
    std::abort();
  }
  std::fclose(f);
  return cache->emplace(words, std::move(path)).first->second;
}

long long NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Cold start --------------------------------------------------------------

// The pre-arena path: reparse the edition's XML and rebuild the goddag,
// its index and its stats (Build publishes the snapshot complete).
void BM_ColdStart_ParseBuild(benchmark::State& state) {
  const mhx::workload::EditionConfig config = ConfigFor(state.range(0));
  long long best_us = -1;
  for (auto _ : state) {
    const long long begin = NowUs();
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    auto snapshot = doc->PinSnapshot();
    const long long took = NowUs() - begin;
    if (best_us < 0 || took < best_us) best_us = took;
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["load_us"] = static_cast<double>(best_us);
}
BENCHMARK(BM_ColdStart_ParseBuild)->Arg(400)->Arg(1600)->Arg(6400);

// The arena path: mmap the file, validate, adopt index/stats/SoA out of
// the mapping. Same end state as BM_ColdStart_ParseBuild.
void BM_ColdStart_MmapLoad(benchmark::State& state) {
  const std::string& path = ArenaFile(state.range(0));
  long long best_us = -1;
  for (auto _ : state) {
    const long long begin = NowUs();
    auto mapped = mhx::goddag::LoadSnapshotFile(path);
    if (!mapped.ok()) std::abort();
    const long long took = NowUs() - begin;
    if (best_us < 0 || took < best_us) best_us = took;
    benchmark::DoNotOptimize(mapped->snapshot);
  }
  state.counters["load_us"] = static_cast<double>(best_us);
  state.counters["arena_bytes"] =
      static_cast<double>(ArenaImage(state.range(0)).size());
}
BENCHMARK(BM_ColdStart_MmapLoad)->Arg(400)->Arg(1600)->Arg(6400);

// The body checksum alone over the same images: every load pays exactly
// this once-over-the-body pass, so its time over BM_ColdStart_MmapLoad's
// `load_us` is the checksum's share of a cold start.
void BM_ArenaBodyChecksum(benchmark::State& state) {
  const std::string& image = ArenaImage(state.range(0));
  mhx::goddag::ArenaHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  const char* body = image.data() + header.body_offset;
  const size_t body_bytes = image.size() - header.body_offset;
  for (auto _ : state) {
    const uint64_t sum = mhx::goddag::ArenaBodyChecksum(body, body_bytes);
    if (sum != header.body_checksum) std::abort();
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body_bytes));
  state.counters["body_bytes"] = static_cast<double>(body_bytes);
}
BENCHMARK(BM_ArenaBodyChecksum)->Arg(400)->Arg(1600)->Arg(6400);

// --- Producing the arena -----------------------------------------------------

void BM_SerializeSnapshot(benchmark::State& state) {
  auto doc = mhx::workload::BuildEditionDocument(ConfigFor(state.range(0)));
  if (!doc.ok()) std::abort();
  auto snapshot = doc->PinSnapshot();
  for (auto _ : state) {
    auto image = mhx::goddag::SerializeSnapshot(*snapshot);
    if (!image.ok()) std::abort();
    benchmark::DoNotOptimize(*image);
  }
  state.counters["arena_bytes"] =
      static_cast<double>(ArenaImage(state.range(0)).size());
}
BENCHMARK(BM_SerializeSnapshot)->Arg(400)->Arg(1600)->Arg(6400);

// Round trip through an in-memory buffer (no filesystem): serialization's
// inverse, and the non-POSIX load path LoadSnapshotFile falls back to.
void BM_AdoptArenaBuffer(benchmark::State& state) {
  auto image =
      std::make_shared<const std::string>(ArenaImage(state.range(0)));
  for (auto _ : state) {
    auto mapped = mhx::goddag::AdoptArenaBuffer(image);
    if (!mapped.ok()) std::abort();
    benchmark::DoNotOptimize(mapped->snapshot);
  }
}
BENCHMARK(BM_AdoptArenaBuffer)->Arg(400)->Arg(1600)->Arg(6400);

}  // namespace

BENCHMARK_MAIN();
