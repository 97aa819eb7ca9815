// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The corpus-service acceptance lane: closed-loop mixed query traffic over
// many generated editions through one CorpusService — the ROADMAP's
// production shape. Client threads issue the four Section 4 query shapes
// in realistic ratios (I.1 40%, I.2 25%, II.1 25%, III.1 10%) against 10
// deterministic editions; every sampled result is verified byte-identical
// to a serial reference computed on an independently built copy of the
// same edition, so the timings are of *correct* executions — shared plan
// cache, LRU eviction and admission control included.
//
// Queries are the edition-generic forms of the paper's Section 4 queries
// (the verbatim I.1/II.1 texts pin words of the Figure 1 text that a
// generated edition does not contain; the shapes — overlap-aware line
// selection, leaf-walk highlighting, analyze-string() re-partitioning,
// restoration italics — are identical, matching the scaled scenarios of
// bench_paper_queries.cc).
//
// Counters per lane: latency percentiles p50/p95/p99 (µs, from the
// lock-free base::LatencyHistogram), qps (rate), plan_hit_rate (process-
// wide PlanCache, cross-document), builds and evictions (LRU churn; the
// capacity-6 lane forces steady-state eviction, capacity-10 is
// churn-free after warm-up).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "base/histogram.h"
#include "corpus/corpus.h"
#include "workload/generator.h"

namespace {

using mhx::corpus::CorpusOptions;
using mhx::corpus::CorpusService;

// Removes a mkdtemp directory and every arena in it on scope exit.
struct RemoveDirOnExit {
  std::string path;
  ~RemoveDirOnExit() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
};

constexpr size_t kEditions = 10;
constexpr size_t kClients = 4;
constexpr size_t kOpsPerIteration = 64;  // per benchmark iteration, total

// The four Section 4 query shapes, edition-generic.
const char* const kQueries[] = {
    // I.1: lines containing a matching word, overlap-aware.
    R"(
for $l in /descendant::line[xdescendant::w[matches(string(.), ".*ea.*")] or
                            overlapping::w[matches(string(.), ".*ea.*")]]
return <line>{string($l)}</line>)",
    // I.2: every line with damaged words highlighted, walking shared
    // leaves.
    R"(
for $l in /descendant::line
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))",
    // II.1: analyze-string() over matching words, match spans emphasised
    // per leaf (the analyze-string-heavy class, admission-controlled).
    R"(
for $w in /descendant::w[matches(string(.), ".*ea.*")]
return (
  let $r := analyze-string($w, ".*ea.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))",
    // III.1: restored text in italics.
    R"(
for $leaf in /descendant::leaf()
return if ($leaf/xancestor::res) then <i>{$leaf}</i> else $leaf)",
};

// Cumulative percentage thresholds for the I.1/I.2/II.1/III.1 mix.
constexpr int kMixThresholds[] = {40, 65, 90, 100};

mhx::workload::EditionConfig EditionConfigFor(size_t i) {
  mhx::workload::EditionConfig config;
  config.seed = 101 + i;
  config.word_count = 140;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

std::string EditionName(size_t i) {
  return "edition-" + std::to_string(i);
}

void VerifyOrAbort(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "verification failed: %s\n", what);
    std::abort();
  }
}

// splitmix64: deterministic per-op choice of edition and query, identical
// across lanes and runs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Op {
  size_t edition;
  size_t query;
};

Op OpFor(uint64_t index) {
  const uint64_t h = Mix(index);
  const int roll = static_cast<int>(h % 100);
  size_t query = 0;
  while (roll >= kMixThresholds[query]) ++query;
  return Op{static_cast<size_t>((h >> 32) % kEditions), query};
}

// The serial single-document reference: every (edition, query) result,
// computed once per process on documents built independently of any
// CorpusService (no shared cache).
const std::string& Expected(size_t edition, size_t query) {
  static auto* cache = new std::map<std::pair<size_t, size_t>, std::string>();
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(edition, query);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto doc = mhx::workload::BuildEditionDocument(EditionConfigFor(edition));
    VerifyOrAbort(doc.ok(), "reference edition build");
    auto out = doc->Query(kQueries[query]);
    VerifyOrAbort(out.ok(), "reference query");
    it = cache->emplace(key, std::move(out).value()).first;
  }
  return it->second;
}

// One closed-loop lane: kClients threads drive the mixed workload through
// a fresh CorpusService. Args: {capacity, 1}; the second arg is constant
// and only keeps the lane names (/10/1, /6/1) stable for
// tools/bench_compare.py history.
void BM_CorpusMixed(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));

  CorpusOptions options;
  options.capacity = capacity;
  // Sized so the bench itself never sees backpressure (rejections are
  // pinned behaviour in corpus_test); admission still serialises the heavy
  // class down to 2 concurrent analyze-string queries.
  options.max_heavy_in_flight = 2;
  options.heavy_queue_limit = kClients * 4;
  RemoveDirOnExit spill_cleanup;  // outlives the corpus below
#if defined(__unix__) || defined(__APPLE__)
  // The churning lane (capacity < editions) runs with spill on: rebuilds
  // after eviction come back as mapped arena loads instead of XML
  // reparses. The predicate — not a new Args row — keeps the lane names
  // stable.
  if (capacity < kEditions) {
    char dir_template[] = "/tmp/mhx_bench_corpus.XXXXXX";
    char* dir = mkdtemp(dir_template);
    VerifyOrAbort(dir != nullptr, "mkdtemp for the spill lane");
    options.spill_dir = dir;
    spill_cleanup.path = dir;
  }
#endif
  CorpusService corpus(options);
  for (size_t i = 0; i < kEditions; ++i) {
    VerifyOrAbort(corpus.Register(EditionName(i), EditionConfigFor(i)).ok(),
                  "register edition");
  }

  // Pre-warm the serial reference for every (edition, query) pair so the
  // timed loop's verification is a map lookup, not a document build.
  for (size_t e = 0; e < kEditions; ++e) {
    for (size_t q = 0; q < 4; ++q) Expected(e, q);
  }

  // One histogram per client thread (cache-line-private recording), merged
  // into the lane histogram after the run — the aggregation path
  // base::LatencyHistogram::Merge exists for.
  std::vector<std::unique_ptr<mhx::base::LatencyHistogram>> client_latency;
  for (size_t c = 0; c < kClients; ++c) {
    client_latency.push_back(std::make_unique<mhx::base::LatencyHistogram>());
  }
  uint64_t next_op = 0;
  for (auto _ : state) {
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      const uint64_t begin = next_op + c * (kOpsPerIteration / kClients);
      const uint64_t end = begin + kOpsPerIteration / kClients;
      clients.emplace_back([&, begin, end, c] {
        for (uint64_t i = begin; i < end; ++i) {
          const Op op = OpFor(i);
          const auto start = std::chrono::steady_clock::now();
          auto out = corpus.Query(EditionName(op.edition),
                                  kQueries[op.query]);
          const auto stop = std::chrono::steady_clock::now();
          client_latency[c]->Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(stop -
                                                                    start)
                  .count()));
          if (!out.ok() || *out != Expected(op.edition, op.query)) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    next_op += kOpsPerIteration;
    VerifyOrAbort(failures.load() == 0,
                  "corpus result == serial single-document reference");
  }
  mhx::base::LatencyHistogram latency;
  for (const auto& h : client_latency) latency.Merge(*h);
  VerifyOrAbort(latency.TotalCount() == latency.count(),
                "merged histogram is internally consistent");

  const CorpusService::Stats stats = corpus.stats();
  VerifyOrAbort(stats.heavy_rejections == 0,
                "no admission rejections at bench sizing");
  state.counters["p50_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.50));
  state.counters["p95_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.95));
  state.counters["p99_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.99));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(latency.count()), benchmark::Counter::kIsRate);
  const double lookups =
      static_cast<double>(stats.plan_hits + stats.plan_misses);
  state.counters["plan_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.plan_hits) / lookups : 0.0;
  state.counters["builds"] = static_cast<double>(stats.builds);
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  // LRU-churn cold-start split: of `builds`, how many reparsed the XML vs
  // came back as mapped arena loads (non-zero only in the spill lane).
  VerifyOrAbort(stats.load_fallbacks == 0, "no arena-load fallbacks");
  state.counters["parse_builds"] =
      static_cast<double>(stats.builds - stats.mmap_loads);
  state.counters["mmap_loads"] = static_cast<double>(stats.mmap_loads);
  // analyze-string patterns compile once process-wide; the hit counters
  // were previously invisible outside the PlanCache itself.
  state.counters["plan_regex_hits"] =
      static_cast<double>(stats.plan_regex_hits);
  state.counters["plan_regex_misses"] =
      static_cast<double>(stats.plan_regex_misses);
  // Full registry snapshot in the lane's JSON label: tools/bench_compare.py
  // flattens the numeric leaves into informational "obs.*" counters.
  state.SetLabel(corpus.metrics().JsonExport());
}
BENCHMARK(BM_CorpusMixed)
    ->Args({10, 1})  // all editions resident: plan-cache sharing
    ->Args({6, 1})   // capacity < editions: steady-state LRU churn
    ->UseRealTime();

// --- BM_MutateWhileQuerying --------------------------------------------------
//
// The MVCC acceptance lane: the same closed-loop reader traffic as
// BM_CorpusMixed, but with a writer thread continuously committing and
// removing a virtual hierarchy on every edition through the corpus write
// path while the readers run. Readers never block on the writer (that is
// the MVCC contract; reader latency should sit near the churn-free
// BM_CorpusMixed lane), and every sampled result is verified to be
// byte-identical to one of the two quiesced per-version references —
// the edition without the churn hierarchy or with it, never a mix.
// Extra counters: writes (committed versions across the run, rate) and
// writer_p95_us (commit latency; the copy-on-write clone plus the prebuilt
// RangeIndex is the writer-side cost readers no longer pay).

constexpr size_t kChurnEditions = 4;
const char kChurnHierarchy[] = "bench-churn";

std::vector<mhx::goddag::VirtualElement> ChurnElements() {
  return {mhx::goddag::VirtualElement{"churn", mhx::TextRange(5, 25), {}},
          mhx::goddag::VirtualElement{"churn", mhx::TextRange(40, 77), {}}};
}

// The with-churn-hierarchy reference, built and committed independently of
// any CorpusService (same pattern as Expected()).
const std::string& ExpectedWithChurn(size_t edition, size_t query) {
  static auto* cache = new std::map<std::pair<size_t, size_t>, std::string>();
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(edition, query);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto doc = mhx::workload::BuildEditionDocument(EditionConfigFor(edition));
    VerifyOrAbort(doc.ok(), "churn reference edition build");
    auto writer = doc->NewWriter();
    writer.AddVirtualHierarchy(kChurnHierarchy, ChurnElements());
    VerifyOrAbort(writer.Commit().ok(), "churn reference commit");
    auto out = doc->Query(kQueries[query]);
    VerifyOrAbort(out.ok(), "churn reference query");
    it = cache->emplace(key, std::move(out).value()).first;
  }
  return it->second;
}

void BM_MutateWhileQuerying(benchmark::State& state) {
  CorpusOptions options;
  options.capacity = kChurnEditions;  // resident: committed versions live
  options.max_heavy_in_flight = 2;
  options.heavy_queue_limit = kClients * 4;
  options.max_writers_in_flight = 1;
  options.writer_queue_limit = 4;
  CorpusService corpus(options);
  for (size_t i = 0; i < kChurnEditions; ++i) {
    VerifyOrAbort(corpus.Register(EditionName(i), EditionConfigFor(i)).ok(),
                  "register edition");
  }
  for (size_t e = 0; e < kChurnEditions; ++e) {
    for (size_t q = 0; q < 4; ++q) {
      Expected(e, q);
      ExpectedWithChurn(e, q);
    }
  }

  std::vector<std::unique_ptr<mhx::base::LatencyHistogram>> client_latency;
  for (size_t c = 0; c < kClients; ++c) {
    client_latency.push_back(std::make_unique<mhx::base::LatencyHistogram>());
  }
  mhx::base::LatencyHistogram writer_latency;
  uint64_t next_op = 0;
  for (auto _ : state) {
    std::atomic<int> failures{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      const uint64_t begin = next_op + c * (kOpsPerIteration / kClients);
      const uint64_t end = begin + kOpsPerIteration / kClients;
      clients.emplace_back([&, begin, end, c] {
        for (uint64_t i = begin; i < end; ++i) {
          const Op base_op = OpFor(i);
          const Op op{base_op.edition % kChurnEditions, base_op.query};
          const auto start = std::chrono::steady_clock::now();
          auto out = corpus.Query(EditionName(op.edition), kQueries[op.query]);
          const auto end_time = std::chrono::steady_clock::now();
          client_latency[c]->Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  end_time - start)
                  .count()));
          // Membership, not equality: the query pinned either the version
          // without the churn hierarchy or the one with it. Anything else
          // is a torn read.
          if (!out.ok() || (*out != Expected(op.edition, op.query) &&
                            *out != ExpectedWithChurn(op.edition, op.query))) {
            ++failures;
          }
        }
      });
    }
    // The writer: round-robin commit/remove across editions until the
    // readers drain. Commits serialise per document; readers never wait.
    std::thread writer([&] {
      std::vector<bool> present(kChurnEditions, false);
      size_t e = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = std::chrono::steady_clock::now();
        auto version =
            present[e]
                ? corpus.RemoveVirtualHierarchy(EditionName(e),
                                                kChurnHierarchy)
                : corpus.CommitVirtualHierarchy(EditionName(e),
                                                kChurnHierarchy,
                                                ChurnElements());
        const auto end_time = std::chrono::steady_clock::now();
        writer_latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(end_time -
                                                                  start)
                .count()));
        if (!version.ok()) {
          ++failures;
        } else {
          present[e] = !present[e];
        }
        e = (e + 1) % kChurnEditions;
      }
    });
    for (std::thread& client : clients) client.join();
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    next_op += kOpsPerIteration;
    VerifyOrAbort(failures.load() == 0,
                  "every racing result matches one quiesced version");
  }
  mhx::base::LatencyHistogram latency;
  for (const auto& h : client_latency) latency.Merge(*h);

  const CorpusService::Stats stats = corpus.stats();
  VerifyOrAbort(stats.write_rejections == 0,
                "no write backpressure at bench sizing");
  VerifyOrAbort(stats.overlay_id_exhausted == 0,
                "overlay-id space never exhausts");
  VerifyOrAbort(stats.writes > 0, "the writer actually committed");
  state.counters["p50_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.50));
  state.counters["p95_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.95));
  state.counters["p99_us"] =
      static_cast<double>(latency.ValueAtQuantile(0.99));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(latency.count()), benchmark::Counter::kIsRate);
  state.counters["writes"] = benchmark::Counter(
      static_cast<double>(stats.writes), benchmark::Counter::kIsRate);
  state.counters["writer_p95_us"] =
      static_cast<double>(writer_latency.ValueAtQuantile(0.95));
  state.counters["live_snapshots"] =
      static_cast<double>(stats.live_snapshots);
  state.SetLabel(corpus.metrics().JsonExport());
}
BENCHMARK(BM_MutateWhileQuerying)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
