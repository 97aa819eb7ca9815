// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// CI smoke driver for the observability stack: builds a 2-document
// corpus, runs a traced Section-4-shape query, and asserts the trace
// contract from obs/trace.h —
//   * stage spans are non-overlapping and in pipeline order,
//   * their total duration is within 10% of the measured wall time,
// then dumps the registry's Prometheus TextExport() to stdout for
// tools/check_metrics.py — asserting first that the planner/kernel
// counters of this build are present and moved. Exits non-zero (with a
// message on stderr) on any violation, so the CI step fails loudly.
//
// `metrics_smoke --explain` instead prints Engine::ExplainPlan for a set
// of Section-4-shape queries against a generated edition and asserts the
// plan shape: containment axes indexed, ordering axes scanned (when the
// vectorized kernels apply), name tests pushed down.
//
// `metrics_smoke --persist` exercises the zero-copy persistence stack
// (goddag/persist.h) end to end on a 1600-word edition: byte-identical
// query results between the parsed document and its mmap-loaded arena
// across every plan mode, a >= 10x cold-start speedup of the mapped load
// over XML reparse + index rebuild (medians of interleaved rounds), and
// the corpus spill counters (`mhx_snapshots_persisted_total`,
// `mhx_mmap_loads_total`, `mhx_load_fallbacks_total`) moving under LRU
// churn and a corrupted spill file.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>
#define METRICS_SMOKE_HAVE_POSIX 1
#endif

#include "corpus/corpus.h"
#include "goddag/persist.h"
#include "obs/trace.h"
#include "workload/generator.h"
#include "xpath/kernels.h"
#include "xquery/engine.h"

namespace {

using mhx::corpus::CorpusOptions;
using mhx::corpus::CorpusService;
using mhx::obs::QueryTrace;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "metrics_smoke: FAILED: %s\n", what);
    std::exit(1);
  }
}

// The paper's I.2 shape: a `for` over every line, with a nested loop over
// each line's leaves.
const char* kTracedQuery = R"(
for $l in /descendant::line
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))";

mhx::workload::EditionConfig ConfigFor(size_t i) {
  mhx::workload::EditionConfig config;
  config.seed = 404 + i;
  config.word_count = 160;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

// --explain: print the physical plan for Section-4-shape queries and
// assert its shape. Runs on a larger edition so the cost model sees the
// regime the paper's workloads run in.
int RunExplain() {
  // Thousands of words, not ConfigFor's smoke-sized edition: the cost
  // model must see the regime where an indexed containment probe beats
  // even the vectorized scan (on a tiny document the scan wins every
  // axis, which is also correct but asserts nothing interesting).
  mhx::workload::EditionConfig config = ConfigFor(0);
  config.word_count = 4000;
  auto doc = mhx::workload::BuildEditionDocument(config);
  Check(doc.ok(), "build edition for --explain");
  const char* kQueries[] = {
      "/descendant::w[xancestor::dmg]",
      "/descendant::line/xdescendant::w",
      "for $w in /descendant::w return $w/overlapping::dmg",
      "/descendant::w/xfollowing::line",
      "/descendant::dmg/xpreceding::w",
  };
  // Plan-shape assertions (cost-model sanity, not byte-exact rendering):
  // every header ends with exactly the kernel the dispatch resolved to,
  // containment probes stay indexed, and a name test rides into the probe.
  const std::string kernel =
      " kernel=" +
      std::string(mhx::xpath::KernelIsaName(mhx::xpath::DispatchedKernelIsa()));
  std::string all;
  for (const char* query : kQueries) {
    auto plan = doc->engine()->ExplainPlan(query);
    Check(plan.ok(), "ExplainPlan evaluates");
    std::printf("query: %s\n%s\n", query, plan->c_str());
    const std::string header = plan->substr(0, plan->find('\n'));
    Check(header.size() >= kernel.size() &&
              header.compare(header.size() - kernel.size(), kernel.size(),
                             kernel) == 0,
          "plan header ends with kernel=<DispatchedKernelIsa()>");
    all += *plan;
  }
  Check(all.find("strategy=indexed") != std::string::npos,
        "some step plans an indexed probe");
  Check(all.find("pushdown=") != std::string::npos,
        "a name test was pushed down");
  std::fprintf(stderr, "metrics_smoke: OK (--explain)\n");
  return 0;
}

// --persist: the zero-copy persistence smoke (see the file comment).
// Needs POSIX for mkdtemp/readdir; elsewhere it reports a skip and
// passes, like the sanitizer lanes do for platform-gated tests.
int RunPersist() {
#if !defined(METRICS_SMOKE_HAVE_POSIX)
  std::fprintf(stderr, "metrics_smoke: SKIPPED (--persist needs POSIX)\n");
  return 0;
#else
  char dir_template[] = "/tmp/mhx_persist_smoke.XXXXXX";
  char* dir = mkdtemp(dir_template);
  Check(dir != nullptr, "mkdtemp for the spill directory");
  const std::string spill_dir = dir;
  const std::string arena_path = spill_dir + "/edition.mhxa";

  // The acceptance edition: 1600 words, the paper's overlap density.
  mhx::workload::EditionConfig config = ConfigFor(0);
  config.word_count = 1600;

  auto parsed = mhx::workload::BuildEditionDocument(config);
  Check(parsed.ok(), "build the 1600-word edition");
  auto parsed_snapshot = parsed->PinSnapshot();
  Check(mhx::goddag::WriteSnapshotFile(*parsed_snapshot, arena_path).ok(),
        "write the edition arena");

  auto mapped = mhx::goddag::LoadSnapshotFile(arena_path);
  Check(mapped.ok(), "mmap-load the edition arena");
  auto loaded =
      mhx::MultihierarchicalDocument::FromSnapshot(std::move(mapped->snapshot));

  // Byte-identity battery: every plan mode, the traced I.2 shape plus
  // extended-axis queries.
  const char* kQueries[] = {
      kTracedQuery,
      "/descendant::w[xancestor::dmg]",
      "for $w in /descendant::w return $w/overlapping::dmg",
      "/descendant::line/xdescendant::w",
  };
  const mhx::xquery::PlanMode kModes[] = {
      mhx::xquery::PlanMode::kAuto, mhx::xquery::PlanMode::kForceNaive,
      mhx::xquery::PlanMode::kForceIndexed};
  size_t compared = 0;
  for (const char* query : kQueries) {
    for (mhx::xquery::PlanMode mode : kModes) {
      mhx::QueryOptions options;
      options.plan_mode = mode;
      auto from_parse = parsed->Query(query, options);
      auto from_map = loaded.Query(query, options);
      Check(from_parse.ok(), "parsed document evaluates");
      Check(from_map.ok(), "mapped document evaluates");
      Check(*from_parse == *from_map,
            "parsed and mapped results are byte-identical");
      ++compared;
    }
  }

  // Cold start: an mmap load vs an XML reparse + index rebuild, both ending
  // in a query-ready snapshot. The two lanes alternate round by round, so
  // a slow phase of the host hits both alike, and each lane's median is
  // compared; the parse lane is ~1.5ms a round, so nine rounds are cheap.
  const int kRounds = 9;
  auto now_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  std::vector<long long> parse_us;
  std::vector<long long> load_us;
  // Each lane's result is freed, untimed, before the other lane starts.
  for (int i = 0; i < kRounds; ++i) {
    {
      const long long begin = now_us();
      auto doc = mhx::workload::BuildEditionDocument(config);
      Check(doc.ok(), "timed reparse builds");
      auto snapshot = doc->PinSnapshot();
      snapshot->index();  // the engine's first-evaluation index build
      snapshot->stats();
      parse_us.push_back(now_us() - begin);
    }
    {
      const long long begin = now_us();
      auto cold = mhx::goddag::LoadSnapshotFile(arena_path);
      Check(cold.ok(), "timed mmap load succeeds");
      cold->snapshot->index();  // adopted, not rebuilt
      cold->snapshot->stats();
      load_us.push_back(now_us() - begin);
    }
  }
  auto median = [](std::vector<long long> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const long long parse_median = median(parse_us);
  const long long load_median = median(load_us);
  std::fprintf(stderr,
               "metrics_smoke: cold start median of %d interleaved rounds: "
               "parse=%lldus mmap=%lldus (%.1fx)\n",
               kRounds, parse_median, load_median,
               static_cast<double>(parse_median) /
                   static_cast<double>(std::max(load_median, 1ll)));
  // Checked last, so that a failing ratio does not hide the spill checks.
  const bool cold_start_ok = load_median * 10 <= parse_median;

  // Corpus churn: capacity 1 with spill on, so every alternation evicts
  // and the second touch of each edition must come from its arena.
  CorpusOptions options;
  options.capacity = 1;
  options.spill_dir = spill_dir;
  CorpusService corpus(options);
  Check(corpus.Register("alpha", ConfigFor(0)).ok(), "register alpha");
  Check(corpus.Register("beta", ConfigFor(1)).ok(), "register beta");
  const char* kChurnQuery = "/descendant::w[xancestor::dmg]";
  Check(corpus.Query("alpha", kChurnQuery).ok(), "alpha builds and spills");
  Check(corpus.Query("beta", kChurnQuery).ok(), "beta evicts alpha");
  Check(corpus.Query("alpha", kChurnQuery).ok(), "alpha reloads from arena");
  auto stats = corpus.stats();
  Check(stats.snapshots_persisted >= 2, "both editions were spilled");
  Check(stats.mmap_loads >= 1, "the alpha reload was a mapped load");
  Check(stats.load_fallbacks == 0, "no fallbacks on intact arenas");

  // Corrupt every spill file, then touch the cold edition: the load must
  // fail closed, fall back to the parse build, and count it.
  DIR* d = opendir(spill_dir.c_str());
  Check(d != nullptr, "open the spill directory");
  size_t corrupted = 0;
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".mhxa") != 0) {
      continue;
    }
    std::ofstream out(spill_dir + "/" + name,
                      std::ios::binary | std::ios::trunc);
    out << "not an arena at all; the loader must reject this";
    ++corrupted;
  }
  closedir(d);
  Check(corrupted >= 2, "spill files found to corrupt");
  Check(corpus.Query("beta", kChurnQuery).ok(),
        "beta still serves after its arena was corrupted");
  stats = corpus.stats();
  Check(stats.load_fallbacks >= 1, "the corrupted load fell back and counted");

  const std::string exported = corpus.metrics().TextExport();
  Check(exported.find("mhx_snapshots_persisted_total") != std::string::npos,
        "persisted counter exported");
  Check(exported.find("mhx_mmap_loads_total") != std::string::npos,
        "mmap-load counter exported");
  Check(exported.find("mhx_load_fallbacks_total") != std::string::npos,
        "fallback counter exported");

  Check(cold_start_ok,
        "mmap cold start is >= 10x faster than reparse + rebuild");
  std::fprintf(stderr,
               "metrics_smoke: OK (--persist: %zu identical results, "
               "cold start %.1fx, persisted=%zu mmap_loads=%zu "
               "fallbacks=%zu)\n",
               compared,
               static_cast<double>(parse_median) /
                   static_cast<double>(std::max(load_median, 1ll)),
               stats.snapshots_persisted, stats.mmap_loads,
               stats.load_fallbacks);
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--explain") == 0) {
    return RunExplain();
  }
  if (argc > 1 && std::strcmp(argv[1], "--persist") == 0) {
    return RunPersist();
  }
  CorpusOptions options;
  options.capacity = 2;
  options.slow_query_threshold_us = 0;  // capture every query
  options.slow_query_log_capacity = 16;
  CorpusService corpus(options);
  Check(corpus.Register("alpha", ConfigFor(0)).ok(), "register alpha");
  Check(corpus.Register("beta", ConfigFor(1)).ok(), "register beta");

  // Warm both documents and the plan cache so the traced run below
  // measures serving, not cold builds.
  Check(corpus.Query("alpha", kTracedQuery).ok(), "warm alpha");
  Check(corpus.Query("beta", kTracedQuery).ok(), "warm beta");

  QueryTrace trace;
  mhx::QueryOptions traced;
  traced.trace = &trace;
  const uint64_t wall_begin = trace.NowNs();
  auto result = corpus.Query("alpha", kTracedQuery, traced);
  const uint64_t wall_ns = trace.NowNs() - wall_begin;
  Check(result.ok(), "traced query evaluates");

  std::vector<QueryTrace::Span> stages = trace.spans();
  Check(stages.size() >= 3,
        "traced query reports at least parse/evaluate/serialize stages");
  std::sort(stages.begin(), stages.end(),
            [](const QueryTrace::Span& a, const QueryTrace::Span& b) {
              return a.begin_ns < b.begin_ns;
            });
  uint64_t stage_total_ns = 0;
  for (size_t i = 0; i < stages.size(); ++i) {
    Check(stages[i].end_ns >= stages[i].begin_ns, "stage span is ordered");
    Check(i == 0 || stages[i].begin_ns >= stages[i - 1].end_ns,
          "stage spans do not overlap");
    stage_total_ns += stages[i].end_ns - stages[i].begin_ns;
  }
  Check(stage_total_ns <= wall_ns, "stage total does not exceed wall time");
  Check(stage_total_ns * 10 >= wall_ns * 9,
        "stage spans sum to within 10% of wall time");

  const auto slow = corpus.DumpSlowQueries();
  Check(!slow.empty(), "threshold-0 slow log captured the traffic");
  Check(corpus.stats().slow_queries == slow.size() ||
            corpus.stats().slow_queries >= slow.size(),
        "stats.slow_queries covers the dump");

  // The planner/kernel counters of this build must be registered, and the
  // Section-4-shape traffic above must have exercised the planner: its
  // extended-axis steps ran under kAuto, so the strategy counters moved
  // and each (expr, document) pair paid exactly its first-plan build.
  // A path step taken from many contexts (every word) runs once as a set
  // step, which the export below must count.
  Check(corpus.Query("alpha", "count(/descendant::w/xfollowing::dmg)").ok(),
        "multi-context path evaluates");
  const std::string exported = corpus.metrics().TextExport();
  auto sample = [&exported](const char* name) -> long long {
    const std::string needle = std::string(name) + " ";
    const size_t pos = exported.find("\n" + needle);
    Check(pos != std::string::npos, name);
    return std::atoll(exported.c_str() + pos + 1 + needle.size());
  };
  Check(sample("mhx_plan_steps_indexed_total") +
            sample("mhx_plan_steps_scanned_total") > 0,
        "planned extended-axis steps were counted");
  Check(sample("mhx_plan_pushdowns_total") > 0,
        "name-test pushdowns were counted");
  Check(sample("mhx_plan_cache_replans_total") > 0,
        "plan builds were counted");
  Check(sample("mhx_engine_set_steps_total") > 0,
        "set steps were counted");
  sample("mhx_kernel_simd_dispatch_total");  // registered (0 off-x86)

  std::fputs(exported.c_str(), stdout);
  std::fprintf(stderr,
               "metrics_smoke: OK (wall=%lluus stages=%zu stage_total=%lluus "
               "slow_log=%zu)\n",
               static_cast<unsigned long long>(wall_ns / 1000),
               stages.size(),
               static_cast<unsigned long long>(stage_total_ns / 1000),
               slow.size());
  return 0;
}
