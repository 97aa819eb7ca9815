// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// mhx_bench: the repository benchmark. One process runs one workload: a
// single caller sends CorpusService requests over generated editions back
// to back, and every response is checked against a serial reference
// computed on documents built independently of the service. README.md in
// this directory documents the workloads, the metrics and their bounds;
// run.py builds this driver and is the entry point.
//
//   mhx_bench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// Every metric is printed to stderr with its unit; the last line of stdout
// is one JSON object {correct, attempted, failed, metrics}. --trace 0
// reports the end-to-end metrics. --trace 1 reports the per-layer ones: it
// traces every other request (the span trees go to
// DIR/traces/<workload>-seed<N>.json as Chrome trace-event JSON) and then
// replays each layer's public functions on the workload's first edition.
// Exit status: 0 when every response verified, 1 on a mismatch (the JSON
// still prints, with "correct": false), 2 on a usage or set-up error.

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "goddag/index.h"
#include "goddag/overlay.h"
#include "goddag/persist.h"
#include "goddag/stats.h"
#include "obs/trace.h"
#include "regex/fragment_pattern.h"
#include "regex/regex.h"
#include "section4_queries.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xpath/axes.h"
#include "xpath/kernels.h"
#include "xquery/parser.h"
#include "xquery/planner.h"

namespace {

using Clock = std::chrono::steady_clock;
using mhx::corpus::CorpusOptions;
using mhx::corpus::CorpusService;
using mhx::goddag::NodeId;
using mhx::xpath::Axis;
namespace fs = std::filesystem;
using mhxbench::kSection4Queries;

// Set-ups before and again after the traffic; setup_s is their median.
constexpr int kSetupRepeats = 10;
// Closed-loop traffic before the timed part of a run.
constexpr double kWarmupSeconds = 1.0;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mhx_bench: %s\n", what.c_str());
  std::exit(2);
}

// splitmix64: the deterministic source of every input choice.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Keeps a replayed call's result observable so the optimizer cannot drop
// the call.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// --- Workloads ---------------------------------------------------------------

enum class Kind {
  kQuery,   // a request is the workload's Query calls on one edition
  kCommit,  // it is a Commit/RemoveVirtualHierarchy, then those calls
};

struct Workload {
  const char* name;
  size_t editions;
  size_t words;          // per edition
  size_t capacity;       // CorpusOptions::capacity
  bool spill;            // arena spill directory on
  Kind kind;
  bool round_robin;      // requests visit editions in turn (every call a
                         // cold miss when capacity < editions)
  // The query texts one request runs, in order, on one edition.
  std::vector<std::string> shapes;
};

// II.1's shape with the matches() filter and the analyze-string() pattern
// as parameters; a fragment pattern needs a plain filter regex, because
// matches() reads markup in a pattern as literal text.
struct AnalyzePattern {
  const char* filter;
  const char* pattern;
};
constexpr AnalyzePattern kAnalyzePatterns[] = {
    {".*ea.*", ".*ea.*"},
    {".*(an|en).*", ".*(an|en).*"},
    {".*eo.*", ".*<a>e</a>o.*"},  // Example 1 style fragment pattern
};

std::string AnalyzeStringQuery(const AnalyzePattern& p) {
  return std::string("\nfor $w in /descendant::w[matches(string(.), \"") +
         p.filter +
         "\")]\nreturn (\n  let $r := analyze-string($w, \"" + p.pattern +
         "\")\n  return\n    for $leaf in $r/descendant::leaf()\n"
         "    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf\n"
         "  , <br/> )";
}

// The axis battery of tests/parallel_query_test.cc without the standard
// following::w and preceding::w: their evaluation is quadratic in the word
// count (17 ms at 400 words, 89 ms at 800, against at most 4 ms for every
// path here at 800), so in a uniform mix they would be nearly all of the
// work.
constexpr const char* kAxisBattery[] = {
    "/descendant::w/self::w",
    "/descendant::line/child::*",
    "/descendant::w/parent::s",
    "/descendant::s/descendant::w",
    "/descendant::s/descendant-or-self::*",
    "/descendant::w/ancestor::*",
    "/descendant::w/ancestor-or-self::*",
    "/descendant::w/following-sibling::w",
    "/descendant::w/preceding-sibling::w",
    "/descendant::w/xancestor::line",
    "/descendant::line/xdescendant::w",
    "/descendant::w/overlapping::line",
    "/descendant::w/xfollowing::dmg",
    "/descendant::w/xpreceding::res",
    "/descendant::line/descendant::leaf()",
    "/descendant::w/descendant::leaf()/ancestor::line",
    "/descendant::dmg/xdescendant::w/xancestor::line",
};

std::vector<Workload> Workloads() {
  const std::vector<std::string> section4(std::begin(kSection4Queries),
                                          std::end(kSection4Queries));
  std::vector<std::string> analyze;
  for (const AnalyzePattern& p : kAnalyzePatterns) {
    analyze.push_back(AnalyzeStringQuery(p));
  }
  std::vector<std::string> battery;
  for (const char* path : kAxisBattery) {
    battery.push_back(std::string("count(") + path + ")");
  }
  return {
      {"section4_mix", 8, 400, 8, false, Kind::kQuery, false, section4},
      {"analyze_string", 8, 800, 8, false, Kind::kQuery, false, analyze},
      {"axis_scan", 8, 800, 8, false, Kind::kQuery, false, battery},
      // Reads the commit back: the first query on each new version
      // replans and probes the index the commit prebuilt.
      {"write_churn", 8, 1600, 8, false, Kind::kCommit, false,
       {"count(/descendant::churn/xdescendant::w)"}},
      {"cold_start", 8, 1600, 2, true, Kind::kQuery, true,
       {"count(/descendant::w)"}},
  };
}

mhx::workload::EditionConfig EditionConfigFor(const Workload& w,
                                              uint64_t seed, size_t i) {
  mhx::workload::EditionConfig config;
  config.seed = seed * 1000 + i;
  config.word_count = w.words;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

std::string EditionName(size_t i) { return "e" + std::to_string(i); }

constexpr char kChurnHierarchy[] = "bench-churn";

std::vector<mhx::goddag::VirtualElement> ChurnElements() {
  return {mhx::goddag::VirtualElement{"churn", mhx::TextRange(5, 25), {}},
          mhx::goddag::VirtualElement{"churn", mhx::TextRange(40, 77), {}}};
}

// --- References and set-up ---------------------------------------------------

// Expected serialisations per (edition, shape), computed serially on
// documents built independently of any CorpusService. `churned` holds the
// same with the churn hierarchy committed (kCommit only).
struct References {
  std::vector<std::vector<std::string>> plain;
  std::vector<std::vector<std::string>> churned;

  const std::string& Of(size_t edition, size_t shape, bool with_churn) const {
    return (with_churn ? churned : plain)[edition][shape];
  }
};

std::vector<std::string> QueryAll(const mhx::MultihierarchicalDocument& doc,
                                  const std::vector<std::string>& shapes) {
  std::vector<std::string> outs;
  for (const std::string& shape : shapes) {
    auto out = doc.Query(shape);
    if (!out.ok()) Die("reference query: " + out.status().ToString());
    outs.push_back(std::move(out).value());
  }
  return outs;
}

References BuildReferences(const Workload& w, uint64_t seed) {
  References refs;
  for (size_t e = 0; e < w.editions; ++e) {
    auto doc =
        mhx::workload::BuildEditionDocument(EditionConfigFor(w, seed, e));
    if (!doc.ok()) Die("reference build: " + doc.status().ToString());
    refs.plain.push_back(QueryAll(*doc, w.shapes));
    if (w.kind == Kind::kCommit) {
      auto writer = doc->NewWriter();
      writer.AddVirtualHierarchy(kChurnHierarchy, ChurnElements());
      if (!writer.Commit().ok()) Die("reference churn commit");
      refs.churned.push_back(QueryAll(*doc, w.shapes));
    }
  }
  return refs;
}

// Service construction until every edition has been built and queried
// once and each query shape has run once — what setup_s times.
std::unique_ptr<CorpusService> SetUp(const Workload& w, uint64_t seed,
                                     const std::string& spill_dir,
                                     const References& refs) {
  CorpusOptions options;
  options.capacity = w.capacity;
  options.pool_threads = 0;  // requests evaluate serially
  options.max_heavy_in_flight = 2;
  // Above the caller count, so admission never refuses.
  options.heavy_queue_limit = 16;
  options.spill_dir = spill_dir;
  auto corpus = std::make_unique<CorpusService>(options);
  for (size_t e = 0; e < w.editions; ++e) {
    const mhx::Status status =
        corpus->Register(EditionName(e), EditionConfigFor(w, seed, e));
    if (!status.ok()) Die("register: " + status.ToString());
  }
  for (size_t e = 0; e < w.editions; ++e) {
    if (!corpus->Pin(EditionName(e)).ok()) Die("set-up build");
  }
  // Every shape and every edition's engine once: the plan cache is warm
  // and each edition's lazily built index exists before traffic starts.
  for (size_t i = 0; i < std::max(w.shapes.size(), w.editions); ++i) {
    const size_t e = i % w.editions;
    const size_t s = i % w.shapes.size();
    auto out = corpus->Query(EditionName(e), w.shapes[s]);
    if (!out.ok() || *out != refs.Of(e, s, false)) {
      Die("set-up query mismatch");
    }
  }
  return corpus;
}

std::string MakeSpillDir(const std::string& scratch) {
  std::string path = scratch + "/spill.XXXXXX";
  if (mkdtemp(path.data()) == nullptr) Die("mkdtemp " + path);
  return path;
}

// --- Traffic -----------------------------------------------------------------

// One measured request.
struct Sample {
  int64_t start_ns;
  int64_t end_ns;
  bool traced;
};

constexpr uint32_t kNoParent = UINT32_MAX;

// One span of a traced request; spans of a request share `request` and
// point at their parent by id.
struct Span {
  uint64_t request;
  uint32_t id;
  uint32_t parent;
  std::string name;
  int64_t begin_ns;
  int64_t end_ns;
};

// What the run recorded.
struct Log {
  std::vector<Sample> samples;
  std::vector<Span> spans;
  uint64_t queries = 0;  // Query calls made
  uint64_t commits = 0;  // commit and removal calls made
  uint64_t failed = 0;
  uint64_t mismatched = 0;
};

// The editions a run's requests visit, cycled: resident workloads shuffle
// them with the seed, round-robin ones keep them in turn, so consecutive
// requests never repeat an edition.
std::vector<uint32_t> EditionOrder(const Workload& w, uint64_t seed) {
  std::vector<uint32_t> order(w.editions);
  for (size_t e = 0; e < w.editions; ++e) order[e] = static_cast<uint32_t>(e);
  if (!w.round_robin) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[Mix(seed ^ (0x6f72646572ull + i)) % i]);
    }
  }
  return order;
}

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, CorpusService* corpus,
         const References* refs, Clock::time_point epoch)
      : w_(w),
        corpus_(corpus),
        refs_(refs),
        epoch_(epoch),
        order_(EditionOrder(w, seed)),
        present_(w.editions, false) {
    for (size_t e = 0; e < w.editions; ++e) names_.push_back(EditionName(e));
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  // Runs request `index` on the next edition in the order: on kCommit a
  // commit or removal of the churn hierarchy first, then every query text.
  // Traced, it records request > corpus.commit|corpus.query > the engine's
  // stage spans.
  void Run(uint64_t index, bool traced, Log* log) {
    const size_t e = order_[index % order_.size()];
    uint32_t next_span = 1;
    const int64_t start = Now();
    if (w_.kind == Kind::kCommit) {
      auto version =
          present_[e]
              ? corpus_->RemoveVirtualHierarchy(names_[e], kChurnHierarchy)
              : corpus_->CommitVirtualHierarchy(names_[e], kChurnHierarchy,
                                                ChurnElements());
      ++log->commits;
      if (version.ok()) {
        present_[e] = !present_[e];
      } else {
        Fail(version.status(), log);
      }
      if (traced) {
        log->spans.push_back(
            {index, next_span++, 0, "corpus.commit", start, Now()});
      }
    }
    for (size_t s = 0; s < w_.shapes.size(); ++s) {
      Query(index, e, s, traced, &next_span, log);
    }
    const int64_t end = Now();
    if (traced) {
      log->spans.push_back({index, 0, kNoParent, "request", start, end});
    }
    log->samples.push_back(Sample{start, end, traced});
  }

 private:
  // One Query call, checked against the version the last commit left.
  void Query(uint64_t request, size_t e, size_t s, bool traced,
             uint32_t* next_span, Log* log) {
    std::optional<mhx::obs::QueryTrace> trace;
    int64_t trace_origin = 0;  // the trace clock's zero on ours
    mhx::QueryOptions options;
    if (traced) {
      trace.emplace();
      trace_origin = Now();
      options.trace = &*trace;
    }
    const int64_t start = Now();
    auto out = corpus_->Query(names_[e], w_.shapes[s], options);
    const int64_t end = Now();
    ++log->queries;
    if (!out.ok()) {
      Fail(out.status(), log);
    } else if (*out != refs_->Of(e, s, present_[e])) {
      if (log->mismatched++ == 0) {
        std::fprintf(stderr, "mhx_bench: mismatch on %s query %zu\n",
                     names_[e].c_str(), s);
      }
    }
    if (!traced) return;
    const uint32_t call = (*next_span)++;
    log->spans.push_back({request, call, 0, "corpus.query", start, end});
    for (const auto& span : trace->spans()) {
      log->spans.push_back(
          {request, (*next_span)++, call, span.name,
           trace_origin + static_cast<int64_t>(span.begin_ns),
           trace_origin + static_cast<int64_t>(span.end_ns)});
    }
  }

  static void Fail(const mhx::Status& status, Log* log) {
    if (log->failed++ == 0) {
      std::fprintf(stderr, "mhx_bench: request failed: %s\n",
                   status.ToString().c_str());
    }
  }

  const Workload& w_;
  CorpusService* corpus_;
  const References* refs_;
  const Clock::time_point epoch_;
  const std::vector<uint32_t> order_;
  std::vector<std::string> names_;
  std::vector<bool> present_;  // churn hierarchy committed, per edition
};

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  if (kib < 0) Die("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

uint64_t JsonCounter(const std::string& json, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) Die(std::string("no metric ") + name);
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

// The service counters the per-layer metrics are deltas of.
struct Counters {
  CorpusService::Stats stats;
  uint64_t steps_indexed, steps_scanned, pushdowns, sorts_skipped,
      index_rebuilds, replans;

  explicit Counters(const CorpusService& corpus) : stats(corpus.stats()) {
    const std::string json = corpus.metrics().JsonExport();
    steps_indexed = JsonCounter(json, "mhx_plan_steps_indexed_total");
    steps_scanned = JsonCounter(json, "mhx_plan_steps_scanned_total");
    pushdowns = JsonCounter(json, "mhx_plan_pushdowns_total");
    sorts_skipped = JsonCounter(json, "mhx_engine_sorts_skipped_total");
    index_rebuilds = JsonCounter(json, "mhx_engine_index_rebuilds_total");
    replans = JsonCounter(json, "mhx_plan_cache_replans_total");
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Self time per span name over all traced requests: a span's duration
// minus the union of its children's intervals.
struct SelfTimes {
  std::map<std::string, double> ns;
  double request_ns = 0;
  uint64_t query_calls = 0;

  double Of(const std::string& name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0.0 : it->second;
  }
};

// `spans` holds each traced request's spans contiguously.
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  SelfTimes self;
  size_t begin = 0;
  while (begin < spans.size()) {
    size_t end = begin;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    for (size_t i = begin; i < end; ++i) {
      const Span& span = spans[i];
      std::vector<std::pair<int64_t, int64_t>> children;
      for (size_t j = begin; j < end; ++j) {
        if (spans[j].parent != span.id) continue;
        children.emplace_back(std::max(spans[j].begin_ns, span.begin_ns),
                              std::min(spans[j].end_ns, span.end_ns));
      }
      std::sort(children.begin(), children.end());
      int64_t covered = 0;
      int64_t cursor = span.begin_ns;
      for (const auto& [b, e] : children) {
        const int64_t from = std::max(b, cursor);
        if (e > from) {
          covered += e - from;
          cursor = e;
        }
      }
      self.ns[span.name] +=
          static_cast<double>(span.end_ns - span.begin_ns - covered);
      if (span.parent == kNoParent) {
        self.request_ns += static_cast<double>(span.end_ns - span.begin_ns);
      }
      if (span.name == "corpus.query") ++self.query_calls;
    }
    begin = end;
  }
  return self;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(
        f,
        "%s\n{\"name\":\"%s\",\"cat\":\"mhx\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"request\":%llu,"
        "\"span\":%u,\"parent\":%lld}}",
        first ? "" : ",", s.name.c_str(),
        static_cast<double>(s.begin_ns) / 1e3,
        static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
        static_cast<unsigned long long>(s.request), s.id,
        s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- Layer replay ------------------------------------------------------------

// Median wall time of one call of `fn` in ns: at least 5 calls, then more
// until `budget` has elapsed.
template <typename Fn>
double MedianCallNs(Fn&& fn, std::chrono::milliseconds budget =
                                 std::chrono::milliseconds(100)) {
  std::vector<double> times;
  const auto deadline = Clock::now() + budget;
  while (times.size() < 5 ||
         (Clock::now() < deadline && times.size() < 100000)) {
    const auto start = Clock::now();
    fn();
    times.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
  }
  return Quantile(std::move(times), 0.5);
}

// Times each layer's public entry points directly on the workload's first
// edition, after the traffic has stopped.
std::vector<Metric> ReplayLayers(const Workload& w, uint64_t seed,
                                 const std::string& scratch) {
  std::vector<Metric> m;
  const mhx::workload::EditionConfig config = EditionConfigFor(w, seed, 0);
  const mhx::workload::Edition edition =
      mhx::workload::GenerateEdition(config);

  // xml + goddag construction.
  const std::pair<const char*, const std::string*> xmls[] = {
      {"physical", &edition.physical_xml},
      {"structural", &edition.structural_xml},
      {"restoration", &edition.restoration_xml},
      {"condition", &edition.condition_xml}};
  m.push_back({"xml.parse_ms", MedianCallNs([&] {
                 for (const auto& x : xmls) Keep(mhx::xml::Parse(*x.second));
               }) / 1e6,
               "ms"});
  std::vector<mhx::xml::Document> parsed;
  for (const auto& x : xmls) {
    auto doc = mhx::xml::Parse(*x.second);
    if (!doc.ok()) Die("replay parse");
    parsed.push_back(std::move(doc).value());
  }
  auto build = [&] {
    auto g = std::make_unique<mhx::goddag::KyGoddag>(edition.base_text);
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!g->AddHierarchy(xmls[i].first, parsed[i]).ok()) Die("replay build");
    }
    Keep(g->leaves());
    return g;
  };
  m.push_back(
      {"goddag.build_ms", MedianCallNs([&] { Keep(build()); }) / 1e6, "ms"});
  const auto built = build();
  m.push_back({"goddag.index_build_ms", MedianCallNs([&] {
                 mhx::goddag::RangeIndex index(built.get());
                 Keep(index);
               }) / 1e6,
               "ms"});
  m.push_back({"goddag.stats_build_ms", MedianCallNs([&] {
                 mhx::goddag::SnapshotStats stats(built.get());
                 Keep(stats);
               }) / 1e6,
               "ms"});

  // The published snapshot every later layer reads.
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) Die("replay document");
  const auto snapshot = doc->PinSnapshot();
  snapshot->EnsureIndex();
  snapshot->EnsureStats();
  const mhx::goddag::KyGoddag& g = snapshot->goddag();
  const mhx::goddag::SnapshotStats& stats = snapshot->stats();
  Keep(g.leaves());

  // xquery: parse and plan the workload's own query texts.
  const double shapes = static_cast<double>(w.shapes.size());
  m.push_back({"xquery.parse_us", MedianCallNs([&] {
                 for (const auto& q : w.shapes) {
                   Keep(mhx::xquery::ParseQuery(q));
                 }
               }) / shapes / 1e3,
               "us"});
  std::vector<std::unique_ptr<mhx::xquery::Expr>> exprs;
  for (const auto& q : w.shapes) {
    auto expr = mhx::xquery::ParseQuery(q);
    if (!expr.ok()) Die("replay query parse");
    exprs.push_back(std::move(expr).value());
  }
  m.push_back({"xquery.plan_us", MedianCallNs([&] {
                 for (const auto& e : exprs) {
                   Keep(mhx::xquery::PlanQuery(e->root(), stats,
                                               snapshot->version()));
                 }
               }) / shapes / 1e3,
               "us"});

  // xpath: indexed probes and kernel scans from 64 spread-out words.
  std::vector<NodeId> words;
  for (NodeId id : g.hierarchy(1).nodes) {
    if (g.node(id).name == "w") words.push_back(id);
  }
  std::vector<NodeId> contexts;
  for (size_t i = 0; i < 64 && i < words.size(); ++i) {
    contexts.push_back(words[i * words.size() / std::min<size_t>(
                                                     64, words.size())]);
  }
  const double n_ctx = static_cast<double>(contexts.size());
  const mhx::xpath::AxisEvaluator axes(snapshot.get());
  const mhx::goddag::OverlayView base_view(&g);
  const mhx::xpath::NodeTest any = mhx::xpath::NodeTest::Any();
  const Axis probe_axes[] = {Axis::kXAncestor, Axis::kXDescendant,
                             Axis::kOverlapping};
  const mhx::xpath::StepExec indexed{true, false};
  size_t hits = 0;
  for (NodeId ctx : contexts) {
    for (Axis axis : probe_axes) {
      hits += axes.EvaluatePlanned(base_view, ctx, axis, any, indexed).size();
    }
  }
  m.push_back({"xpath.probe_us", MedianCallNs([&] {
                 for (NodeId ctx : contexts) {
                   for (Axis axis : probe_axes) {
                     Keep(axes.EvaluatePlanned(base_view, ctx, axis, any,
                                               indexed));
                   }
                 }
               }) / (n_ctx * 3) / 1e3,
               "us"});
  m.push_back({"xpath.hits_per_probe",
               static_cast<double>(hits) / (n_ctx * 3), "count"});

  const mhx::goddag::RangeSoA& soa = stats.soa();
  const Axis scan_axes[] = {Axis::kXFollowing, Axis::kXPreceding};
  std::vector<NodeId> out;
  size_t matched = 0;
  auto scan = [&] {
    for (NodeId ctx : contexts) {
      for (Axis axis : scan_axes) {
        out.clear();
        mhx::xpath::ScanExtendedAxis(soa, axis, g.node(ctx).range, ctx,
                                     mhx::goddag::kNoNameKey,
                                     mhx::xpath::KernelIsa::kAuto, &out);
        matched += out.size();
      }
    }
  };
  scan();
  const double scanned = n_ctx * 2 * static_cast<double>(soa.size());
  m.push_back({"kernels.match_ratio", static_cast<double>(matched) / scanned,
               "ratio"});
  m.push_back({"kernels.scan_ns_per_elem", MedianCallNs(scan) / scanned,
               "ns/elem"});
  const mhx::xpath::KernelIsa isa = mhx::xpath::DispatchedKernelIsa();
  m.push_back({"kernels.isa_lanes",
               isa == mhx::xpath::KernelIsa::kAvx2   ? 8.0
               : isa == mhx::xpath::KernelIsa::kSse2 ? 4.0
                                                     : 1.0,
               "lanes"});

  // regex: the analyze_string patterns, filter and residual.
  std::vector<std::string> sources;
  for (const AnalyzePattern& p : kAnalyzePatterns) {
    sources.push_back(p.filter);
    auto fragment = mhx::regex::TranslateFragmentPattern(
        mhx::regex::StripContextWildcards(p.pattern));
    if (!fragment.ok()) Die("replay fragment pattern");
    sources.push_back(fragment->regex);
  }
  m.push_back({"regex.compile_us", MedianCallNs([&] {
                 for (const auto& s : sources) {
                   Keep(mhx::regex::Regex::Compile(s));
                 }
               }) / static_cast<double>(sources.size()) / 1e3,
               "us"});
  std::vector<mhx::regex::Regex> regexes;
  for (const auto& s : sources) {
    auto re = mhx::regex::Regex::Compile(s);
    if (!re.ok()) Die("replay regex");
    regexes.push_back(std::move(re).value());
  }
  std::vector<std::string> word_text;
  double bytes = 0;
  for (NodeId id : words) {
    word_text.push_back(g.NodeString(id));
    bytes += static_cast<double>(word_text.back().size());
  }
  m.push_back({"regex.match_ns_per_byte", MedianCallNs([&] {
                 for (const auto& text : word_text) {
                   for (size_t i = 0; i < regexes.size(); i += 2) {
                     Keep(regexes[i].ContainsMatch(text));
                     Keep(regexes[i + 1].FindAll(text));
                   }
                 }
               }) / (bytes * static_cast<double>(regexes.size())),
               "ns/B"});

  // goddag overlays: what analyze-string($w, ".*ea.*") builds per word.
  const mhx::regex::Regex& ea = regexes[1];
  std::vector<std::vector<mhx::goddag::VirtualElement>> elements;
  std::vector<mhx::TextRange> word_ranges;
  for (size_t i = 0; i < words.size() && elements.size() < 64; ++i) {
    const auto matches = ea.FindAll(word_text[i]);
    if (matches.empty()) continue;
    const mhx::TextRange range = g.node(words[i]).range;
    std::vector<mhx::goddag::VirtualElement> els{
        {"analyze-string-result", range, {}}};
    for (const auto& match : matches) {
      els.push_back({"m",
                     mhx::TextRange(range.begin + match.range.begin,
                                    range.begin + match.range.end),
                     {}});
    }
    elements.push_back(std::move(els));
    word_ranges.push_back(range);
  }
  if (elements.empty()) Die("replay: no word matches .*ea.*");
  const double n_overlays = static_cast<double>(elements.size());
  auto ids = std::make_shared<mhx::goddag::OverlayIdAllocator>();
  std::vector<std::shared_ptr<const mhx::goddag::GoddagOverlay>> overlays;
  auto create = [&](size_t i) {
    auto overlay = mhx::goddag::GoddagOverlay::Create(
        &g, ids, "analyze-string-result", elements[i]);
    if (!overlay.ok()) Die("replay overlay");
    return std::move(overlay).value();
  };
  m.push_back({"goddag.overlay_build_us", MedianCallNs([&] {
                 for (size_t i = 0; i < elements.size(); ++i) Keep(create(i));
               }) / n_overlays / 1e3,
               "us"});
  for (size_t i = 0; i < elements.size(); ++i) overlays.push_back(create(i));
  m.push_back({"goddag.leaf_splice_us", MedianCallNs([&] {
                 for (const auto& overlay : overlays) {
                   mhx::goddag::OverlayView view(&g);
                   view.AddOverlay(overlay);
                   Keep(view.leaves());
                 }
               }) / n_overlays / 1e3,
               "us"});
  // xpath overlay scan: xancestor::m from each leaf of each analysed word,
  // one overlay per view as in II.1's per-binding scope.
  std::vector<std::unique_ptr<mhx::goddag::OverlayView>> views;
  std::vector<std::vector<mhx::TextRange>> leaf_ranges;
  double calls = 0;
  for (size_t i = 0; i < overlays.size(); ++i) {
    views.push_back(std::make_unique<mhx::goddag::OverlayView>(&g));
    views.back()->AddOverlay(overlays[i]);
    leaf_ranges.emplace_back();
    for (const auto& leaf : views.back()->leaves()) {
      if (leaf.range.begin >= word_ranges[i].begin &&
          leaf.range.end <= word_ranges[i].end) {
        leaf_ranges.back().push_back(leaf.range);
      }
    }
    calls += static_cast<double>(leaf_ranges.back().size());
  }
  const mhx::xpath::NodeTest m_test = mhx::xpath::NodeTest::Name("m");
  const mhx::xpath::StepExec pushed{true, true};
  m.push_back({"xpath.overlay_scan_us", MedianCallNs([&] {
                 for (size_t i = 0; i < views.size(); ++i) {
                   for (const auto& range : leaf_ranges[i]) {
                     Keep(axes.EvaluateRangePlanned(*views[i], range,
                                                    Axis::kXAncestor, m_test,
                                                    pushed));
                   }
                 }
               }) / calls / 1e3,
               "us"});
  views.clear();
  overlays.clear();

  // persist: serialise, and cold-load from an mmap-ed file.
  m.push_back({"persist.serialize_ms", MedianCallNs([&] {
                 Keep(mhx::goddag::SerializeSnapshot(*snapshot));
               }) / 1e6,
               "ms"});
  auto arena = mhx::goddag::SerializeSnapshot(*snapshot);
  if (!arena.ok()) Die("replay serialize");
  m.push_back({"persist.arena_bytes_per_text_byte",
               static_cast<double>(arena->size()) /
                   static_cast<double>(edition.base_text.size()),
               "B/B"});
  const std::string path =
      scratch + "/replay." + std::to_string(getpid()) + ".mhxa";
  if (!mhx::goddag::WriteSnapshotFile(*snapshot, path).ok()) {
    Die("replay arena write");
  }
  std::vector<double> loads;
  const auto deadline = Clock::now() + std::chrono::milliseconds(100);
  while (loads.size() < 5 || Clock::now() < deadline) {
    const auto start = Clock::now();
    auto mapped = mhx::goddag::LoadSnapshotFile(path);
    loads.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
    if (!mapped.ok()) Die("replay arena load");
  }
  fs::remove(path);
  m.push_back({"persist.load_ms", Quantile(std::move(loads), 0.5) / 1e6,
               "ms"});

  // document: a standalone Writer::Commit, alternating add and remove.
  bool present = false;
  m.push_back({"document.commit_ms", MedianCallNs([&] {
                 auto writer = doc->NewWriter();
                 if (present) {
                   writer.RemoveVirtualHierarchy(kChurnHierarchy);
                 } else {
                   writer.AddVirtualHierarchy(kChurnHierarchy,
                                              ChurnElements());
                 }
                 if (!writer.Commit().ok()) Die("replay commit");
                 present = !present;
               }) / 1e6,
               "ms"});
  return m;
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string scratch = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) Die("flags take one value each");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

void Print(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<Workload> workloads = Workloads();
  const Workload* found = nullptr;
  std::string names;
  for (const Workload& w : workloads) {
    if (args.workload == w.name) found = &w;
    names += std::string(" ") + w.name;
  }
  if (found == nullptr) Die("--workload must be one of:" + names);
  const Workload& w = *found;
  fs::create_directories(args.scratch);

  const References refs = BuildReferences(w, args.seed);

  // Set-up runs before the traffic (the last service serves it) and again
  // after it, so the median samples the machine at both ends of the run.
  std::vector<double> setup_s;
  std::unique_ptr<CorpusService> corpus;
  std::string spill_dir;
  const auto set_up = [&] {
    corpus.reset();
    if (!spill_dir.empty()) fs::remove_all(spill_dir);
    spill_dir = w.spill ? MakeSpillDir(args.scratch) : "";
    const auto start = Clock::now();
    corpus = SetUp(w, args.seed, spill_dir, refs);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();
  const Counters before(*corpus);

  // Traffic: one caller sends each request as soon as the previous one
  // returns. Requests that start in the warm-up run and are verified but
  // not timed. With --trace, every other request is traced.
  const int64_t warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t until_ns =
      warmup_ns + static_cast<int64_t>(args.seconds * 1e9);
  Runner runner(w, args.seed, corpus.get(), &refs, Clock::now());
  Log log;
  for (uint64_t i = 0; runner.Now() < until_ns; ++i) {
    runner.Run(i, args.trace && i % 2 == 0, &log);
  }
  const Counters after(*corpus);
  for (int i = 0; i < kSetupRepeats; ++i) set_up();

  const uint64_t attempted = log.queries + log.commits;
  std::vector<double> latency_ms, traced_ms, untraced_ms;
  for (const Sample& s : log.samples) {
    if (s.start_ns < warmup_ns) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    latency_ms.push_back(ms);
    (s.traced ? traced_ms : untraced_ms).push_back(ms);
  }
  if (latency_ms.empty()) Die("run too short to measure");
  std::fprintf(stderr,
               "mhx_bench %s seed %llu: %zu timed requests, %llu calls\n"
               "  latency p25 %.3f  p50 %.3f  p90 %.3f  p99 %.3f ms\n",
               w.name, static_cast<unsigned long long>(args.seed),
               latency_ms.size(), static_cast<unsigned long long>(attempted),
               Quantile(latency_ms, 0.25), Quantile(latency_ms, 0.5),
               Quantile(latency_ms, 0.9), Quantile(latency_ms, 0.99));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"p50_ms", Quantile(latency_ms, 0.5), "ms"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    const double queries = static_cast<double>(log.queries);
    const auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a);
    };
    metrics = {
        {"harness.timed_requests", static_cast<double>(latency_ms.size()),
         "count"},
        {"obs.trace_overhead_ratio",
         Ratio(Quantile(traced_ms, 0.5), Quantile(untraced_ms, 0.5)),
         "ratio"},
        {"corpus.plan_hit_ratio",
         Ratio(delta(before.stats.plan_hits, after.stats.plan_hits),
               delta(before.stats.plan_hits, after.stats.plan_hits) +
                   delta(before.stats.plan_misses, after.stats.plan_misses)),
         "ratio"},
        {"corpus.load_fallbacks",
         static_cast<double>(after.stats.load_fallbacks), "count"},
        {"corpus.mmap_loads_per_query",
         Ratio(delta(before.stats.mmap_loads, after.stats.mmap_loads),
               queries),
         "count/query"},
        {"corpus.evictions_per_query",
         Ratio(delta(before.stats.evictions, after.stats.evictions), queries),
         "count/query"},
        {"engine.plan_steps_indexed_per_query",
         Ratio(delta(before.steps_indexed, after.steps_indexed), queries),
         "count/query"},
        {"engine.plan_steps_scanned_per_query",
         Ratio(delta(before.steps_scanned, after.steps_scanned), queries),
         "count/query"},
        {"engine.pushdown_ratio",
         Ratio(delta(before.pushdowns, after.pushdowns),
               delta(before.steps_indexed, after.steps_indexed) +
                   delta(before.steps_scanned, after.steps_scanned)),
         "ratio"},
        {"engine.sorts_skipped_per_query",
         Ratio(delta(before.sorts_skipped, after.sorts_skipped), queries),
         "count/query"},
        {"engine.index_rebuilds",
         delta(before.index_rebuilds, after.index_rebuilds), "count"},
        {"engine.plan_replans_per_query",
         Ratio(delta(before.replans, after.replans), queries), "count/query"},
    };
    const SelfTimes self = ComputeSelfTimes(log.spans);
    const char* const layers[] = {"request",        "corpus.query",
                                  "corpus.commit",  "parse",
                                  "admission_wait", "doc_build",
                                  "plan_lookup",    "index_materialize",
                                  "evaluate",       "serialize"};
    const double unattributed = self.Of("request") +
                                self.Of("corpus.query") +
                                self.Of("corpus.commit");
    metrics.push_back({"span.attributed_pct",
                       100.0 * (1.0 - Ratio(unattributed, self.request_ns)),
                       "%"});
    for (const char* layer : layers) {
      metrics.push_back({std::string("span.") + layer + ".self_pct",
                         100.0 * Ratio(self.Of(layer), self.request_ns), "%"});
    }
    for (const char* stage :
         {"parse", "plan_lookup", "index_materialize", "evaluate",
          "serialize"}) {
      metrics.push_back(
          {std::string("span.") + stage + ".self_us",
           Ratio(self.Of(stage),
                 static_cast<double>(self.query_calls)) / 1e3,
           "us"});
    }
    fs::create_directories(args.scratch + "/traces");
    const std::string trace_path = args.scratch + "/traces/" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    WriteChromeTrace(trace_path, log.spans);
    std::fprintf(stderr, "  span trees: %s\n", trace_path.c_str());
    for (Metric& m : ReplayLayers(w, args.seed, args.scratch)) {
      metrics.push_back(std::move(m));
    }
  }
  corpus.reset();
  if (!spill_dir.empty()) fs::remove_all(spill_dir);

  Print(log.mismatched == 0, attempted, log.failed, metrics);
  return log.mismatched == 0 ? 0 : 1;
}
