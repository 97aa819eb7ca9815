// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "corpus/corpus.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "base/status_macros.h"
#include "goddag/persist.h"
#include "goddag/snapshot.h"
#include "xpath/kernels.h"
#include "xquery/ast.h"

namespace mhx::corpus {

// --- AdmissionController ----------------------------------------------------

Status AdmissionController::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_ < slots_) {
    ++in_flight_;
    return OkStatus();
  }
  // Full. Queue if the bounded queue has room, else push back immediately.
  if (waiting_ >= queue_limit_ || slots_ == 0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ResourceExhaustedError(
        name_ + " admission queue full (" +
        std::to_string(in_flight_) + " in flight, " +
        std::to_string(waiting_) + " waiting)");
  }
  ++waiting_;
  cv_.wait(lock, [&] { return in_flight_ < slots_; });
  --waiting_;
  ++in_flight_;
  return OkStatus();
}

void AdmissionController::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  cv_.notify_one();
}

size_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

size_t AdmissionController::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

namespace {
// Pairs every Ok Acquire with a Release on all exit paths of Query.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(AdmissionController* controller)
      : controller_(controller) {}
  ~AdmissionTicket() {
    if (controller_ != nullptr) controller_->Release();
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

 private:
  AdmissionController* controller_;
};
}  // namespace

// --- CorpusService ----------------------------------------------------------

CorpusService::CorpusService(const CorpusOptions& options)
    : capacity_(std::max<size_t>(options.capacity, 1)),
      slow_threshold_us_(options.slow_query_threshold_us),
      max_writers_in_flight_(options.max_writers_in_flight),
      writer_queue_limit_(options.writer_queue_limit),
      spill_dir_(options.spill_dir),
      plans_(std::make_shared<xquery::PlanCache>()),
      engine_counters_(std::make_shared<xquery::EngineCounters>()),
      heavy_admission_("analyze-string", options.max_heavy_in_flight,
                       options.heavy_queue_limit),
      shards_(new Shard[kShardCount]),
      slow_log_(options.slow_query_threshold_us == kNoSlowQueryLog
                    ? 0
                    : options.slow_query_log_capacity) {
  WireMetrics();
}

CorpusService::~CorpusService() = default;

void CorpusService::WireMetrics() {
  // Every referent is a member of this service (or shared_ptr-owned by
  // it), so the outlives-the-registry contract holds by construction.
  registry_.RegisterCounter("mhx_plan_cache_hits_total",
                            "Plan-cache Prepare() calls served from cache",
                            &plans_->hits_counter());
  registry_.RegisterCounter("mhx_plan_cache_misses_total",
                            "Plan-cache Prepare() calls that parsed",
                            &plans_->misses_counter());
  registry_.RegisterCounter("mhx_plan_cache_regex_hits_total",
                            "Compiled-regex lookups served from cache",
                            &plans_->regex_hits_counter());
  registry_.RegisterCounter("mhx_plan_cache_regex_misses_total",
                            "Compiled-regex lookups that compiled",
                            &plans_->regex_misses_counter());
  registry_.RegisterCounter(
      "mhx_regex_dfa_fallbacks_total",
      "Cached regex patterns over the DFA budget (Pike VM only)",
      &plans_->regex_dfa_fallbacks_counter());
  registry_.RegisterCounter(
      "mhx_engine_sorts_skipped_total",
      "Path-step sort+dedup passes skipped via ordering guarantees",
      &engine_counters_->sorts_skipped);
  registry_.RegisterCounter(
      "mhx_engine_set_steps_total",
      "Path steps evaluated once over their whole context sequence",
      &engine_counters_->set_steps);
  // Always 0: snapshots are published with their index built, so no
  // reader builds one. Kept only because mhxbench/mhx_bench.cc:483 reads it.
  registry_.AddCounter("mhx_engine_index_rebuilds_total",
                       "RangeIndex builds by readers (always 0)");
  registry_.RegisterCounter("mhx_corpus_queries_total",
                            "Query() calls accepted for evaluation",
                            &queries_);
  registry_.RegisterCounter("mhx_corpus_builds_total",
                            "Documents built (rebuilds after eviction too)",
                            &builds_);
  registry_.RegisterCounter("mhx_corpus_evictions_total",
                            "Documents evicted by the LRU", &evictions_);
  registry_.RegisterCounter("mhx_corpus_pins_total",
                            "Explicit Pin() calls", &pins_);
  registry_.RegisterCounter("mhx_corpus_writes_total",
                            "Document versions committed via Writers",
                            &writes_);
  registry_.RegisterCounter(
      "mhx_corpus_write_rejected_total",
      "Writes rejected by per-document write admission",
      &write_rejections_);
  registry_.RegisterCounter(
      "mhx_snapshots_persisted_total",
      "Snapshot arenas spilled to disk (builds and commits)",
      &snapshots_persisted_);
  registry_.RegisterCounter(
      "mhx_mmap_loads_total",
      "Cold pins served by mapping a spilled arena (no reparse)",
      &mmap_loads_);
  registry_.RegisterCounter(
      "mhx_load_fallbacks_total",
      "Arena loads that failed and fell back to a parse build",
      &load_fallbacks_);
  registry_.RegisterGauge(
      "mhx_goddag_live_snapshots",
      "DocumentSnapshot versions currently alive (process-wide)", [] {
        return static_cast<int64_t>(goddag::DocumentSnapshot::live_count());
      });
  registry_.RegisterCounter(
      "mhx_engine_snapshot_pins_total",
      "Snapshot pins taken by evaluations across engines",
      &engine_counters_->snapshot_pins);
  registry_.RegisterCounter(
      "mhx_engine_overlay_id_exhausted_total",
      "analyze-string calls rejected on overlay-id exhaustion",
      &engine_counters_->overlay_id_exhausted);
  registry_.RegisterCounter(
      "mhx_corpus_slow_queries_total",
      "Queries captured by the slow-query log",
      [this] { return slow_log_.recorded(); });
  registry_.RegisterGauge("mhx_corpus_resident_documents",
                          "Documents currently resident", [this] {
                            std::lock_guard<std::mutex> lock(lru_mu_);
                            return static_cast<int64_t>(lru_.size());
                          });
  registry_.RegisterCounter(
      "mhx_admission_heavy_rejected_total",
      "Heavy queries rejected with ResourceExhausted",
      [this] { return static_cast<uint64_t>(heavy_admission_.rejected()); });
  registry_.RegisterGauge(
      "mhx_admission_heavy_in_flight",
      "Heavy queries currently admitted",
      [this] { return static_cast<int64_t>(heavy_admission_.in_flight()); });
  registry_.RegisterGauge(
      "mhx_admission_heavy_waiting",
      "Heavy queries waiting in the admission queue",
      [this] { return static_cast<int64_t>(heavy_admission_.waiting()); });
  registry_.RegisterCounter(
      "mhx_plan_steps_indexed_total",
      "Planned extended-axis steps that probed the RangeIndex",
      &engine_counters_->plan_steps_indexed);
  registry_.RegisterCounter(
      "mhx_plan_steps_scanned_total",
      "Planned extended-axis steps that ran the (vectorized) table scan",
      &engine_counters_->plan_steps_scanned);
  registry_.RegisterCounter(
      "mhx_plan_pushdowns_total",
      "Name tests folded into an index probe or scan kernel",
      &engine_counters_->plan_pushdowns);
  registry_.RegisterCounter(
      "mhx_plan_cache_replans_total",
      "Step-plan builds (first plan per expr/document plus commit replans)",
      &plans_->plan_replans_counter());
  registry_.RegisterCounter(
      "mhx_kernel_simd_dispatch_total",
      "Extended-axis scans dispatched to a SIMD kernel (process-wide)",
      [] { return xpath::simd_dispatch_count(); });
  registry_.RegisterTimer("mhx_corpus_query_latency_us",
                          "Wall time of completed Query() calls",
                          &query_latency_);
}

CorpusService::Shard& CorpusService::ShardFor(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kShardCount];
}

namespace {
// Spill file for a document name: the name with non-filename characters
// replaced, plus the full name's hash so sanitised collisions ("a/b" vs
// "a_b") still map to distinct files.
std::string SpillPathFor(const std::string& dir, const std::string& name) {
  std::string sanitized;
  sanitized.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    sanitized.push_back(safe ? c : '_');
  }
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016zx",
                std::hash<std::string>{}(name));
  return dir + "/" + sanitized + "." + hash + ".mhxa";
}
}  // namespace

Status CorpusService::Register(std::string name,
                               const workload::EditionConfig& config) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(name);
  if (it != shard.entries.end()) {
    return InvalidArgumentError("document '" + name + "' already registered");
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->config = config;
  if (!spill_dir_.empty()) {
    entry->spill_path = SpillPathFor(spill_dir_, name);
  }
  entry->write_admission = std::make_unique<AdmissionController>(
      "write", max_writers_in_flight_, writer_queue_limit_);
  shard.entries.emplace(std::move(name), std::move(entry));
  return OkStatus();
}

CorpusService::Entry* CorpusService::FindEntry(std::string_view name) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  // C++17 unordered_map has no heterogeneous lookup; registration and
  // lookup are off the query hot path enough that one key copy is fine.
  auto it = shard.entries.find(std::string(name));
  return it == shard.entries.end() ? nullptr : it->second.get();
}

StatusOr<std::shared_ptr<MultihierarchicalDocument>> CorpusService::Resident(
    Entry* entry, obs::QueryTrace* trace) {
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    if (entry->doc != nullptr) {
      lru_.splice(lru_.begin(), lru_, entry->lru_it);  // touch
      return entry->doc;
    }
  }
  // Cold. One builder per entry; latecomers block here, then find the doc
  // resident on re-check. Both the wait and the build land in the
  // "doc_build" stage span — a trace showing time here means the query hit
  // a cold (or just-evicted) document either way.
  obs::StageTimer stage(trace, "doc_build");
  std::lock_guard<std::mutex> build_lock(entry->build_mu);
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    if (entry->doc != nullptr) {
      lru_.splice(lru_.begin(), lru_, entry->lru_it);
      return entry->doc;
    }
  }
  // Make room first, so the build below never holds more than capacity_
  // documents (the new one included) at its memory peak.
  std::vector<std::shared_ptr<MultihierarchicalDocument>> evicted;
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    EvictDownTo(capacity_ - 1, &evicted);
  }
  evicted.clear();  // may destroy documents; in-flight pins keep theirs
  // Build outside lru_mu_ — builds are the expensive part and must not
  // block queries against resident documents. With spill enabled, try the
  // mapped arena first: adopting a spilled snapshot is O(header) validation
  // plus page-ins, against a full XML reparse + index build.
  std::shared_ptr<MultihierarchicalDocument> doc;
  if (!entry->spill_path.empty()) {
    auto mapped = goddag::LoadSnapshotFile(entry->spill_path);
    if (mapped.ok()) {
      doc = std::make_shared<MultihierarchicalDocument>(
          MultihierarchicalDocument::FromSnapshot(
              std::move(mapped->snapshot)));
      mmap_loads_.Add();
    } else if (mapped.status().code() != StatusCode::kNotFound) {
      // Corrupt or unreadable arena (NotFound is just a first touch and
      // stays silent): fall back to the parse build, which rewrites the
      // spill file below.
      load_fallbacks_.Add();
    }
  }
  if (doc == nullptr) {
    auto built = workload::BuildEditionDocument(entry->config);
    if (!built.ok()) return built.status();
    doc = std::make_shared<MultihierarchicalDocument>(
        std::move(built).value());
    if (!entry->spill_path.empty()) {
      // Spill the fresh build so the next cold pin maps instead of parsing.
      // Failures are non-fatal — the document serves parse-built either way
      // — but never counted as persisted.
      auto snapshot = doc->PinSnapshot();
      if (goddag::WriteSnapshotFile(*snapshot, entry->spill_path).ok()) {
        snapshots_persisted_.Add();
      }
    }
  }
  MHX_RETURN_IF_ERROR(doc->ConfigureEngine(plans_, engine_counters_));

  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    entry->doc = doc;
    lru_.push_front(entry);
    entry->lru_it = lru_.begin();
    ++entry->builds;
    builds_.Add();
    // Concurrent cold builds of other entries may have refilled the room.
    EvictDownTo(capacity_, &evicted);
  }
  evicted.clear();
  return doc;
}

void CorpusService::EvictDownTo(
    size_t keep,
    std::vector<std::shared_ptr<MultihierarchicalDocument>>* evicted) {
  while (lru_.size() > keep) {
    Entry* victim = lru_.back();
    lru_.pop_back();
    // Defer the drop: destroying a document (its engine, its goddag)
    // should not run under lru_mu_.
    evicted->push_back(std::move(victim->doc));
    victim->doc = nullptr;
    evictions_.Add();
  }
}

StatusOr<std::string> CorpusService::QueryTraced(Entry* entry,
                                                 std::string_view query,
                                                 const QueryOptions& options,
                                                 obs::QueryTrace* trace) {
  // Classify before touching the document: the shared-cache Prepare both
  // surfaces parse errors early and guarantees the engine's own Prepare is
  // a hit.
  const xquery::Expr* plan = nullptr;
  {
    obs::StageTimer stage(trace, "parse");
    MHX_ASSIGN_OR_RETURN(plan, plans_->Prepare(query));
  }
  const bool heavy = xquery::ContainsAnalyzeString(plan->root());
  std::unique_ptr<AdmissionTicket> ticket;
  if (heavy) {
    // Admission happens on the caller's thread, which also evaluates.
    obs::StageTimer stage(trace, "admission_wait");
    MHX_RETURN_IF_ERROR(heavy_admission_.Acquire());
    ticket = std::make_unique<AdmissionTicket>(&heavy_admission_);
  }
  MHX_ASSIGN_OR_RETURN(std::shared_ptr<MultihierarchicalDocument> doc,
                       Resident(entry, trace));
  // `doc` pins the document: eviction can drop the service's reference at
  // any time without freeing it under this evaluation. The engine records
  // the remaining stages (plan_lookup, index_materialize, evaluate,
  // serialize) into the same trace.
  QueryOptions traced = options;
  traced.trace = trace;
  return doc->Query(query, traced);
}

StatusOr<std::string> CorpusService::Query(std::string_view doc_name,
                                           std::string_view query,
                                           const QueryOptions& options) {
  Entry* entry = FindEntry(doc_name);
  if (entry == nullptr) {
    return NotFoundError("document '" + std::string(doc_name) +
                         "' is not registered");
  }
  queries_.Add();
  // Resolve the trace: a caller-attached one is used as-is; with the slow
  // log enabled an untraced query gets a service-internal trace so its
  // stage breakdown is capturable; otherwise null and every trace site in
  // the stack reduces to one branch.
  const bool slow_log_on =
      slow_threshold_us_ != kNoSlowQueryLog && slow_log_.capacity() > 0;
  std::optional<obs::QueryTrace> local_trace;
  obs::QueryTrace* trace = options.trace;
  if (trace == nullptr && slow_log_on) {
    local_trace.emplace();
    trace = &*local_trace;
  }
  const auto start = std::chrono::steady_clock::now();
  auto result = QueryTraced(entry, query, options, trace);
  const uint64_t total_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  query_latency_.Record(total_us);
  if (slow_log_on && trace != nullptr && total_us >= slow_threshold_us_) {
    obs::SlowQueryRecord record;
    record.query_hash = std::hash<std::string_view>{}(query);
    record.doc_name = std::string(doc_name);
    record.query = std::string(query);
    record.total_us = total_us;
    record.spans = trace->spans();
    slow_log_.Record(std::move(record));
  }
  return result;
}

StatusOr<uint64_t> CorpusService::MutateDocument(
    std::string_view doc_name,
    const std::function<void(MultihierarchicalDocument::Writer&)>&
        configure) {
  Entry* entry = FindEntry(doc_name);
  if (entry == nullptr) {
    return NotFoundError("document '" + std::string(doc_name) +
                         "' is not registered");
  }
  // Write admission before pinning: a rejected write must not build (or
  // touch the LRU position of) a cold document.
  Status admitted = entry->write_admission->Acquire();
  if (!admitted.ok()) {
    write_rejections_.Add();
    return admitted;
  }
  AdmissionTicket ticket(entry->write_admission.get());
  MHX_ASSIGN_OR_RETURN(std::shared_ptr<MultihierarchicalDocument> doc,
                       Resident(entry));
  // The pin (`doc`) keeps the instance alive through Commit even if the
  // LRU evicts it meanwhile. Without spill the committed version dies with
  // the instance (the header's durability caveat); with spill the commit
  // persists the new version's arena before publishing, so a post-eviction
  // reload resumes from it.
  MultihierarchicalDocument::Writer writer = doc->NewWriter();
  configure(writer);
  if (!entry->spill_path.empty()) {
    writer.PersistTo(entry->spill_path);
  }
  MHX_ASSIGN_OR_RETURN(uint64_t version, writer.Commit());
  writes_.Add();
  if (!entry->spill_path.empty()) snapshots_persisted_.Add();
  return version;
}

StatusOr<uint64_t> CorpusService::CommitVirtualHierarchy(
    std::string_view doc_name, std::string hierarchy_name,
    std::vector<goddag::VirtualElement> elements) {
  return MutateDocument(
      doc_name, [&](MultihierarchicalDocument::Writer& writer) {
        writer.AddVirtualHierarchy(std::move(hierarchy_name),
                                   std::move(elements));
      });
}

StatusOr<uint64_t> CorpusService::RemoveVirtualHierarchy(
    std::string_view doc_name, std::string_view hierarchy_name) {
  return MutateDocument(
      doc_name, [&](MultihierarchicalDocument::Writer& writer) {
        writer.RemoveVirtualHierarchy(std::string(hierarchy_name));
      });
}

StatusOr<std::shared_ptr<const MultihierarchicalDocument>> CorpusService::Pin(
    std::string_view doc_name) {
  Entry* entry = FindEntry(doc_name);
  if (entry == nullptr) {
    return NotFoundError("document '" + std::string(doc_name) +
                         "' is not registered");
  }
  pins_.Add();
  MHX_ASSIGN_OR_RETURN(std::shared_ptr<MultihierarchicalDocument> doc,
                       Resident(entry));
  return std::shared_ptr<const MultihierarchicalDocument>(std::move(doc));
}

CorpusService::Stats CorpusService::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    stats.resident_documents = lru_.size();
  }
  stats.builds = static_cast<size_t>(builds_.value());
  stats.evictions = static_cast<size_t>(evictions_.value());
  stats.pins = static_cast<size_t>(pins_.value());
  stats.plan_hits = plans_->hits();
  stats.plan_misses = plans_->misses();
  stats.plan_regex_hits = plans_->regex_hits();
  stats.plan_regex_misses = plans_->regex_misses();
  stats.heavy_rejections = heavy_admission_.rejected();
  stats.heavy_in_flight = heavy_admission_.in_flight();
  stats.heavy_waiting = heavy_admission_.waiting();
  stats.slow_queries = static_cast<size_t>(slow_log_.recorded());
  stats.writes = static_cast<size_t>(writes_.value());
  stats.write_rejections = static_cast<size_t>(write_rejections_.value());
  stats.live_snapshots = goddag::DocumentSnapshot::live_count();
  stats.snapshot_pins =
      static_cast<size_t>(engine_counters_->snapshot_pins.value());
  stats.overlay_id_exhausted =
      static_cast<size_t>(engine_counters_->overlay_id_exhausted.value());
  stats.snapshots_persisted =
      static_cast<size_t>(snapshots_persisted_.value());
  stats.mmap_loads = static_cast<size_t>(mmap_loads_.value());
  stats.load_fallbacks = static_cast<size_t>(load_fallbacks_.value());
  return stats;
}

StatusOr<size_t> CorpusService::BuildCount(std::string_view doc_name) const {
  Entry* entry = FindEntry(doc_name);
  if (entry == nullptr) {
    return NotFoundError("document '" + std::string(doc_name) +
                         "' is not registered");
  }
  std::lock_guard<std::mutex> lock(lru_mu_);
  return entry->builds;
}

}  // namespace mhx::corpus
