// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The corpus service: one process serving mixed query traffic over many
// named editions — the ROADMAP's "millions of users" shape. A
// CorpusService owns a sharded map of named documents (deterministic
// workload/ editions), builds them lazily on first query, keeps at most
// `capacity` resident behind an LRU, and runs every query through shared
// process-wide resources: one xquery::PlanCache (each distinct query text
// parses once no matter how many editions it runs against) and one
// xquery::EngineCounters block. Each query evaluates on its caller's
// thread; concurrency comes from concurrent callers.
//
// Locking, outermost first:
//   shard.mu     name -> entry lookup; entries are never erased, so an
//                Entry* is stable once found.
//   entry.build_mu  serialises builds of one document; concurrent callers
//                of a cold document wait here while exactly one builds.
//   lru_mu_      residency pointers + the LRU list + build/eviction
//                counters. Eviction happens entirely under lru_mu_ and
//                never takes a victim's build_mu, so the order is acyclic.
//
// Eviction vs. in-flight queries: a query pins its document with a
// shared_ptr before evaluating, so evicting the entry (dropping the
// service's reference) never frees a document mid-query — the pin does,
// when the last query returns. KeptTemporaries handles outlive eviction
// the same way they outlive engine death: they hold a weak registry and
// simply become inert (see xquery/engine.h).
//
// Admission control: queries whose plan ContainsAnalyzeString are "heavy"
// (they materialise temporary hierarchies and dominate evaluation cost).
// At most `max_heavy_in_flight` run at once; up to `heavy_queue_limit`
// more wait on a condition variable; beyond that Query returns
// ResourceExhausted immediately — backpressure the caller can see —
// so cheap path queries (never queued) aren't starved behind a wall of
// analyze-string work.
//
// Writes: CommitVirtualHierarchy / RemoveVirtualHierarchy route through the
// document's MVCC Writer (see CONCURRENCY.md), so commits never block the
// query traffic above — readers keep evaluating against their pinned
// snapshots while the writer prepares and publishes the next version.
// Writes get their own per-document admission (max_writers_in_flight /
// writer_queue_limit), separate from heavy-query admission: a burst of
// commits backs up on its own bounded queue instead of competing with
// analyze-string work.
//
// Spill (CorpusOptions::spill_dir): when set, the service persists every
// built document — and every committed version — as an mmap-able arena
// file (goddag/persist.h) under that directory, and a cold pin tries the
// arena first: page the snapshot in zero-copy instead of reparsing the
// edition's XML. A missing arena falls back to the parse build silently
// (first touch); a corrupt or unreadable one falls back too, counted in
// `mhx_load_fallbacks_total`, and the fresh build overwrites it. With
// spill enabled the old durability caveat softens: a version committed
// through CommitVirtualHierarchy / RemoveVirtualHierarchy survives
// eviction, because the re-admission load starts from the spilled arena
// rather than the registered EditionConfig. Without a spill_dir the old
// rule stands — corpus writes are serving-time annotations, and eviction
// resets the document to its config.

#ifndef MHX_CORPUS_CORPUS_H_
#define MHX_CORPUS_CORPUS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "document.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "workload/generator.h"
#include "xquery/plan_cache.h"

namespace mhx::corpus {

// Sentinel for CorpusOptions::slow_query_threshold_us: no per-query trace
// is created and nothing is ever captured.
inline constexpr uint64_t kNoSlowQueryLog =
    std::numeric_limits<uint64_t>::max();

// Service-construction knobs; every field has a safe default.
struct CorpusOptions {
  // Maximum resident (built) documents; clamped to at least 1. Eviction is
  // strict LRU by last query.
  size_t capacity = 8;
  // Has no effect: queries evaluate serially on the caller's thread and
  // nothing reads this field. It stays declared only because the
  // repository benchmark (mhxbench/mhx_bench.cc) still assigns it; drop
  // it once the benchmark stops.
  size_t pool_threads = 4;
  // Concurrent analyze-string-heavy queries admitted; 0 rejects them all.
  size_t max_heavy_in_flight = 4;
  // Heavy queries allowed to wait for a slot before ResourceExhausted.
  size_t heavy_queue_limit = 16;
  // Concurrent Writer commits admitted per document; 0 rejects all writes.
  // Commits serialise on the document's writer mutex anyway, so >1 only
  // moves the wait from admission to that mutex.
  size_t max_writers_in_flight = 1;
  // Writes allowed to wait for a per-document slot before
  // ResourceExhausted.
  size_t writer_queue_limit = 8;
  // Completed queries at or above this wall time (µs) are captured in the
  // slow-query log with their full stage breakdown: when enabled, every
  // Query() without a caller-attached trace gets a service-internal
  // QueryTrace (a few clock reads and small span records per query). 0
  // captures everything (tests); the default sentinel disables tracing
  // and capture entirely.
  uint64_t slow_query_threshold_us = kNoSlowQueryLog;
  // Retained slow-query records (ring; oldest overwritten). 0 disables
  // capture even if the threshold is set.
  size_t slow_query_log_capacity = 64;
  // Directory for persisted snapshot arenas (see the spill paragraph in
  // the file comment). Empty disables spill entirely. The directory must
  // exist; individual write failures are non-fatal (the document just
  // stays parse-built).
  std::string spill_dir;
};

// Bounded-queue admission for one class of expensive work. Acquire either
// returns OkStatus() holding a slot (possibly after waiting in the bounded
// queue) or ResourceExhausted without blocking further; every Ok Acquire
// must be paired with Release. `name` names the class ("analyze-string",
// "write") in the rejection message.
class AdmissionController {
 public:
  AdmissionController(std::string name, size_t slots, size_t queue_limit)
      : name_(std::move(name)), slots_(slots), queue_limit_(queue_limit) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Takes a slot. Blocking behavior: returns Ok immediately when a slot is
  // free, waits on the condition variable while at most queue_limit callers
  // are already waiting, and returns ResourceExhausted without blocking
  // beyond the mutex otherwise. Thread-safe.
  Status Acquire();
  // Returns a slot taken by an Ok Acquire and wakes one waiter.
  // Thread-safe.
  void Release();

  // Point-in-time queue depths and the rejection total. Thread-safe; the
  // values may be stale by the time the caller reads them.
  size_t in_flight() const;
  size_t waiting() const;
  size_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  const size_t slots_;
  const size_t queue_limit_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  size_t waiting_ = 0;
  std::atomic<size_t> rejected_{0};
};

class CorpusService {
 public:
  // Point-in-time counters; exact once traffic quiesces.
  struct Stats {
    size_t resident_documents = 0;
    size_t builds = 0;      // documents built (re-builds after eviction too)
    size_t evictions = 0;
    size_t pins = 0;        // explicit Pin() calls
    size_t plan_hits = 0;   // process-wide PlanCache, all documents
    size_t plan_misses = 0;
    size_t plan_regex_hits = 0;
    size_t plan_regex_misses = 0;
    size_t heavy_rejections = 0;
    size_t heavy_in_flight = 0;
    size_t heavy_waiting = 0;
    size_t slow_queries = 0;  // captured by the slow-query log, ever
    size_t writes = 0;             // committed document versions
    size_t write_rejections = 0;   // writes refused by write admission
    size_t live_snapshots = 0;     // DocumentSnapshots alive process-wide
    size_t snapshot_pins = 0;      // evaluation snapshot pins, all engines
    size_t overlay_id_exhausted = 0;  // analyze-string id-space rejections
    size_t snapshots_persisted = 0;  // arena spill files written
    size_t mmap_loads = 0;           // cold pins served from a mapped arena
    size_t load_fallbacks = 0;       // arena loads that failed -> parse build
  };

  explicit CorpusService(const CorpusOptions& options);
  ~CorpusService();

  CorpusService(const CorpusService&) = delete;
  CorpusService& operator=(const CorpusService&) = delete;

  // Registers a named edition to be built on first use. InvalidArgument if
  // the name is taken.
  Status Register(std::string name, const workload::EditionConfig& config);

  // Evaluates `query` against the named document: classify (heavy queries
  // go through admission first), pin the document — building or re-building
  // it if cold, after evicting the LRU victim if the build would overflow
  // capacity, so a cold build never holds more than `capacity` documents —
  // and evaluate through the shared plan cache. NotFound for an
  // unregistered name; parse errors surface before any document is built;
  // ResourceExhausted is admission backpressure. Thread-safety class:
  // pinned-snapshot read (CONCURRENCY.md) — never blocked by commits;
  // heavy queries may wait in admission, cold documents in the build.
  StatusOr<std::string> Query(std::string_view doc_name,
                              std::string_view query,
                              const QueryOptions& options = {});

  // Pins the named document resident (building it if needed) and returns
  // the pin. The document stays alive while the caller holds it, even
  // across eviction; holding a pin does not block eviction. Thread-safe;
  // blocks only while a cold document builds.
  StatusOr<std::shared_ptr<const MultihierarchicalDocument>> Pin(
      std::string_view doc_name);

  // Commits a virtual hierarchy (offset-anchored elements under a
  // whole-text root named `hierarchy_name`) as the named document's next
  // MVCC version and returns the published version number. In-flight and
  // future readers of older versions are never blocked (see the write-path
  // contract above). NotFound for an unregistered name; ResourceExhausted
  // is write-admission backpressure; any Writer::Commit error (name
  // collision, bad ranges) aborts with nothing published. Thread-safety
  // class: writer-path (CONCURRENCY.md) — waits only in write admission
  // and behind other committing writers of the same document.
  StatusOr<uint64_t> CommitVirtualHierarchy(
      std::string_view doc_name, std::string hierarchy_name,
      std::vector<goddag::VirtualElement> elements);

  // Commits removal of the active virtual hierarchy named
  // `hierarchy_name` (highest table slot when several share the name) as
  // the next version. Same error and blocking contract as
  // CommitVirtualHierarchy; NotFound when no such hierarchy is active.
  StatusOr<uint64_t> RemoveVirtualHierarchy(std::string_view doc_name,
                                            std::string_view hierarchy_name);

  // Point-in-time service counters (see Stats). Thread-safe and never
  // blocks query or write traffic; exact once traffic quiesces.
  Stats stats() const;

  // How many times the named document has been built (0 = never, 2+ =
  // rebuilt after eviction). NotFound for an unregistered name.
  // Thread-safe.
  StatusOr<size_t> BuildCount(std::string_view doc_name) const;

  // The process-wide plan cache every engine of this service shares.
  // Thread-safe (the cache has its own sharded locking).
  const std::shared_ptr<xquery::PlanCache>& plans() const { return plans_; }

  // The service's metric directory (`mhx_*` namespace, see DESIGN.md
  // "Observability"): every scattered counter in the stack — PlanCache,
  // the shared EngineCounters, builds/evictions/pins, admission levels —
  // registered once at construction. Safe to export concurrently with
  // query traffic.
  const obs::MetricsRegistry& metrics() const { return registry_; }

  // Snapshot of the slow-query log, oldest first. Empty unless
  // CorpusOptions::slow_query_threshold_us enabled capture.
  std::vector<obs::SlowQueryRecord> DumpSlowQueries() const {
    return slow_log_.DumpSlowQueries();
  }

 private:
  struct Entry {
    std::string name;
    workload::EditionConfig config;
    // Arena spill file for this document (sanitised name + hash under
    // spill_dir), computed at Register; empty when spill is disabled.
    std::string spill_path;
    std::mutex build_mu;  // serialises BuildEditionDocument for this entry
    // Per-document write admission (see CorpusOptions); created at
    // Register, so it survives eviction along with the entry.
    std::unique_ptr<AdmissionController> write_admission;
    // --- guarded by lru_mu_ ---
    std::shared_ptr<MultihierarchicalDocument> doc;  // null when cold
    std::list<Entry*>::iterator lru_it;  // valid iff doc != nullptr
    size_t builds = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries;
  };

  Shard& ShardFor(std::string_view name) const;
  Entry* FindEntry(std::string_view name) const;
  // The pin: returns entry->doc, building it first when cold. A non-null
  // `trace` gets a "doc_build" stage span when this call actually builds.
  StatusOr<std::shared_ptr<MultihierarchicalDocument>> Resident(
      Entry* entry, obs::QueryTrace* trace = nullptr);
  // Drops LRU victims until at most `keep` documents are resident, moving
  // their references into `evicted` so the caller destroys them outside
  // lru_mu_. Caller holds lru_mu_.
  void EvictDownTo(size_t keep,
                   std::vector<std::shared_ptr<MultihierarchicalDocument>>*
                       evicted);
  // Query() with the resolved trace (caller-attached, service-internal
  // for the slow log, or null).
  StatusOr<std::string> QueryTraced(Entry* entry, std::string_view query,
                                    const QueryOptions& options,
                                    obs::QueryTrace* trace);
  // Shared write path: resolve the entry, pass write admission, pin the
  // document resident, let `configure` queue ops on a fresh Writer, and
  // Commit. Both public mutators land here.
  StatusOr<uint64_t> MutateDocument(
      std::string_view doc_name,
      const std::function<void(MultihierarchicalDocument::Writer&)>&
          configure);
  // Registers every instrument with registry_; construction only.
  void WireMetrics();

  const size_t capacity_;
  const uint64_t slow_threshold_us_;
  const size_t max_writers_in_flight_;
  const size_t writer_queue_limit_;
  const std::string spill_dir_;
  std::shared_ptr<xquery::PlanCache> plans_;
  // One counter block shared by every engine the service builds, so
  // totals survive eviction (see xquery::EngineCounters).
  std::shared_ptr<xquery::EngineCounters> engine_counters_;
  AdmissionController heavy_admission_;
  // Shards of the name -> document map.
  static constexpr size_t kShardCount = 8;
  std::unique_ptr<Shard[]> shards_;
  obs::SlowQueryLog slow_log_;

  mutable std::mutex lru_mu_;
  // Front = most recently used. Only resident entries are listed.
  std::list<Entry*> lru_;
  // Bumped under lru_mu_ (obs::Counter so the registry reads them without
  // the lock).
  obs::Counter builds_;
  obs::Counter evictions_;
  obs::Counter pins_;
  obs::Counter queries_;
  // Committed document versions / writes refused by per-document admission
  // (service-wide totals; admission itself is per entry).
  obs::Counter writes_;
  obs::Counter write_rejections_;
  // Spill-path totals (see the file comment): arenas written, cold pins
  // served by a mapped arena, and failed loads that fell back to a parse.
  obs::Counter snapshots_persisted_;
  obs::Counter mmap_loads_;
  obs::Counter load_fallbacks_;
  // Wall time of every completed Query(), traced or not, in µs.
  base::LatencyHistogram query_latency_;
  // Declared last: its external registrations point at the members above.
  obs::MetricsRegistry registry_;
};

}  // namespace mhx::corpus

#endif  // MHX_CORPUS_CORPUS_H_
