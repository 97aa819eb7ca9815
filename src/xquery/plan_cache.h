// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// A process-wide compiled-plan cache: query text -> parsed Expr and regex
// pattern -> compiled regex (DFAs plus Pike-VM program), sharded by key
// hash so unrelated queries never contend on one mutex. This is the lift of the former
// per-engine query_cache_/regex_cache_ (xquery/engine.h): plans and
// compiled patterns are document-independent, so one PlanCache shared by
// every engine in a process — the corpus service wires exactly that —
// compiles each distinct query text once no matter how many documents it
// runs against. An engine given no shared cache creates a private one, so
// single-document use is unchanged.
//
// Entries are never evicted: the mapped values live at stable addresses
// (unique_ptr-boxed entries), so a returned Expr* / Regex* stays valid for
// the cache's lifetime — engines hold the cache by shared_ptr, which is why
// a plan outlives any document that happens to be evicted mid-query.
// hits()/misses() (and the regex_ pair) are relaxed monotonic counters,
// surfaced by bench_corpus as the cross-document hit-rate.

#ifndef MHX_XQUERY_PLAN_CACHE_H_
#define MHX_XQUERY_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/statusor.h"
#include "obs/metrics.h"
#include "regex/regex.h"
#include "xquery/parser.h"
#include "xquery/planner.h"

namespace mhx::xquery {

namespace internal {
// A string-keyed cache entry whose key the map's string_view key points
// into: C++17 has no heterogeneous unordered_map lookup, so the key type
// *is* string_view and each entry owns its key's storage. Entries live
// behind unique_ptr, so rehashing moves pointers only and mapped values
// stay address-stable for the cache's lifetime.
template <typename T>
struct CacheEntry {
  std::string key;
  T value;
};

// Hot-path lookup by string_view hashes once and compares at most a
// bucket's worth of equal-hash keys — no allocation, no O(log n) chain of
// full-string compares.
template <typename T>
using StringCache =
    std::unordered_map<std::string_view, std::unique_ptr<CacheEntry<T>>>;

// The insert half of the double-checked cache idiom, caller holding the
// shard's mutex: re-find (a racing builder of the same key keeps the first
// entry), else move `value` into a new entry whose map key aliases the
// entry's own string. Returns the cached value, address-stable for the
// cache's lifetime.
template <typename T>
T& StringCacheFindOrEmplace(StringCache<T>& cache, std::string key,
                            T value) {
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto entry = std::unique_ptr<CacheEntry<T>>(
        new CacheEntry<T>{std::move(key), std::move(value)});
    const std::string_view entry_key = entry->key;
    it = cache.emplace(entry_key, std::move(entry)).first;
  }
  return it->second->value;
}
}  // namespace internal

class PlanCache {
 public:
  PlanCache() = default;

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The parsed plan for `query` — cached, or parsed now and cached.
  // Parsing happens outside the shard lock; a racing parse of the same
  // text keeps the first entry. The returned Expr is valid for the cache's
  // lifetime.
  StatusOr<const Expr*> Prepare(std::string_view query);

  // The compiled pattern (DFAs plus Pike-VM program) for `pattern`, cached
  // likewise. Returns Regex::Compile's error verbatim (callers anchor it to
  // their source offset).
  StatusOr<const regex::Regex*> CompileRegex(std::string_view pattern);

  // Relaxed monotonic counters: a Prepare/CompileRegex that found its
  // entry is a hit, one that had to parse/compile is a miss (a lost
  // insert race still counts as the miss it paid for). Thin reads over
  // the obs::Counter instruments below, kept for source compatibility.
  size_t hits() const { return hits_.value(); }
  size_t misses() const { return misses_.value(); }
  size_t regex_hits() const { return regex_hits_.value(); }
  size_t regex_misses() const { return regex_misses_.value(); }

  // The instruments themselves, for MetricsRegistry registration; they
  // live exactly as long as the cache.
  const obs::Counter& hits_counter() const { return hits_; }
  const obs::Counter& misses_counter() const { return misses_; }
  const obs::Counter& regex_hits_counter() const { return regex_hits_; }
  const obs::Counter& regex_misses_counter() const { return regex_misses_; }

  // Cached patterns that compiled without a DFA (over its state or program
  // budget), so every matches() on them runs the Pike VM. Counted once per
  // cached pattern: a lost insert race does not count.
  size_t regex_dfa_fallbacks() const { return regex_dfa_fallbacks_.value(); }
  const obs::Counter& regex_dfa_fallbacks_counter() const {
    return regex_dfa_fallbacks_;
  }

  // Distinct plans currently cached (sums the shards; each shard locked in
  // turn, so the count is a snapshot, exact once traffic quiesces).
  size_t plan_count() const;

  // The kAuto step plan annotating cached expr `expr` for the document
  // identified by the opaque `doc_key` (the engine passes its Document
  // pointer — snapshot versions are per-document counters, not globally
  // unique) at snapshot `version`. Returns the cached plan when the version
  // matches; otherwise runs `build` under the per-expr lock — exactly one
  // replan per (expr, document) per commit, counted by plan_replans — and
  // caches its result. Returned plans are immutable and shared_ptr-held, so
  // a query keeps its plan alive across a concurrent replan.
  std::shared_ptr<const QueryPlan> PlanFor(
      const Expr* expr, const void* doc_key, uint64_t version,
      const std::function<QueryPlan()>& build);

  // Step-plan rebuilds PlanFor has run (first plan and replans alike):
  // under steady traffic this advances only when commits publish new
  // snapshot versions. Counter reference for MetricsRegistry registration.
  size_t plan_replans() const { return plan_replans_.value(); }
  const obs::Counter& plan_replans_counter() const { return plan_replans_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    internal::StringCache<std::unique_ptr<Expr>> plans;
    internal::StringCache<regex::Regex> regexes;
  };

  // Per-expr step-plan annotations: for each cached Expr, the latest plan
  // per document key. Keyed by Expr address (stable for the cache's
  // lifetime) in a side map rather than inside CacheEntry, so the string
  // shards stay plan-agnostic and PlanFor contention is per-expr.
  struct ExprPlans {
    std::mutex mu;
    std::unordered_map<const void*,
                       std::pair<uint64_t, std::shared_ptr<const QueryPlan>>>
        by_doc;
  };

  Shard& ShardFor(std::string_view key);

  // 16 shards keep the expected contention of a full corpus fleet (dozens
  // of concurrent queries, a handful of distinct texts) negligible without
  // bloating an engine's private cache.
  static constexpr size_t kShardCount = 16;
  Shard shards_[kShardCount];
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter regex_hits_;
  obs::Counter regex_misses_;
  obs::Counter regex_dfa_fallbacks_;
  obs::Counter plan_replans_;
  std::mutex annotations_mu_;
  std::unordered_map<const Expr*, std::unique_ptr<ExprPlans>> annotations_;
};

}  // namespace mhx::xquery

#endif  // MHX_XQUERY_PLAN_CACHE_H_
