// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The XQuery evaluation engine over a MultihierarchicalDocument: FLWOR
// expressions, predicates, constructors, the paper's extended axes in path
// steps, and analyze-string() with XML fragment patterns, which materialises
// matches as *temporary virtual hierarchies*. Temporaries live in
// evaluation-scoped overlay namespaces (goddag/overlay.h): each evaluation
// reads the immutable base KyGoddag through an OverlayView holding any kept
// hierarchies plus its own, and never mutates the document — teardown is
// simply dropping the overlays when the evaluation returns.
//
// MVCC binding (the full protocol is CONCURRENCY.md): every evaluation
// pins the document's current goddag::DocumentSnapshot at its start and
// reads exactly that version — goddag, leaf partition, RangeIndex —
// end-to-end, so queries run concurrently with Writer::Commit and never
// block on (or observe half of) a commit. The engine keeps one
// (snapshot, AxisEvaluator) entry for the pinned version and retires it
// when a newer version is pinned; in-flight evaluations and kept-
// temporaries handles hold the old snapshot alive until they drop.
//
// Index discipline: each snapshot carries one build-once RangeIndex.
// Writer-published snapshots arrive with it prebuilt (the writer paid);
// the initial Build()-time snapshot is indexed lazily by this engine's
// first evaluation. Overlay nodes never enter any index — extended-axis
// steps read "base index + overlay scan" uniformly — so the
// add/query/drop cycle of every analyze-string() call and every MVCC
// commit costs this engine zero O(N log N) index rebuilds;
// index_rebuild_count() (at most 1 per engine) is the proof, surfaced as a
// benchmark counter in bench_paper_queries.cc.
//
// Concurrency contract. Two independent levels:
//
//  * Across threads, any number of Evaluate / EvaluateKeepingTemporaries
//    calls may run concurrently on one engine — including queries that
//    materialise temporary hierarchies via analyze-string(), which was the
//    serialisation point under the old document-mutation model. There is no
//    evaluation lock: evaluations share an immutable pinned snapshot and
//    write only their private overlays. The prepared-query and
//    compiled-pattern caches and the kept-temporaries registry are
//    mutex-guarded.
//  * Within one query, QueryOptions{threads > 1} fans independent FLWOR
//    `for` iterations and some/every quantifier bindings out across a
//    base::ThreadPool whenever the binding body IsParallelSafe — which now
//    includes analyze-string() bodies. Scheduling is self-scheduling off one
//    shared claim cursor: every slot claims the next chunk of consecutive
//    binding indices with one atomic fetch_add, so chunks go out in
//    ascending order and skewed iteration costs balance across slots. The
//    coordinating thread participates as slot 0 and helps drain the pool
//    while joining, so nested fan-out of inner `for` loops is both
//    allowed and deadlock-free.
//
// Worker sub-overlay lifetime and join-order merge rules. Each worker slot
// evaluates in a *forked* goddag::OverlayView: reads resolve through the
// coordinator's view (base + kept + coordinator overlays), writes —
// analyze-string() temporaries — land in the worker's private namespace,
// with id blocks leased from the engine's shared OverlayIdAllocator so
// worker overlays never collide with anything they can meet in a view. At
// join the coordinator re-registers the workers' overlays in its own view
// in binding order (creation order within one binding preserved; a
// quantifier discards overlays from bindings after the deciding one), so
// post-loop steps, the serialised result, and any KeptTemporaries handle
// see exactly the overlays — in exactly the registration order — serial
// evaluation would have produced. Worker overlays an error discards die
// with the worker's view; nothing ever touches the base document.
//
// Binding scoping rule (thread-count invariant by construction): a loop
// body that can materialise temporaries — ContainsAnalyzeString — is
// evaluated per binding in an isolated child view whether the loop runs
// serial or parallel, so every binding sees base + kept + the enclosing
// scopes' temporaries + its *own*, never a sibling binding's, and the
// loop's output is identical at every `threads` setting. (This is also
// real XQuery's semantics: analyze-string() returns a fresh tree other
// iterations cannot see.) Post-loop expressions see all committed
// overlays, in binding order.
//
// Results are byte-identical to serial evaluation, errors included: the
// error of the earliest failing binding wins, and a quantifier returns
// whatever the lowest-indexed deciding-or-failing binding decided, exactly
// as the serial loop would. Two caveats, both invisible to independent
// binding bodies: (1) bindings past the deciding/failing one may be
// evaluated speculatively before cancellation lands (their results and
// overlays are discarded); (2) document-order ties between equal-range
// nodes of *different* overlays fall back to overlay id allocation order,
// which concurrent leasing does not pin to binding order.
//
// Moving the document while any query runs is undefined behaviour.
// Mutating it through MultihierarchicalDocument::Writer is always safe:
// evaluations on the old version finish on the old version.

#ifndef MHX_XQUERY_ENGINE_H_
#define MHX_XQUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/statusor.h"
#include "base/thread_pool.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "goddag/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xpath/axes.h"
#include "xquery/plan_cache.h"
#include "xquery/planner.h"

namespace mhx {
class MultihierarchicalDocument;
}  // namespace mhx

namespace mhx::xquery {

class Expr;
class Evaluator;
class Engine;

// Per-evaluation knobs, passed alongside the query text.
struct QueryOptions {
  // Worker threads for intra-query fan-out. 0 and 1 both mean serial
  // evaluation (0 is normalised to 1 on entry — identical code path, plan,
  // and counters). The engine keeps one shared pool, grown to the largest
  // `threads` any evaluation has requested; a parallel loop runs on
  // min(threads, bindings) worker slots — the coordinating thread plus
  // pool helpers — each claiming the next chunk of bindings off a shared
  // cursor, which balances skewed iteration costs across them.
  unsigned threads = 1;
  // Physical-plan selection for path steps (see PlanMode): kAuto runs the
  // cost-based planner against the pinned snapshot's statistics; the force
  // modes pin one strategy everywhere. Every mode returns byte-identical
  // results — the batteries in parallel_query_test hold them to it.
  PlanMode plan_mode = PlanMode::kAuto;
  // When set, the evaluation records stage spans (plan lookup, index
  // materialisation, evaluation, serialisation) and — for parallel loops —
  // per-slot spans with binding counts into this trace. The trace must
  // outlive the call. Null (the default) costs one branch per stage.
  obs::QueryTrace* trace = nullptr;
};

// The engine's monotonic counters as registry-compatible instruments,
// shareable across engines: the corpus service injects one EngineCounters
// into every engine it builds, so evictions don't reset the totals and
// MetricsRegistry can point at stable storage. An engine constructed
// without one gets a private instance — the accessors then report that
// engine alone, as before.
struct EngineCounters {
  obs::Counter sorts_skipped;
  // Path steps evaluated once over their whole context sequence.
  obs::Counter set_steps;
  obs::Counter parallel_tasks;
  obs::Counter index_rebuilds;
  // Snapshot pins taken by evaluations (one per Evaluate /
  // EvaluateKeepingTemporaries call).
  obs::Counter snapshot_pins;
  // analyze-string() calls that failed because the OverlayIdAllocator
  // namespace was exhausted (ResourceExhausted surfaced to the caller).
  // Stays 0 in any healthy process; the stress tests assert it.
  obs::Counter overlay_id_exhausted;
  // Planned extended-axis step executions that probed the RangeIndex /
  // ran the (vectorized) table scan — how often the cost model picked
  // each physical strategy (forced modes count here too). A set step
  // counts once, however many contexts it covers.
  obs::Counter plan_steps_indexed;
  obs::Counter plan_steps_scanned;
  // Name tests folded into the probe/kernel as interned-key compares
  // instead of a post-hoc filter (kAuto only; forced modes never push).
  obs::Counter plan_pushdowns;
};

namespace internal {
// The engine's registry of kept temporary hierarchies. Held by shared_ptr
// so KeptTemporaries handles stay safe (inert) if they outlive the engine.
struct KeptRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<const goddag::GoddagOverlay>> overlays;
};
}  // namespace internal

// Move-only handle returned by EvaluateKeepingTemporaries: it keeps that
// evaluation's temporary virtual hierarchies alive and registered on the
// engine, so later evaluations see them on extended axes (and in their leaf
// partition). Dropping the handle — or calling Release(), or the engine's
// CleanupTemporaries() — unregisters them; the overlay memory is freed when
// the last reader lets go. The handle also pins the DocumentSnapshot its
// evaluation ran against: overlay node ranges are anchored in that
// version's goddag, so the snapshot outlives engine death and document
// commits for exactly as long as the handle does. No repin, no cleanup
// marks: kept temporaries never touch the base document. Thread-safety
// class: unsynchronized (one handle belongs to one thread); Release itself
// locks the registry.
class KeptTemporaries {
 public:
  KeptTemporaries() = default;
  KeptTemporaries(KeptTemporaries&&) noexcept = default;
  KeptTemporaries& operator=(KeptTemporaries&& other) noexcept {
    Release();
    registry_ = std::move(other.registry_);
    overlays_ = std::move(other.overlays_);
    snapshot_ = std::move(other.snapshot_);
    return *this;
  }
  ~KeptTemporaries() { Release(); }

  // Unregisters the kept hierarchies from the engine and drops the
  // snapshot pin. Idempotent; a no-op after the engine called
  // CleanupTemporaries or was destroyed.
  void Release();

  // Temporary virtual hierarchies this handle keeps (0 once released).
  size_t hierarchy_count() const { return overlays_.size(); }

  // The pinned snapshot the kept hierarchies are anchored in (null once
  // released, or for a default-constructed handle).
  const std::shared_ptr<const goddag::DocumentSnapshot>& snapshot() const {
    return snapshot_;
  }

 private:
  friend class Engine;
  KeptTemporaries(
      std::weak_ptr<internal::KeptRegistry> registry,
      std::vector<std::shared_ptr<const goddag::GoddagOverlay>> overlays,
      std::shared_ptr<const goddag::DocumentSnapshot> snapshot)
      : registry_(std::move(registry)),
        overlays_(std::move(overlays)),
        snapshot_(std::move(snapshot)) {}

  std::weak_ptr<internal::KeptRegistry> registry_;
  std::vector<std::shared_ptr<const goddag::GoddagOverlay>> overlays_;
  std::shared_ptr<const goddag::DocumentSnapshot> snapshot_;
};

// EvaluateKeepingTemporaries' result: one serialised string per result item,
// plus the handle owning the evaluation's temporary hierarchies.
struct KeptEvaluation {
  std::vector<std::string> items;
  KeptTemporaries temporaries;
};

// One document's query engine: evaluation entry points, the pinned
// (snapshot, AxisEvaluator) entry, caches, pool and counters, under the
// MVCC and concurrency contracts of the file comment.
class Engine {
 public:
  // An engine with private caches, pool, and counters — the
  // single-document default. `document` must outlive the engine (the
  // facade owns its engine, so this holds by construction).
  explicit Engine(const MultihierarchicalDocument* document);

  // Cache- and pool-injection seam, used by the corpus service so every
  // engine in a process shares one compiled-plan cache (queries compile
  // once across all documents) and one fan-out ThreadPool (a corpus of N
  // documents must not spawn N pools). Either may be null: a null `plans`
  // gets a private PlanCache (the single-document default), a null
  // `shared_pool` keeps the engine growing its own pool on demand. An
  // injected pool is used as-is — the engine never grows it; requesting
  // QueryOptions{threads} above its size just caps the helper count (the
  // claim cursor already tolerates fewer workers than slots, and nested
  // fan-out on a shared pool stays deadlock-free because joins only wait
  // for claimed bindings and help drain the queue).
  // `counters` joins the same seam: a corpus service injects one shared
  // EngineCounters so totals survive document eviction and the metrics
  // registry can point at stable storage; null gets a private instance
  // (the accessors then report this engine alone, as before).
  Engine(const MultihierarchicalDocument* document,
         std::shared_ptr<PlanCache> plans,
         std::shared_ptr<base::ThreadPool> shared_pool,
         std::shared_ptr<EngineCounters> counters = nullptr);

  ~Engine();

  // Evaluates a query and serialises the result sequence (items are
  // concatenated without separators; leaves serialise as their base-text
  // characters, constructed elements as tags). Temporary virtual
  // hierarchies the query materialises are evaluation-private and dropped
  // on return. Thread-safety class: pinned-snapshot read — safe against
  // any number of concurrent evaluations and document Writer commits;
  // never blocks on a writer (the only locks taken are short cache/pin
  // mutexes, never held while evaluating).
  StatusOr<std::string> Evaluate(std::string_view query);
  StatusOr<std::string> Evaluate(std::string_view query,
                                 const QueryOptions& options);

  // Evaluates a query but keeps any virtual hierarchies created by
  // analyze-string() alive — and visible to later evaluations — for as long
  // as the returned handle is (see KeptTemporaries). The options overload
  // accepts the same knobs as Evaluate; with threads > 1, worker
  // sub-overlays merged at join are kept exactly as serial evaluation
  // would have kept them, in binding order.
  StatusOr<KeptEvaluation> EvaluateKeepingTemporaries(std::string_view query);
  StatusOr<KeptEvaluation> EvaluateKeepingTemporaries(
      std::string_view query, const QueryOptions& options);

  // Unregisters every kept temporary hierarchy, regardless of outstanding
  // handles (which become inert). Thread-safe.
  void CleanupTemporaries();

  // Renders the physical plan kAuto would run for `query` against the
  // currently published snapshot: per-step strategy, pushdown, and cost
  // estimates (xquery::ExplainQueryPlan). Parses and caches the query like
  // Evaluate; returns parse errors verbatim. Thread-safety class:
  // pinned-snapshot read, like Evaluate.
  StatusOr<std::string> ExplainPlan(std::string_view query);

  // The document this engine is bound to (kept valid across document moves
  // via Rebind). Thread-safe.
  const MultihierarchicalDocument* document() const { return document_; }

  // RangeIndex constructions this engine has paid for, summed across every
  // snapshot version it has pinned — stays at one no matter how many
  // analyze-string() overlay cycles have run and no matter how many MVCC
  // commits it repins across (writer-prebuilt indexes cost readers
  // nothing). Thread-safe.
  size_t index_rebuild_count() const;

  // Temporary virtual hierarchies currently kept alive by
  // EvaluateKeepingTemporaries handles (in-flight evaluations' private
  // overlays are not counted — they are invisible outside their
  // evaluation).
  size_t temporary_hierarchy_count() const;

  // Path-step sort+dedup passes the step loop skipped — once per set step
  // (its union comes out in document order), and once per per-context
  // step whose concatenated runs a linear scan found already in order.
  // Singleton and empty results are not counted. Monotonic; thin read
  // over the obs::Counter (shared across engines when a corpus injected
  // one), surfaced by bench_xquery.
  size_t sorts_skipped() const {
    return static_cast<size_t>(counters_->sorts_skipped.value());
  }

  // Path steps evaluated set-at-a-time: one axis evaluation over the whole
  // context sequence (xpath::AxisEvaluator::EvaluateSet) instead of one
  // per context item. Monotonic.
  size_t set_steps() const {
    return static_cast<size_t>(counters_->set_steps.value());
  }

  // Worker tasks dispatched to the thread pool by parallel loops (the
  // coordinator's own slot is not counted).
  size_t parallel_tasks() const {
    return static_cast<size_t>(counters_->parallel_tasks.value());
  }

  // Snapshot pins taken by evaluations on engines sharing this counter
  // block (one per evaluation entry point).
  size_t snapshot_pins() const {
    return static_cast<size_t>(counters_->snapshot_pins.value());
  }

  // analyze-string() calls rejected with ResourceExhausted because the
  // overlay-id namespace could not lease a block. 0 in a healthy process.
  size_t overlay_id_exhausted() const {
    return static_cast<size_t>(counters_->overlay_id_exhausted.value());
  }

  // Planned extended-axis step executions by chosen strategy: indexed
  // probes vs. (vectorized) scans (EngineCounters::plan_steps_*).
  size_t plan_steps_indexed() const {
    return static_cast<size_t>(counters_->plan_steps_indexed.value());
  }
  size_t plan_steps_scanned() const {
    return static_cast<size_t>(counters_->plan_steps_scanned.value());
  }

  // Name tests the planner folded into an index probe or scan kernel
  // (EngineCounters::plan_pushdowns).
  size_t plan_pushdowns() const {
    return static_cast<size_t>(counters_->plan_pushdowns.value());
  }

  // The counter block this engine bumps — for MetricsRegistry registration;
  // shared_ptr so the registration outlives any one engine.
  const std::shared_ptr<EngineCounters>& counters() const {
    return counters_;
  }

 private:
  friend class mhx::MultihierarchicalDocument;
  friend class Evaluator;

  // One evaluation's full output: the serialised items plus the overlays it
  // materialised (kept or dropped by the public entry points) and the MVCC
  // snapshot the whole evaluation read — handed to KeptTemporaries so kept
  // overlays outlive later commits together with the version they annotate.
  struct EvaluationOutput {
    std::vector<std::string> items;
    std::vector<std::shared_ptr<const goddag::GoddagOverlay>> temporaries;
    std::shared_ptr<const goddag::DocumentSnapshot> snapshot;
  };

  // One pinned snapshot paired with the AxisEvaluator bound to it — the
  // unit the axes cache hands to evaluations. Immutable after construction
  // (the evaluator's interior is concurrency-safe once its index is
  // forced), so any number of evaluations share one entry while a writer
  // publishes new versions alongside.
  struct SnapshotAxes {
    std::shared_ptr<const goddag::DocumentSnapshot> snapshot;
    xpath::AxisEvaluator axes;
    explicit SnapshotAxes(std::shared_ptr<const goddag::DocumentSnapshot> s)
        : snapshot(std::move(s)), axes(snapshot.get()) {}
  };

  // Called by the document's move operations to keep the back-reference
  // valid.
  void Rebind(const MultihierarchicalDocument* document) {
    document_ = document;
  }

  // Parses `query` (or retrieves it from the prepared-query cache), builds
  // the evaluation's overlay view (kept hierarchies snapshot), and
  // evaluates. No lock is held during evaluation.
  StatusOr<EvaluationOutput> EvaluateInternal(std::string_view query,
                                              const QueryOptions& options);

  // Parses and caches `query` under cache_mu_; the returned Expr stays valid
  // for the engine's lifetime (map nodes are stable).
  StatusOr<const Expr*> PreparedQuery(std::string_view query);

  // Pins the document's current snapshot and returns the SnapshotAxes
  // entry bound to it, creating a fresh entry under cache_mu_ when the
  // published version moved since the last evaluation (the old entry stays
  // alive for evaluations still holding it — that is the reader side of
  // the epoch swap). Materialises the leaf partition and RangeIndex before
  // returning, so nothing evaluation reads concurrently builds lazily.
  std::shared_ptr<const SnapshotAxes> PinAxes();

  // A snapshot of the kept-hierarchy registry, for one evaluation's view.
  std::vector<std::shared_ptr<const goddag::GoddagOverlay>> SnapshotKept()
      const;

  // The shared fan-out pool, created (and grown to the largest requested
  // size) under cache_mu_. Returns nullptr for threads <= 1.
  base::ThreadPool* pool(unsigned threads);

  const MultihierarchicalDocument* document_;
  // The axes entry for the most recently pinned snapshot; see PinAxes().
  // Guarded by cache_mu_; superseded entries drop here but survive in the
  // shared_ptrs evaluations hold.
  std::shared_ptr<const SnapshotAxes> axes_entry_;
  // index_rebuild_count() contributions of entries axes_entry_ has already
  // dropped. Guarded by cache_mu_.
  size_t retired_rebuilds_ = 0;
  // Id blocks for every overlay any evaluation of this engine creates —
  // one namespace, so kept hierarchies and evaluation-private ones never
  // collide inside a view. Shared with the overlays themselves so a
  // KeptTemporaries handle held past engine destruction releases safely.
  std::shared_ptr<goddag::OverlayIdAllocator> overlay_ids_ =
      std::make_shared<goddag::OverlayIdAllocator>();
  // Kept temporary hierarchies; evaluations snapshot this into their view.
  std::shared_ptr<internal::KeptRegistry> kept_ =
      std::make_shared<internal::KeptRegistry>();
  // Prepared-query and compiled-pattern cache: the corpus-shared PlanCache
  // when one was injected, else a private one. shared_ptr because cached
  // Expr/Regex pointers must outlive any engine still evaluating them.
  std::shared_ptr<PlanCache> plans_;
  // Corpus-shared fan-out pool; when set, pool() returns it instead of
  // growing pool_.
  std::shared_ptr<base::ThreadPool> shared_pool_;

  // Guards pool_ creation, axes_entry_, and retired_rebuilds_. mutable so
  // const accessors (index_rebuild_count) can take it.
  mutable std::mutex cache_mu_;
  std::unique_ptr<base::ThreadPool> pool_;
  // Pools superseded by a larger request; kept alive (idle) because an
  // in-flight evaluation may still hold a pointer to one.
  std::vector<std::unique_ptr<base::ThreadPool>> retired_pools_;
  // Never null (private instance when none injected); see EngineCounters.
  std::shared_ptr<EngineCounters> counters_;
  // AxisEvaluator rebuilds already folded into counters_->index_rebuilds;
  // PinAxes() adds the delta under cache_mu_.
  size_t reported_rebuilds_ = 0;
};

}  // namespace mhx::xquery

#endif  // MHX_XQUERY_ENGINE_H_
