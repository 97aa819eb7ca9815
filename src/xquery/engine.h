// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The XQuery evaluation engine over a MultihierarchicalDocument: FLWOR
// expressions, predicates, constructors, the paper's extended axes in path
// steps, and analyze-string() with XML fragment patterns, which materialises
// matches as *temporary virtual hierarchies*. Temporaries live in
// evaluation-scoped overlay namespaces (goddag/overlay.h): each evaluation
// reads the immutable base KyGoddag through an OverlayView holding its own
// overlays, and never mutates the document — teardown is simply dropping
// the overlays when the evaluation returns. Temporaries never outlive the
// query that made them; markup that must is committed with
// MultihierarchicalDocument::Writer::AddVirtualHierarchy, which versions it
// and makes it visible to every later query.
//
// MVCC binding (the full protocol is CONCURRENCY.md): every evaluation
// pins the document's current goddag::DocumentSnapshot at its start and
// reads exactly that version — goddag, leaf partition, RangeIndex —
// end-to-end, so queries run concurrently with Writer::Commit and never
// block on (or observe half of) a commit. Each evaluation binds an
// AxisEvaluator on its own stack to the snapshot it pinned; in-flight
// evaluations hold an old snapshot alive until they return.
//
// Index discipline: every snapshot is published with its RangeIndex and
// statistics built (goddag/snapshot.h), so an evaluation only reads them.
// Overlay nodes never enter any index — extended-axis steps read "base
// index + overlay scan" uniformly — so no analyze-string() call and no
// MVCC commit makes a reader build an index.
//
// Concurrency contract: one level, across calls. Any number of Evaluate
// calls may run concurrently on one engine — including queries that
// materialise temporary hierarchies via analyze-string(). There is no
// evaluation lock: evaluations share an immutable pinned snapshot and write
// only their private overlays, whose ids come from an OverlayIdAllocator of
// their own. The prepared-query and compiled-pattern caches are
// mutex-guarded. One evaluation runs on its calling thread from start to
// finish; nothing inside it fans out.
//
// Binding scoping rule: a loop body that can materialise temporaries —
// ContainsAnalyzeString — is evaluated per binding in an isolated child
// view (goddag::OverlayView's fork), so every binding sees base + the
// enclosing scopes' temporaries + its *own*, never a sibling binding's.
// (This is real XQuery's semantics: analyze-string() returns a fresh tree
// other iterations cannot see.) A successful binding's overlays are
// registered on the enclosing view at loop exit, in binding order, so
// post-loop steps and the serialised result see every committed overlay; a
// failing binding's overlays die with its fork, and a quantifier stops at
// its deciding binding. Because bindings run one after another on one
// thread and the evaluation's allocator hands out ids in creation order,
// document-order ties between equal-range nodes of different overlays —
// broken by id — follow binding order, whatever other evaluations do.
// Nothing ever touches the base document.
//
// Moving the document while any query runs is undefined behaviour.
// Mutating it through MultihierarchicalDocument::Writer is always safe:
// evaluations on the old version finish on the old version.

#ifndef MHX_XQUERY_ENGINE_H_
#define MHX_XQUERY_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>

#include "base/statusor.h"
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

// Per-evaluation knobs, passed alongside the query text. Every evaluation
// runs the planner's step plan for the snapshot it pinned; there is no
// per-query plan choice.
struct QueryOptions {
  // When set, the evaluation records stage spans (plan lookup, snapshot
  // pin and step plan, evaluation, serialisation) into this trace. The
  // trace must outlive the call. Null (the default) costs one branch per
  // stage.
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
  // Snapshot pins taken by evaluations (one per Evaluate or ExplainPlan
  // call).
  obs::Counter snapshot_pins;
  // analyze-string() calls that failed because their evaluation's
  // OverlayIdAllocator namespace was exhausted (ResourceExhausted surfaced
  // to the caller). Stays 0 in any healthy process; the stress tests
  // assert it.
  obs::Counter overlay_id_exhausted;
  // Planned extended-axis step executions that probed the RangeIndex /
  // ran the (vectorized) table scan — how often the cost model picked
  // each physical strategy. A set step counts once, however many contexts
  // it covers.
  obs::Counter plan_steps_indexed;
  obs::Counter plan_steps_scanned;
  // Name tests folded into the probe/kernel as interned-key compares
  // instead of a post-hoc filter.
  obs::Counter plan_pushdowns;
};

// One document's query engine: evaluation entry points, caches and
// counters, under the MVCC and concurrency contracts of the file comment.
class Engine {
 public:
  // An engine with private caches and counters — the
  // single-document default. `document` must outlive the engine (the
  // facade owns its engine, so this holds by construction).
  explicit Engine(const MultihierarchicalDocument* document);

  // Cache-injection seam, used by the corpus service so every engine in a
  // process shares one compiled-plan cache (queries compile once across
  // all documents); a null `plans` gets a private PlanCache (the
  // single-document default). `counters` joins the same seam: a corpus
  // service injects one shared EngineCounters so totals survive document
  // eviction and the metrics registry can point at stable storage; null
  // gets a private instance (the accessors then report this engine alone).
  Engine(const MultihierarchicalDocument* document,
         std::shared_ptr<PlanCache> plans,
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

  // Renders the physical plan an evaluation of `query` against the
  // currently published snapshot runs: per-step strategy, pushdown, and
  // cost estimates (xquery::ExplainQueryPlan). Parses and caches the query like
  // Evaluate; returns parse errors verbatim. Thread-safety class:
  // pinned-snapshot read, like Evaluate.
  StatusOr<std::string> ExplainPlan(std::string_view query);

  // The document this engine is bound to (kept valid across document moves
  // via Rebind). Thread-safe.
  const MultihierarchicalDocument* document() const { return document_; }

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

  // Called by the document's move operations to keep the back-reference
  // valid.
  void Rebind(const MultihierarchicalDocument* document) {
    document_ = document;
  }

  // A pinned MVCC snapshot and the step plan for one cached Expr against
  // it.
  struct PinnedPlan {
    std::shared_ptr<const goddag::DocumentSnapshot> snapshot;
    std::shared_ptr<const QueryPlan> plan;
  };

  // Pins the current snapshot (counted in snapshot_pins) and looks up the
  // plan for (expr, document, pinned version), planning on a miss — the
  // one path by which both Evaluate and ExplainPlan get their plan.
  PinnedPlan PinAndPlan(const Expr* expr);

  // Parses `query` or retrieves it from the plan cache; the returned Expr
  // stays valid for the engine's lifetime (map nodes are stable).
  StatusOr<const Expr*> PreparedQuery(std::string_view query);

  const MultihierarchicalDocument* document_;
  // Prepared-query and compiled-pattern cache: the corpus-shared PlanCache
  // when one was injected, else a private one. shared_ptr because cached
  // Expr/Regex pointers must outlive any engine still evaluating them.
  std::shared_ptr<PlanCache> plans_;
  // Never null (private instance when none injected); see EngineCounters.
  std::shared_ptr<EngineCounters> counters_;
};

}  // namespace mhx::xquery

#endif  // MHX_XQUERY_ENGINE_H_
