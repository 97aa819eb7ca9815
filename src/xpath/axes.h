// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// AxisEvaluator implements XPath axis steps over a KyGoddag: the standard
// single-hierarchy tree axes, plus the paper's five extended axes that see
// across hierarchies (Definition 1, restated over node ranges in DESIGN.md):
//
//   xancestor::    nodes (any hierarchy) whose range contains the context's
//   xdescendant::  nodes whose range is contained in the context's
//   overlapping::  nodes whose range properly overlaps the context's
//   xfollowing::   nodes whose range begins at or after the context's end
//   xpreceding::   nodes whose range ends at or before the context's start
//
// Every extended axis has two evaluation strategies, chosen per call by a
// StepExec: lookups against the snapshot's RangeIndex (indexed), and a
// vectorized scan of the snapshot's RangeSoA, which packs every live
// element's range (the literal Definition 1).
// Both return the same node set in document order — the unit tests hold
// them to a test-side Definition-1 reference.
//
// Overlay views: every entry point (EvaluatePlanned, EvaluateRangePlanned,
// EvaluateSet) takes a goddag::OverlayView and evaluates against an
// evaluation's overlay namespace as well as the base document; a root
// view with no overlays, `goddag::OverlayView(&snapshot.goddag())`, sees
// the base document alone. Extended axes read uniformly as "base index
// (or base scan) + overlay scan" — overlay nodes are never indexed, their
// delta is tiny — and standard axes resolve parent/child arcs through the
// view. Views fork (goddag/overlay.h): a loop binding's view chains to the
// enclosing one, and both the overlay scan here and the view's own id
// resolution walk that chain. Overlay churn never touches the snapshot's
// index, which is what keeps analyze-string() cycles rebuild-free
// (index_rebuild_count()).
//
// MVCC binding: an evaluator is bound to one goddag::DocumentSnapshot and
// reads that snapshot's build-once RangeIndex and statistics — prebuilt by
// the writer that published the snapshot, so readers repinning after a
// commit pay zero rebuilds (CONCURRENCY.md).

#ifndef MHX_XPATH_AXES_H_
#define MHX_XPATH_AXES_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "goddag/snapshot.h"
#include "goddag/stats.h"

namespace mhx::xpath {

// Every axis a path step can name: the standard XPath axes plus the
// paper's five extended (overlap-aware) axes.
enum class Axis {
  // Standard XPath axes, evaluated within the context node's hierarchy.
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kDescendantOrSelf,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  // The paper's extended multihierarchical axes.
  kXAncestor,
  kXDescendant,
  kOverlapping,
  kXFollowing,
  kXPreceding,
};

bool IsExtendedAxis(Axis axis);
std::string_view AxisName(Axis axis);
StatusOr<Axis> AxisFromName(std::string_view name);

// The Definition-1 range predicate of one extended axis: does `candidate`
// stand in `axis` relation to a context with range `context`? The overlay
// scan half of every extended-axis evaluation runs it, and tests hold the
// base-table kernels (xpath/kernels.h) to it.
bool ExtendedAxisMatches(Axis axis, const TextRange& context,
                         const TextRange& candidate);

// Node test applied after axis navigation.
class NodeTest {
 public:
  // Matches any document node (elements and the GODDAG root).
  static NodeTest Any();
  // Matches elements with the given name.
  static NodeTest Name(std::string name);

  bool Matches(const goddag::GNode& node) const;

  // True for name tests — what the planner's pushdown keys off.
  bool is_name() const { return kind_ == Kind::kName; }

  // The tested element name (empty for Any()).
  const std::string& name() const { return name_; }

 private:
  enum class Kind { kAny, kName };
  NodeTest(Kind kind, std::string name)
      : kind_(kind), name_(std::move(name)) {}

  Kind kind_;
  std::string name_;
};

// One path step's physical execution choice, produced per step by the
// XQuery planner (xquery/planner.h) or pinned by a forced plan mode:
// indexed probe vs. (vectorized) full scan for the extended axes, and
// whether a name test is pushed down into the probe/kernel so base
// candidates are filtered before they materialise. Every combination
// returns byte-identical node sets — the planner only moves cost. The
// default is an un-pushed indexed probe.
struct StepExec {
  bool use_index = true;
  bool pushdown = false;
};

class AxisEvaluator {
 public:
  // Binds the evaluator to a pinned MVCC snapshot: navigation reads the
  // snapshot's goddag, and index() and the scan kernels read the
  // snapshot's build-once index and statistics. `snapshot` must outlive
  // the evaluator — the XQuery engine pairs the two in one pinned entry.
  explicit AxisEvaluator(const goddag::DocumentSnapshot* snapshot);

  // Nodes reachable from `context` along `axis` that pass `test`, in
  // document order (range.begin ascending, longer ranges first, NodeId as
  // tiebreak), each once: every traversal visits a node at most once (base
  // and overlay ids are disjoint namespaces), and the rare traversal that
  // is not already in document order is sorted before returning. `view`
  // resolves ids and contributes its overlays' hits; a context it cannot
  // resolve yields nothing. The extended-axis strategy comes from `exec` —
  // scans run the vectorized RangeSoA kernels (xpath/kernels.h) — and
  // exec.pushdown folds a name test into the probe/kernel as an
  // interned-key compare, so base candidates are pre-filtered. Output is
  // byte-identical for every exec; standard axes ignore exec and walk arcs
  // as always.
  std::vector<goddag::NodeId> EvaluatePlanned(
      const goddag::OverlayView& view, goddag::NodeId context, Axis axis,
      const NodeTest& test, const StepExec& exec = StepExec()) const;

  // Extended-axis hits for a bare text range (the XQuery engine's leaf
  // contexts), with the same strategy/pushdown contract as
  // EvaluatePlanned: base probe or scan plus overlay scan, already
  // filtered by `test`, so callers skip their own re-filter. Not
  // normalised — index traversal order is not document order, so callers
  // sort the result. `axis` must be an extended axis.
  std::vector<goddag::NodeId> EvaluateRangePlanned(
      const goddag::OverlayView& view, const TextRange& context, Axis axis,
      const NodeTest& test, const StepExec& exec) const;

  // Set-at-a-time step: the union over every context of
  // EvaluatePlanned(view, context, axis, test, exec), in document order
  // with no duplicates. Contexts may come in any order and may repeat.
  // The union is evaluated from the few contexts that cover it (DESIGN.md,
  // "Ordering guarantees"): xfollowing/xpreceding from the context with
  // the smallest end / largest begin, following/preceding from that
  // context of each hierarchy (an overlay is its own hierarchy), and
  // descendant(-or-self)/xdescendant from the contexts no other context
  // contains. Every other axis evaluates each context, then sorts and
  // dedups once on ids.
  std::vector<goddag::NodeId> EvaluateSet(
      const goddag::OverlayView& view,
      const std::vector<goddag::NodeId>& contexts, Axis axis,
      const NodeTest& test, const StepExec& exec) const;

  // The snapshot's build-once index backing indexed mode (overlay churn
  // never invalidates it). Writer-prebuilt snapshots cost this evaluator
  // zero rebuilds; a lazily indexed snapshot (the Build()-time initial
  // version) is built exactly once, by whichever evaluator asks first.
  const goddag::RangeIndex& index() const;

  // Number of RangeIndex constructions this evaluator has paid for (0 or
  // 1) — the observable that proves analyze-string() overlay cycles and
  // MVCC commits never rebuild the base index.
  size_t index_rebuild_count() const { return index_rebuild_count_; }

 private:
  // Whether `context` names a node this evaluator can step from; every
  // entry point returns nothing for any other id.
  bool IsLiveContext(const goddag::OverlayView& view,
                     goddag::NodeId context) const;
  // Appends `context`'s hits, filtered by `test` but not yet in document
  // order. `context` must be live.
  void AppendAxis(const goddag::OverlayView& view, goddag::NodeId context,
                  Axis axis, const NodeTest& test, const StepExec& exec,
                  std::vector<goddag::NodeId>* out) const;
  // The live contexts whose hits make up the union of all `contexts`'
  // hits along `axis` (EvaluateSet). Consumes `contexts`.
  std::vector<goddag::NodeId> CoveringContexts(
      const goddag::OverlayView& view, std::vector<goddag::NodeId> contexts,
      Axis axis) const;
  // Drops the ids from index `first` on whose node fails `test`, keeping
  // the order.
  void RetainMatches(const goddag::OverlayView& view, const NodeTest& test,
                     std::vector<goddag::NodeId>* ids, size_t first = 0) const;
  // RangeIndex probe for `context`'s hits; `exclude` drops the context node
  // (kInvalidNode for leaf contexts).
  void EvaluateExtendedIndexed(const TextRange& context,
                               goddag::NodeId exclude, Axis axis,
                               const goddag::ProbeFilter& filter,
                               std::vector<goddag::NodeId>* out) const;
  // The base-table half of every extended-axis evaluation: indexed probe
  // or RangeSoA kernel scan per `exec`, pushdown folded in. Returns true
  // when the appended hits are already filtered by `test`.
  bool EvaluateExtendedPlannedBase(const TextRange& context_range,
                                   goddag::NodeId exclude, Axis axis,
                                   const NodeTest& test, const StepExec& exec,
                                   std::vector<goddag::NodeId>* out) const;
  // The overlay half of every extended-axis evaluation: a linear scan of
  // the view's overlay elements (plumbing roots excluded) against the
  // Definition-1 predicate. Walks the view's fork chain, so a binding's
  // view scans the enclosing overlays and the kept hierarchies as well as
  // its own. `test` filters matches as they
  // append.
  void AppendOverlayMatches(const goddag::OverlayView& view, Axis axis,
                            const TextRange& context_range,
                            goddag::NodeId exclude, const NodeTest& test,
                            std::vector<goddag::NodeId>* out) const;
  void EvaluateStandard(const goddag::OverlayView& view,
                        goddag::NodeId context, Axis axis,
                        std::vector<goddag::NodeId>* out) const;
  // Establishes document order: a linear is_sorted scan first, the
  // O(n log n) sort only when the scan finds an inversion. The scan,
  // rather than a purely static per-axis whitelist, is what makes the
  // guarantee honest: overlay hits append after base hits, and a
  // cross-hierarchy descendant walk from the GODDAG root interleaves
  // hierarchies.
  void NormalizeDocumentOrder(const goddag::OverlayView& view,
                              std::vector<goddag::NodeId>* ids) const;

  const goddag::DocumentSnapshot* snapshot_;
  // snapshot_->goddag(), cached for the navigation hot paths.
  const goddag::KyGoddag* goddag_;
  mutable size_t index_rebuild_count_ = 0;
};

}  // namespace mhx::xpath

#endif  // MHX_XPATH_AXES_H_
