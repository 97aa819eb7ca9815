// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/engine.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "base/status_macros.h"
#include "document.h"
#include "goddag/overlay.h"
#include "regex/fragment_pattern.h"
#include "xml/parser.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace mhx::xquery {

namespace {

// analyze-string() materialises each call as one virtual hierarchy: a
// result wrapper spanning the analysed node's range, one <m> element per
// match, and one element per named fragment group.
constexpr char kAnalyzeStringResultName[] = "analyze-string-result";
constexpr char kMatchElementName[] = "m";

Status EvalErrorAt(size_t offset, const std::string& what) {
  return InvalidArgumentError("XQuery evaluation error at offset " +
                              std::to_string(offset) + ": " + what);
}

}  // namespace

// The per-query tree-walking interpreter. One Evaluator runs one query
// against one goddag::OverlayView — the immutable base document plus the
// evaluation's own temporary hierarchies. Cross-query state (the
// prepared-query and compiled-regex caches, the counters) lives on the
// Engine.
class Evaluator {
 public:
  // An XDM-style item: a graph node, a leaf of the shared partition, an
  // atomic value, or a constructed-element fragment (held as its serialised
  // markup plus its string value — constructed nodes never re-enter axis
  // navigation in this subset).
  struct Item {
    enum class Kind { kNode, kLeaf, kString, kInteger, kBoolean, kFragment };
    Kind kind = Kind::kString;
    goddag::NodeId node = goddag::kInvalidNode;
    TextRange range;   // kLeaf
    std::string text;  // kString: value; kFragment: serialised markup
    std::string atom;  // kFragment: string value (concatenated text content)
    int64_t integer = 0;
    bool boolean = false;

    static Item Node(goddag::NodeId id) {
      Item item;
      item.kind = Kind::kNode;
      item.node = id;
      return item;
    }
    static Item Leaf(const TextRange& range) {
      Item item;
      item.kind = Kind::kLeaf;
      item.range = range;
      return item;
    }
    static Item String(std::string value) {
      Item item;
      item.kind = Kind::kString;
      item.text = std::move(value);
      return item;
    }
    static Item Integer(int64_t value) {
      Item item;
      item.kind = Kind::kInteger;
      item.integer = value;
      return item;
    }
    static Item Boolean(bool value) {
      Item item;
      item.kind = Kind::kBoolean;
      item.boolean = value;
      return item;
    }
    static Item Fragment(std::string markup, std::string value) {
      Item item;
      item.kind = Kind::kFragment;
      item.text = std::move(markup);
      item.atom = std::move(value);
      return item;
    }
  };
  using Sequence = std::vector<Item>;

  // An evaluator over one overlay view: the evaluation's root view. The
  // overlays this evaluator materialises (analyze-string()) are registered
  // in the current view as created, so later steps of the same binding see
  // them.
  Evaluator(Engine* engine, const xpath::AxisEvaluator* axes,
            const QueryPlan* plan, goddag::OverlayView* view)
      : engine_(engine), view_(view), axes_(*axes), plan_(*plan) {}

  StatusOr<Sequence> Evaluate(const AstNode& root) {
    return Eval(root, nullptr);
  }

  // --- values --------------------------------------------------------------

  std::string StringValue(const Item& item) const {
    switch (item.kind) {
      case Item::Kind::kNode:
        return view_->NodeString(item.node);
      case Item::Kind::kLeaf:
        return view_->base_text().substr(item.range.begin,
                                         item.range.length());
      case Item::Kind::kString:
        return item.text;
      case Item::Kind::kInteger:
        return std::to_string(item.integer);
      case Item::Kind::kBoolean:
        return item.boolean ? "true" : "false";
      case Item::Kind::kFragment:
        return item.atom;
    }
    return {};
  }

  // Serialisation contract (pinned by workload/paper_data.cc): sequence
  // items concatenate without separators, leaves serialise as their
  // base-text characters, constructed elements as tags.
  std::string SerializeItem(const Item& item) const {
    switch (item.kind) {
      case Item::Kind::kNode: {
        std::string out;
        SerializeNode(item.node, &out);
        return out;
      }
      case Item::Kind::kLeaf:
      case Item::Kind::kString:
        return xml::EscapeText(StringValue(item));
      case Item::Kind::kInteger:
      case Item::Kind::kBoolean:
        return StringValue(item);
      case Item::Kind::kFragment:
        return item.text;
    }
    return {};
  }

 private:
  // --- dispatch ------------------------------------------------------------

  StatusOr<Sequence> Eval(const AstNode& node, const Item* context) {
    switch (node.kind) {
      case ExprKind::kStringLiteral:
        return Sequence{Item::String(node.string_value)};
      case ExprKind::kIntegerLiteral:
        return Sequence{Item::Integer(node.integer_value)};
      case ExprKind::kVarRef: {
        for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
          if (it->first == node.name) return it->second;
        }
        return EvalErrorAt(node.offset,
                           "undefined variable $" + node.name);
      }
      case ExprKind::kContextItem:
        if (context == nullptr) {
          return EvalErrorAt(node.offset, "no context item for '.'");
        }
        return Sequence{*context};
      case ExprKind::kSequence: {
        Sequence out;
        for (const auto& child : node.children) {
          MHX_ASSIGN_OR_RETURN(Sequence part, Eval(*child, context));
          std::move(part.begin(), part.end(), std::back_inserter(out));
        }
        return out;
      }
      case ExprKind::kFor: {
        MHX_ASSIGN_OR_RETURN(Sequence seq, Eval(*node.children[0], context));
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>> pending;
        Sequence out;
        for (Item& item : seq) {
          MHX_ASSIGN_OR_RETURN(
              Sequence body,
              EvalLoopBinding(node, context, std::move(item), &pending));
          std::move(body.begin(), body.end(), std::back_inserter(out));
        }
        view_->AddOverlays(std::move(pending));
        return out;
      }
      case ExprKind::kLet: {
        MHX_ASSIGN_OR_RETURN(Sequence value, Eval(*node.children[0], context));
        bindings_.emplace_back(node.name, std::move(value));
        auto body = Eval(*node.children[1], context);
        bindings_.pop_back();
        return body;
      }
      case ExprKind::kQuantified: {
        MHX_ASSIGN_OR_RETURN(Sequence seq, Eval(*node.children[0], context));
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>> pending;
        for (Item& item : seq) {
          MHX_ASSIGN_OR_RETURN(
              Sequence body,
              EvalLoopBinding(node, context, std::move(item), &pending));
          MHX_ASSIGN_OR_RETURN(bool value,
                               BooleanValue(body, node.children[1]->offset));
          if (value != node.every) {
            // The decider's own overlays are committed (it was evaluated
            // fully); bindings past it are never evaluated.
            view_->AddOverlays(std::move(pending));
            return Sequence{Item::Boolean(!node.every)};
          }
        }
        view_->AddOverlays(std::move(pending));
        return Sequence{Item::Boolean(node.every)};
      }
      case ExprKind::kIf: {
        MHX_ASSIGN_OR_RETURN(Sequence cond, Eval(*node.children[0], context));
        MHX_ASSIGN_OR_RETURN(bool value,
                             BooleanValue(cond, node.children[0]->offset));
        return Eval(*node.children[value ? 1 : 2], context);
      }
      case ExprKind::kOr:
      case ExprKind::kAnd: {
        const bool is_or = node.kind == ExprKind::kOr;
        for (const auto& child : node.children) {
          MHX_ASSIGN_OR_RETURN(Sequence v, Eval(*child, context));
          MHX_ASSIGN_OR_RETURN(bool value, BooleanValue(v, child->offset));
          if (value == is_or) return Sequence{Item::Boolean(is_or)};
        }
        return Sequence{Item::Boolean(!is_or)};
      }
      case ExprKind::kCompare:
        return EvalCompare(node, context);
      case ExprKind::kArith: {
        MHX_ASSIGN_OR_RETURN(int64_t lhs,
                             IntegerOperand(*node.children[0], context));
        MHX_ASSIGN_OR_RETURN(int64_t rhs,
                             IntegerOperand(*node.children[1], context));
        int64_t value = 0;
        bool overflow = false;
        switch (node.arith_op) {
          case ArithOp::kAdd:
            overflow = __builtin_add_overflow(lhs, rhs, &value);
            break;
          case ArithOp::kSub:
            overflow = __builtin_sub_overflow(lhs, rhs, &value);
            break;
          case ArithOp::kMul:
            overflow = __builtin_mul_overflow(lhs, rhs, &value);
            break;
        }
        if (overflow) return EvalErrorAt(node.offset, "integer overflow");
        return Sequence{Item::Integer(value)};
      }
      case ExprKind::kPath:
        return EvalPath(node, context);
      case ExprKind::kFunctionCall:
        return EvalFunction(node, context);
      case ExprKind::kConstructor:
        return EvalConstructor(node, context);
    }
    return EvalErrorAt(node.offset, "unhandled expression kind");
  }

  // Evaluates one loop binding in an isolated child view: while the scope
  // lives, this evaluator's view_ points at a fresh fork, so temporaries
  // the binding materialises stay invisible to sibling bindings (a binding
  // sees base + pre-loop temporaries + its own). After a successful
  // evaluation, CommitTo() hands the fork's overlays to the loop's pending
  // list; the loop registers the whole list, in binding order, on the
  // enclosing view only at loop exit — registering per binding would
  // re-expose earlier bindings' temporaries to later ones through the fork
  // chain. Destruction restores the pointer either way, dropping
  // uncommitted overlays with the fork.
  class BindingScope {
   public:
    explicit BindingScope(Evaluator* evaluator)
        : evaluator_(evaluator),
          child_(evaluator->view_),
          saved_view_(evaluator->view_) {
      evaluator_->view_ = &child_;
    }
    ~BindingScope() { evaluator_->view_ = saved_view_; }

    // The fork holds its overlays in id order, which is creation order.
    void CommitTo(
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* pending)
        const {
      pending->insert(pending->end(), child_.overlays().begin(),
                      child_.overlays().end());
    }

   private:
    Evaluator* evaluator_;
    goddag::OverlayView child_;
    goddag::OverlayView* saved_view_;
  };

  // One loop binding, shared by kFor and kQuantified: bind, evaluate
  // the body — in an isolated child view when it can materialise
  // temporaries (overlays land in `pending` for the loop-exit merge; see
  // BindingScope) — and unbind.
  StatusOr<Sequence> EvalLoopBinding(
      const AstNode& node, const Item* context, Item item,
      std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* pending) {
    bindings_.emplace_back(node.name, Sequence{std::move(item)});
    StatusOr<Sequence> body = Sequence{};
    if (node.body_contains_analyze_string) {
      BindingScope scope(this);
      body = Eval(*node.children[1], context);
      if (body.ok()) scope.CommitTo(pending);
    } else {
      body = Eval(*node.children[1], context);
    }
    bindings_.pop_back();
    return body;
  }

  // --- booleans, comparisons, arithmetic -----------------------------------

  StatusOr<bool> BooleanValue(const Sequence& seq, size_t offset) const {
    if (seq.empty()) return false;
    const Item& first = seq.front();
    if (first.kind == Item::Kind::kNode || first.kind == Item::Kind::kLeaf ||
        first.kind == Item::Kind::kFragment) {
      return true;
    }
    if (seq.size() == 1) {
      switch (first.kind) {
        case Item::Kind::kString:
          return !first.text.empty();
        case Item::Kind::kInteger:
          return first.integer != 0;
        case Item::Kind::kBoolean:
          return first.boolean;
        default:
          break;
      }
    }
    return EvalErrorAt(offset,
                       "no effective boolean value for a sequence of " +
                           std::to_string(seq.size()) + " atomic items");
  }

  // Numeric view of an item for comparisons: integers directly, any other
  // item through its string value if that is (all of) an integer literal.
  bool TryIntegerValue(const Item& item, int64_t* out) const {
    if (item.kind == Item::Kind::kInteger) {
      *out = item.integer;
      return true;
    }
    if (item.kind == Item::Kind::kBoolean) return false;
    const std::string s = StringValue(item);
    size_t i = s.size() && (s[0] == '-' || s[0] == '+') ? 1 : 0;
    if (i == s.size()) return false;
    int64_t value = 0;
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    for (; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      const int64_t digit = s[i] - '0';
      if (value > (kMax - digit) / 10) return false;
      value = value * 10 + digit;
    }
    *out = s[0] == '-' ? -value : value;
    return true;
  }

  StatusOr<Sequence> EvalCompare(const AstNode& node, const Item* context) {
    MHX_ASSIGN_OR_RETURN(Sequence lhs, Eval(*node.children[0], context));
    MHX_ASSIGN_OR_RETURN(Sequence rhs, Eval(*node.children[1], context));
    // General (existential) comparison over atomised items. XPath-style
    // coercion: when either side is a number, compare numerically (a pair
    // whose other side is not numeric compares like NaN — never true,
    // except under !=).
    for (const Item& a : lhs) {
      for (const Item& b : rhs) {
        int cmp;
        if (a.kind == Item::Kind::kInteger ||
            b.kind == Item::Kind::kInteger) {
          int64_t x, y;
          if (!TryIntegerValue(a, &x) || !TryIntegerValue(b, &y)) {
            if (node.compare_op == CompareOp::kNe) {
              return Sequence{Item::Boolean(true)};
            }
            continue;
          }
          cmp = x < y ? -1 : x > y ? 1 : 0;
        } else {
          cmp = StringValue(a).compare(StringValue(b));
          cmp = cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
        }
        bool hit = false;
        switch (node.compare_op) {
          case CompareOp::kEq:
            hit = cmp == 0;
            break;
          case CompareOp::kNe:
            hit = cmp != 0;
            break;
          case CompareOp::kLt:
            hit = cmp < 0;
            break;
          case CompareOp::kLe:
            hit = cmp <= 0;
            break;
          case CompareOp::kGt:
            hit = cmp > 0;
            break;
          case CompareOp::kGe:
            hit = cmp >= 0;
            break;
        }
        if (hit) return Sequence{Item::Boolean(true)};
      }
    }
    return Sequence{Item::Boolean(false)};
  }

  StatusOr<int64_t> IntegerOperand(const AstNode& node, const Item* context) {
    MHX_ASSIGN_OR_RETURN(Sequence seq, Eval(node, context));
    if (seq.size() != 1 || seq[0].kind != Item::Kind::kInteger) {
      return EvalErrorAt(node.offset,
                         "arithmetic requires a single integer operand");
    }
    return seq[0].integer;
  }

  // --- paths ---------------------------------------------------------------

  StatusOr<Sequence> EvalPath(const AstNode& path, const Item* context) {
    Sequence current;
    size_t step_index = 0;
    if (path.absolute) {
      current.push_back(Item::Node(view_->root()));
    } else if (path.steps[0].primary != nullptr) {
      const PathStep& first = path.steps[0];
      MHX_ASSIGN_OR_RETURN(current, Eval(*first.primary, context));
      MHX_RETURN_IF_ERROR(ApplyPredicates(first, &current));
      step_index = 1;
    } else {
      if (context == nullptr) {
        return EvalErrorAt(path.offset,
                           "relative path without a context item");
      }
      current.push_back(*context);
    }
    for (; step_index < path.steps.size() && !current.empty();
         ++step_index) {
      const PathStep& step = path.steps[step_index];
      if (IsSetStep(step, current)) {
        MHX_ASSIGN_OR_RETURN(current, EvalSetStep(step, current));
        continue;
      }
      // The per-context loop, for steps whose predicates are positional
      // (XPath evaluates them per context node, so each context's run is
      // ordered and filtered on its own) or create temporary hierarchies
      // (which register in evaluation order), and for leaf contexts and
      // child::leaf()/self::leaf() steps. Each run is put in document order
      // — reverse document order on a reverse axis, whose positions count
      // from the context outwards — before its predicates filter it; the
      // concatenated runs are then sorted and deduplicated once.
      const bool reverse =
          xpath::IsReverseAxis(step.axis) && !step.predicates.empty();
      Sequence next;
      for (const Item& item : current) {
        Sequence from_item;
        MHX_RETURN_IF_ERROR(EvalStep(item, step, path.offset, &from_item));
        SortAndDedup(&from_item);
        // Predicates only filter, so the order and uniqueness survive.
        if (reverse) std::reverse(from_item.begin(), from_item.end());
        MHX_RETURN_IF_ERROR(ApplyPredicates(step, &from_item));
        if (reverse) std::reverse(from_item.begin(), from_item.end());
        std::move(from_item.begin(), from_item.end(),
                  std::back_inserter(next));
      }
      if (current.size() > 1) SortAndDedup(&next);
      current = std::move(next);
    }
    return current;
  }

  // Whether `step` may run set-at-a-time over `contexts`: every context is
  // a node, and every predicate's verdict depends on its item alone
  // (IsStaticallyBoolean), so filtering the union once keeps exactly the
  // items that filtering each context's run would. leaf() steps qualify
  // on the axes whose leaves are those inside the context ranges.
  bool IsSetStep(const PathStep& step, const Sequence& contexts) const {
    if (step.test == PathStep::Test::kLeaf &&
        step.axis != xpath::Axis::kDescendant &&
        step.axis != xpath::Axis::kDescendantOrSelf &&
        step.axis != xpath::Axis::kXDescendant) {
      return false;
    }
    return std::all_of(contexts.begin(), contexts.end(),
                       [](const Item& item) {
                         return item.kind == Item::Kind::kNode;
                       }) &&
           std::all_of(step.predicates.begin(), step.predicates.end(),
                       [](const std::unique_ptr<AstNode>& pred) {
                         return IsStaticallyBoolean(*pred);
                       });
  }

  // One axis evaluation over the whole context sequence, one Item per
  // result, then the predicates once over the union.
  StatusOr<Sequence> EvalSetStep(const PathStep& step,
                                 const Sequence& contexts) {
    Sequence out;
    if (step.test == PathStep::Test::kLeaf) {
      // The leaves inside any context range: those inside the merged
      // ranges, each emitted once and in order.
      std::vector<TextRange> ranges;
      for (const Item& item : contexts) {
        const TextRange& r = view_->node(item.node).range;
        if (!r.empty()) ranges.push_back(r);
      }
      std::sort(ranges.begin(), ranges.end());
      for (size_t i = 0; i < ranges.size();) {
        TextRange merged = ranges[i];
        for (++i; i < ranges.size() && ranges[i].begin <= merged.end; ++i) {
          merged.end = std::max(merged.end, ranges[i].end);
        }
        AppendLeavesIn(merged, &out);
      }
    } else {
      const xpath::NodeTest test = NodeTestOf(step);
      std::vector<goddag::NodeId> ids;
      ids.reserve(contexts.size());
      for (const Item& item : contexts) ids.push_back(item.node);
      const xpath::StepExec& exec = PlanOf(step).exec;
      ids = axes_.EvaluateSet(*view_, ids, step.axis, test, exec);
      if (xpath::IsExtendedAxis(step.axis)) NotePlannedStep(exec, test);
      AppendNodeItems(step, ids, &out);
    }
    engine_->counters_->set_steps.Add();
    NoteSortSkipped(out);
    MHX_RETURN_IF_ERROR(ApplyPredicates(step, &out));
    return out;
  }

  // Counts a skipped sort+dedup pass. Singletons and empty sequences do not
  // count — their sort was free anyway, and counting them would inflate the
  // benchmark counter with vacuous wins.
  void NoteSortSkipped(const Sequence& items) const {
    if (items.size() < 2) return;
    engine_->counters_->sorts_skipped.Add();
  }

  Status ApplyPredicates(const PathStep& step, Sequence* items) {
    // The planner's cheapest-first order when it recorded one (only for
    // all-statically-boolean predicate lists, so the positional branch
    // below is unreachable for a reordered step).
    const std::vector<uint16_t>& order = PlanOf(step).predicate_order;
    for (size_t p = 0; p < step.predicates.size(); ++p) {
      const auto& pred = step.predicates[order.empty() ? p : order[p]];
      Sequence kept;
      for (size_t i = 0; i < items->size(); ++i) {
        Item& item = (*items)[i];
        MHX_ASSIGN_OR_RETURN(Sequence v, Eval(*pred, &item));
        bool keep;
        if (v.size() == 1 && v[0].kind == Item::Kind::kInteger) {
          // Numeric predicate = positional test.
          keep = v[0].integer == static_cast<int64_t>(i) + 1;
        } else {
          MHX_ASSIGN_OR_RETURN(keep, BooleanValue(v, pred->offset));
        }
        if (keep) kept.push_back(std::move(item));
      }
      *items = std::move(kept);
    }
    return OkStatus();
  }

  // Evaluates one axis step from one context item. Node contexts read
  // through the overlay view — base index (or arcs) plus overlay scan,
  // extended axes under the planned strategy, in document order; leaf
  // contexts come back in index order.
  Status EvalStep(const Item& item, const PathStep& step, size_t offset,
                  Sequence* out) {
    if (step.test == PathStep::Test::kLeaf) {
      return EvalLeafStep(item, step, offset, out);
    }
    const xpath::NodeTest test = NodeTestOf(step);
    std::vector<goddag::NodeId> ids;
    if (item.kind == Item::Kind::kNode) {
      const xpath::StepExec& exec = PlanOf(step).exec;
      ids = axes_.EvaluatePlanned(*view_, item.node, step.axis, test, exec);
      if (xpath::IsExtendedAxis(step.axis)) NotePlannedStep(exec, test);
    } else if (item.kind == Item::Kind::kLeaf) {
      MHX_RETURN_IF_ERROR(
          LeafContextStep(item.range, step, test, offset, &ids));
    } else {
      return EvalErrorAt(offset, "path step over an atomic value");
    }
    AppendNodeItems(step, ids, out);
    return OkStatus();
  }

  static xpath::NodeTest NodeTestOf(const PathStep& step) {
    return step.test == PathStep::Test::kName ? xpath::NodeTest::Name(step.name)
                                              : xpath::NodeTest::Any();
  }

  // Appends one Item per id, dropping the GODDAG root under a `*` test.
  void AppendNodeItems(const PathStep& step,
                       const std::vector<goddag::NodeId>& ids,
                       Sequence* out) const {
    out->reserve(out->size() + ids.size());
    for (goddag::NodeId id : ids) {
      if (step.test != PathStep::Test::kAnyElement ||
          view_->node(id).kind == goddag::GNodeKind::kElement) {
        out->push_back(Item::Node(id));
      }
    }
  }

  // The planner's annotation of `step`: its physical execution and
  // predicate order.
  const StepPlan& PlanOf(const PathStep& step) const {
    return plan_.steps[step.ordinal];
  }

  // Counts one planned extended-axis execution by chosen strategy, plus
  // any name-test pushdown that rode along.
  void NotePlannedStep(const xpath::StepExec& exec,
                       const xpath::NodeTest& test) const {
    (exec.use_index ? engine_->counters_->plan_steps_indexed
                    : engine_->counters_->plan_steps_scanned)
        .Add();
    if (exec.pushdown && test.is_name()) {
      engine_->counters_->plan_pushdowns.Add();
    }
  }

  // Axis evaluation from a leaf context, on the extended axis the step's
  // axis reduces to there (xpath::LeafContextAxis). A node properly
  // overlapping a leaf cannot exist (its boundary would have split the
  // leaf), so `overlapping` is always empty — computed anyway for
  // uniformity. Output comes back filtered by `test` (inside the
  // probe/kernel when pushed down), so callers never re-test.
  Status LeafContextStep(const TextRange& range, const PathStep& step,
                         const xpath::NodeTest& test, size_t offset,
                         std::vector<goddag::NodeId>* ids) {
    const std::optional<xpath::Axis> extended =
        xpath::LeafContextAxis(step.axis);
    if (!extended) {
      return EvalErrorAt(offset, "axis " +
                                     std::string(xpath::AxisName(step.axis)) +
                                     " cannot start from a leaf");
    }
    const xpath::StepExec& exec = PlanOf(step).exec;
    *ids = axes_.EvaluateRangePlanned(*view_, range, *extended, test, exec);
    NotePlannedStep(exec, test);
    return OkStatus();
  }

  Status EvalLeafStep(const Item& item, const PathStep& step, size_t offset,
                      Sequence* out) {
    // Every production below emits leaves ascending by range with no
    // repeats: the shared leaf partition is sorted, and child-axis
    // filtering only removes items.
    switch (step.axis) {
      case xpath::Axis::kSelf:
        if (item.kind == Item::Kind::kLeaf) out->push_back(item);
        return OkStatus();
      case xpath::Axis::kDescendant:
      case xpath::Axis::kDescendantOrSelf:
      case xpath::Axis::kXDescendant: {
        if (item.kind == Item::Kind::kLeaf) {
          out->push_back(item);  // a leaf contains exactly itself
          return OkStatus();
        }
        if (item.kind != Item::Kind::kNode) {
          return EvalErrorAt(offset, "leaf() step over an atomic value");
        }
        AppendLeavesIn(view_->node(item.node).range, out);
        return OkStatus();
      }
      case xpath::Axis::kChild: {
        if (item.kind != Item::Kind::kNode) return OkStatus();
        // Leaves directly dominated: within the node's range but not inside
        // any of its element children.
        const goddag::GNode& node = view_->node(item.node);
        Sequence all;
        AppendLeavesIn(node.range, &all);
        for (const Item& leaf : all) {
          bool in_child = false;
          for (goddag::NodeId child : node.children) {
            if (view_->node(child).range.Contains(leaf.range)) {
              in_child = true;
              break;
            }
          }
          if (!in_child) out->push_back(leaf);
        }
        return OkStatus();
      }
      default:
        return EvalErrorAt(
            offset, "leaf() node test is not supported on axis " +
                        std::string(xpath::AxisName(step.axis)));
    }
  }

  void AppendLeavesIn(const TextRange& range, Sequence* out) const {
    // The evaluation's leaves inside `range`: base cells re-split at the
    // overlay element boundaries inside it (goddag/overlay.h).
    view_->AppendLeavesIn(range, [out](const TextRange& leaf) {
      out->push_back(Item::Leaf(leaf));
    });
  }

  // Document order over mixed node/leaf sequences: begin ascending, longer
  // range first, elements before the leaf sharing their range, NodeId as the
  // final tiebreak.
  std::tuple<size_t, size_t, int, goddag::NodeId> DocOrderKey(
      const Item& item) const {
    const TextRange& r = item.kind == Item::Kind::kNode
                             ? view_->node(item.node).range
                             : item.range;
    const int rank = item.kind == Item::Kind::kNode ? 0 : 1;
    const goddag::NodeId id = item.kind == Item::Kind::kNode ? item.node : 0;
    return std::tuple<size_t, size_t, int, goddag::NodeId>(
        r.begin, ~r.end, rank, id);  // ~end: longer ranges sort first
  }

  // Collapses duplicates (same node / same leaf reached from several context
  // items) in an already document-ordered sequence.
  void DedupSorted(Sequence* items) const {
    items->erase(std::unique(items->begin(), items->end(),
                             [](const Item& a, const Item& b) {
                               if (a.kind != b.kind) return false;
                               if (a.kind == Item::Kind::kNode) {
                                 return a.node == b.node;
                               }
                               return a.range == b.range;
                             }),
                 items->end());
  }

  // Puts a step's run, or the concatenation of per-context runs, in
  // document order without duplicates; the sort runs only when a linear
  // scan finds an inversion.
  void SortAndDedup(Sequence* items) const {
    auto before = [this](const Item& a, const Item& b) {
      return DocOrderKey(a) < DocOrderKey(b);
    };
    if (std::is_sorted(items->begin(), items->end(), before)) {
      NoteSortSkipped(*items);
    } else {
      std::sort(items->begin(), items->end(), before);
    }
    DedupSorted(items);
  }

  // --- functions -----------------------------------------------------------

  StatusOr<Sequence> EvalFunction(const AstNode& node, const Item* context) {
    const std::string& name = node.name;
    const size_t arity = node.children.size();
    auto arg_or_context = [&](size_t i) -> StatusOr<Sequence> {
      if (i < arity) return Eval(*node.children[i], context);
      if (context == nullptr) {
        return EvalErrorAt(node.offset, "no context item for " + name + "()");
      }
      return Sequence{*context};
    };

    if (name == "string" && arity <= 1) {
      MHX_ASSIGN_OR_RETURN(Sequence arg, arg_or_context(0));
      return Sequence{
          Item::String(arg.empty() ? std::string() : StringValue(arg[0]))};
    }
    if (name == "string-length" && arity <= 1) {
      MHX_ASSIGN_OR_RETURN(Sequence arg, arg_or_context(0));
      const size_t length =
          arg.empty() ? 0 : StringValue(arg[0]).size();
      return Sequence{Item::Integer(static_cast<int64_t>(length))};
    }
    if (name == "count" && arity == 1) {
      MHX_ASSIGN_OR_RETURN(Sequence arg, Eval(*node.children[0], context));
      return Sequence{Item::Integer(static_cast<int64_t>(arg.size()))};
    }
    if (name == "name" && arity <= 1) {
      MHX_ASSIGN_OR_RETURN(Sequence arg, arg_or_context(0));
      std::string value;
      if (!arg.empty() && arg[0].kind == Item::Kind::kNode) {
        value = view_->node(arg[0].node).name;
      }
      return Sequence{Item::String(std::move(value))};
    }
    if (name == "not" && arity == 1) {
      MHX_ASSIGN_OR_RETURN(Sequence arg, Eval(*node.children[0], context));
      MHX_ASSIGN_OR_RETURN(bool value,
                           BooleanValue(arg, node.children[0]->offset));
      return Sequence{Item::Boolean(!value)};
    }
    if (name == "true" && arity == 0) return Sequence{Item::Boolean(true)};
    if (name == "false" && arity == 0) return Sequence{Item::Boolean(false)};
    if (name == "matches" && arity == 2) {
      MHX_ASSIGN_OR_RETURN(Sequence subject, Eval(*node.children[0], context));
      MHX_ASSIGN_OR_RETURN(std::string pattern,
                           SingletonString(*node.children[1], context));
      MHX_ASSIGN_OR_RETURN(const regex::Regex* re,
                           CompiledRegex(pattern, node.offset));
      const std::string value =
          subject.empty() ? std::string() : StringValue(subject[0]);
      return Sequence{Item::Boolean(re->ContainsMatch(value))};
    }
    if (name == "analyze-string" && arity == 2) {
      return EvalAnalyzeString(node, context);
    }
    return EvalErrorAt(node.offset, "unknown function " + name + "() with " +
                                        std::to_string(arity) + " argument" +
                                        (arity == 1 ? "" : "s"));
  }

  StatusOr<std::string> SingletonString(const AstNode& node,
                                        const Item* context) {
    MHX_ASSIGN_OR_RETURN(Sequence seq, Eval(node, context));
    if (seq.size() != 1) {
      return EvalErrorAt(node.offset, "expected a single string");
    }
    return StringValue(seq[0]);
  }

  StatusOr<const regex::Regex*> CompiledRegex(const std::string& pattern,
                                              size_t offset) {
    // Concurrent evaluations hit the shared PlanCache; cached programs are
    // address-stable for the cache's lifetime, which the engine pins via
    // shared_ptr. Compile errors are anchored to this call site's source
    // offset.
    auto compiled = engine_->plans_->CompileRegex(pattern);
    if (!compiled.ok()) {
      return EvalErrorAt(offset, compiled.status().message());
    }
    return compiled.value();
  }

  // The paper's analyze-string(): match a fragment pattern against the
  // string of a node and materialise every match — and every named fragment
  // group — as a temporary virtual hierarchy over the node's base-text
  // range. The hierarchy is a GoddagOverlay private to this evaluator's
  // current view — the evaluation's, or a loop binding's fork — so the
  // base document is untouched, concurrent evaluations need no exclusion,
  // and teardown is dropping the overlay. Returns the result wrapper element, whose leaf()
  // descendants are the analysed range re-partitioned by the match
  // boundaries.
  StatusOr<Sequence> EvalAnalyzeString(const AstNode& node,
                                       const Item* context) {
    MHX_ASSIGN_OR_RETURN(Sequence target, Eval(*node.children[0], context));
    if (target.size() != 1 || (target[0].kind != Item::Kind::kNode &&
                               target[0].kind != Item::Kind::kLeaf)) {
      return EvalErrorAt(node.offset,
                         "analyze-string() requires a single node");
    }
    const TextRange range = target[0].kind == Item::Kind::kNode
                                ? view_->node(target[0].node).range
                                : target[0].range;
    MHX_ASSIGN_OR_RETURN(std::string pattern,
                         SingletonString(*node.children[1], context));

    const std::string core = regex::StripContextWildcards(pattern);
    auto fragment = regex::TranslateFragmentPattern(core);
    if (!fragment.ok()) {
      return EvalErrorAt(node.offset, fragment.status().message());
    }
    MHX_ASSIGN_OR_RETURN(const regex::Regex* re,
                         CompiledRegex(fragment->regex, node.offset));

    const std::string_view text =
        std::string_view(view_->base_text())
            .substr(range.begin, range.length());
    std::vector<goddag::VirtualElement> elements;
    elements.push_back(
        goddag::VirtualElement{kAnalyzeStringResultName, range, {}});
    for (const regex::Regex::Match& m : re->FindAll(text, &scan_scratch_)) {
      if (!m.range.empty()) {
        elements.push_back(goddag::VirtualElement{
            kMatchElementName,
            TextRange(range.begin + m.range.begin, range.begin + m.range.end),
            {}});
      }
      // group_names is aligned with the residual regex's group numbering;
      // empty names are plain user groups, which materialise nothing.
      const size_t group_limit =
          std::min(m.groups.size(), fragment->group_names.size());
      for (size_t g = 0; g < group_limit; ++g) {
        if (m.groups[g].empty() || fragment->group_names[g].empty()) continue;
        elements.push_back(goddag::VirtualElement{
            fragment->group_names[g],
            TextRange(range.begin + m.groups[g].begin,
                      range.begin + m.groups[g].end),
            {}});
      }
    }
    if (id_allocator_ == nullptr) {
      id_allocator_ = std::make_shared<goddag::OverlayIdAllocator>();
    }
    auto overlay = goddag::GoddagOverlay::Create(
        &view_->base(), id_allocator_, kAnalyzeStringResultName,
        std::move(elements));
    if (!overlay.ok()) {
      if (overlay.status().code() == StatusCode::kResourceExhausted) {
        engine_->counters_->overlay_id_exhausted.Add();
      }
      return EvalErrorAt(node.offset, overlay.status().message());
    }
    // The wrapper is the first element spanning the analysed range with the
    // result name (the auto-created root is plumbing and never a result).
    goddag::NodeId wrapper = goddag::kInvalidNode;
    for (goddag::NodeId id = (*overlay)->elements_begin();
         id < (*overlay)->id_end(); ++id) {
      const goddag::GNode& n = (*overlay)->node(id);
      if (n.name == kAnalyzeStringResultName && n.range == range) {
        wrapper = id;
        break;
      }
    }
    if (wrapper == goddag::kInvalidNode) {
      return InternalError("analyze-string() lost its result wrapper");
    }
    view_->AddOverlay(*std::move(overlay));
    return Sequence{Item::Node(wrapper)};
  }

  // --- constructors --------------------------------------------------------

  StatusOr<Sequence> EvalConstructor(const AstNode& node,
                                     const Item* context) {
    std::string markup = "<" + node.name;
    for (const ConstructorAttribute& attr : node.attributes) {
      markup += " " + attr.name + "=\"";
      for (const ConstructorPart& part : attr.parts) {
        if (part.expr == nullptr) {
          markup += xml::EscapeText(part.text);
          continue;
        }
        MHX_ASSIGN_OR_RETURN(Sequence v, Eval(*part.expr, context));
        std::string joined;
        for (size_t i = 0; i < v.size(); ++i) {
          if (i > 0) joined += " ";
          joined += StringValue(v[i]);
        }
        markup += xml::EscapeText(joined);
      }
      markup += "\"";
    }
    if (node.content.empty()) {
      markup += "/>";
      return Sequence{Item::Fragment(std::move(markup), "")};
    }
    markup += ">";
    std::string value;
    for (const ConstructorPart& part : node.content) {
      if (part.expr == nullptr) {
        markup += xml::EscapeText(part.text);
        value += part.text;
        continue;
      }
      MHX_ASSIGN_OR_RETURN(Sequence v, Eval(*part.expr, context));
      for (const Item& item : v) {
        markup += SerializeItem(item);
        value += StringValue(item);
      }
    }
    markup += "</" + node.name + ">";
    return Sequence{Item::Fragment(std::move(markup), std::move(value))};
  }

  // --- node serialisation --------------------------------------------------

  void SerializeNode(goddag::NodeId id, std::string* out) const {
    const goddag::GNode& node = view_->node(id);
    if (node.kind == goddag::GNodeKind::kRoot) {
      // The GODDAG root serialises as its persistent hierarchy roots in
      // order (overlays are not children of the base root).
      for (goddag::NodeId child : node.children) SerializeNode(child, out);
      return;
    }
    const std::string& text = view_->base_text();
    *out += "<" + node.name;
    for (const auto& [attr_name, attr_value] : node.attributes) {
      *out += " " + attr_name + "=\"" + xml::EscapeText(attr_value) + "\"";
    }
    if (node.children.empty() && node.range.empty()) {
      *out += "/>";
      return;
    }
    *out += ">";
    size_t pos = node.range.begin;
    for (goddag::NodeId child : node.children) {
      const TextRange& child_range = view_->node(child).range;
      *out += xml::EscapeText(
          std::string_view(text).substr(pos, child_range.begin - pos));
      SerializeNode(child, out);
      pos = child_range.end;
    }
    *out += xml::EscapeText(
        std::string_view(text).substr(pos, node.range.end - pos));
    *out += "</" + node.name + ">";
  }

  Engine* engine_;
  // This evaluator's read/write seam: the evaluation's root view (immutable
  // base + its own overlays), re-pointed at a fork while a BindingScope
  // lives.
  goddag::OverlayView* view_;
  // Id blocks for every overlay this evaluation materialises, created on
  // its first analyze-string(). One allocator per evaluation: overlay ids
  // follow creation order, whatever concurrent evaluations do.
  std::shared_ptr<goddag::OverlayIdAllocator> id_allocator_;
  const xpath::AxisEvaluator& axes_;
  // The step plan for this evaluation's (expr, pinned snapshot version).
  const QueryPlan& plan_;
  std::vector<std::pair<std::string, Sequence>> bindings_;
  // Pike-VM scan state reused by every analyze-string() this evaluator
  // runs, so a per-word scan allocates nothing once warm.
  regex::ScanScratch scan_scratch_;
};

// --- Engine ----------------------------------------------------------------

Engine::Engine(const MultihierarchicalDocument* document)
    : Engine(document, nullptr, nullptr) {}

Engine::Engine(const MultihierarchicalDocument* document,
               std::shared_ptr<PlanCache> plans,
               std::shared_ptr<EngineCounters> counters)
    : document_(document),
      plans_(plans != nullptr ? std::move(plans)
                              : std::make_shared<PlanCache>()),
      counters_(counters != nullptr ? std::move(counters)
                                    : std::make_shared<EngineCounters>()) {}

Engine::~Engine() = default;

StatusOr<const Expr*> Engine::PreparedQuery(std::string_view query) {
  return plans_->Prepare(query);
}

StatusOr<std::string> Engine::Evaluate(std::string_view query) {
  return Evaluate(query, QueryOptions());
}

Engine::PinnedPlan Engine::PinAndPlan(const Expr* expr) {
  PinnedPlan pinned;
  // Pin the MVCC snapshot for the whole evaluation: everything it reads —
  // view, axes, leaves, index — is exactly this version, regardless of
  // writers committing successors meanwhile.
  pinned.snapshot = document_->PinSnapshot();
  counters_->snapshot_pins.Add();
  // The step plan for this (expr, document, version); cached, so in the
  // steady state this is one map lookup and a replan only happens on the
  // first evaluation after a commit. The plan annotates the pinned
  // snapshot's statistics — stats follow the snapshot, never the head, so
  // a stale plan is impossible by construction.
  const goddag::DocumentSnapshot& snapshot = *pinned.snapshot;
  const uint64_t version = snapshot.version();
  pinned.plan = plans_->PlanFor(expr, document_, version, [&] {
    return PlanQuery(expr->root(), snapshot.stats(), version);
  });
  return pinned;
}

StatusOr<std::string> Engine::ExplainPlan(std::string_view query) {
  MHX_ASSIGN_OR_RETURN(const Expr* expr, PreparedQuery(query));
  const PinnedPlan pinned = PinAndPlan(expr);
  return ExplainQueryPlan(expr->root(), *pinned.plan,
                          pinned.snapshot->stats());
}

StatusOr<std::string> Engine::Evaluate(std::string_view query,
                                       const QueryOptions& options) {
  obs::QueryTrace* trace = options.trace;
  const Expr* expr = nullptr;
  {
    // Stage spans are consecutive at this level — each begins where the
    // previous ended — so a trace's kStage spans tile the call's wall
    // time (see obs/trace.h).
    obs::StageTimer stage(trace, "plan_lookup");
    MHX_ASSIGN_OR_RETURN(expr, PreparedQuery(query));
  }
  PinnedPlan pinned;
  {
    // Covers the snapshot pin and the plan lookup (a published snapshot is
    // already indexed); the name stays because mhxbench reports
    // span.index_materialize.*.
    obs::StageTimer stage(trace, "index_materialize");
    pinned = PinAndPlan(expr);
  }
  // The evaluation's private read seam: the immutable pinned snapshot and,
  // as they are created, the evaluation's own overlays. No lock is held
  // while evaluating — concurrent evaluations, analyze-string() included,
  // only share immutable state.
  const xpath::AxisEvaluator axes(pinned.snapshot.get());
  goddag::OverlayView view(&pinned.snapshot->goddag());
  Evaluator evaluator(this, &axes, pinned.plan.get(), &view);
  StatusOr<Evaluator::Sequence> result = [&] {
    obs::StageTimer stage(trace, "evaluate");
    return evaluator.Evaluate(expr->root());
  }();
  if (!result.ok()) return result.status();
  // Serialise while the view is alive: node items may live in its
  // overlays, which are dropped on return — that is the entire teardown.
  obs::StageTimer stage(trace, "serialize");
  std::string out;
  for (const Evaluator::Item& item : *result) {
    out += evaluator.SerializeItem(item);
  }
  return out;
}

}  // namespace mhx::xquery
