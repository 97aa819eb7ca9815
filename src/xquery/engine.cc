// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/engine.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "base/status_macros.h"
#include "document.h"
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

// Work-stealing distributor of one parallel loop's binding indices. Slot s
// starts owning a contiguous range; an owner pops its own front, and a slot
// whose deque drained steals the back half of the first non-empty victim's
// remainder — so skewed per-binding costs (regex-heavy analyze-string
// bodies) cannot leave slots idle behind a few hot bindings. Every index is
// claimed exactly once; AllDone flips only after every claimed index was
// marked done, which is the join condition: a coordinator waits for
// *claimed* work only, never for queued helper tasks (a helper that starts
// after the loop drained claims nothing and returns).
class BindingScheduler {
 public:
  BindingScheduler(size_t bindings, size_t slots)
      : slots_(std::max<size_t>(slots, 1)),
        ranges_(new Range[slots_]),
        unfinished_(bindings) {
    const size_t per = bindings / slots_;
    const size_t extra = bindings % slots_;
    size_t begin = 0;
    for (size_t s = 0; s < slots_; ++s) {
      const size_t count = per + (s < extra ? 1 : 0);
      ranges_[s].next = begin;
      ranges_[s].end = begin + count;
      begin += count;
    }
  }

  // Claims one binding index for `slot`; *stolen reports that the claim
  // came out of a victim's deque. Returns false when no deque holds
  // claimable work (work a victim is installing concurrently is claimed by
  // that victim's own loop, never lost).
  bool Claim(size_t slot, size_t* index, bool* stolen) {
    *stolen = false;
    Range& own = ranges_[slot];
    {
      std::lock_guard<std::mutex> lock(own.mu);
      if (own.next < own.end) {
        *index = own.next++;
        return true;
      }
    }
    for (size_t k = 1; k < slots_; ++k) {
      Range& victim = ranges_[(slot + k) % slots_];
      size_t begin = 0;
      size_t end = 0;
      {
        std::lock_guard<std::mutex> lock(victim.mu);
        if (victim.next < victim.end) {
          const size_t take = (victim.end - victim.next + 1) / 2;
          begin = victim.end - take;
          end = victim.end;
          victim.end = begin;
        }
      }
      if (begin < end) {
        *stolen = true;
        // Install the stolen range as this slot's new deque (it was empty;
        // only the owning thread installs, so no other write can race) and
        // claim its first index.
        std::lock_guard<std::mutex> lock(own.mu);
        own.next = begin + 1;
        own.end = end;
        *index = begin;
        return true;
      }
    }
    return false;
  }

  // Marks one claimed binding finished (evaluated or skipped).
  void MarkDone() {
    if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }

  bool AllDone() const {
    return unfinished_.load(std::memory_order_acquire) == 0;
  }

  // Blocks until every binding is done. The acquire load in AllDone pairs
  // with the release decrement in MarkDone, so every slot's binding
  // results are visible to the joining thread.
  void WaitAllDone() {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] { return AllDone(); });
  }

 private:
  struct Range {
    std::mutex mu;
    size_t next = 0;
    size_t end = 0;
  };

  const size_t slots_;
  std::unique_ptr<Range[]> ranges_;
  std::atomic<size_t> unfinished_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace

// The per-query tree-walking interpreter. One Evaluator runs one query
// against one goddag::OverlayView — the immutable base document plus the
// kept temporary hierarchies plus the evaluation's own. Cross-query state
// (the base axis index, the kept-hierarchy registry, prepared-query and
// compiled-regex caches) lives on the Engine.
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

  // An evaluator over one overlay view. The coordinating evaluator of an
  // evaluation gets the evaluation's root view; a parallel worker slot
  // gets a snapshot of the coordinator's binding stack and a fresh view
  // forked off the coordinator's per binding (RunLoopSlot re-points
  // view_). Either way `own` collects the overlays this evaluator
  // materialises (analyze-string()); they are registered in `view` as
  // created, so later steps of the same binding see them — worker-created
  // overlays additionally merge into the coordinator's view at the loop
  // join, in binding order.
  Evaluator(Engine* engine, const xpath::AxisEvaluator* axes,
            const QueryOptions* options, const QueryPlan* plan,
            base::ThreadPool* pool, goddag::OverlayView* view,
            std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* own,
            std::vector<std::pair<std::string, Sequence>> bindings = {})
      : engine_(engine),
        view_(view),
        own_(own),
        axes_(*axes),
        options_(options),
        plan_(plan),
        pool_(pool) {
    bindings_ = std::move(bindings);
  }

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
        if (ShouldParallelize(node, seq)) {
          return EvalLoopParallel(node, context, std::move(seq));
        }
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>> pending;
        Sequence out;
        for (Item& item : seq) {
          MHX_ASSIGN_OR_RETURN(
              Sequence body,
              EvalSerialBinding(node, context, std::move(item), &pending));
          std::move(body.begin(), body.end(), std::back_inserter(out));
        }
        MergePendingOverlays(std::move(pending));
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
        if (ShouldParallelize(node, seq)) {
          return EvalLoopParallel(node, context, std::move(seq));
        }
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>> pending;
        for (Item& item : seq) {
          MHX_ASSIGN_OR_RETURN(
              Sequence body,
              EvalSerialBinding(node, context, std::move(item), &pending));
          MHX_ASSIGN_OR_RETURN(bool value,
                               BooleanValue(body, node.children[1]->offset));
          if (value != node.every) {
            // The decider's own overlays are committed (serial evaluated
            // it fully); bindings past it were never evaluated.
            MergePendingOverlays(std::move(pending));
            return Sequence{Item::Boolean(!node.every)};
          }
        }
        MergePendingOverlays(std::move(pending));
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
        switch (node.arith_op) {
          case ArithOp::kAdd:
            value = lhs + rhs;
            break;
          case ArithOp::kSub:
            value = lhs - rhs;
            break;
          case ArithOp::kMul:
            value = lhs * rhs;
            break;
        }
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

  // Evaluates one serial loop binding in an isolated child view: while the
  // scope lives, this evaluator's view_/own_ point at a fresh fork, so
  // temporaries the binding materialises stay invisible to sibling
  // bindings — exactly the scoping a parallel worker slot gets. After a
  // successful evaluation, CommitTo() hands the binding's overlays to the
  // loop's pending list; the loop merges the whole list into the
  // enclosing view only at loop exit (MergePendingOverlays), matching the
  // parallel join — merging per binding would re-expose earlier bindings'
  // temporaries to later ones through the fork chain. Destruction
  // restores the pointers either way, dropping uncommitted overlays.
  class BindingScope {
   public:
    explicit BindingScope(Evaluator* evaluator)
        : evaluator_(evaluator),
          child_(evaluator->view_),
          saved_view_(evaluator->view_),
          saved_own_(evaluator->own_) {
      evaluator_->view_ = &child_;
      evaluator_->own_ = &own_;
    }
    ~BindingScope() {
      evaluator_->view_ = saved_view_;
      evaluator_->own_ = saved_own_;
    }

    void CommitTo(
        std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* pending) {
      std::move(own_.begin(), own_.end(), std::back_inserter(*pending));
      own_.clear();
    }

   private:
    Evaluator* evaluator_;
    goddag::OverlayView child_;
    std::vector<std::shared_ptr<const goddag::GoddagOverlay>> own_;
    goddag::OverlayView* saved_view_;
    std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* saved_own_;
  };

  // Registers a finished loop's binding overlays (already in binding
  // order) on this evaluator's view and overlay list.
  void MergePendingOverlays(
      std::vector<std::shared_ptr<const goddag::GoddagOverlay>> pending) {
    for (auto& overlay : pending) {
      own_->push_back(overlay);
      view_->AddOverlay(std::move(overlay));
    }
  }

  // One serial loop binding, shared by kFor and kQuantified: bind, evaluate
  // the body — in an isolated child view when it can materialise
  // temporaries (overlays land in `pending` for the loop-exit merge; see
  // BindingScope) — and unbind.
  StatusOr<Sequence> EvalSerialBinding(
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

  // --- parallel FLWOR / quantifier fan-out ---------------------------------

  // Fan out whenever a pool exists, there are enough bindings to amortise
  // the loop's fixed cost (shared state, helper submission, per-slot view
  // fork and binding-stack snapshot — tiny inner loops of two or three
  // bindings are cheaper run inline), and the body provably cannot touch
  // state shared mutably across workers. Workers fan nested `for` loops
  // out again through the same scheduler — the join below waits only for
  // claimed bindings, so nesting cannot deadlock the fixed-size pool.
  static constexpr size_t kMinParallelBindings = 4;
  bool ShouldParallelize(const AstNode& loop, const Sequence& seq) const {
    return pool_ != nullptr && options_->threads > 1 &&
           seq.size() >= kMinParallelBindings && loop.body_parallel_safe;
  }

  // Everything one parallel loop's slots share, owned via shared_ptr:
  // queued helper tasks can run after the join returned (a stale helper
  // claims nothing and must touch nothing but the scheduler — every other
  // field may reference the coordinator's dead stack frame by then).
  struct LoopShared {
    LoopShared(size_t binding_count, size_t slot_count)
        : sched(binding_count, slot_count), slot_traces(slot_count) {}

    BindingScheduler sched;
    // Per-slot trace accumulators for an attached QueryTrace. Exactly one
    // thread runs each slot, so each entry has a single writer; every
    // write happens before that slot's final MarkDone (release), and the
    // coordinator reads only after WaitAllDone (acquire) — race-free with
    // no extra synchronisation. A stale helper never touches these: it
    // reads `trace` only after a successful claim, which it cannot get.
    struct SlotTrace {
      uint64_t begin_ns = 0;
      uint64_t end_ns = 0;
      uint64_t bindings = 0;
      uint64_t steals = 0;
      size_t first_binding = std::numeric_limits<size_t>::max();
    };
    std::vector<SlotTrace> slot_traces;
    // Bindings with index > cancel_after may be skipped: the loop's result
    // is already determined by the event recorded at cancel_after (an
    // error, or a quantifier decider). Monotonically non-increasing, so a
    // binding below the final event index is never skipped — which is what
    // makes the join's winner exactly serial evaluation's.
    std::atomic<size_t> cancel_after{std::numeric_limits<size_t>::max()};
    // Hard abort (a slot threw): skip all remaining work, results void.
    std::atomic<bool> torn{false};

    std::mutex mu;  // guards the event fields and `overlays`
    size_t event_index = std::numeric_limits<size_t>::max();
    bool event_is_error = false;
    Status error = OkStatus();
    std::exception_ptr thrown;
    // Worker-created overlays tagged with their binding index (creation
    // order within a binding preserved — one slot evaluates a whole
    // binding); the join merges them into the coordinator's view stably
    // sorted by index, reproducing serial registration order.
    std::vector<
        std::pair<size_t, std::shared_ptr<const goddag::GoddagOverlay>>>
        overlays;

    // Immutable after construction; valid while any binding is unclaimed
    // (the coordinator outlives its join, and claims cannot happen after).
    Engine* engine = nullptr;
    const xpath::AxisEvaluator* axes = nullptr;
    const QueryOptions* options = nullptr;
    const QueryPlan* plan = nullptr;
    base::ThreadPool* pool = nullptr;
    goddag::OverlayView* parent_view = nullptr;
    const std::vector<std::pair<std::string, Sequence>>* parent_bindings =
        nullptr;
    const AstNode* loop = nullptr;  // the kFor / kQuantified node
    const Item* context = nullptr;
    bool quantified = false;
    Sequence bindings;
    std::vector<Sequence> results;  // kFor: one slot per binding
  };

  // Records that binding `index` ended the loop — with an error, or (for
  // quantifiers) by deciding. The lowest index wins, exactly as the serial
  // loop would have stopped there first.
  static void RecordEvent(LoopShared* st, size_t index, bool is_error,
                          Status status) {
    size_t cur = st->cancel_after.load(std::memory_order_relaxed);
    while (index < cur && !st->cancel_after.compare_exchange_weak(
                              cur, index, std::memory_order_relaxed)) {
    }
    std::lock_guard<std::mutex> lock(st->mu);
    if (index < st->event_index) {
      st->event_index = index;
      st->event_is_error = is_error;
      st->error = std::move(status);
    }
  }

  // Runs one worker slot of a parallel loop to completion: claims binding
  // indices (stealing once its own deque drains), evaluates the loop body
  // in a worker-private forked view, and publishes results / events /
  // created overlays into the shared state. Static on purpose: until a
  // claim succeeds it may touch nothing but `st`'s scheduler — not even a
  // `this` — because a stale helper can outlive the coordinator.
  static void RunLoopSlot(const std::shared_ptr<LoopShared>& st,
                          size_t slot) {
    // Worker state is created lazily on the first claim; a stale helper
    // never reaches it.
    std::optional<goddag::OverlayView> view;
    std::vector<std::shared_ptr<const goddag::GoddagOverlay>> own;
    std::optional<Evaluator> worker;
    size_t index = 0;
    bool stolen = false;
    while (st->sched.Claim(slot, &index, &stolen)) {
      // The claim succeeded, so the coordinator is alive and every
      // LoopShared field is safe to touch (the stale-helper hazard is
      // only before a claim).
      if (stolen) {
        st->engine->counters_->steals.Add();
      }
      if (st->options->trace != nullptr) {
        LoopShared::SlotTrace& t = st->slot_traces[slot];
        if (t.bindings == 0) t.begin_ns = st->options->trace->NowNs();
        t.first_binding = std::min(t.first_binding, index);
        ++t.bindings;
        if (stolen) ++t.steals;
      }
      const bool skip = st->torn.load(std::memory_order_relaxed) ||
                        index > st->cancel_after.load(std::memory_order_relaxed);
      if (!skip) {
        try {
          if (st->loop->body_contains_analyze_string) {
            // A fresh fork per binding: the contract is that a body sees
            // base + kept + pre-loop temporaries + its *own* — never
            // those of earlier bindings that happened to land on this
            // slot, which would make output depend on steal timing. The
            // binding-stack snapshot is reused across the slot's bindings
            // (push/pop restores it); only the view and overlay list
            // reset.
            view.emplace(st->parent_view);
            own.clear();
            if (!worker.has_value()) {
              worker.emplace(st->engine, st->axes, st->options, st->plan,
                             st->pool, &*view, &own, *st->parent_bindings);
            } else {
              worker->view_ = &*view;
            }
          } else if (!worker.has_value()) {
            // The body provably creates no overlays (containment is
            // transitive, so neither can anything nested in it): share
            // the coordinator's view read-only instead of forking per
            // binding.
            worker.emplace(st->engine, st->axes, st->options, st->plan,
                           st->pool, st->parent_view, &own,
                           *st->parent_bindings);
          }
          worker->bindings_.emplace_back(
              st->loop->name, Sequence{std::move(st->bindings[index])});
          auto body = worker->Eval(*st->loop->children[1], st->context);
          worker->bindings_.pop_back();
          if (!body.ok()) {
            RecordEvent(st.get(), index, /*is_error=*/true, body.status());
          } else if (st->quantified) {
            auto value = worker->BooleanValue(
                *body, st->loop->children[1]->offset);
            if (!value.ok()) {
              RecordEvent(st.get(), index, /*is_error=*/true,
                          value.status());
            } else if (*value != st->loop->every) {
              RecordEvent(st.get(), index, /*is_error=*/false, OkStatus());
            }
          } else {
            st->results[index] = *std::move(body);
          }
          if (!own.empty()) {
            // Publish before MarkDone: the join may return the instant the
            // last binding is marked done. The shared list keeps the
            // overlays alive past this binding's view reset (own was
            // cleared at the top of the claim, so everything here is this
            // binding's).
            std::lock_guard<std::mutex> lock(st->mu);
            for (const auto& overlay : own) {
              st->overlays.emplace_back(index, overlay);
            }
          }
        } catch (...) {
          st->torn.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(st->mu);
          if (st->thrown == nullptr) st->thrown = std::current_exception();
        }
      }
      // Stamp before MarkDone: the join may read the instant the last
      // binding is marked done.
      if (st->options->trace != nullptr) {
        st->slot_traces[slot].end_ns = st->options->trace->NowNs();
      }
      st->sched.MarkDone();
    }
  }

  // The parallel loop driver, shared by kFor and kQuantified. The
  // coordinator runs slot 0 itself, submits slots-1 helper tasks, helps
  // drain the pool's backlog while stragglers finish, then joins: binding
  // results concatenate in index order, worker sub-overlays merge into
  // this evaluator's view in binding order, and the lowest-indexed
  // error/decider event wins — byte-identical to the serial loop (see the
  // engine.h contract for the two narrow caveats).
  StatusOr<Sequence> EvalLoopParallel(const AstNode& node,
                                      const Item* context, Sequence seq) {
    const size_t n = seq.size();
    const size_t slots = std::min<size_t>(options_->threads, n);
    auto st = std::make_shared<LoopShared>(n, slots);
    st->engine = engine_;
    st->axes = &axes_;
    st->options = options_;
    st->plan = plan_;
    st->pool = pool_;
    st->parent_view = view_;
    st->parent_bindings = &bindings_;
    st->loop = &node;
    st->context = context;
    st->quantified = node.kind == ExprKind::kQuantified;
    st->bindings = std::move(seq);
    if (!st->quantified) st->results.resize(n);

    size_t submitted = 0;
    std::exception_ptr submit_error;
    for (size_t s = 1; s < slots; ++s) {
      try {
        pool_->Submit([st, s] { RunLoopSlot(st, s); });
        engine_->counters_->parallel_tasks.Add();
        ++submitted;
      } catch (...) {
        // Helpers that never materialise are only lost parallelism — the
        // remaining slots steal the work — but the loop must still tear
        // down cleanly before rethrowing.
        submit_error = std::current_exception();
        st->torn.store(true, std::memory_order_relaxed);
        break;
      }
    }
    RunLoopSlot(st, 0);
    // Help drain the backlog instead of sleeping on it: the queue may hold
    // this loop's own helpers (whose work slot 0 just finished stealing)
    // or a sibling loop's — running either makes global progress, and a
    // nested coordinator blocked here never starves the pool.
    while (!st->sched.AllDone() && pool_->RunPendingTask()) {
    }
    st->sched.WaitAllDone();

    // Join. After WaitAllDone no slot touches the shared state (overlay
    // publication happens before each MarkDone), so the reads below are
    // race-free without st->mu.
    if (obs::QueryTrace* trace = options_->trace; trace != nullptr) {
      // Merge the slots' spans in binding order — the order serial
      // evaluation would have visited each slot's first binding — so a
      // trace reads deterministically given the steal pattern.
      std::vector<std::pair<size_t, const LoopShared::SlotTrace*>> active;
      for (size_t s = 0; s < st->slot_traces.size(); ++s) {
        if (st->slot_traces[s].bindings > 0) {
          active.emplace_back(s, &st->slot_traces[s]);
        }
      }
      std::stable_sort(active.begin(), active.end(),
                       [](const auto& a, const auto& b) {
                         return a.second->first_binding <
                                b.second->first_binding;
                       });
      uint64_t loop_steals = 0;
      for (const auto& [slot_id, t] : active) {
        obs::QueryTrace::Span span;
        span.name = "loop@" + std::to_string(node.offset) + "/slot" +
                    std::to_string(slot_id);
        span.kind = obs::QueryTrace::SpanKind::kSlot;
        span.begin_ns = t->begin_ns;
        span.end_ns = t->end_ns;
        span.slot = slot_id;
        span.bindings = t->bindings;
        span.steals = t->steals;
        loop_steals += t->steals;
        trace->AddSpan(std::move(span));
      }
      trace->NoteParallelTasks(submitted);
      trace->NoteSteals(loop_steals);
    }
    if (submit_error != nullptr) std::rethrow_exception(submit_error);
    if (st->thrown != nullptr) std::rethrow_exception(st->thrown);
    const bool has_event =
        st->event_index != std::numeric_limits<size_t>::max();
    if (has_event && st->event_is_error) return st->error;
    // Merge worker sub-overlays up to and including the event binding (a
    // quantifier's serial loop evaluates its decider fully, then stops;
    // overlays speculatively created past it are discarded here and die
    // with their shared_ptrs).
    std::stable_sort(st->overlays.begin(), st->overlays.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [binding_index, overlay] : st->overlays) {
      if (binding_index > st->event_index) break;
      own_->push_back(overlay);
      view_->AddOverlay(std::move(overlay));
    }
    if (st->quantified) {
      return Sequence{Item::Boolean(has_event ? !node.every : node.every)};
    }
    Sequence out;
    size_t total = 0;
    for (const Sequence& result : st->results) total += result.size();
    out.reserve(total);
    for (Sequence& result : st->results) {
      std::move(result.begin(), result.end(), std::back_inserter(out));
    }
    return out;
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
    for (; step_index < path.steps.size(); ++step_index) {
      const PathStep& step = path.steps[step_index];
      // Predicates are positional *per context node* (XPath semantics):
      // each context's step result is ordered and filtered on its own, and
      // only then merged. Every producer declares an xpath::Ordering for its
      // run; the declared guarantee replaces the former unconditional
      // sort+dedup with the cheapest sufficient fix-up — nothing, a linear
      // dedup, or (across runs) a linear k-way merge.
      std::vector<Sequence> runs;
      runs.reserve(current.size());
      for (const Item& item : current) {
        Sequence from_item;
        xpath::Ordering ordering = xpath::Ordering::kUnordered;
        MHX_RETURN_IF_ERROR(
            EvalStep(item, step, path.offset, &from_item, &ordering));
        switch (ordering) {
          case xpath::Ordering::kDocOrderNoDupes:
            NoteSortSkipped(from_item);
            break;
          case xpath::Ordering::kSortedMayDupe:
            DedupSorted(&from_item);
            NoteSortSkipped(from_item);
            break;
          case xpath::Ordering::kUnordered:
            SortAndDedup(&from_item);
            break;
        }
        // Predicates only filter, so document order and uniqueness survive.
        MHX_RETURN_IF_ERROR(ApplyPredicates(step, &from_item));
        runs.push_back(std::move(from_item));
      }
      current = MergeDocOrderedRuns(std::move(runs));
    }
    return current;
  }

  // Merges per-context runs — each in document order without duplicates —
  // into one such sequence. One run passes through untouched; k runs pay a
  // heap-driven linear merge, whose raw output is kSortedMayDupe (distinct
  // contexts can reach the same node) until the final linear dedup. Both
  // paths replace the step loop's former full sort.
  Sequence MergeDocOrderedRuns(std::vector<Sequence> runs) {
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [](const Sequence& s) { return s.empty(); }),
               runs.end());
    if (runs.empty()) return {};
    if (runs.size() == 1) {
      NoteSortSkipped(runs.front());
      return std::move(runs.front());
    }
    size_t total = 0;
    for (const Sequence& run : runs) total += run.size();
    struct Cursor {
      size_t run;
      size_t pos;
    };
    auto greater = [this, &runs](const Cursor& a, const Cursor& b) {
      return DocOrderKey(runs[b.run][b.pos]) <
             DocOrderKey(runs[a.run][a.pos]);
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
        greater);
    for (size_t r = 0; r < runs.size(); ++r) heap.push(Cursor{r, 0});
    Sequence merged;
    merged.reserve(total);
    while (!heap.empty()) {
      Cursor cursor = heap.top();
      heap.pop();
      merged.push_back(std::move(runs[cursor.run][cursor.pos]));
      if (++cursor.pos < runs[cursor.run].size()) heap.push(cursor);
    }
    DedupSorted(&merged);
    NoteSortSkipped(merged);
    return merged;
  }

  // Counts a skipped sort+dedup pass. Singletons and empty sequences do not
  // count — their sort was free anyway, and counting them would inflate the
  // benchmark counter with vacuous wins.
  void NoteSortSkipped(const Sequence& items) const {
    if (items.size() < 2) return;
    engine_->counters_->sorts_skipped.Add();
  }

  Status ApplyPredicates(const PathStep& step, Sequence* items) {
    // Under kAuto, run the planner's cheapest-first order when it recorded
    // one (only for all-statically-boolean predicate lists, so the
    // positional branch below is unreachable for a reordered step).
    const std::vector<uint16_t>* plan_order = nullptr;
    if (options_->plan_mode == PlanMode::kAuto && plan_ != nullptr) {
      auto it = plan_->steps.find(&step);
      if (it != plan_->steps.end() && !it->second.predicate_order.empty()) {
        plan_order = &it->second.predicate_order;
      }
    }
    for (size_t p = 0; p < step.predicates.size(); ++p) {
      const auto& pred =
          step.predicates[plan_order != nullptr ? (*plan_order)[p] : p];
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

  // Evaluates one axis step from one context item, declaring via `ordering`
  // what the produced run guarantees (filters below never disturb an
  // already-established order, they only remove items).
  Status EvalStep(const Item& item, const PathStep& step, size_t offset,
                  Sequence* out, xpath::Ordering* ordering) {
    if (step.test == PathStep::Test::kLeaf) {
      return EvalLeafStep(item, step, offset, out, ordering);
    }
    xpath::NodeTest test = step.test == PathStep::Test::kName
                               ? xpath::NodeTest::Name(step.name)
                               : xpath::NodeTest::Any();
    std::vector<goddag::NodeId> ids;
    if (item.kind == Item::Kind::kNode) {
      // One uniform read through the overlay view: base index (or arcs)
      // plus overlay scan, normalised to document order by the evaluator.
      // Extended axes run the planned strategy — indexed probe vs.
      // vectorized scan, name test pushed into either.
      if (xpath::IsExtendedAxis(step.axis)) {
        const xpath::StepExec exec = StepExecFor(step);
        ids = axes_.EvaluatePlanned(*view_, item.node, step.axis, test, exec);
        NotePlannedStep(exec, test);
      } else {
        ids = axes_.Evaluate(*view_, item.node, step.axis, test);
      }
      *ordering = xpath::AxisEvaluator::ResultOrdering(step.axis);
    } else if (item.kind == Item::Kind::kLeaf) {
      MHX_RETURN_IF_ERROR(
          LeafContextStep(item.range, step, test, offset, &ids));
      // RangeIndex traversal (plus any overlay tail) comes back in index
      // order, not document order.
      *ordering = xpath::Ordering::kUnordered;
    } else {
      return EvalErrorAt(offset, "path step over an atomic value");
    }
    if (step.test == PathStep::Test::kAnyElement) {
      ids.erase(std::remove_if(ids.begin(), ids.end(),
                               [&](goddag::NodeId id) {
                                 return view_->node(id).kind !=
                                        goddag::GNodeKind::kElement;
                               }),
                ids.end());
    }
    out->reserve(out->size() + ids.size());
    for (goddag::NodeId id : ids) out->push_back(Item::Node(id));
    return OkStatus();
  }

  // Resolves the physical execution of one extended-axis step: the forced
  // modes pin a strategy (and never push a name test down — their point is
  // exercising one pure strategy), kAuto reads the planner's per-step
  // annotation, defaulting to an un-pushed indexed probe for steps the
  // plan does not cover (e.g. evaluation without a plan).
  xpath::StepExec StepExecFor(const PathStep& step) const {
    switch (options_->plan_mode) {
      case PlanMode::kForceNaive:
        return {/*use_index=*/false, /*pushdown=*/false};
      case PlanMode::kForceIndexed:
        return {/*use_index=*/true, /*pushdown=*/false};
      case PlanMode::kAuto:
        break;
    }
    if (plan_ != nullptr) {
      auto it = plan_->steps.find(&step);
      if (it != plan_->steps.end()) return it->second.exec;
    }
    return {/*use_index=*/true, /*pushdown=*/false};
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

  // Axis evaluation from a leaf context. A leaf belongs to every hierarchy,
  // so `ancestor` coincides with `xancestor` (nodes whose range contains the
  // leaf); the ordering and overlap axes reduce to range queries. A node
  // properly overlapping a leaf cannot exist (its boundary would have split
  // the leaf), so `overlapping` is always empty — computed anyway for
  // uniformity. Output comes back filtered by `test` (inside the
  // probe/kernel when pushed down), so callers never re-test.
  Status LeafContextStep(const TextRange& range, const PathStep& step,
                         const xpath::NodeTest& test, size_t offset,
                         std::vector<goddag::NodeId>* ids) {
    const xpath::Axis axis = step.axis;
    xpath::Axis extended;
    switch (axis) {
      case xpath::Axis::kAncestor:
      case xpath::Axis::kAncestorOrSelf:
      case xpath::Axis::kXAncestor:
        extended = xpath::Axis::kXAncestor;
        break;
      case xpath::Axis::kXDescendant:
        extended = xpath::Axis::kXDescendant;
        break;
      case xpath::Axis::kOverlapping:
        extended = xpath::Axis::kOverlapping;
        break;
      case xpath::Axis::kFollowing:
      case xpath::Axis::kXFollowing:
        extended = xpath::Axis::kXFollowing;
        break;
      case xpath::Axis::kPreceding:
      case xpath::Axis::kXPreceding:
        extended = xpath::Axis::kXPreceding;
        break;
      default:
        return EvalErrorAt(offset, "axis " +
                                       std::string(xpath::AxisName(axis)) +
                                       " cannot start from a leaf");
    }
    const xpath::StepExec exec = StepExecFor(step);
    *ids = axes_.EvaluateRangePlanned(*view_, range, extended, test, exec);
    NotePlannedStep(exec, test);
    return OkStatus();
  }

  Status EvalLeafStep(const Item& item, const PathStep& step, size_t offset,
                      Sequence* out, xpath::Ordering* ordering) {
    // Every production below emits leaves ascending by range with no
    // repeats: the shared leaf partition is sorted, and child-axis
    // filtering only removes items.
    *ordering = xpath::Ordering::kDocOrderNoDupes;
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
    if (range.empty()) return;
    // The evaluation's leaf partition: base cells re-split at every overlay
    // element boundary.
    const std::vector<goddag::Leaf>& leaves = view_->leaves();
    auto it = std::lower_bound(
        leaves.begin(), leaves.end(), range.begin,
        [](const goddag::Leaf& leaf, size_t pos) {
          return leaf.range.begin < pos;
        });
    // Node boundaries are leaf boundaries, so leaves tile `range` exactly.
    for (; it != leaves.end() && it->range.end <= range.end; ++it) {
      out->push_back(Item::Leaf(it->range));
    }
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
  // items) in an already document-ordered sequence — the linear fix-up for
  // xpath::Ordering::kSortedMayDupe.
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

  // Full normalisation for xpath::Ordering::kUnordered producers.
  void SortAndDedup(Sequence* items) const {
    std::sort(items->begin(), items->end(),
              [this](const Item& a, const Item& b) {
                return DocOrderKey(a) < DocOrderKey(b);
              });
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
    // Parallel workers hit the shared PlanCache concurrently (matches()
    // and analyze-string() are parallel-safe); cached programs are
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
  // view — the evaluation's for the coordinator, a worker's forked view
  // inside a parallel loop — so the base document is untouched, concurrent
  // evaluations and sibling workers need no exclusion, and teardown is
  // dropping the overlay. Returns the result wrapper element, whose leaf()
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
    for (const regex::Regex::Match& m : re->FindAll(text)) {
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
    auto overlay = goddag::GoddagOverlay::Create(
        &view_->base(), engine_->overlay_ids_, kAnalyzeStringResultName,
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
    own_->push_back(*overlay);
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
  // This evaluator's read/write seam: for the coordinator, the
  // evaluation's root view (immutable base + kept hierarchies + own
  // overlays); for a parallel worker slot, a private view forked off the
  // coordinator's, which stays frozen while the worker runs. own_ collects
  // the overlays this evaluator materialises — the engine keeps or drops
  // the coordinator's, and a loop join migrates workers' into the
  // coordinator's list in binding order.
  goddag::OverlayView* view_;
  std::vector<std::shared_ptr<const goddag::GoddagOverlay>>* own_;
  const xpath::AxisEvaluator& axes_;
  const QueryOptions* options_;
  // The kAuto step plan for this evaluation's (expr, snapshot version) —
  // null under the forced modes (and for plan-less callers); workers
  // inherit the coordinator's, so every slot executes the same plan.
  const QueryPlan* plan_;
  // Fan-out pool; null for serial evaluation. Workers keep it so nested
  // `for` loops fan out too.
  base::ThreadPool* pool_;
  std::vector<std::pair<std::string, Sequence>> bindings_;
};

// --- Engine ----------------------------------------------------------------

Engine::Engine(const MultihierarchicalDocument* document)
    : Engine(document, nullptr, nullptr) {}

Engine::Engine(const MultihierarchicalDocument* document,
               std::shared_ptr<PlanCache> plans,
               std::shared_ptr<base::ThreadPool> shared_pool,
               std::shared_ptr<EngineCounters> counters)
    : document_(document),
      plans_(plans != nullptr ? std::move(plans)
                              : std::make_shared<PlanCache>()),
      shared_pool_(std::move(shared_pool)),
      counters_(counters != nullptr ? std::move(counters)
                                    : std::make_shared<EngineCounters>()) {}

Engine::~Engine() = default;

std::shared_ptr<const Engine::SnapshotAxes> Engine::PinAxes() {
  // Guarded: concurrent evaluations reach this; entry turnover on a new
  // published version must not race. In the steady state (no commit since
  // the last pin) the critical section is one shared_ptr copy, a version
  // compare, and a couple of loads — writers never hold cache_mu_, so
  // readers never wait on a commit here.
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::shared_ptr<const goddag::DocumentSnapshot> snap =
      document_->PinSnapshot();
  counters_->snapshot_pins.Add();
  if (axes_entry_ == nullptr || axes_entry_->snapshot != snap) {
    // The published version moved (or this is the first evaluation): bind
    // a fresh evaluator to the new snapshot. The superseded entry stays
    // alive in whatever evaluations still hold it; its rebuild tally is
    // carried over so index_rebuild_count() stays monotonic per engine.
    if (axes_entry_ != nullptr) {
      retired_rebuilds_ += axes_entry_->axes.index_rebuild_count();
    }
    axes_entry_ = std::make_shared<SnapshotAxes>(std::move(snap));
  }
  // Materialise the leaf partition and RangeIndex before any evaluation
  // can reach them: evaluation never mutates the snapshot (temporaries
  // live in overlays), so after this both are plain reads for any number
  // of concurrent evaluations. Writer-prebuilt snapshots make both no-ops;
  // the lazily indexed initial version builds here once.
  axes_entry_->snapshot->goddag().leaves();
  axes_entry_->axes.index();
  // Statistics follow the same build-once discipline as the index:
  // writer-prebuilt snapshots arrive with them, the initial version builds
  // them here exactly once, and afterwards the planner and the scan
  // kernels read them lock-free.
  axes_entry_->snapshot->EnsureStats();
  // Fold new AxisEvaluator rebuilds into the shared counter as a delta, so
  // the registry total is monotonic across engines sharing one
  // EngineCounters (index_rebuild_count() stays per-engine).
  const size_t rebuilds =
      retired_rebuilds_ + axes_entry_->axes.index_rebuild_count();
  if (rebuilds > reported_rebuilds_) {
    counters_->index_rebuilds.Add(rebuilds - reported_rebuilds_);
    reported_rebuilds_ = rebuilds;
  }
  return axes_entry_;
}

size_t Engine::index_rebuild_count() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return retired_rebuilds_ + (axes_entry_ == nullptr
                                  ? 0
                                  : axes_entry_->axes.index_rebuild_count());
}

size_t Engine::temporary_hierarchy_count() const {
  std::lock_guard<std::mutex> lock(kept_->mu);
  return kept_->overlays.size();
}

std::vector<std::shared_ptr<const goddag::GoddagOverlay>>
Engine::SnapshotKept() const {
  std::lock_guard<std::mutex> lock(kept_->mu);
  return kept_->overlays;
}

StatusOr<const Expr*> Engine::PreparedQuery(std::string_view query) {
  return plans_->Prepare(query);
}

base::ThreadPool* Engine::pool(unsigned threads) {
  if (threads <= 1) return nullptr;
  // A corpus-injected pool is shared by every engine in the service; it is
  // never grown — work-stealing joins help drain, so evaluation is correct
  // (just less parallel) when the pool is smaller than `threads`.
  if (shared_pool_ != nullptr) return shared_pool_.get();
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (pool_ == nullptr || pool_->size() < threads) {
    // Never destroy a pool another evaluation may still be running on:
    // retire it (workers drain and idle) and keep it alive until the
    // engine goes away.
    if (pool_ != nullptr) retired_pools_.push_back(std::move(pool_));
    pool_ = std::make_unique<base::ThreadPool>(threads);
  }
  return pool_.get();
}

StatusOr<Engine::EvaluationOutput> Engine::EvaluateInternal(
    std::string_view query, const QueryOptions& options) {
  obs::QueryTrace* trace = options.trace;
  const Expr* expr = nullptr;
  {
    // Stage spans are consecutive at this level — each begins where the
    // previous ended — so a trace's kStage spans tile the call's wall
    // time (see obs/trace.h).
    obs::StageTimer stage(trace, "plan_lookup");
    MHX_ASSIGN_OR_RETURN(expr, PreparedQuery(query));
  }
  // threads: 0 and 1 are the same request — serial evaluation. Normalising
  // here keeps every later decision (pool creation, ShouldParallelize,
  // slot sizing) on one code path with identical plans and counters.
  QueryOptions normalized = options;
  if (normalized.threads == 0) normalized.threads = 1;
  base::ThreadPool* fan_out_pool = pool(normalized.threads);
  std::shared_ptr<const SnapshotAxes> pinned;
  std::shared_ptr<const QueryPlan> plan;
  {
    obs::StageTimer stage(trace, "index_materialize");
    // Pin the MVCC snapshot for the whole evaluation: everything below —
    // view, axes, leaves, index — reads exactly this version, regardless
    // of writers committing successors meanwhile.
    pinned = PinAxes();
    if (normalized.plan_mode == PlanMode::kAuto) {
      // The step plan for this (expr, document, version); cached, so in
      // the steady state this is one map lookup and a replan only happens
      // on the first evaluation after a commit. The plan annotates the
      // pinned snapshot's statistics — stats follow the snapshot, never
      // the head, so a stale plan is impossible by construction.
      const uint64_t version = pinned->snapshot->version();
      plan = plans_->PlanFor(expr, document_, version, [&] {
        return PlanQuery(expr->root(), pinned->snapshot->stats(), version);
      });
    }
  }
  // The evaluation's private read seam: the immutable pinned snapshot,
  // every kept temporary hierarchy, and (as they are created) the
  // evaluation's own overlays. No lock is held while evaluating —
  // concurrent evaluations, analyze-string() included, only share
  // immutable state.
  goddag::OverlayView view(&pinned->snapshot->goddag());
  for (auto& overlay : SnapshotKept()) view.AddOverlay(std::move(overlay));
  std::vector<std::shared_ptr<const goddag::GoddagOverlay>> own;
  Evaluator evaluator(this, &pinned->axes, &normalized, plan.get(),
                      fan_out_pool, &view, &own);
  StatusOr<Evaluator::Sequence> result = [&] {
    obs::StageTimer stage(trace, "evaluate");
    return evaluator.Evaluate(expr->root());
  }();
  // On error the overlays in `own` (and the view) are dropped right here —
  // that is the entire teardown.
  if (!result.ok()) return result.status();
  // Serialise before returning: node items may live in `own` overlays,
  // which the caller may drop.
  obs::StageTimer stage(trace, "serialize");
  EvaluationOutput out;
  out.items.reserve(result->size());
  for (const Evaluator::Item& item : *result) {
    out.items.push_back(evaluator.SerializeItem(item));
  }
  out.temporaries = std::move(own);
  out.snapshot = pinned->snapshot;
  return out;
}

StatusOr<std::string> Engine::Evaluate(std::string_view query) {
  return Evaluate(query, QueryOptions());
}

StatusOr<std::string> Engine::ExplainPlan(std::string_view query) {
  MHX_ASSIGN_OR_RETURN(const Expr* expr, PreparedQuery(query));
  std::shared_ptr<const SnapshotAxes> pinned = PinAxes();
  const uint64_t version = pinned->snapshot->version();
  std::shared_ptr<const QueryPlan> plan =
      plans_->PlanFor(expr, document_, version, [&] {
        return PlanQuery(expr->root(), pinned->snapshot->stats(), version);
      });
  return ExplainQueryPlan(expr->root(), *plan, pinned->snapshot->stats());
}

StatusOr<std::string> Engine::Evaluate(std::string_view query,
                                       const QueryOptions& options) {
  MHX_ASSIGN_OR_RETURN(EvaluationOutput output,
                       EvaluateInternal(query, options));
  std::string out;
  for (const std::string& item : output.items) out += item;
  return out;  // output.temporaries dropped here — the overlays are gone
}

StatusOr<KeptEvaluation> Engine::EvaluateKeepingTemporaries(
    std::string_view query) {
  return EvaluateKeepingTemporaries(query, QueryOptions());
}

StatusOr<KeptEvaluation> Engine::EvaluateKeepingTemporaries(
    std::string_view query, const QueryOptions& options) {
  MHX_ASSIGN_OR_RETURN(EvaluationOutput output,
                       EvaluateInternal(query, options));
  if (!output.temporaries.empty()) {
    std::lock_guard<std::mutex> lock(kept_->mu);
    kept_->overlays.insert(kept_->overlays.end(),
                           output.temporaries.begin(),
                           output.temporaries.end());
  }
  KeptEvaluation kept;
  kept.items = std::move(output.items);
  kept.temporaries = KeptTemporaries(kept_, std::move(output.temporaries),
                                     std::move(output.snapshot));
  return kept;
}

void Engine::CleanupTemporaries() {
  std::lock_guard<std::mutex> lock(kept_->mu);
  // Evaluations that already snapshotted the registry keep their overlay
  // references (shared_ptr) and finish safely; new evaluations no longer
  // see the hierarchies.
  kept_->overlays.clear();
}

void KeptTemporaries::Release() {
  if (auto registry = registry_.lock()) {
    std::lock_guard<std::mutex> lock(registry->mu);
    for (const auto& overlay : overlays_) {
      auto& kept = registry->overlays;
      kept.erase(std::remove(kept.begin(), kept.end(), overlay), kept.end());
    }
  }
  overlays_.clear();
  registry_.reset();
  // Unpin last: the overlays above referenced the snapshot's base goddag.
  snapshot_.reset();
}

}  // namespace mhx::xquery
