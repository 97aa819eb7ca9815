// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Per-query stage tracing: a QueryTrace rides through QueryOptions and
// collects monotonic-clock spans for each stage of a query's life —
// parse, plan-cache lookup, admission wait, document build, index
// materialisation, evaluation, serialisation — plus, when the query fans
// out, one span per parallel-loop slot with the slot's binding count.
//
// Contract:
//   * Zero cost when absent. QueryOptions::trace defaults to nullptr and
//     every instrumentation site is gated on that pointer; an untraced
//     query pays exactly one branch per site, no clock reads, no
//     allocation, no locks.
//   * Thread-safe when present. AddSpan() is mutex-guarded (only traced
//     queries pay it); parallel-loop slot spans are written slot-private
//     inside the loop and merged by the coordinator at the join, sorted
//     by each slot's first binding index, so a traced parallel query is
//     TSan-clean and its span list is deterministic given which slot
//     claimed which bindings.
//
// Span model (see DESIGN.md "Observability"): `kind == kStage` spans are
// the top-level pipeline — consecutive, non-overlapping, and together
// covering nearly the query's wall time (the gaps are map lookups and
// option plumbing). `kind == kSlot` spans are per-slot evaluation detail
// inside the "evaluate" stage and do overlap each other by design —
// that's the parallelism being shown.

#ifndef MHX_OBS_TRACE_H_
#define MHX_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mhx::obs {

class QueryTrace {
 public:
  enum class SpanKind {
    kStage,  // one top-level pipeline stage; stages never overlap
    kSlot,   // one worker slot's share of a parallel loop
  };

  struct Span {
    std::string name;       // "parse", "evaluate", "loop@12/slot3", ...
    SpanKind kind = SpanKind::kStage;
    uint64_t begin_ns = 0;  // on this trace's clock (0 = construction)
    uint64_t end_ns = 0;
    // kSlot attribution: which slot, how many bindings it claimed.
    uint64_t slot = 0;
    uint64_t bindings = 0;
  };

  QueryTrace() : epoch_(std::chrono::steady_clock::now()) {}
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  // Monotonic nanoseconds since this trace was constructed.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Thread-safe; spans() returns them in insertion order.
  void AddSpan(Span span);
  void AddStage(std::string_view name, uint64_t begin_ns, uint64_t end_ns);

  std::vector<Span> spans() const;

  // Per-query total accumulated at parallel-loop joins (relaxed; nested
  // loops join on worker threads).
  void NoteParallelTasks(uint64_t n) {
    parallel_tasks_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t parallel_tasks() const {
    return parallel_tasks_.load(std::memory_order_relaxed);
  }

  // One line per span, sorted by begin time: name, [begin..end] in µs,
  // duration, and slot attribution where present.
  std::string DebugString() const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> parallel_tasks_{0};
};

// Records one kStage span over its scope. A null trace makes construction
// and destruction a branch each — the zero-cost-when-disabled contract.
class StageTimer {
 public:
  StageTimer(QueryTrace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) {
      name_ = name;
      begin_ns_ = trace_->NowNs();
    }
  }
  ~StageTimer() {
    if (trace_ != nullptr) {
      trace_->AddStage(name_, begin_ns_, trace_->NowNs());
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  QueryTrace* trace_;
  const char* name_ = "";
  uint64_t begin_ns_ = 0;
};

}  // namespace mhx::obs

#endif  // MHX_OBS_TRACE_H_
