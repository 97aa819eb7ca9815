// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Per-query stage tracing: a QueryTrace rides through QueryOptions and
// collects monotonic-clock spans for each stage of a query's life —
// parse, plan-cache lookup, admission wait, document build, snapshot pin
// and step plan (the `index_materialize` stage), evaluation,
// serialisation.
//
// Contract:
//   * Zero cost when absent. QueryOptions::trace defaults to nullptr and
//     every instrumentation site is gated on that pointer; an untraced
//     query pays exactly one branch per site, no clock reads, no
//     allocation, no locks.
//   * Thread-safe when present. AddStage() is mutex-guarded (only traced
//     queries pay it), so one trace may be shared by concurrent callers.
//
// Span model (see DESIGN.md "Observability"): every span is one top-level
// pipeline stage. A query's stages are consecutive and non-overlapping,
// and together cover nearly its wall time (the gaps are map lookups and
// option plumbing).

#ifndef MHX_OBS_TRACE_H_
#define MHX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mhx::obs {

class QueryTrace {
 public:
  // One pipeline stage; stages never overlap.
  struct Span {
    std::string name;       // "parse", "evaluate", ...
    uint64_t begin_ns = 0;  // on this trace's clock (0 = construction)
    uint64_t end_ns = 0;
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
  void AddStage(std::string_view name, uint64_t begin_ns, uint64_t end_ns);

  std::vector<Span> spans() const;

  // One line per span, sorted by begin time: name, [begin..end] in µs,
  // and duration.
  std::string DebugString() const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records one stage span over its scope. A null trace makes construction
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
