// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace mhx::obs {

void QueryTrace::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void QueryTrace::AddStage(std::string_view name, uint64_t begin_ns,
                          uint64_t end_ns) {
  Span span;
  span.name = std::string(name);
  span.kind = SpanKind::kStage;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  AddSpan(std::move(span));
}

std::vector<QueryTrace::Span> QueryTrace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string QueryTrace::DebugString() const {
  std::vector<Span> sorted = spans();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Span& a, const Span& b) {
                     return a.begin_ns < b.begin_ns;
                   });
  std::string out;
  for (const Span& span : sorted) {
    out += span.name + " [" + std::to_string(span.begin_ns / 1000) + ".." +
           std::to_string(span.end_ns / 1000) + "]us dur=" +
           std::to_string((span.end_ns - span.begin_ns) / 1000) + "us";
    if (span.kind == SpanKind::kSlot) {
      out += " (slot " + std::to_string(span.slot) + ", bindings " +
             std::to_string(span.bindings) + ")";
    }
    out += "\n";
  }
  const uint64_t tasks = parallel_tasks();
  if (tasks > 0) out += "parallel_tasks=" + std::to_string(tasks) + "\n";
  return out;
}

}  // namespace mhx::obs
