// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace mhx::obs {

void QueryTrace::AddStage(std::string_view name, uint64_t begin_ns,
                          uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), begin_ns, end_ns});
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
           std::to_string((span.end_ns - span.begin_ns) / 1000) + "us\n";
  }
  return out;
}

}  // namespace mhx::obs
