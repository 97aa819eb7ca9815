// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/plan_cache.h"

#include <functional>
#include <utility>

namespace mhx::xquery {

PlanCache::Shard& PlanCache::ShardFor(std::string_view key) {
  return shards_[std::hash<std::string_view>{}(key) % kShardCount];
}

StatusOr<const Expr*> PlanCache::Prepare(std::string_view query) {
  Shard& shard = ShardFor(query);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.plans.find(query);
    if (it != shard.plans.end()) {
      hits_.Add();
      return it->second->value.get();
    }
  }
  auto parsed = ParseQuery(query);  // outside the lock
  if (!parsed.ok()) return parsed.status();
  misses_.Add();
  std::lock_guard<std::mutex> lock(shard.mu);
  return internal::StringCacheFindOrEmplace(shard.plans, std::string(query),
                                            std::move(parsed).value())
      .get();
}

StatusOr<const regex::Regex*> PlanCache::CompileRegex(
    std::string_view pattern) {
  Shard& shard = ShardFor(pattern);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.regexes.find(pattern);
    if (it != shard.regexes.end()) {
      regex_hits_.Add();
      return &it->second->value;
    }
  }
  auto compiled = regex::Regex::Compile(pattern);  // outside the lock
  if (!compiled.ok()) return compiled.status();
  regex_misses_.Add();
  std::lock_guard<std::mutex> lock(shard.mu);
  const size_t cached = shard.regexes.size();
  const regex::Regex& re = internal::StringCacheFindOrEmplace(
      shard.regexes, std::string(pattern), std::move(compiled).value());
  if (shard.regexes.size() > cached && !re.has_dfa()) {
    regex_dfa_fallbacks_.Add();
  }
  return &re;
}

std::shared_ptr<const QueryPlan> PlanCache::PlanFor(
    const Expr* expr, const void* doc_key, uint64_t version,
    const std::function<QueryPlan()>& build) {
  ExprPlans* plans;
  {
    std::lock_guard<std::mutex> lock(annotations_mu_);
    auto& slot = annotations_[expr];
    if (slot == nullptr) slot = std::make_unique<ExprPlans>();
    plans = slot.get();
  }
  std::lock_guard<std::mutex> lock(plans->mu);
  auto& entry = plans->by_doc[doc_key];
  if (entry.second == nullptr || entry.first != version) {
    // Building under the per-expr lock serialises racing replans of the
    // same expr so each commit pays at most one planning pass per document.
    entry = {version, std::make_shared<const QueryPlan>(build())};
    plan_replans_.Add();
  }
  return entry.second;
}

size_t PlanCache::plan_count() const {
  size_t count = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    count += shards_[s].plans.size();
  }
  return count;
}

}  // namespace mhx::xquery
