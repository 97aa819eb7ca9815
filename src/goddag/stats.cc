// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/stats.h"

namespace mhx::goddag {

namespace {
// floor(log2(length)), with length 0 mapped to bucket 0.
size_t LengthBucket(size_t length) {
  size_t bucket = 0;
  while (length > 1) {
    length >>= 1;
    ++bucket;
  }
  return bucket;
}
}  // namespace

SnapshotStats::SnapshotStats(const KyGoddag* goddag) {
  text_size_ = goddag->base_text().size();
  node_table_size_ = goddag->node_table_size();
  for (HierarchyId h = 0; h < goddag->hierarchy_table_size(); ++h) {
    if (goddag->hierarchy(h).active) ++hierarchy_count_;
  }
  per_hierarchy_.resize(goddag->hierarchy_table_size(), 0);
  std::vector<uint32_t> node_name_keys(node_table_size_, kNoNameKey);
  std::vector<uint32_t> soa_begin, soa_end, soa_name_key;
  std::vector<NodeId> soa_id;
  length_log2_.assign(33, 0);
  for (NodeId id = 0; id < node_table_size_; ++id) {
    const GNode& node = goddag->node(id);
    if (node.kind != GNodeKind::kElement) continue;
    ++element_count_;
    if (node.hierarchy < per_hierarchy_.size()) {
      ++per_hierarchy_[node.hierarchy];
    }
    auto [it, inserted] = name_keys_.try_emplace(
        node.name, static_cast<uint32_t>(name_counts_.size()));
    if (inserted) name_counts_.push_back(0);
    ++name_counts_[it->second];
    node_name_keys[id] = it->second;
    total_range_length_ += node.range.length();
    ++length_log2_[LengthBucket(node.range.length())];
    soa_begin.push_back(static_cast<uint32_t>(node.range.begin));
    soa_end.push_back(static_cast<uint32_t>(node.range.end));
    soa_name_key.push_back(it->second);
    soa_id.push_back(id);
  }
  node_name_keys_ = base::ArrayRef<uint32_t>(std::move(node_name_keys));
  soa_.begin = base::ArrayRef<uint32_t>(std::move(soa_begin));
  soa_.end = base::ArrayRef<uint32_t>(std::move(soa_end));
  soa_.name_key = base::ArrayRef<uint32_t>(std::move(soa_name_key));
  soa_.id = base::ArrayRef<NodeId>(std::move(soa_id));
}

uint32_t SnapshotStats::name_key(std::string_view name) const {
  auto it = name_keys_.find(std::string(name));
  return it == name_keys_.end() ? kNoNameKey : it->second;
}

size_t SnapshotStats::name_count(std::string_view name) const {
  const uint32_t key = name_key(name);
  return key == kNoNameKey ? 0 : name_counts_[key];
}

}  // namespace mhx::goddag
