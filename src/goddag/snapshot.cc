// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/snapshot.h"

#include <atomic>
#include <utility>

namespace mhx::goddag {

namespace {
std::atomic<size_t> g_live_snapshots{0};
}  // namespace

DocumentSnapshot::DocumentSnapshot(std::shared_ptr<const KyGoddag> goddag,
                                   uint64_t version,
                                   std::unique_ptr<const RangeIndex> index,
                                   std::unique_ptr<const SnapshotStats> stats,
                                   std::shared_ptr<const void> keepalive)
    : goddag_(std::move(goddag)),
      version_(version),
      index_(std::move(index)),
      stats_(std::move(stats)),
      keepalive_(std::move(keepalive)) {
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

DocumentSnapshot::~DocumentSnapshot() {
  g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

std::shared_ptr<const DocumentSnapshot> DocumentSnapshot::Create(
    std::shared_ptr<const KyGoddag> goddag, uint64_t version) {
  // Force the lazy leaf partition while the goddag is still quiesced:
  // readers of a published snapshot must only ever hit plain reads.
  goddag->leaves();
  auto index = std::make_unique<const RangeIndex>(goddag.get());
  auto stats = std::make_unique<const SnapshotStats>(goddag.get());
  return std::shared_ptr<const DocumentSnapshot>(
      new DocumentSnapshot(std::move(goddag), version, std::move(index),
                           std::move(stats), nullptr));
}

std::shared_ptr<const DocumentSnapshot> DocumentSnapshot::Adopt(
    std::shared_ptr<const KyGoddag> goddag, uint64_t version,
    std::unique_ptr<const RangeIndex> index,
    std::unique_ptr<const SnapshotStats> stats,
    std::shared_ptr<const void> keepalive) {
  goddag->leaves();
  return std::shared_ptr<const DocumentSnapshot>(
      new DocumentSnapshot(std::move(goddag), version, std::move(index),
                           std::move(stats), std::move(keepalive)));
}

size_t DocumentSnapshot::live_count() {
  return g_live_snapshots.load(std::memory_order_relaxed);
}

}  // namespace mhx::goddag
