// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/snapshot.h"

#include <atomic>
#include <utility>

namespace mhx::goddag {

namespace {
std::atomic<size_t> g_live_snapshots{0};
}  // namespace

DocumentSnapshot::DocumentSnapshot(std::shared_ptr<const KyGoddag> goddag,
                                   uint64_t version)
    : goddag_(std::move(goddag)), version_(version) {
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

DocumentSnapshot::~DocumentSnapshot() {
  g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

std::shared_ptr<const DocumentSnapshot> DocumentSnapshot::Create(
    std::shared_ptr<const KyGoddag> goddag, uint64_t version,
    bool prebuild_index) {
  // Force the lazy leaf partition while the goddag is still quiesced:
  // readers of a published snapshot must only ever hit plain reads.
  goddag->leaves();
  auto snapshot = std::shared_ptr<const DocumentSnapshot>(
      new DocumentSnapshot(std::move(goddag), version));
  if (prebuild_index) {
    snapshot->EnsureIndex();
    // The planner's statistics ride the same writer-pays discipline as the
    // index: prebuilt before publication, so readers replanning on the new
    // version never block on a stats build.
    snapshot->EnsureStats();
  }
  return snapshot;
}

std::shared_ptr<const DocumentSnapshot> DocumentSnapshot::Adopt(
    std::shared_ptr<const KyGoddag> goddag, uint64_t version,
    std::unique_ptr<const RangeIndex> index,
    std::unique_ptr<const SnapshotStats> stats,
    std::shared_ptr<const void> keepalive) {
  goddag->leaves();
  auto snapshot =
      std::shared_ptr<DocumentSnapshot>(new DocumentSnapshot(std::move(goddag), version));
  snapshot->index_ = std::move(index);
  snapshot->stats_ = std::move(stats);
  snapshot->keepalive_ = std::move(keepalive);
  // Burn both once-flags so EnsureIndex()/EnsureStats() are cheap no-ops
  // that report "not built here" — adopted snapshots never rebuild.
  std::call_once(snapshot->index_once_, [] {});
  std::call_once(snapshot->stats_once_, [] {});
  return snapshot;
}

bool DocumentSnapshot::EnsureIndex() const {
  bool built = false;
  std::call_once(index_once_, [&] {
    index_ = std::make_unique<const RangeIndex>(goddag_.get());
    built = true;
  });
  return built;
}

const RangeIndex& DocumentSnapshot::index() const {
  EnsureIndex();
  return *index_;
}

void DocumentSnapshot::EnsureStats() const {
  std::call_once(stats_once_, [&] {
    stats_ = std::make_unique<const SnapshotStats>(goddag_.get());
  });
}

const SnapshotStats& DocumentSnapshot::stats() const {
  EnsureStats();
  return *stats_;
}

size_t DocumentSnapshot::live_count() {
  return g_live_snapshots.load(std::memory_order_relaxed);
}

}  // namespace mhx::goddag
