// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// DocumentSnapshot: one immutable published version of a document — the
// KyGoddag (node table, hierarchy arcs, materialised leaf partition) plus
// its RangeIndex and SnapshotStats — the unit of the MVCC protocol described
// in CONCURRENCY.md. Readers pin the current snapshot (a shared_ptr copy
// under the document's epoch mutex) for an entire evaluation; writers clone
// the head goddag copy-on-write, apply their mutations off to the side, and
// publish a successor snapshot by swapping the document's pointer. No
// reader ever blocks on a writer: pin and publish are both O(1) pointer
// operations, and a snapshot — goddag, index and stats — is never mutated
// after publication.
//
// Retirement: a snapshot dies when its last reference drops — the document
// repointing to a successor or the last pinned evaluation returning,
// whichever comes last. live_count() exposes the process-wide population
// for the `mhx_goddag_live_snapshots` gauge and the retirement tests.
//
// Completeness: a snapshot is complete when published. Create builds the
// leaf partition, the RangeIndex and the SnapshotStats before returning
// (Builder::Build's version 1 and every Writer::Commit pay there); Adopt
// takes both prebuilt from an arena load. Readers only ever read.
//
// Thread-safety: every method is safe to call concurrently after Create or
// Adopt returns.

#ifndef MHX_GODDAG_SNAPSHOT_H_
#define MHX_GODDAG_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "goddag/stats.h"

namespace mhx::goddag {

class DocumentSnapshot {
 public:
  // Publishes `goddag` as version `version`: forces the leaf partition
  // and builds the RangeIndex and SnapshotStats, so readers never build
  // anything. `goddag` must be quiesced: no concurrent access during Create.
  static std::shared_ptr<const DocumentSnapshot> Create(
      std::shared_ptr<const KyGoddag> goddag, uint64_t version);

  // Publishes a snapshot whose index and stats were materialised elsewhere
  // — the mmap-adoption path of goddag/persist.h, where both borrow arrays
  // straight out of an on-disk arena. `keepalive` is retained for the
  // snapshot's lifetime and keeps that backing storage (the mapping or the
  // loaded buffer) valid. `goddag` must be quiesced.
  static std::shared_ptr<const DocumentSnapshot> Adopt(
      std::shared_ptr<const KyGoddag> goddag, uint64_t version,
      std::unique_ptr<const RangeIndex> index,
      std::unique_ptr<const SnapshotStats> stats,
      std::shared_ptr<const void> keepalive);

  ~DocumentSnapshot();

  DocumentSnapshot(const DocumentSnapshot&) = delete;
  DocumentSnapshot& operator=(const DocumentSnapshot&) = delete;

  const KyGoddag& goddag() const { return *goddag_; }
  const std::shared_ptr<const KyGoddag>& shared_goddag() const {
    return goddag_;
  }

  // Monotonic document version, starting at 1 for Builder::Build's snapshot
  // and +1 per Writer::Commit.
  uint64_t version() const { return version_; }

  // The snapshot's RangeIndex, built before publication.
  const RangeIndex& index() const { return *index_; }

  // The snapshot's statistics block, built before publication. Stats are a
  // pure function of the snapshot's goddag: they follow this version, never
  // the document head, so a planner reading them during a concurrent
  // Writer::Commit sees exactly the statistics of the version it pinned.
  const SnapshotStats& stats() const { return *stats_; }

  // No-ops: a published snapshot is already complete. Kept only because
  // mhxbench/mhx_bench.cc:635-636 still calls them.
  void EnsureIndex() const {}
  void EnsureStats() const {}

  // Snapshots currently alive in the process (relaxed; exact once traffic
  // quiesces). Exported as the `mhx_goddag_live_snapshots` gauge.
  static size_t live_count();

 private:
  DocumentSnapshot(std::shared_ptr<const KyGoddag> goddag, uint64_t version,
                   std::unique_ptr<const RangeIndex> index,
                   std::unique_ptr<const SnapshotStats> stats,
                   std::shared_ptr<const void> keepalive);

  const std::shared_ptr<const KyGoddag> goddag_;
  const uint64_t version_;
  const std::unique_ptr<const RangeIndex> index_;
  const std::unique_ptr<const SnapshotStats> stats_;
  // Backing storage for adopted (mmap-loaded) snapshots; null otherwise.
  // Releasing a borrowing ArrayRef never touches the borrowed bytes, so
  // teardown order relative to index_/stats_ is immaterial — the mapping
  // just must live while any accessor can still run, which pinning the
  // snapshot guarantees.
  const std::shared_ptr<const void> keepalive_;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_SNAPSHOT_H_
