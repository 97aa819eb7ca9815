// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// MultihierarchicalDocument is the top-level facade of the mhx:: library:
// one base text plus any number of concurrent markup hierarchies, each given
// as an ordinary well-formed XML encoding of that text, merged into a single
// KyGODDAG. Layering (see DESIGN.md):
//
//   base/     Status, StatusOr, TextRange
//   xml/      range-annotating well-formed-XML parser
//   goddag/   KyGoddag core + DocumentSnapshot MVCC + RangeIndex lookups
//   xpath/    standard + extended (overlap-aware) axis evaluation
//   xquery/   FLWOR query engine over the extended axes + analyze-string()
//   regex/    DFA + Pike-VM regex behind matches()/analyze-string()
//
// Versioning (the full contract lives in CONCURRENCY.md): the document is a
// sequence of immutable goddag::DocumentSnapshot versions. Builder::Build
// publishes version 1; every Writer::Commit clones the head goddag
// copy-on-write, applies its queued mutations off to the side, prebuilds
// the RangeIndex, and publishes the successor atomically. Readers
// (Query, the engine) pin the current snapshot for an entire evaluation
// and never block on a writer; old versions retire when their last pin
// drops.
//
// Typical use:
//
//   mhx::MultihierarchicalDocument::Builder builder;
//   builder.SetBaseText(text);
//   builder.AddHierarchy("physical", physical_xml);
//   builder.AddHierarchy("structural", structural_xml);
//   auto doc = builder.Build();
//   if (!doc.ok()) { ... }
//   auto before = doc->Query("count(//line)");
//   auto writer = doc->NewWriter();
//   writer.AddVirtualHierarchy("damage", spans);
//   auto version = writer.Commit();   // readers of `before`'s version
//                                     // were never blocked

#ifndef MHX_DOCUMENT_H_
#define MHX_DOCUMENT_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "goddag/kygoddag.h"
#include "goddag/snapshot.h"
#include "xquery/engine.h"

namespace mhx {

// Per-query knobs (a trace); see xquery/engine.h.
using QueryOptions = xquery::QueryOptions;

// The facade described in the file comment above; CONCURRENCY.md states
// the thread-safety class of every method.
class MultihierarchicalDocument {
 public:
  // Single-threaded assembly of a new document from a base text plus XML
  // hierarchy encodings; Build() publishes version 1.
  class Builder {
   public:
    // Unsynchronized: a Builder is single-threaded scratch state.
    Builder& SetBaseText(std::string text);
    // Queues an XML encoding of the base text; hierarchies receive ids
    // 0, 1, ... in AddHierarchy call order.
    Builder& AddHierarchy(std::string name, std::string xml);
    // Parses and merges all hierarchies, then publishes the document's
    // initial snapshot (version 1, with its index and stats built).
    // Fails if the base text was never set or is longer than
    // goddag::kMaxTextSize (2^32 - 1) characters, any XML is malformed,
    // any hierarchy's character content differs from the base text, or
    // two hierarchies share a name.
    StatusOr<MultihierarchicalDocument> Build();

   private:
    std::string base_text_;
    bool base_text_set_ = false;
    std::vector<std::pair<std::string, std::string>> hierarchies_;
  };

  // Writer path (thread-safety class: writer-path — see CONCURRENCY.md).
  // A Writer queues mutations and applies them all at Commit() against a
  // private copy-on-write clone of the head goddag: nothing is visible to
  // readers before Commit returns, a failed Commit publishes nothing, and
  // readers pinned to older versions are never blocked. Commits serialise
  // against each other on the document's writer mutex; the queueing calls
  // themselves are unsynchronized (one Writer belongs to one thread).
  class Writer {
   public:
    Writer(Writer&&) noexcept = default;
    Writer& operator=(Writer&&) noexcept = default;
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    // Queues a persistent hierarchy given as an XML encoding of the base
    // text (same rules as Builder::AddHierarchy; the name must not collide
    // with an active hierarchy at Commit time).
    Writer& AddHierarchy(std::string name, std::string xml);

    // Queues a persistent virtual hierarchy (offset-anchored elements, the
    // analyze-string shape) under a fresh whole-text root named `name`.
    Writer& AddVirtualHierarchy(std::string name,
                                std::vector<goddag::VirtualElement> elements);

    // Queues removal of an active virtual hierarchy named `hierarchy_name`
    // (when several share the name, the one in the highest hierarchy-table
    // slot). NotFound at Commit time if none matches; persistent
    // (XML-parsed) hierarchies cannot be removed.
    Writer& RemoveVirtualHierarchy(std::string hierarchy_name);

    // Arranges for Commit to also serialise the new version to `path` as
    // an mmap-able arena (goddag/persist.h), atomically (temp + rename),
    // BEFORE the version is published: a failed write aborts the whole
    // commit, so the document and the file never disagree about whether
    // the version exists. An empty path (the default) persists nothing.
    Writer& PersistTo(std::string path);

    // Applies the queued mutations in order to a private clone of the head
    // goddag and publishes the result as the next version, returning its
    // number. All-or-nothing: the first failing mutation aborts the whole
    // commit and the document is unchanged. Blocking behavior: waits only
    // for concurrently committing writers (never for readers); readers
    // never wait for this. The RangeIndex and stats of the new version
    // are built here, on the writer's thread, before publication — readers
    // repin free of rebuilds. FailedPrecondition on a second Commit call.
    StatusOr<uint64_t> Commit();

   private:
    friend class MultihierarchicalDocument;
    explicit Writer(MultihierarchicalDocument* doc) : doc_(doc) {}

    struct Op {
      enum class Kind { kAddXml, kAddVirtual, kRemoveVirtual };
      Kind kind;
      std::string name;
      std::string xml;
      std::vector<goddag::VirtualElement> elements;
    };

    MultihierarchicalDocument* doc_;
    std::vector<Op> ops_;
    std::string persist_path_;
    bool committed_ = false;
  };

  // Wraps an already-published snapshot — the mmap cold-start path: the
  // snapshot comes from goddag::LoadSnapshotFile, owns the arena mapping,
  // and its goddag owns all of its bytes. The document behaves exactly like
  // a Build()-produced one — queries pin the adopted snapshot (index and
  // stats pre-adopted, nothing rebuilds), and Writer::Commit clones its
  // goddag and publishes successors that no longer reference the mapping.
  // Single-threaded until the constructor returns, the usual CONCURRENCY.md
  // rules afterwards.
  static MultihierarchicalDocument FromSnapshot(
      std::shared_ptr<const goddag::DocumentSnapshot> snapshot) {
    return MultihierarchicalDocument(std::move(snapshot));
  }

  MultihierarchicalDocument(const MultihierarchicalDocument&) = delete;
  MultihierarchicalDocument& operator=(const MultihierarchicalDocument&) =
      delete;
  // Moves re-point the engine's back-reference so an engine created before
  // the move keeps working afterwards. Unsynchronized: moving while any
  // query or writer runs is undefined behaviour.
  MultihierarchicalDocument(MultihierarchicalDocument&& other) noexcept
      : current_(std::move(other.current_)),
        engine_(std::move(other.engine_)),
        engine_plans_(std::move(other.engine_plans_)),
        engine_counters_(std::move(other.engine_counters_)),
        engine_mu_(std::move(other.engine_mu_)),
        snapshot_mu_(std::move(other.snapshot_mu_)),
        writer_mu_(std::move(other.writer_mu_)) {
    if (engine_ != nullptr) engine_->Rebind(this);
  }
  MultihierarchicalDocument& operator=(
      MultihierarchicalDocument&& other) noexcept {
    current_ = std::move(other.current_);
    engine_ = std::move(other.engine_);
    engine_plans_ = std::move(other.engine_plans_);
    engine_counters_ = std::move(other.engine_counters_);
    engine_mu_ = std::move(other.engine_mu_);
    snapshot_mu_ = std::move(other.snapshot_mu_);
    writer_mu_ = std::move(other.writer_mu_);
    if (engine_ != nullptr) engine_->Rebind(this);
    return *this;
  }

  // The published version's goddag. Thread-safety class: pinned-snapshot
  // read only in single-threaded or quiesced use — prefer PinSnapshot()
  // when writers may be committing, because the published version moves
  // on commit.
  const goddag::KyGoddag& goddag() const { return current_->goddag(); }

  // The shared base text. Thread-safe without pinning: every version of
  // the document shares one immutable text by refcounted pointer, so the
  // reference stays valid and constant across commits.
  const std::string& base_text() const;

  // Pins the currently published snapshot: an O(1) shared_ptr copy under
  // the epoch mutex, never blocked by writers (Commit holds this mutex
  // only for one pointer assignment). The pinned version stays fully
  // readable — goddag, leaves, index — for as long as the caller holds it,
  // across any number of later commits. Thread-safe.
  std::shared_ptr<const goddag::DocumentSnapshot> PinSnapshot() const;

  // The currently published version number (1 after Build). Thread-safe.
  uint64_t version() const;

  // Opens a writer whose mutations commit as one atomic new version; see
  // Writer. Any number may be open at once; their Commits serialise.
  Writer NewWriter() { return Writer(this); }

  // Evaluates an XQuery expression and serialises the result sequence
  // (items concatenate without separators; leaves serialise as their
  // base-text characters, constructed elements as tags).
  //
  // Thread-safety class: pinned-snapshot read. Any number of concurrent
  // Query calls run truly concurrently — analyze-string() included — and
  // concurrently with Writer::Commit: each evaluation pins the snapshot
  // current at its start and reads exactly that version end-to-end,
  // byte-identical to a quiesced evaluation of the same version. Queries
  // never block on writers and never mutate the document: temporary
  // virtual hierarchies live in evaluation-scoped overlay namespaces over
  // the pinned snapshot and are dropped when the evaluation returns. See
  // CONCURRENCY.md for the full contract. Moving the document while
  // queries run remains undefined behaviour.
  StatusOr<std::string> Query(std::string_view query) const;

  // As above, with per-query options (a trace); see xquery::QueryOptions.
  StatusOr<std::string> Query(std::string_view query,
                              const QueryOptions& options) const;

  // The query engine bound to this document (created lazily; creation is
  // thread-safe and the returned pointer is stable across moves).
  xquery::Engine* engine() const;

  // Corpus injection seam: arranges for the lazily created engine to share
  // a process-wide PlanCache and EngineCounters block instead of creating
  // its own (either may be null to keep the engine-private
  // default; shared counters survive this document's eviction). Fails with
  // FailedPrecondition once the engine exists — the corpus service calls
  // this right after Build, before any query. Thread-safe; never blocks
  // beyond the engine-creation mutex.
  Status ConfigureEngine(
      std::shared_ptr<xquery::PlanCache> plans,
      std::shared_ptr<xquery::EngineCounters> counters = nullptr) const;

 private:
  explicit MultihierarchicalDocument(
      std::shared_ptr<const goddag::DocumentSnapshot> snapshot);

  // The published snapshot; guarded by snapshot_mu_ (pin = copy, publish =
  // assign — the entire epoch-swap critical section). Snapshots and the
  // Engine live behind pointers so moving the document does not invalidate
  // &goddag() or engine() held by evaluators and benchmarks.
  std::shared_ptr<const goddag::DocumentSnapshot> current_;
  mutable std::unique_ptr<xquery::Engine> engine_;
  // Held until the engine is created (ConfigureEngine), then passed to it.
  mutable std::shared_ptr<xquery::PlanCache> engine_plans_;
  mutable std::shared_ptr<xquery::EngineCounters> engine_counters_;
  // Guards lazy engine creation under concurrent Query calls. Mutexes live
  // behind pointers because they are not movable but the document is.
  mutable std::unique_ptr<std::mutex> engine_mu_;
  // Guards current_ (see above).
  mutable std::unique_ptr<std::mutex> snapshot_mu_;
  // Serialises Writer::Commit calls; never held while readers pin.
  std::unique_ptr<std::mutex> writer_mu_;
};

}  // namespace mhx

#endif  // MHX_DOCUMENT_H_
