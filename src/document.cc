// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "document.h"

#include "base/status_macros.h"
#include "goddag/persist.h"
#include "goddag/stats.h"
#include "xml/parser.h"

namespace mhx {

MultihierarchicalDocument::Builder& MultihierarchicalDocument::Builder::
    SetBaseText(std::string text) {
  base_text_ = std::move(text);
  base_text_set_ = true;
  return *this;
}

MultihierarchicalDocument::Builder& MultihierarchicalDocument::Builder::
    AddHierarchy(std::string name, std::string xml) {
  hierarchies_.emplace_back(std::move(name), std::move(xml));
  return *this;
}

StatusOr<MultihierarchicalDocument> MultihierarchicalDocument::Builder::
    Build() {
  if (!base_text_set_) {
    return FailedPreconditionError("SetBaseText was never called");
  }
  if (base_text_.size() > goddag::kMaxTextSize) {
    return InvalidArgumentError("base text of " +
                                std::to_string(base_text_.size()) +
                                " characters exceeds the 4 GiB limit");
  }
  for (size_t i = 0; i < hierarchies_.size(); ++i) {
    for (size_t j = i + 1; j < hierarchies_.size(); ++j) {
      if (hierarchies_[i].first == hierarchies_[j].first) {
        return InvalidArgumentError("duplicate hierarchy name '" +
                                    hierarchies_[i].first + "'");
      }
    }
  }
  auto goddag = std::make_unique<goddag::KyGoddag>(base_text_);
  for (const auto& [name, xml_source] : hierarchies_) {
    auto parsed = xml::Parse(xml_source);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    "hierarchy '" + name + "': " + parsed.status().message());
    }
    auto hid = goddag->AddHierarchy(name, *parsed);
    if (!hid.ok()) return hid.status();
  }
  // Version 1; the index stays lazy so Build() cost is unchanged — the
  // engine's first evaluation builds it once.
  return MultihierarchicalDocument(goddag::DocumentSnapshot::Create(
      std::move(goddag), /*version=*/1, /*prebuild_index=*/false));
}

MultihierarchicalDocument::MultihierarchicalDocument(
    std::shared_ptr<const goddag::DocumentSnapshot> snapshot)
    : current_(std::move(snapshot)),
      engine_mu_(std::make_unique<std::mutex>()),
      snapshot_mu_(std::make_unique<std::mutex>()),
      writer_mu_(std::make_unique<std::mutex>()) {}

std::shared_ptr<const goddag::DocumentSnapshot>
MultihierarchicalDocument::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  return current_;
}

const std::string& MultihierarchicalDocument::base_text() const {
  // Every version shares one text, and the document always holds a
  // version, so the reference outlives the pin.
  return PinSnapshot()->goddag().base_text();
}

uint64_t MultihierarchicalDocument::version() const {
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  return current_->version();
}

// --- Writer ------------------------------------------------------------------

MultihierarchicalDocument::Writer& MultihierarchicalDocument::Writer::
    AddHierarchy(std::string name, std::string xml) {
  Op op;
  op.kind = Op::Kind::kAddXml;
  op.name = std::move(name);
  op.xml = std::move(xml);
  ops_.push_back(std::move(op));
  return *this;
}

MultihierarchicalDocument::Writer& MultihierarchicalDocument::Writer::
    AddVirtualHierarchy(std::string name,
                        std::vector<goddag::VirtualElement> elements) {
  Op op;
  op.kind = Op::Kind::kAddVirtual;
  op.name = std::move(name);
  op.elements = std::move(elements);
  ops_.push_back(std::move(op));
  return *this;
}

MultihierarchicalDocument::Writer& MultihierarchicalDocument::Writer::
    RemoveVirtualHierarchy(std::string hierarchy_name) {
  Op op;
  op.kind = Op::Kind::kRemoveVirtual;
  op.name = std::move(hierarchy_name);
  ops_.push_back(std::move(op));
  return *this;
}

MultihierarchicalDocument::Writer& MultihierarchicalDocument::Writer::
    PersistTo(std::string path) {
  persist_path_ = std::move(path);
  return *this;
}

namespace {

// An active virtual hierarchy named `name` — the highest table slot when
// several share the name — or NotFound.
StatusOr<goddag::HierarchyId> FindActiveVirtualHierarchy(
    const goddag::KyGoddag& g, const std::string& name) {
  bool found = false;
  goddag::HierarchyId result = 0;
  for (goddag::HierarchyId id = 0; id < g.hierarchy_table_size(); ++id) {
    const goddag::Hierarchy& h = g.hierarchy(id);
    if (h.active && h.is_virtual && h.name == name) {
      result = id;
      found = true;
    }
  }
  if (!found) {
    return NotFoundError("no active virtual hierarchy named '" + name + "'");
  }
  return result;
}

Status CheckHierarchyNameFree(const goddag::KyGoddag& g,
                              const std::string& name) {
  for (goddag::HierarchyId id = 0; id < g.hierarchy_table_size(); ++id) {
    const goddag::Hierarchy& h = g.hierarchy(id);
    if (h.active && h.name == name) {
      return InvalidArgumentError("hierarchy name '" + name +
                                  "' is already in use");
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<uint64_t> MultihierarchicalDocument::Writer::Commit() {
  if (committed_) {
    return FailedPreconditionError("Writer::Commit may only run once");
  }
  committed_ = true;
  MultihierarchicalDocument* doc = doc_;
  // Serialise against other committing writers only; readers pinning the
  // published snapshot never touch writer_mu_.
  std::lock_guard<std::mutex> writer_lock(*doc->writer_mu_);
  std::shared_ptr<const goddag::DocumentSnapshot> base = doc->PinSnapshot();
  // Copy-on-write: every mutation lands in a private clone. An error below
  // drops the clone; nothing was published.
  std::shared_ptr<goddag::KyGoddag> next = base->goddag().Clone();
  for (Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kAddXml: {
        MHX_RETURN_IF_ERROR(CheckHierarchyNameFree(*next, op.name));
        auto parsed = xml::Parse(op.xml);
        if (!parsed.ok()) {
          return Status(parsed.status().code(),
                        "hierarchy '" + op.name +
                            "': " + parsed.status().message());
        }
        auto hid = next->AddHierarchy(op.name, *parsed);
        if (!hid.ok()) return hid.status();
        break;
      }
      case Op::Kind::kAddVirtual: {
        auto hid =
            next->AddVirtualHierarchy(op.name, std::move(op.elements));
        if (!hid.ok()) return hid.status();
        break;
      }
      case Op::Kind::kRemoveVirtual: {
        MHX_ASSIGN_OR_RETURN(goddag::HierarchyId hid,
                             FindActiveVirtualHierarchy(*next, op.name));
        MHX_RETURN_IF_ERROR(next->RemoveVirtualHierarchy(hid));
        break;
      }
    }
  }
  // The writer pays for the new version's leaf partition and RangeIndex
  // here, before publication, so readers repinning after the swap never
  // rebuild anything (`index_rebuilds` stays flat across commits).
  auto snapshot = goddag::DocumentSnapshot::Create(
      next, base->version() + 1, /*prebuild_index=*/true);
  // Persist before the epoch swap: a failed write aborts the commit with
  // nothing published, keeping document and spill file in agreement.
  if (!persist_path_.empty()) {
    MHX_RETURN_IF_ERROR(goddag::WriteSnapshotFile(*snapshot, persist_path_));
  }
  const uint64_t version = snapshot->version();
  {
    // The entire epoch swap: one pointer assignment under the pin mutex.
    std::lock_guard<std::mutex> lock(*doc->snapshot_mu_);
    doc->current_ = std::move(snapshot);
  }
  return version;
}

// --- queries -----------------------------------------------------------------

StatusOr<std::string> MultihierarchicalDocument::Query(
    std::string_view query) const {
  return engine()->Evaluate(query);
}

StatusOr<std::string> MultihierarchicalDocument::Query(
    std::string_view query, const QueryOptions& options) const {
  return engine()->Evaluate(query, options);
}

xquery::Engine* MultihierarchicalDocument::engine() const {
  std::lock_guard<std::mutex> lock(*engine_mu_);
  if (engine_ == nullptr) {
    engine_ = std::make_unique<xquery::Engine>(this, engine_plans_,
                                               engine_counters_);
  }
  return engine_.get();
}

Status MultihierarchicalDocument::ConfigureEngine(
    std::shared_ptr<xquery::PlanCache> plans,
    std::shared_ptr<xquery::EngineCounters> counters) const {
  std::lock_guard<std::mutex> lock(*engine_mu_);
  if (engine_ != nullptr) {
    return FailedPreconditionError(
        "ConfigureEngine must run before the engine is created");
  }
  engine_plans_ = std::move(plans);
  engine_counters_ = std::move(counters);
  return OkStatus();
}

}  // namespace mhx
