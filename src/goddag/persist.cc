// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "goddag/persist.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "goddag/stats.h"

#if defined(__unix__) || defined(__APPLE__)
#define MHX_PERSIST_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace mhx::goddag {

namespace {

// The on-disk records are written and read by memcpy / in-place cast; any
// padding would make the format compiler-dependent. Pin every layout.
static_assert(sizeof(ArenaHeader) == 88, "header layout drifted");
static_assert(sizeof(ArenaSectionEntry) == 32, "section entry layout drifted");
static_assert(sizeof(ArenaStringRef) == 8, "string ref layout drifted");
static_assert(sizeof(ArenaNode) == 48, "node record layout drifted");
static_assert(sizeof(ArenaAttrRef) == 8, "attr record layout drifted");
static_assert(sizeof(ArenaHierarchy) == 24, "hierarchy record layout drifted");
static_assert(sizeof(ArenaBoundary) == 16, "boundary record layout drifted");
static_assert(sizeof(ArenaIndexEntry) == 24, "index entry layout drifted");
static_assert(std::is_trivially_copyable_v<ArenaHeader> &&
                  std::is_trivially_copyable_v<ArenaSectionEntry> &&
                  std::is_trivially_copyable_v<ArenaNode> &&
                  std::is_trivially_copyable_v<ArenaHierarchy> &&
                  std::is_trivially_copyable_v<ArenaBoundary> &&
                  std::is_trivially_copyable_v<ArenaIndexEntry>,
              "arena records must be memcpy-safe");

// The zero-copy casts assume a little-endian LP64 host; elsewhere the
// format functions refuse rather than byte-swap (see persist.h).
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif
constexpr bool kArenaHostCompatible =
    kHostLittleEndian && sizeof(size_t) == 8 && sizeof(NodeId) == 4;

constexpr uint64_t AlignUp(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

Status HostGate() {
  if (!kArenaHostCompatible) {
    return UnimplementedError(
        "arena persistence requires a little-endian LP64 host");
  }
  return OkStatus();
}

Status Malformed(const std::string& what) {
  return InvalidArgumentError("arena: " + what);
}

}  // namespace

// Serializes one published DocumentSnapshot into an arena image. Friend of
// RangeIndex and SnapshotStats: the prebuilt probe arrays and the stats
// block are written verbatim so the loader can adopt them without
// rebuilding.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const DocumentSnapshot& snapshot)
      : snapshot_(snapshot) {}

  StatusOr<std::string> Serialize() {
    MHX_RETURN_IF_ERROR(HostGate());
    const KyGoddag& g = snapshot_.goddag();
    const RangeIndex& index = snapshot_.index();
    const SnapshotStats& stats = snapshot_.stats();
    if (index.revision() != g.revision()) {
      return FailedPreconditionError(
          "arena: snapshot goddag was mutated after publication (index "
          "revision " +
          std::to_string(index.revision()) + " vs goddag revision " +
          std::to_string(g.revision()) + ")");
    }
    if (index.size() != g.element_count() ||
        stats.element_count() != g.element_count()) {
      return InternalError("arena: index/stats element count mismatch");
    }

    CollectNodes(g);
    CollectHierarchies(g);
    CollectBoundaries(g);
    CollectIndex(index);
    CollectStatsNameRefs(stats);
    constexpr size_t kRefLimit = std::numeric_limits<uint32_t>::max();
    if (blob_.size() > kRefLimit || children_pool_.size() > kRefLimit ||
        attr_pool_.size() > kRefLimit || hnode_pool_.size() > kRefLimit) {
      return UnimplementedError("arena: document exceeds format limits");
    }

    return Emit(g, index, stats);
  }

 private:
  struct Payload {
    ArenaSection kind;
    const void* data;
    uint64_t size;   // bytes
    uint64_t count;  // records
  };

  uint32_t Intern(const std::string& s) {
    auto [it, inserted] =
        interned_.try_emplace(s, static_cast<uint32_t>(string_table_.size()));
    if (inserted) {
      string_table_.push_back(ArenaStringRef{
          static_cast<uint32_t>(blob_.size()), static_cast<uint32_t>(s.size())});
      blob_ += s;
    }
    return it->second;
  }

  void CollectNodes(const KyGoddag& g) {
    nodes_.reserve(g.node_table_size());
    for (NodeId id = 0; id < g.node_table_size(); ++id) {
      const GNode& node = g.node(id);
      ArenaNode rec{};
      rec.begin = node.range.begin;
      rec.end = node.range.end;
      rec.parent = node.parent;
      rec.hierarchy = node.hierarchy;
      rec.kind = static_cast<uint32_t>(node.kind);
      rec.name_ref = node.kind == GNodeKind::kElement ? Intern(node.name)
                                                      : kArenaNoString;
      rec.children_begin = static_cast<uint32_t>(children_pool_.size());
      rec.children_count = static_cast<uint32_t>(node.children.size());
      children_pool_.insert(children_pool_.end(), node.children.begin(),
                            node.children.end());
      rec.attrs_begin = static_cast<uint32_t>(attr_pool_.size());
      rec.attrs_count = static_cast<uint32_t>(node.attributes.size());
      for (const auto& [key, value] : node.attributes) {
        attr_pool_.push_back(ArenaAttrRef{Intern(key), Intern(value)});
      }
      nodes_.push_back(rec);
    }
  }

  void CollectHierarchies(const KyGoddag& g) {
    hierarchies_.reserve(g.hierarchy_table_size());
    for (HierarchyId id = 0; id < g.hierarchy_table_size(); ++id) {
      const Hierarchy& h = g.hierarchy(id);
      ArenaHierarchy rec{};
      if (h.active) {
        rec.name_ref = Intern(h.name);
        rec.root = h.root;
        rec.nodes_begin = static_cast<uint32_t>(hnode_pool_.size());
        rec.nodes_count = static_cast<uint32_t>(h.nodes.size());
        hnode_pool_.insert(hnode_pool_.end(), h.nodes.begin(), h.nodes.end());
        rec.flags = kArenaHierarchyActive |
                    (h.is_virtual ? kArenaHierarchyVirtual : 0u);
      } else {
        rec.name_ref = kArenaNoString;
        rec.root = kInvalidNode;
      }
      hierarchies_.push_back(rec);
    }
  }

  // Computes the leaf-partition boundaries with their refcounts: permanent
  // sentinels at 0 and text size, one ref per live element endpoint. The
  // boundaries are those of KyGoddag::leaves(), and deriving them from the
  // node table keeps the arena a pure function of it.
  void CollectBoundaries(const KyGoddag& g) {
    const size_t n = g.base_text().size();
    if (n == 0) return;
    std::map<size_t, uint32_t> refs;
    refs[0] = 1;
    refs[n] = 1;
    for (NodeId id = 0; id < g.node_table_size(); ++id) {
      const GNode& node = g.node(id);
      if (node.kind != GNodeKind::kElement) continue;
      ++refs[node.range.begin];
      ++refs[node.range.end];
    }
    boundaries_.reserve(refs.size());
    for (const auto& [pos, count] : refs) {
      boundaries_.push_back(ArenaBoundary{pos, count, 0});
    }
  }

  void CollectIndex(const RangeIndex& index) {
    by_begin_.reserve(index.by_begin_.size());
    for (const RangeIndex::Entry& e : index.by_begin_) {
      by_begin_.push_back(ArenaIndexEntry{e.range.begin, e.range.end, e.id, 0});
    }
    by_end_.reserve(index.by_end_.size());
    for (const RangeIndex::Entry& e : index.by_end_) {
      by_end_.push_back(ArenaIndexEntry{e.range.begin, e.range.end, e.id, 0});
    }
  }

  void CollectStatsNameRefs(const SnapshotStats& stats) {
    // Every stats name is some live element's name, so Intern only returns
    // refs already created by CollectNodes — iteration order of the
    // unordered map cannot perturb the blob.
    name_refs_.assign(stats.name_counts_.size(), kArenaNoString);
    for (const auto& [name, key] : stats.name_keys_) {
      name_refs_[key] = Intern(name);
    }
  }

  StatusOr<std::string> Emit(const KyGoddag& g, const RangeIndex& index,
                             const SnapshotStats& stats) {
    const RangeSoA& soa = stats.soa();
    const Payload payloads[kArenaSectionKinds] = {
        {ArenaSection::kStringBlob, blob_.data(), blob_.size(), blob_.size()},
        {ArenaSection::kStringTable, string_table_.data(),
         string_table_.size() * sizeof(ArenaStringRef), string_table_.size()},
        {ArenaSection::kBaseText, g.base_text().data(), g.base_text().size(),
         g.base_text().size()},
        {ArenaSection::kNodes, nodes_.data(), nodes_.size() * sizeof(ArenaNode),
         nodes_.size()},
        {ArenaSection::kChildren, children_pool_.data(),
         children_pool_.size() * sizeof(uint32_t), children_pool_.size()},
        {ArenaSection::kAttrs, attr_pool_.data(),
         attr_pool_.size() * sizeof(ArenaAttrRef), attr_pool_.size()},
        {ArenaSection::kHierarchies, hierarchies_.data(),
         hierarchies_.size() * sizeof(ArenaHierarchy), hierarchies_.size()},
        {ArenaSection::kHierarchyNodes, hnode_pool_.data(),
         hnode_pool_.size() * sizeof(uint32_t), hnode_pool_.size()},
        {ArenaSection::kLeafBoundaries, boundaries_.data(),
         boundaries_.size() * sizeof(ArenaBoundary), boundaries_.size()},
        {ArenaSection::kIndexByBegin, by_begin_.data(),
         by_begin_.size() * sizeof(ArenaIndexEntry), by_begin_.size()},
        {ArenaSection::kIndexByEnd, by_end_.data(),
         by_end_.size() * sizeof(ArenaIndexEntry), by_end_.size()},
        {ArenaSection::kIndexMaxEnd, index.max_end_.data(),
         index.max_end_.size() * sizeof(uint64_t), index.max_end_.size()},
        {ArenaSection::kSoaBegin, soa.begin.data(),
         soa.begin.size() * sizeof(uint32_t), soa.begin.size()},
        {ArenaSection::kSoaEnd, soa.end.data(),
         soa.end.size() * sizeof(uint32_t), soa.end.size()},
        {ArenaSection::kSoaNameKey, soa.name_key.data(),
         soa.name_key.size() * sizeof(uint32_t), soa.name_key.size()},
        {ArenaSection::kSoaId, soa.id.data(), soa.id.size() * sizeof(uint32_t),
         soa.id.size()},
        {ArenaSection::kNodeNameKeys, stats.node_name_keys().data(),
         stats.node_name_keys().size() * sizeof(uint32_t),
         stats.node_name_keys().size()},
        {ArenaSection::kStatsNameRefs, name_refs_.data(),
         name_refs_.size() * sizeof(uint32_t), name_refs_.size()},
        {ArenaSection::kStatsNameCounts, stats.name_counts_.data(),
         stats.name_counts_.size() * sizeof(uint64_t),
         stats.name_counts_.size()},
        {ArenaSection::kPerHierarchy, stats.per_hierarchy_.data(),
         stats.per_hierarchy_.size() * sizeof(uint64_t),
         stats.per_hierarchy_.size()},
        {ArenaSection::kLengthHistogram, stats.length_log2_.data(),
         stats.length_log2_.size() * sizeof(uint64_t), stats.length_log2_.size()},
    };

    const uint64_t table_offset = sizeof(ArenaHeader);
    const uint64_t body_offset = AlignUp(
        table_offset + kArenaSectionKinds * sizeof(ArenaSectionEntry),
        kArenaSectionAlign);
    ArenaSectionEntry table[kArenaSectionKinds];
    uint64_t cursor = body_offset;
    uint64_t file_size = body_offset;
    for (uint32_t i = 0; i < kArenaSectionKinds; ++i) {
      const Payload& p = payloads[i];
      table[i] = ArenaSectionEntry{static_cast<uint32_t>(p.kind), 0, cursor,
                                   p.size, p.count};
      file_size = cursor + p.size;
      cursor = AlignUp(file_size, kArenaSectionAlign);
    }

    ArenaHeader header{};
    header.magic = kArenaMagic;
    header.format_version = kArenaFormatVersion;
    header.file_size = file_size;
    header.section_count = kArenaSectionKinds;
    header.flags = kArenaFlagSoaValid;
    header.doc_version = snapshot_.version();
    header.goddag_revision = g.revision();
    header.element_count = g.element_count();
    header.text_size = g.base_text().size();
    header.total_range_length = stats.total_range_length();
    header.body_offset = body_offset;

    std::string out(file_size, '\0');
    for (uint32_t i = 0; i < kArenaSectionKinds; ++i) {
      if (payloads[i].size == 0) continue;
      std::memcpy(&out[table[i].offset], payloads[i].data, payloads[i].size);
    }
    std::memcpy(&out[table_offset], table, sizeof(table));
    header.body_checksum =
        ArenaBodyChecksum(out.data() + body_offset, file_size - body_offset);
    ArenaHeader for_checksum = header;
    for_checksum.header_checksum = 0;
    header.header_checksum =
        ArenaFnv1a64(&out[table_offset], sizeof(table),
                     ArenaFnv1a64(&for_checksum, sizeof(for_checksum)));
    std::memcpy(&out[0], &header, sizeof(header));
    return out;
  }

  const DocumentSnapshot& snapshot_;
  std::string blob_;
  std::vector<ArenaStringRef> string_table_;
  std::unordered_map<std::string, uint32_t> interned_;
  std::vector<ArenaNode> nodes_;
  std::vector<uint32_t> children_pool_;
  std::vector<ArenaAttrRef> attr_pool_;
  std::vector<ArenaHierarchy> hierarchies_;
  std::vector<uint32_t> hnode_pool_;
  std::vector<ArenaBoundary> boundaries_;
  std::vector<ArenaIndexEntry> by_begin_;
  std::vector<ArenaIndexEntry> by_end_;
  std::vector<uint32_t> name_refs_;
};

// Validates an arena image and materialises it back into a KyGoddag plus
// an adopted DocumentSnapshot. Friend of KyGoddag, RangeIndex, and
// SnapshotStats. Validation is layered: O(header) structural checks, the
// full-body checksum, then per-record bounds checks folded into
// the single linear materialisation pass — every rejection is a clean
// InvalidArgument, never UB.
class ArenaLoader {
 public:
  // The zero-copy index adoption casts the kIndexByBegin/kIndexByEnd bytes
  // to RangeIndex::Entry; these pins make that cast a layout fact, not an
  // assumption.
  static_assert(sizeof(RangeIndex::Entry) == sizeof(ArenaIndexEntry),
                "index entry layouts diverged");
  static_assert(alignof(RangeIndex::Entry) == 8,
                "index entry alignment diverged");
  static_assert(offsetof(RangeIndex::Entry, range) == 0 &&
                    offsetof(RangeIndex::Entry, id) == 16,
                "index entry field offsets diverged");
  static_assert(offsetof(TextRange, begin) == 0 &&
                    offsetof(TextRange, end) == 8,
                "TextRange field offsets diverged");

  ArenaLoader(const char* data, size_t size) : data_(data), size_(size) {}

  StatusOr<MappedSnapshot> Load(std::shared_ptr<const void> keepalive) {
    MHX_RETURN_IF_ERROR(HostGate());
    MHX_RETURN_IF_ERROR(ValidateHeaderAndTable());
    MHX_RETURN_IF_ERROR(CrossCheckCounts());

    auto goddag = std::shared_ptr<KyGoddag>(
        new KyGoddag(std::string(Bytes(ArenaSection::kBaseText),
                                 Sec(ArenaSection::kBaseText).size)));

    // The checksum runs before materialization only as belt-and-braces: the
    // materializers bounds-check everything they read anyway, but verifying
    // first means garbage never even gets copied.
    if (!BodyChecksumOk()) {
      return Malformed("body checksum mismatch");
    }
    MHX_RETURN_IF_ERROR(MaterializeNodes(goddag.get()));
    MHX_RETURN_IF_ERROR(MaterializeHierarchies(goddag.get()));
    MHX_RETURN_IF_ERROR(MaterializeLeaves(goddag.get()));
    goddag->element_count_ = header_.element_count;
    goddag->revision_ = header_.goddag_revision;

    std::unique_ptr<RangeIndex> index(new RangeIndex());
    MHX_RETURN_IF_ERROR(AdoptIndex(index.get()));
    std::unique_ptr<SnapshotStats> stats(new SnapshotStats());
    MHX_RETURN_IF_ERROR(AdoptStats(goddag.get(), stats.get()));

    MappedSnapshot result;
    result.snapshot = DocumentSnapshot::Adopt(
        std::move(goddag), header_.doc_version, std::move(index),
        std::move(stats), std::move(keepalive));
    result.arena_bytes = size_;
    return result;
  }

  StatusOr<ArenaInfo> Inspect() {
    MHX_RETURN_IF_ERROR(ValidateHeaderAndTable());
    ArenaInfo info;
    info.header = header_;
    info.body_checksum_ok = BodyChecksumOk();
    for (uint32_t kind = 1; kind <= kArenaSectionKinds; ++kind) {
      const ArenaSectionEntry& e = sections_[kind];
      info.sections.push_back(ArenaSectionInfo{kind, ArenaSectionName(kind),
                                               e.offset, e.size, e.count});
    }
    return info;
  }

 private:
  const ArenaSectionEntry& Sec(ArenaSection kind) const {
    return sections_[static_cast<uint32_t>(kind)];
  }
  const char* Bytes(ArenaSection kind) const {
    return data_ + Sec(kind).offset;
  }
  template <typename T>
  const T* Records(ArenaSection kind) const {
    return reinterpret_cast<const T*>(data_ + Sec(kind).offset);
  }

  Status ValidateHeaderAndTable() {
    if (size_ < sizeof(ArenaHeader)) return Malformed("truncated header");
    std::memcpy(&header_, data_, sizeof(header_));
    if (header_.magic != kArenaMagic) return Malformed("bad magic");
    if (header_.format_version != kArenaFormatVersion) {
      return Malformed("unsupported format version " +
                       std::to_string(header_.format_version));
    }
    if (header_.file_size != size_) {
      return Malformed("file size mismatch (header says " +
                       std::to_string(header_.file_size) + ", have " +
                       std::to_string(size_) + ")");
    }
    if (header_.section_count != kArenaSectionKinds) {
      return Malformed("bad section count");
    }
    if (header_.flags != kArenaFlagSoaValid) {
      return Malformed("bad header flags");
    }
    const uint64_t table_bytes =
        uint64_t{kArenaSectionKinds} * sizeof(ArenaSectionEntry);
    if (header_.body_offset < sizeof(ArenaHeader) + table_bytes ||
        header_.body_offset > size_ || header_.body_offset % 8 != 0) {
      return Malformed("bad body offset");
    }
    ArenaHeader for_checksum = header_;
    for_checksum.header_checksum = 0;
    const uint64_t expect =
        ArenaFnv1a64(data_ + sizeof(ArenaHeader), table_bytes,
                     ArenaFnv1a64(&for_checksum, sizeof(for_checksum)));
    if (expect != header_.header_checksum) {
      return Malformed("header checksum mismatch");
    }
    ArenaSectionEntry table[kArenaSectionKinds];
    std::memcpy(table, data_ + sizeof(ArenaHeader), sizeof(table));
    bool seen[kArenaSectionKinds + 1] = {};
    for (const ArenaSectionEntry& e : table) {
      if (e.kind < 1 || e.kind > kArenaSectionKinds) {
        return Malformed("unknown section kind " + std::to_string(e.kind));
      }
      if (seen[e.kind]) {
        return Malformed(std::string("duplicate section ") +
                         ArenaSectionName(e.kind));
      }
      seen[e.kind] = true;
      const uint64_t record = ArenaRecordSize(e.kind);
      if (e.reserved != 0 || e.offset < header_.body_offset ||
          e.offset % 8 != 0 || e.offset > size_ || e.size > size_ - e.offset ||
          e.count != e.size / record || e.size % record != 0) {
        return Malformed(std::string("bad section bounds for ") +
                         ArenaSectionName(e.kind));
      }
      sections_[e.kind] = e;
    }
    if (Sec(ArenaSection::kLengthHistogram).count != 33) {
      return Malformed("length histogram must have 33 buckets");
    }
    return OkStatus();
  }

  bool BodyChecksumOk() const {
    return ArenaBodyChecksum(data_ + header_.body_offset,
                             size_ - header_.body_offset) ==
           header_.body_checksum;
  }

  Status CrossCheckCounts() const {
    const uint64_t nodes = Sec(ArenaSection::kNodes).count;
    const uint64_t elements = header_.element_count;
    if (Sec(ArenaSection::kBaseText).count != header_.text_size) {
      return Malformed("base text size disagrees with header");
    }
    if (header_.text_size > kMaxTextSize) {
      return Malformed("base text exceeds the 4 GiB limit");
    }
    if (nodes < 1 || nodes > kInvalidNode) {
      return Malformed("bad node table size");
    }
    if (elements >= nodes) return Malformed("element count exceeds node table");
    if (Sec(ArenaSection::kNodeNameKeys).count != nodes) {
      return Malformed("node name key table size disagrees with node table");
    }
    if (Sec(ArenaSection::kIndexByBegin).count != elements ||
        Sec(ArenaSection::kIndexByEnd).count != elements) {
      return Malformed("index entry count disagrees with element count");
    }
    const uint64_t want_tree = elements == 0 ? 0 : 4 * elements;
    if (Sec(ArenaSection::kIndexMaxEnd).count != want_tree) {
      return Malformed("index segment tree has wrong size");
    }
    if (Sec(ArenaSection::kSoaBegin).count != elements ||
        Sec(ArenaSection::kSoaEnd).count != elements ||
        Sec(ArenaSection::kSoaNameKey).count != elements ||
        Sec(ArenaSection::kSoaId).count != elements) {
      return Malformed("SoA section counts disagree with element count");
    }
    if (Sec(ArenaSection::kStatsNameRefs).count !=
        Sec(ArenaSection::kStatsNameCounts).count) {
      return Malformed("stats name table sections disagree");
    }
    if (Sec(ArenaSection::kPerHierarchy).count !=
        Sec(ArenaSection::kHierarchies).count) {
      return Malformed("per-hierarchy stats disagree with hierarchy table");
    }
    return OkStatus();
  }

  StatusOr<std::string_view> Str(uint32_t ref) const {
    if (ref >= Sec(ArenaSection::kStringTable).count) {
      return Malformed("string ref out of range");
    }
    ArenaStringRef rec;
    std::memcpy(&rec, Bytes(ArenaSection::kStringTable) + ref * sizeof(rec),
                sizeof(rec));
    const uint64_t blob = Sec(ArenaSection::kStringBlob).size;
    if (rec.offset > blob || rec.size > blob - rec.offset) {
      return Malformed("string bytes out of range");
    }
    return std::string_view(Bytes(ArenaSection::kStringBlob) + rec.offset,
                            rec.size);
  }

  Status MaterializeNodes(KyGoddag* g) const {
    const uint64_t node_count = Sec(ArenaSection::kNodes).count;
    const uint64_t child_pool = Sec(ArenaSection::kChildren).count;
    const uint64_t attr_pool = Sec(ArenaSection::kAttrs).count;
    const uint64_t h_count = Sec(ArenaSection::kHierarchies).count;
    const ArenaNode* recs = Records<ArenaNode>(ArenaSection::kNodes);
    const uint32_t* children = Records<uint32_t>(ArenaSection::kChildren);
    const ArenaAttrRef* attrs = Records<ArenaAttrRef>(ArenaSection::kAttrs);

    // Validate the child-id pool once up front so the per-node loop can bulk-
    // assign slices without a branch per child.
    for (uint64_t i = 0; i < child_pool; ++i) {
      if (children[i] >= node_count) return Malformed("child node id out of range");
    }
    g->nodes_.clear();
    g->nodes_.resize(node_count);
    uint64_t elements = 0;
    for (uint64_t id = 0; id < node_count; ++id) {
      const ArenaNode& rec = recs[id];
      GNode& node = g->nodes_[id];
      if (rec.kind > static_cast<uint32_t>(GNodeKind::kElement)) {
        return Malformed("bad node kind");
      }
      node.kind = static_cast<GNodeKind>(rec.kind);
      if ((id == 0) != (node.kind == GNodeKind::kRoot)) {
        return Malformed("the GODDAG root must be node 0 and only node 0");
      }
      if (rec.begin > rec.end || rec.end > header_.text_size) {
        return Malformed("node range out of bounds");
      }
      node.range = TextRange(rec.begin, rec.end);
      node.hierarchy = rec.hierarchy;
      node.parent = rec.parent;
      if (node.kind == GNodeKind::kElement) {
        ++elements;
        if (rec.hierarchy >= h_count) return Malformed("node hierarchy id out of range");
        if (rec.parent >= node_count) return Malformed("element parent out of range");
        MHX_ASSIGN_OR_RETURN(std::string_view name, Str(rec.name_ref));
        node.name.assign(name.data(), name.size());
      } else if (rec.name_ref != kArenaNoString) {
        return Malformed("non-element node carries a name");
      }
      if (rec.children_begin > child_pool ||
          rec.children_count > child_pool - rec.children_begin) {
        return Malformed("node child slice out of range");
      }
      node.children.assign(children + rec.children_begin,
                           children + rec.children_begin + rec.children_count);
      if (rec.attrs_begin > attr_pool ||
          rec.attrs_count > attr_pool - rec.attrs_begin) {
        return Malformed("node attribute slice out of range");
      }
      node.attributes.reserve(rec.attrs_count);
      for (uint32_t i = 0; i < rec.attrs_count; ++i) {
        const ArenaAttrRef& attr = attrs[rec.attrs_begin + i];
        MHX_ASSIGN_OR_RETURN(std::string_view key, Str(attr.key_ref));
        MHX_ASSIGN_OR_RETURN(std::string_view value, Str(attr.value_ref));
        node.attributes.emplace_back(std::string(key), std::string(value));
      }
    }
    if (elements != header_.element_count) {
      return Malformed("live element count disagrees with header");
    }
    // Rebuild the free list in descending id order so future allocations
    // fill the lowest recycled slot first (order only affects ids handed to
    // later writers, never query results).
    g->free_nodes_.clear();
    for (uint64_t id = node_count; id-- > 1;) {
      if (g->nodes_[id].kind == GNodeKind::kFree) {
        g->free_nodes_.push_back(static_cast<NodeId>(id));
      }
    }
    return OkStatus();
  }

  Status MaterializeHierarchies(KyGoddag* g) const {
    const uint64_t h_count = Sec(ArenaSection::kHierarchies).count;
    const uint64_t node_count = Sec(ArenaSection::kNodes).count;
    const uint64_t pool = Sec(ArenaSection::kHierarchyNodes).count;
    const ArenaHierarchy* recs =
        Records<ArenaHierarchy>(ArenaSection::kHierarchies);
    const uint32_t* pool_ids = Records<uint32_t>(ArenaSection::kHierarchyNodes);

    g->hierarchies_.clear();
    g->hierarchies_.resize(h_count);
    for (uint64_t id = 0; id < h_count; ++id) {
      const ArenaHierarchy& rec = recs[id];
      if ((rec.flags & ~(kArenaHierarchyActive | kArenaHierarchyVirtual)) != 0) {
        return Malformed("unknown hierarchy flags");
      }
      Hierarchy& h = g->hierarchies_[id];
      h.active = (rec.flags & kArenaHierarchyActive) != 0;
      if (!h.active) continue;
      h.is_virtual = (rec.flags & kArenaHierarchyVirtual) != 0;
      MHX_ASSIGN_OR_RETURN(std::string_view name, Str(rec.name_ref));
      h.name.assign(name.data(), name.size());
      if (rec.root >= node_count) return Malformed("hierarchy root out of range");
      h.root = rec.root;
      if (rec.nodes_begin > pool || rec.nodes_count > pool - rec.nodes_begin) {
        return Malformed("hierarchy node slice out of range");
      }
      h.nodes.reserve(rec.nodes_count);
      for (uint32_t i = 0; i < rec.nodes_count; ++i) {
        const uint32_t node = pool_ids[rec.nodes_begin + i];
        if (node >= node_count) return Malformed("hierarchy node id out of range");
        h.nodes.push_back(node);
      }
    }
    g->free_hierarchies_.clear();
    for (uint64_t id = h_count; id-- > 0;) {
      if (!g->hierarchies_[id].active) {
        g->free_hierarchies_.push_back(static_cast<HierarchyId>(id));
      }
    }
    return OkStatus();
  }

  Status MaterializeLeaves(KyGoddag* g) const {
    const uint64_t count = Sec(ArenaSection::kLeafBoundaries).count;
    const ArenaBoundary* recs =
        Records<ArenaBoundary>(ArenaSection::kLeafBoundaries);
    g->leaves_.clear();
    g->leaves_dirty_ = false;
    if (header_.text_size == 0) {
      if (count != 0) return Malformed("boundaries present for empty text");
      return OkStatus();
    }
    if (count < 2 || recs[0].pos != 0 ||
        recs[count - 1].pos != header_.text_size) {
      return Malformed("boundary sentinels missing");
    }
    // The partition comes straight from the records, forced here while
    // still single-threaded, as Create() does.
    g->leaves_.reserve(count - 1);
    for (uint64_t i = 0; i < count; ++i) {
      if (recs[i].refs == 0 || (i > 0 && recs[i].pos <= recs[i - 1].pos)) {
        return Malformed("boundaries not strictly increasing");
      }
      if (i > 0) {
        g->leaves_.push_back(Leaf{TextRange(recs[i - 1].pos, recs[i].pos)});
      }
    }
    return OkStatus();
  }

  Status AdoptIndex(RangeIndex* index) const {
    const uint64_t n = header_.element_count;
    const uint64_t node_count = Sec(ArenaSection::kNodes).count;
    const auto* by_begin = reinterpret_cast<const RangeIndex::Entry*>(
        Bytes(ArenaSection::kIndexByBegin));
    const auto* by_end = reinterpret_cast<const RangeIndex::Entry*>(
        Bytes(ArenaSection::kIndexByEnd));
    for (uint64_t i = 0; i < n; ++i) {
      if (by_begin[i].id >= node_count || by_end[i].id >= node_count) {
        return Malformed("index entry node id out of range");
      }
      if (i == 0) continue;
      const RangeIndex::Entry& a = by_begin[i - 1];
      const RangeIndex::Entry& b = by_begin[i];
      if (std::make_tuple(a.range.begin, a.range.end, a.id) >=
          std::make_tuple(b.range.begin, b.range.end, b.id)) {
        return Malformed("begin-sorted index entries out of order");
      }
      const RangeIndex::Entry& c = by_end[i - 1];
      const RangeIndex::Entry& d = by_end[i];
      if (std::make_tuple(c.range.end, c.range.begin, c.id) >=
          std::make_tuple(d.range.end, d.range.begin, d.id)) {
        return Malformed("end-sorted index entries out of order");
      }
    }
    index->by_begin_ = base::ArrayRef<RangeIndex::Entry>(by_begin, n);
    index->by_end_ = base::ArrayRef<RangeIndex::Entry>(by_end, n);
    index->max_end_ = base::ArrayRef<uint64_t>(
        Records<uint64_t>(ArenaSection::kIndexMaxEnd),
        Sec(ArenaSection::kIndexMaxEnd).count);
    index->revision_ = header_.goddag_revision;
    return OkStatus();
  }

  Status AdoptStats(const KyGoddag* g, SnapshotStats* stats) const {
    const uint64_t node_count = Sec(ArenaSection::kNodes).count;
    const uint64_t names = Sec(ArenaSection::kStatsNameRefs).count;
    stats->element_count_ = header_.element_count;
    stats->text_size_ = header_.text_size;
    stats->node_table_size_ = node_count;
    stats->total_range_length_ = header_.total_range_length;
    stats->hierarchy_count_ = 0;
    for (const Hierarchy& h : g->hierarchies_) {
      if (h.active) ++stats->hierarchy_count_;
    }
    const uint64_t* per_h = Records<uint64_t>(ArenaSection::kPerHierarchy);
    stats->per_hierarchy_.assign(per_h,
                                 per_h + Sec(ArenaSection::kPerHierarchy).count);
    const uint32_t* name_refs = Records<uint32_t>(ArenaSection::kStatsNameRefs);
    const uint64_t* name_counts =
        Records<uint64_t>(ArenaSection::kStatsNameCounts);
    stats->name_counts_.assign(name_counts, name_counts + names);
    for (uint64_t key = 0; key < names; ++key) {
      MHX_ASSIGN_OR_RETURN(std::string_view name, Str(name_refs[key]));
      auto [it, inserted] = stats->name_keys_.emplace(
          std::string(name), static_cast<uint32_t>(key));
      if (!inserted) return Malformed("duplicate interned element name");
    }
    const uint64_t* hist = Records<uint64_t>(ArenaSection::kLengthHistogram);
    stats->length_log2_.assign(hist, hist + 33);
    stats->node_name_keys_ = base::ArrayRef<uint32_t>(
        Records<uint32_t>(ArenaSection::kNodeNameKeys), node_count);
    const uint64_t n = header_.element_count;
    const uint32_t* soa_id = Records<uint32_t>(ArenaSection::kSoaId);
    for (uint64_t i = 0; i < n; ++i) {
      if (soa_id[i] >= node_count) {
        return Malformed("SoA node id out of range");
      }
    }
    stats->soa_.begin = base::ArrayRef<uint32_t>(
        Records<uint32_t>(ArenaSection::kSoaBegin), n);
    stats->soa_.end =
        base::ArrayRef<uint32_t>(Records<uint32_t>(ArenaSection::kSoaEnd), n);
    stats->soa_.name_key = base::ArrayRef<uint32_t>(
        Records<uint32_t>(ArenaSection::kSoaNameKey), n);
    stats->soa_.id = base::ArrayRef<NodeId>(soa_id, n);
    return OkStatus();
  }

  const char* data_;
  size_t size_;
  ArenaHeader header_{};
  // 1-indexed by section kind; ValidateHeaderAndTable fills every slot.
  ArenaSectionEntry sections_[kArenaSectionKinds + 1] = {};
};

StatusOr<std::string> SerializeSnapshot(const DocumentSnapshot& snapshot) {
  return SnapshotWriter(snapshot).Serialize();
}

Status WriteSnapshotFile(const DocumentSnapshot& snapshot,
                         const std::string& path) {
  MHX_ASSIGN_OR_RETURN(std::string image, SerializeSnapshot(snapshot));
  static std::atomic<uint64_t> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(tmp_counter.fetch_add(1) + 1);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return InternalError("arena: cannot open " + tmp + " for write");
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return InternalError("arena: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("arena: cannot rename " + tmp + " to " + path);
  }
  return OkStatus();
}

StatusOr<MappedSnapshot> AdoptArenaBuffer(
    std::shared_ptr<const std::string> bytes) {
  if (bytes == nullptr) return Malformed("null buffer");
  if (reinterpret_cast<uintptr_t>(bytes->data()) % 8 != 0) {
    // The in-place casts need 8-byte alignment; realign into a fresh
    // uint64 buffer (heap strings are in practice already aligned).
    auto aligned =
        std::make_shared<std::vector<uint64_t>>((bytes->size() + 7) / 8);
    std::memcpy(aligned->data(), bytes->data(), bytes->size());
    ArenaLoader loader(reinterpret_cast<const char*>(aligned->data()),
                       bytes->size());
    return loader.Load(std::move(aligned));
  }
  ArenaLoader loader(bytes->data(), bytes->size());
  return loader.Load(std::move(bytes));
}

StatusOr<MappedSnapshot> LoadSnapshotFile(const std::string& path) {
#if MHX_PERSIST_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("arena: no such file: " + path);
    return InternalError("arena: cannot open " + path + ": " +
                         std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Malformed("cannot stat or empty file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  // Pre-fault the whole mapping where the kernel supports it: a cold-start
  // load touches every section once (the checksum alone reads every byte),
  // and one batched populate beats a soft fault per page.
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;
#endif
  void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return InternalError("arena: mmap failed for " + path + ": " +
                         std::strerror(errno));
  }
#ifndef MAP_POPULATE
  // Ask for eager read-ahead: cold-start loads touch most sections once.
  ::madvise(addr, size, MADV_WILLNEED);
#endif
  std::shared_ptr<const void> mapping(
      addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  ArenaLoader loader(static_cast<const char*>(addr), size);
  return loader.Load(std::move(mapping));
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("arena: no such file: " + path);
  auto bytes = std::make_shared<std::string>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return AdoptArenaBuffer(std::move(bytes));
#endif
}

StatusOr<ArenaInfo> InspectArenaFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("arena: no such file: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ArenaLoader loader(bytes.data(), bytes.size());
  return loader.Inspect();
}

std::string FormatArenaInfo(const ArenaInfo& info) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "arena: format v%u, %llu bytes, %u sections\n",
                info.header.format_version,
                static_cast<unsigned long long>(info.header.file_size),
                info.header.section_count);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "doc_version=%llu goddag_revision=%llu elements=%llu text=%llu "
      "total_range_length=%llu flags=0x%x\n",
      static_cast<unsigned long long>(info.header.doc_version),
      static_cast<unsigned long long>(info.header.goddag_revision),
      static_cast<unsigned long long>(info.header.element_count),
      static_cast<unsigned long long>(info.header.text_size),
      static_cast<unsigned long long>(info.header.total_range_length),
      info.header.flags);
  out += line;
  std::snprintf(line, sizeof(line), "body checksum: %s\n",
                info.body_checksum_ok ? "OK" : "MISMATCH");
  out += line;
  std::snprintf(line, sizeof(line), "%4s  %-18s %10s %10s %10s\n", "kind",
                "name", "offset", "bytes", "count");
  out += line;
  for (const ArenaSectionInfo& s : info.sections) {
    std::snprintf(line, sizeof(line), "%4u  %-18s %10llu %10llu %10llu\n",
                  s.kind, s.name.c_str(),
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.size),
                  static_cast<unsigned long long>(s.count));
    out += line;
  }
  return out;
}

}  // namespace mhx::goddag
