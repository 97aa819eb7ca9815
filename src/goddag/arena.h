// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The on-disk arena format behind goddag/persist.h: one flat, offset-based
// serialization of a published DocumentSnapshot — node table, hierarchy
// arcs, leaf-partition boundaries, interned string pool, the prebuilt
// RangeIndex arrays, and the packed RangeSoA/stats block — laid out so a
// loader can adopt the expensive structures directly out of an mmap'ed
// file without rebuilding them (see DESIGN.md "On-disk format").
//
// Layout:  [ArenaHeader][ArenaSectionEntry x section_count][sections...]
//
//   * All multi-byte fields are little-endian, fixed-width, and written at
//     their natural alignment; section payloads start at offsets that are
//     multiples of kArenaSectionAlign so in-place casts are aligned.
//   * `header_checksum` is FNV-1a/64 over the header (with that field
//     zeroed) plus the section table; `body_checksum` covers every byte
//     from `body_offset` to `file_size` with the 4-lane word-at-a-time
//     variant (ArenaBodyChecksum) — the body is megabytes where the
//     header is bytes, and cold-start validation pays this on every load.
//     Together they cover the file.
//   * `format_version` is bumped on ANY layout change — readers reject
//     versions they do not know, never guess (no minor/patch semantics).
//
// The record structs below are the exact on-disk layout (static_asserts in
// persist.cc pin the sizes); they carry no pointers, only indices into
// sibling sections, which is what makes the arena position-independent.

#ifndef MHX_GODDAG_ARENA_H_
#define MHX_GODDAG_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace mhx::goddag {

// "MHXA" read as a little-endian uint32.
inline constexpr uint32_t kArenaMagic = 0x4158484du;
inline constexpr uint32_t kArenaFormatVersion = 1;
// Section payload offsets are multiples of this (cache-line sized, and far
// above the 8-byte alignment the in-place casts require).
inline constexpr uint64_t kArenaSectionAlign = 64;
// ArenaHeader::flags bit: the RangeSoA sections are populated. Every arena
// sets it (every document has a RangeSoA); loaders reject one without it.
inline constexpr uint32_t kArenaFlagSoaValid = 1u << 0;
// "no string" sentinel for ArenaNode::name_ref (free slots, the root).
inline constexpr uint32_t kArenaNoString = 0xffffffffu;
// ArenaHierarchy::flags bits.
inline constexpr uint32_t kArenaHierarchyActive = 1u << 0;
inline constexpr uint32_t kArenaHierarchyVirtual = 1u << 1;

// Every section kind of format version 1, in file order. A valid arena
// contains each kind exactly once (possibly with count 0).
enum class ArenaSection : uint32_t {
  kStringBlob = 1,       // bytes: concatenated interned strings
  kStringTable = 2,      // ArenaStringRef per interned string
  kBaseText = 3,         // bytes: the document's base text
  kNodes = 4,            // ArenaNode per node-table slot (root included)
  kChildren = 5,         // uint32 NodeId pool (per-node child slices)
  kAttrs = 6,            // ArenaAttrRef pool (per-node attribute slices)
  kHierarchies = 7,      // ArenaHierarchy per hierarchy-table slot
  kHierarchyNodes = 8,   // uint32 NodeId pool (per-hierarchy node lists)
  kLeafBoundaries = 9,   // ArenaBoundary per leaf-partition boundary
  kIndexByBegin = 10,    // ArenaIndexEntry, RangeIndex begin-sorted order
  kIndexByEnd = 11,      // ArenaIndexEntry, RangeIndex end-sorted order
  kIndexMaxEnd = 12,     // uint64 segment tree over kIndexByBegin
  kSoaBegin = 13,        // uint32 per live element (RangeSoA)
  kSoaEnd = 14,          // uint32 per live element (RangeSoA)
  kSoaNameKey = 15,      // uint32 per live element (RangeSoA)
  kSoaId = 16,           // uint32 per live element (RangeSoA)
  kNodeNameKeys = 17,    // uint32 per node-table slot (stats pushdown keys)
  kStatsNameRefs = 18,   // uint32 string-table ref per interned name key
  kStatsNameCounts = 19, // uint64 live-element count per interned name key
  kPerHierarchy = 20,    // uint64 live-element count per hierarchy slot
  kLengthHistogram = 21, // uint64 x 33 log2 range-length buckets
};
inline constexpr uint32_t kArenaSectionKinds = 21;

// The fixed-size file header (88 bytes).
struct ArenaHeader {
  uint32_t magic;            // kArenaMagic
  uint32_t format_version;   // kArenaFormatVersion
  uint64_t file_size;        // total bytes, header included
  uint32_t section_count;    // kArenaSectionKinds for format version 1
  uint32_t flags;            // kArenaFlag* bits
  uint64_t doc_version;      // DocumentSnapshot::version()
  uint64_t goddag_revision;  // KyGoddag::revision() at serialization
  uint64_t element_count;    // live elements (== index/SoA entry counts)
  uint64_t text_size;        // base-text bytes (== kBaseText size)
  uint64_t total_range_length;  // SnapshotStats::total_range_length()
  uint64_t body_offset;      // first section byte; body checksum starts here
  uint64_t body_checksum;    // FNV-1a/64 over [body_offset, file_size)
  uint64_t header_checksum;  // FNV-1a/64, header (field zeroed) + table
};

// One section-table row (32 bytes). `offset` is absolute, `size` in bytes,
// `count` in records; size == count x record size for the kind.
struct ArenaSectionEntry {
  uint32_t kind;      // ArenaSection
  uint32_t reserved;  // zero
  uint64_t offset;
  uint64_t size;
  uint64_t count;
};

// One interned string: a slice of kStringBlob.
struct ArenaStringRef {
  uint32_t offset;
  uint32_t size;
};

// One node-table slot (48 bytes). Free slots carry kind kFree, name_ref
// kArenaNoString, parent kInvalidNode, and zeros elsewhere.
struct ArenaNode {
  uint64_t begin;           // TextRange
  uint64_t end;
  uint32_t parent;          // NodeId or kInvalidNode
  uint32_t hierarchy;       // HierarchyId
  uint32_t name_ref;        // kStringTable index or kArenaNoString
  uint32_t children_begin;  // slice of kChildren
  uint32_t children_count;
  uint32_t attrs_begin;     // slice of kAttrs
  uint32_t attrs_count;
  uint32_t kind;            // GNodeKind widened
};

// One attribute: interned key and value.
struct ArenaAttrRef {
  uint32_t key_ref;    // kStringTable index
  uint32_t value_ref;  // kStringTable index
};

// One hierarchy-table slot (24 bytes). Inactive slots are all-zero except
// a cleared kArenaHierarchyActive flag.
struct ArenaHierarchy {
  uint32_t name_ref;     // kStringTable index or kArenaNoString
  uint32_t root;         // NodeId or kInvalidNode
  uint32_t nodes_begin;  // slice of kHierarchyNodes (pre-order node list)
  uint32_t nodes_count;
  uint32_t flags;        // kArenaHierarchy* bits
  uint32_t reserved;     // zero
};

// One leaf-partition boundary: text offset + live endpoint refcount
// (KyGoddag::boundary_refs_, sentinels at 0 and text_size included).
struct ArenaBoundary {
  uint64_t pos;
  uint32_t refs;
  uint32_t reserved;  // zero
};

// One RangeIndex entry (24 bytes) — bit-compatible with the in-memory
// RangeIndex::Entry on LP64 little-endian targets, so kIndexByBegin /
// kIndexByEnd are adopted by pointer cast (asserted in persist.cc).
struct ArenaIndexEntry {
  uint64_t begin;
  uint64_t end;
  uint32_t id;
  uint32_t reserved;  // zero (the in-memory struct's tail padding)
};

// FNV-1a/64 over `size` bytes, optionally chained via `seed`. Used for the
// header checksum (sub-kilobyte input; byte-serial is fine there).
uint64_t ArenaFnv1a64(const void* data, size_t size,
                      uint64_t seed = 14695981039346656037ull);

// The body checksum: four independent FNV-style lanes over 64-bit
// little-endian words (lane j eats words 4i+j), tail bytes zero-padded
// into a final word, lanes and the length folded together with byte-FNV.
// ~8 bytes per multiply with 4-way ILP, an order of magnitude faster than
// byte-serial FNV on arena-sized inputs, with the same single-bit-flip
// detection the loader's corruption tests pin.
uint64_t ArenaBodyChecksum(const void* data, size_t size);

// Bytes per record of a section kind (1 for the byte sections, 0 for an
// unknown kind — which a loader must reject).
uint64_t ArenaRecordSize(uint32_t kind);

// Human-readable section-kind name for tools/mhx_pack --inspect.
const char* ArenaSectionName(uint32_t kind);

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_ARENA_H_
