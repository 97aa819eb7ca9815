// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The zero-copy persistence suite (goddag/persist.h):
//   * round-trip byte-identity — the paper's pinned queries evaluate to
//     the same bytes on the parsed document and on its adopted arena,
//     across every plan mode and thread count;
//   * reject-don't-crash — truncation, wrong magic/version/flags, checksum
//     damage, out-of-bounds indices, and a deterministic corruption fuzz
//     all fail with InvalidArgument, never UB (the sanitizer lanes run
//     this file);
//   * mapped-snapshot lifetime — a pinned mapped snapshot stays readable
//     after the file is unlinked, the MappedSnapshot struct dies, and
//     newer versions publish (CONCURRENCY.md);
//   * the corpus spill path — churn counters, corrupt-file fallback.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>
#define MHX_PERSIST_TEST_POSIX 1
#endif

#include "corpus/corpus.h"
#include "document.h"
#include "goddag/arena.h"
#include "goddag/persist.h"
#include "goddag/snapshot.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xquery/engine.h"
#include "xquery/planner.h"
#include "xquery/serialize.h"

namespace mhx {
namespace {

using goddag::AdoptArenaBuffer;
using goddag::ArenaHeader;
using goddag::InspectArenaFile;
using goddag::LoadSnapshotFile;
using goddag::MappedSnapshot;
using goddag::SerializeSnapshot;
using goddag::WriteSnapshotFile;

workload::EditionConfig TestEdition(uint64_t seed = 7,
                                    size_t words = 220) {
  workload::EditionConfig config;
  config.seed = seed;
  config.word_count = words;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

StatusOr<std::string> ImageOf(const MultihierarchicalDocument& doc) {
  return SerializeSnapshot(*doc.PinSnapshot());
}

StatusOr<MappedSnapshot> Adopt(std::string image) {
  return AdoptArenaBuffer(
      std::make_shared<const std::string>(std::move(image)));
}

MultihierarchicalDocument DocumentOf(MappedSnapshot mapped) {
  return MultihierarchicalDocument::FromSnapshot(std::move(mapped.snapshot));
}

// A mkdtemp scratch directory for the file-based tests, removed with every
// file in it when the object dies — also when an ASSERT ends a test early.
class ScratchDir {
 public:
  ScratchDir() {
#if defined(MHX_PERSIST_TEST_POSIX)
    char dir_template[] = "/tmp/mhx_persist_test.XXXXXX";
    char* dir = mkdtemp(dir_template);
    EXPECT_NE(dir, nullptr);
    if (dir != nullptr) path_ = dir;
#endif
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  // "." (never removed) when no directory could be made.
  std::string path() const { return path_.empty() ? "." : path_; }

 private:
  std::string path_;
};

// --- Round-trip byte-identity ------------------------------------------------

TEST(PersistTest, PaperQueriesByteIdenticalParsedAndMapped) {
  auto parsed = workload::BuildPaperDocument();
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  auto image = ImageOf(*parsed);
  ASSERT_TRUE(image.ok()) << image.status().message();
  auto mapped = Adopt(*image);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));

  // The pinned expectations for II.1/III.1 are the coalesced forms (runs
  // of adjacent leaves under one tag merged), matching xquery_engine_test.
  struct Pinned {
    const char* query;
    const char* expected;
    bool coalesce;
  };
  const Pinned kPinned[] = {
      {workload::kQueryI1, workload::kExpectedI1, false},
      {workload::kQueryI2, workload::kExpectedI2, false},
      {workload::kQueryII1, workload::kExpectedII1Coalesced, true},
      {workload::kQueryIII1Intent, workload::kExpectedIII1IntentCoalesced,
       true},
  };
  for (const Pinned& p : kPinned) {
    auto from_parse = parsed->Query(p.query);
    auto from_arena = loaded.Query(p.query);
    ASSERT_TRUE(from_parse.ok()) << from_parse.status().message();
    ASSERT_TRUE(from_arena.ok()) << from_arena.status().message();
    EXPECT_EQ(p.coalesce ? xquery::CoalesceRuns(*from_parse) : *from_parse,
              p.expected)
        << p.query;
    EXPECT_EQ(*from_arena, *from_parse) << p.query;
  }
}

TEST(PersistTest, GeneratedEditionRoundTripsThroughAFile) {
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  const std::string path = dir + "/edition.mhxa";
  auto parsed = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(WriteSnapshotFile(*parsed->PinSnapshot(), path).ok());

  auto mapped = LoadSnapshotFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_GT(mapped->arena_bytes, sizeof(ArenaHeader));
  EXPECT_EQ(mapped->snapshot->version(), parsed->version());
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));
  const char* kQueries[] = {
      "/descendant::w[xancestor::dmg]",
      "for $w in /descendant::w return $w/overlapping::line",
      "/descendant::line/xdescendant::w",
      "for $leaf in /descendant::leaf() "
      "return if ($leaf/xancestor::res) then <i>{$leaf}</i> else $leaf",
  };
  for (const char* query : kQueries) {
    auto a = parsed->Query(query);
    auto b = loaded.Query(query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << query;
  }
}

TEST(PersistTest, CommittedVersionRoundTrips) {
  auto doc = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(doc.ok());
  auto writer = doc->NewWriter();
  writer.AddVirtualHierarchy(
      "notes", {goddag::VirtualElement{"note", TextRange(3, 19), {}},
                goddag::VirtualElement{"note", TextRange(25, 60), {}}});
  ASSERT_TRUE(writer.Commit().ok());

  auto image = ImageOf(*doc);
  ASSERT_TRUE(image.ok()) << image.status().message();
  auto mapped = Adopt(*image);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ(mapped->snapshot->version(), 2u);
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));
  const char* kQuery = "/descendant::note/xdescendant::w";
  auto a = doc->Query(kQuery);
  auto b = loaded.Query(kQuery);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(a->empty());
}

TEST(PersistTest, LoadedDocumentAcceptsNewCommits) {
  // An adopted arena's goddag owns all of its bytes: clone-and-commit
  // works, and the new version no longer references the arena buffer.
  auto parsed = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(parsed.ok());
  auto image = ImageOf(*parsed);
  ASSERT_TRUE(image.ok());
  auto mapped = Adopt(*image);
  ASSERT_TRUE(mapped.ok());
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));

  auto writer = loaded.NewWriter();
  writer.AddVirtualHierarchy(
      "anno", {goddag::VirtualElement{"a", TextRange(2, 30), {}}});
  auto version = writer.Commit();
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(*version, 2u);
  auto out = loaded.Query("/descendant::a");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->empty());
}

TEST(PersistTest, WriterPersistToWritesTheCommittedVersion) {
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  const std::string path = dir + "/committed.mhxa";
  auto doc = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(doc.ok());
  auto writer = doc->NewWriter();
  writer.AddVirtualHierarchy(
      "notes", {goddag::VirtualElement{"note", TextRange(5, 40), {}}});
  writer.PersistTo(path);
  ASSERT_TRUE(writer.Commit().ok());

  auto mapped = LoadSnapshotFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ(mapped->snapshot->version(), doc->version());
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));
  auto a = doc->Query("/descendant::note");
  auto b = loaded.Query("/descendant::note");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(PersistTest, AdoptedSnapshotNeverRebuildsItsIndex) {
  auto parsed = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(parsed.ok());
  auto image = ImageOf(*parsed);
  ASSERT_TRUE(image.ok());
  auto mapped = Adopt(*image);
  ASSERT_TRUE(mapped.ok());
  // The adopted index is the arena's, for the same goddag revision.
  EXPECT_GT(mapped->snapshot->index().size(), 0u);
  EXPECT_EQ(mapped->snapshot->index().revision(),
            parsed->goddag().revision());
}

// --- Reject, don't crash -----------------------------------------------------

StatusOr<std::string> ValidImage() {
  auto doc = workload::BuildEditionDocument(TestEdition(11, 120));
  if (!doc.ok()) return doc.status();
  return ImageOf(*doc);
}

void ExpectRejected(std::string image, const char* what) {
  auto mapped = Adopt(std::move(image));
  ASSERT_FALSE(mapped.ok()) << "accepted a corrupt arena: " << what;
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument) << what;
}

TEST(PersistTest, RejectsTruncation) {
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  ExpectRejected("", "empty file");
  ExpectRejected(image->substr(0, 8), "shorter than the header");
  ExpectRejected(image->substr(0, sizeof(ArenaHeader)), "header only");
  ExpectRejected(image->substr(0, image->size() / 2), "half the file");
  ExpectRejected(image->substr(0, image->size() - 1), "one byte short");
}

TEST(PersistTest, RejectsWrongMagicAndVersion) {
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  {
    std::string bad = *image;
    bad[0] = 'Z';  // magic
    ExpectRejected(std::move(bad), "wrong magic");
  }
  {
    // One past the current format version, so the test stays correct when
    // the version bumps.
    std::string bad = *image;
    bad[4] = static_cast<char>(goddag::kArenaFormatVersion + 1);
    ExpectRejected(std::move(bad), "future format version");
  }
  {
    // Every arena carries the RangeSoA: one without kArenaFlagSoaValid is
    // malformed even with a matching header checksum. Resealing with the
    // flag kept must still load, so the recomputed checksum is the real one.
    auto reseal = [&image](uint32_t flags) {
      std::string out = *image;
      ArenaHeader header;
      std::memcpy(&header, out.data(), sizeof(header));
      header.flags = flags;
      header.header_checksum = 0;
      header.header_checksum = goddag::ArenaFnv1a64(
          out.data() + sizeof(header),
          goddag::kArenaSectionKinds * sizeof(goddag::ArenaSectionEntry),
          goddag::ArenaFnv1a64(&header, sizeof(header)));
      std::memcpy(&out[0], &header, sizeof(header));
      return out;
    };
    EXPECT_TRUE(Adopt(reseal(goddag::kArenaFlagSoaValid)).ok());
    ExpectRejected(reseal(0), "RangeSoA flag cleared");
  }
}

TEST(PersistTest, RejectsChecksumDamage) {
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  {
    // Flip one payload byte: the body checksum must catch it.
    std::string bad = *image;
    bad[bad.size() - 3] ^= 0x40;
    ExpectRejected(std::move(bad), "flipped body byte");
  }
  {
    // Flip one section-table byte: the header checksum must catch it.
    std::string bad = *image;
    bad[sizeof(ArenaHeader) + 9] ^= 0x01;
    ExpectRejected(std::move(bad), "flipped section-table byte");
  }
}

TEST(PersistTest, RejectsOutOfBoundsWithoutChecksums) {
  // Structural validation alone must reject out-of-bounds section claims:
  // the corrupted image is re-sealed with valid checksums, so neither
  // checksum can be what refuses it.
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  std::string bad = *image;
  // First section entry's offset field (u64 at +8 into the entry): point
  // it past the file.
  const size_t entry = sizeof(ArenaHeader);
  uint64_t huge = static_cast<uint64_t>(bad.size()) * 2;
  for (int i = 0; i < 8; ++i) {
    bad[entry + 8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  // Re-seal: body checksum over [body_offset, file_size), then the header
  // checksum over the header (that field zeroed) plus the section table.
  ArenaHeader header;
  std::memcpy(&header, bad.data(), sizeof(header));
  header.body_checksum = goddag::ArenaBodyChecksum(
      bad.data() + header.body_offset, bad.size() - header.body_offset);
  header.header_checksum = 0;
  header.header_checksum = goddag::ArenaFnv1a64(
      bad.data() + sizeof(ArenaHeader),
      goddag::kArenaSectionKinds * sizeof(goddag::ArenaSectionEntry),
      goddag::ArenaFnv1a64(&header, sizeof(header)));
  std::memcpy(&bad[0], &header, sizeof(header));

  auto mapped = Adopt(std::move(bad));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("bad section bounds"),
            std::string::npos)
      << mapped.status();
}

TEST(PersistTest, CorruptionFuzzEveryFlipFailsClosed) {
  // Deterministic fuzz: hundreds of single-byte flips and truncations over
  // a valid arena. The dual checksums mean EVERY flip must fail the load;
  // the sanitizer lanes additionally prove "no UB on the way to the
  // error". Seeded, so a failure reproduces.
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  std::mt19937_64 rng(0xC0FFEEull);
  std::uniform_int_distribution<size_t> pos_dist(0, image->size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  int flips = 0;
  for (int i = 0; i < 300; ++i) {
    std::string bad = *image;
    const size_t pos = pos_dist(rng);
    const char mask = static_cast<char>(1 << bit_dist(rng));
    bad[pos] ^= mask;  // never a no-op: XOR with a nonzero mask
    auto mapped = Adopt(std::move(bad));
    ASSERT_FALSE(mapped.ok())
        << "flip at byte " << pos << " mask " << static_cast<int>(mask)
        << " loaded successfully";
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
    ++flips;
  }
  std::uniform_int_distribution<size_t> cut_dist(0, image->size() - 1);
  for (int i = 0; i < 100; ++i) {
    auto mapped = Adopt(image->substr(0, cut_dist(rng)));
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(flips, 300);
}

TEST(PersistTest, MissingFileIsNotFound) {
  auto mapped = LoadSnapshotFile("/nonexistent/definitely/missing.mhxa");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST(PersistTest, InspectReportsSectionsAndChecksumVerdict) {
  auto image = ValidImage();
  ASSERT_TRUE(image.ok());
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  const std::string path = dir + "/inspect.mhxa";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image->data(), 1, image->size(), f),
              image->size());
    std::fclose(f);
  }
  auto info = InspectArenaFile(path);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(info->header.magic, goddag::kArenaMagic);
  EXPECT_EQ(info->sections.size(), goddag::kArenaSectionKinds);
  EXPECT_TRUE(info->body_checksum_ok);
  EXPECT_FALSE(goddag::FormatArenaInfo(*info).empty());

  // Damage one body byte: inspect still succeeds (header and table are
  // intact) but reports the body verdict — that asymmetry is the tool's
  // point.
  {
    std::string bad = *image;
    bad[bad.size() - 2] ^= 0x10;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f), bad.size());
    std::fclose(f);
  }
  auto damaged = InspectArenaFile(path);
  ASSERT_TRUE(damaged.ok());
  EXPECT_FALSE(damaged->body_checksum_ok);
}

// --- Mapped-snapshot lifetime ------------------------------------------------

TEST(PersistTest, MappedSnapshotSurvivesUnlinkAndStructDeath) {
#if !defined(MHX_PERSIST_TEST_POSIX)
  GTEST_SKIP() << "unlink semantics are POSIX";
#else
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  const std::string path = dir + "/unlinked.mhxa";
  auto parsed = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(WriteSnapshotFile(*parsed->PinSnapshot(), path).ok());
  auto expected = parsed->Query("/descendant::w[xancestor::dmg]");
  ASSERT_TRUE(expected.ok());

  std::shared_ptr<const goddag::DocumentSnapshot> pinned;
  std::unique_ptr<MultihierarchicalDocument> loaded;
  {
    auto mapped = LoadSnapshotFile(path);
    ASSERT_TRUE(mapped.ok());
    pinned = mapped->snapshot;
    loaded = std::make_unique<MultihierarchicalDocument>(
        DocumentOf(std::move(*mapped)));
    // The MappedSnapshot struct dies here; the pin and the document keep
    // the mapping alive.
  }
  ASSERT_EQ(unlink(path.c_str()), 0);

  // Post-unlink, the mapped pages must still serve queries (POSIX keeps
  // the mapping valid) and index probes through the pinned snapshot.
  auto out = loaded->Query("/descendant::w[xancestor::dmg]");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, *expected);
  EXPECT_GT(pinned->index().size(), 0u);
  EXPECT_GT(pinned->stats().element_count(), 0u);
#endif
}

TEST(PersistTest, PinnedMappedSnapshotReadableAfterNewerPublishes) {
  auto parsed = workload::BuildEditionDocument(TestEdition());
  ASSERT_TRUE(parsed.ok());
  auto image = ImageOf(*parsed);
  ASSERT_TRUE(image.ok());
  auto mapped = Adopt(*image);
  ASSERT_TRUE(mapped.ok());
  MultihierarchicalDocument loaded = DocumentOf(std::move(*mapped));

  // Pin version 1, publish versions 2 and 3, then read through the old pin:
  // MVCC says the pinned (mapped) version is immutable and intact.
  auto pin = loaded.PinSnapshot();
  const size_t pinned_elements = pin->index().size();
  for (int i = 0; i < 2; ++i) {
    auto writer = loaded.NewWriter();
    writer.AddVirtualHierarchy(
        "gen" + std::to_string(i),
        {goddag::VirtualElement{"g", TextRange(1, 9), {}}});
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(loaded.version(), 3u);
  EXPECT_EQ(pin->version(), 1u);
  EXPECT_EQ(pin->index().size(), pinned_elements);
  EXPECT_GT(pin->stats().element_count(), 0u);
}

// --- The corpus spill path ---------------------------------------------------

TEST(PersistTest, CorpusSpillServesEvictionsFromArenas) {
#if !defined(MHX_PERSIST_TEST_POSIX)
  GTEST_SKIP() << "spill churn test uses mkdtemp";
#else
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  corpus::CorpusOptions options;
  options.capacity = 1;  // every alternation evicts
  options.spill_dir = dir;
  corpus::CorpusService service(options);
  ASSERT_TRUE(service.Register("a", TestEdition(21, 140)).ok());
  ASSERT_TRUE(service.Register("b", TestEdition(22, 140)).ok());
  const char* kQuery = "/descendant::w[xancestor::dmg]";

  auto first = service.Query("a", kQuery);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service.Query("b", kQuery).ok());  // evicts a
  auto again = service.Query("a", kQuery);       // reloads a from its arena
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);  // mapped reload is byte-identical

  auto stats = service.stats();
  EXPECT_GE(stats.snapshots_persisted, 2u);
  EXPECT_GE(stats.mmap_loads, 1u);
  EXPECT_EQ(stats.load_fallbacks, 0u);
  EXPECT_GE(stats.evictions, 2u);
#endif
}

TEST(PersistTest, CorpusSpillFallsBackOnCorruptArena) {
#if !defined(MHX_PERSIST_TEST_POSIX)
  GTEST_SKIP() << "spill churn test uses mkdtemp";
#else
  const ScratchDir scratch;
  const std::string dir = scratch.path();
  corpus::CorpusOptions options;
  options.capacity = 1;
  options.spill_dir = dir;
  corpus::CorpusService service(options);
  ASSERT_TRUE(service.Register("a", TestEdition(31, 140)).ok());
  ASSERT_TRUE(service.Register("b", TestEdition(32, 140)).ok());
  const char* kQuery = "/descendant::w[xancestor::dmg]";
  auto first = service.Query("a", kQuery);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service.Query("b", kQuery).ok());  // evicts a; a's arena spilled

  // Corrupt a's arena in place, then touch it cold: the service must fall
  // back to the parse build, count the fallback, and still serve the right
  // bytes. The spill file name is an implementation detail, so corrupt
  // every .mhxa in the directory.
  size_t corrupted = 0;
  {
    std::string cmd_dir = dir;
    DIR* d = opendir(cmd_dir.c_str());
    ASSERT_NE(d, nullptr);
    while (struct dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() < 5 ||
          name.compare(name.size() - 5, 5, ".mhxa") != 0) {
        continue;
      }
      std::FILE* f = std::fopen((cmd_dir + "/" + name).c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fputs("garbage, not an arena", f);
      std::fclose(f);
      ++corrupted;
    }
    closedir(d);
  }
  ASSERT_GE(corrupted, 2u);

  auto again = service.Query("a", kQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);
  auto stats = service.stats();
  EXPECT_GE(stats.load_fallbacks, 1u);
  // The fallback parse re-spilled a fresh arena; the next eviction cycle
  // loads it cleanly.
  ASSERT_TRUE(service.Query("b", kQuery).ok());
  auto third = service.Query("a", kQuery);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, *first);
  EXPECT_GE(service.stats().mmap_loads, 1u);
#endif
}

}  // namespace
}  // namespace mhx
