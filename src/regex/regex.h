// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The regular-expression substrate behind the XQuery matches() and
// analyze-string() built-ins, over the XPath/XQuery regex dialect subset —
// literals, '.', classes, alternation, grouping with captures, the ^/$
// anchors, and the ?/*/+/{m,n} quantifiers.
//
// Compile parses the pattern into a small AST, then flattens it into a
// bytecode program (kChar/kClass/kSplit/kJmp/kSave/kMatch plus the two
// assertions). Two engines run that program:
//
// * Existence tests (ContainsMatch, FullMatch) run one of two DFAs that
//   Compile builds eagerly by subset construction over byte equivalence
//   classes: one table lookup per input byte. A pattern whose program or
//   state count exceeds a fixed budget gets no DFA (has_dfa() is false)
//   and is answered by the Pike VM instead.
// * FindAll runs a Pike-VM NFA simulation for leftmost-longest
//   (POSIX-style) spans and captures: every live thread advances one
//   character at a time, deduplicated by program counter, so run time is
//   O(|text| * |program|) regardless of the pattern (linear even on the
//   (a|a)*b pathologies benchmarked in bench_regex.cc). Submatches ride
//   along as per-thread save slots. A DFA existence test gates it, so a
//   text with no match never starts the VM.
//
// Both DFAs are immutable after Compile, so a Regex is shared across
// threads with no lazy state and no lock.

#ifndef MHX_REGEX_REGEX_H_
#define MHX_REGEX_REGEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "base/text_range.h"

namespace mhx::regex {

namespace internal {

// One instruction of the compiled NFA program.
struct Inst {
  enum class Op : uint8_t {
    kChar,         // match the single character `ch`
    kClass,        // match any character in classes[arg]
    kAnyChar,      // match any character except '\n'
    kSplit,        // fork: continue at both next_a (preferred) and next_b
    kJmp,          // continue at next_a
    kSave,         // store the current position in save slot `arg`
    kAssertStart,  // succeed only at position 0
    kAssertEnd,    // succeed only at end of text
    kMatch,        // the whole pattern matched
  };
  Op op;
  char ch = 0;
  uint32_t arg = 0;
  uint32_t next_a = 0;
  uint32_t next_b = 0;
};

// A 256-bit character-set bitmap.
using CharClass = std::array<uint64_t, 4>;

// A DFA over byte equivalence classes: bytes that every kChar/kClass/
// kAnyChar instruction treats alike share a class, so a row holds one
// transition per class rather than per byte. State ids are premultiplied
// row offsets into `next`. Row 0 is the dead state and row 1 the match
// state; both end a scan (Matches reads which one it reached), and an
// anchored DFA never enters the match row, since it accepts only at end of
// text. An empty `next` means no DFA was built.
struct Dfa {
  std::array<uint8_t, 256> byte_class{};
  uint32_t class_count = 0;
  uint32_t start = 0;
  std::vector<uint32_t> next;
  // Per state (row index): accepts when the text ends in this state. Folds
  // in the $ instructions the state still holds, and for the position-0
  // start state also ^, so "$^$" accepts the empty text only.
  std::vector<uint8_t> accept_at_end;

  bool built() const { return !next.empty(); }

  // True when the scan over `text` reaches the match row or ends in a
  // state that accepts at end of text.
  bool Matches(std::string_view text) const;
};

// "Position not recorded" marker for capture save slots.
inline constexpr size_t kUnsetPos = static_cast<size_t>(-1);

// Copy-on-write storage for the per-thread capture save slots. NFA threads
// used to carry their own std::vector<size_t>, copied wholesale on every
// kSplit — one allocation per forked thread per input character in
// capture-heavy patterns. Here a thread holds a refcounted handle to a slot
// block instead: forks bump a refcount, and only a kSave landing on a
// shared block pays a clone. Freed blocks go to a free list and are reused
// with their vector capacity intact, so a warmed-up FindAll scan allocates
// nothing at all.
class SlotPool {
 public:
  // Prepares the pool for a Search over `nslots`-wide threads. Any blocks
  // still referenced by the previous Search's abandoned threads (early
  // returns leave some behind deliberately) are reclaimed here.
  void Reset(size_t nslots) {
    nslots_ = nslots;
    free_.clear();
    free_.reserve(blocks_.size());
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i].refs = 0;
      free_.push_back(static_cast<uint32_t>(i));
    }
  }

  // A fresh block with every slot kUnsetPos, refcount 1.
  uint32_t Alloc() {
    const uint32_t handle = TakeBlock();
    blocks_[handle].values.assign(nslots_, kUnsetPos);
    return handle;
  }

  void Ref(uint32_t handle) { ++blocks_[handle].refs; }

  void Unref(uint32_t handle) {
    if (--blocks_[handle].refs == 0) free_.push_back(handle);
  }

  // Writes `value` into `slot`, cloning first when the block is shared.
  // Returns the handle holding the write (the original when exclusive).
  uint32_t SetSlot(uint32_t handle, uint32_t slot, size_t value) {
    if (blocks_[handle].refs == 1) {
      blocks_[handle].values[slot] = value;
      return handle;
    }
    --blocks_[handle].refs;
    const uint32_t clone = TakeBlock();
    // Index, not reference: TakeBlock may have grown blocks_.
    blocks_[clone].values = blocks_[handle].values;
    blocks_[clone].values[slot] = value;
    return clone;
  }

  const std::vector<size_t>& values(uint32_t handle) const {
    return blocks_[handle].values;
  }

  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::vector<size_t> values;
    uint32_t refs = 0;
  };

  uint32_t TakeBlock() {
    if (!free_.empty()) {
      const uint32_t handle = free_.back();
      free_.pop_back();
      blocks_[handle].refs = 1;
      return handle;
    }
    blocks_.emplace_back();
    blocks_.back().refs = 1;
    return static_cast<uint32_t>(blocks_.size() - 1);
  }

  std::vector<Block> blocks_;
  std::vector<uint32_t> free_;
  size_t nslots_ = 0;
};

// One step's worth of runnable threads, in priority order. `saves` holds
// SlotPool handles; each listed thread owns one reference.
struct ThreadList {
  std::vector<uint32_t> pcs;
  std::vector<uint32_t> saves;
  void Clear() {
    pcs.clear();
    saves.clear();
  }
  bool empty() const { return pcs.empty(); }
};

// An epsilon-closure work item: a pc plus a SlotPool handle the pending
// thread owns one reference on.
struct PendingThread {
  uint32_t pc;
  uint32_t saves;
};

// Reusable scan state. FindAll shares one across its per-match Search
// calls, and a caller may pass its own across many FindAll calls (public
// as ScanScratch), so the visited-marks array, the closure work stack, and
// the save-slot blocks are allocated once per scan or once per caller (the
// generation counter and SlotPool::Reset take care of the implicit
// clearing, whatever pattern ran last).
struct SearchScratch {
  std::vector<uint64_t> mark;
  ThreadList clist, nlist;
  SlotPool slots;
  std::vector<PendingThread> closure_stack;
  uint64_t generation = 0;
};

}  // namespace internal

// Reusable Pike-VM scan state for FindAll. Not tied to a pattern: every
// Search resizes and resets what it reads, so one scratch may serve any
// sequence of regexes, but only one thread at a time.
using ScanScratch = internal::SearchScratch;

// A compiled pattern. Immutable after Compile, so one Regex may be matched
// from any number of threads (each match carries its own thread state).
class Regex {
 public:
  struct Match {
    // Whole-match range over the searched text.
    TextRange range;
    // Capture-group ranges, 1-indexed group k at groups[k - 1]; unmatched
    // groups are empty ranges at position 0.
    std::vector<TextRange> groups;
  };

  // Compiles `pattern` or returns InvalidArgument describing the syntax
  // error.
  static StatusOr<Regex> Compile(std::string_view pattern);

  Regex(Regex&&) = default;
  Regex& operator=(Regex&&) = default;

  // All non-overlapping matches, leftmost-longest, in text order.
  std::vector<Match> FindAll(std::string_view text) const;
  // The same, scanning with the caller's `scratch` instead of allocating
  // one per call — for callers running many short scans.
  std::vector<Match> FindAll(std::string_view text,
                             ScanScratch* scratch) const;

  // True when some substring of `text` matches.
  bool ContainsMatch(std::string_view text) const;

  // True when the whole of `text` matches.
  bool FullMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }
  size_t group_count() const { return group_count_; }
  // Program length — the per-character work bound of the Pike VM.
  size_t program_size() const { return program_.size(); }
  // True when Compile built the existence-test DFAs; false when the
  // pattern exceeded the DFA budget and every call runs the Pike VM.
  bool has_dfa() const { return contains_dfa_.built(); }

 private:
  struct SearchResult {
    size_t begin = 0;
    size_t end = 0;
    std::vector<size_t> saves;
  };

  explicit Regex(std::string pattern) : pattern_(std::move(pattern)) {}

  // Runs the VM over text[from..). `anchored` admits only threads starting
  // at `from`; `full` admits only matches ending at text.size(). Returns
  // false when no match exists. With `first_only` the search stops at the
  // first completed match (existence tests); otherwise it returns the
  // leftmost-longest one. `scratch` may be reused across calls.
  bool Search(std::string_view text, size_t from, bool anchored, bool full,
              bool first_only, internal::SearchScratch* scratch,
              SearchResult* out) const;

  // The Pike-VM halves of the public calls, with no DFA involved.
  std::vector<Match> PikeFindAll(std::string_view text,
                                 ScanScratch* scratch) const;
  bool PikeContainsMatch(std::string_view text) const;
  bool PikeFullMatch(std::string_view text) const;

  std::string pattern_;
  std::vector<internal::Inst> program_;
  std::vector<internal::CharClass> classes_;
  size_t group_count_ = 0;
  // Unanchored (ContainsMatch, the FindAll gate) and anchored (FullMatch)
  // DFAs; both built or neither.
  internal::Dfa contains_dfa_;
  internal::Dfa full_dfa_;

  friend class RegexCompiler;
  // Defined by the regex tests, which use the Pike VM as the DFA's oracle.
  friend struct RegexTestPeer;
};

}  // namespace mhx::regex

#endif  // MHX_REGEX_REGEX_H_
