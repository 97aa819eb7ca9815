// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "regex/regex.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "base/status_macros.h"

namespace mhx::regex {

namespace {

using internal::CharClass;
using internal::Inst;

constexpr size_t kUnset = internal::kUnsetPos;
// Bounded repetition is compiled by fragment copying; cap it (and the total
// program size) so hostile patterns cannot allocate without limit.
constexpr uint32_t kMaxBoundedRepeat = 512;
constexpr size_t kMaxProgramSize = 1 << 16;
// The existence-test DFAs are built only for programs up to
// kMaxDfaProgramSize instructions and kept only when subset construction
// stays within kMaxDfaStates states per DFA (the dead and match rows
// included) and kMaxDfaBuildSteps steps (closure visits plus set-union
// words, both DFAs together). Past any of the three the pattern keeps the
// Pike VM alone, so compile work and table memory stay bounded for hostile
// patterns.
constexpr size_t kMaxDfaProgramSize = 1024;
constexpr size_t kMaxDfaStates = 256;
constexpr size_t kMaxDfaBuildSteps = size_t{1} << 20;
// Parser (and therefore compiler/destructor) recursion is proportional to
// group nesting; cap it so hostile patterns error instead of overflowing
// the stack.
constexpr int kMaxGroupDepth = 200;

void ClassAdd(CharClass* cls, unsigned char c) {
  (*cls)[c >> 6] |= uint64_t{1} << (c & 63);
}

void ClassAddRange(CharClass* cls, unsigned char lo, unsigned char hi) {
  for (unsigned c = lo; c <= hi; ++c) ClassAdd(cls, static_cast<char>(c));
}

bool ClassHas(const CharClass& cls, unsigned char c) {
  return (cls[c >> 6] >> (c & 63)) & 1;
}

// The perl-style class escapes shared by atoms and bracket expressions.
bool AddEscapeClass(char e, CharClass* cls) {
  CharClass base{};
  switch (e) {
    case 'd':
    case 'D':
      ClassAddRange(&base, '0', '9');
      break;
    case 'w':
    case 'W':
      ClassAddRange(&base, 'a', 'z');
      ClassAddRange(&base, 'A', 'Z');
      ClassAddRange(&base, '0', '9');
      ClassAdd(&base, '_');
      break;
    case 's':
    case 'S':
      for (char c : {' ', '\t', '\n', '\r', '\f', '\v'}) ClassAdd(&base, c);
      break;
    default:
      return false;
  }
  if (e == 'D' || e == 'W' || e == 'S') {
    for (auto& word : base) word = ~word;
  }
  for (size_t i = 0; i < base.size(); ++i) (*cls)[i] |= base[i];
  return true;
}

// --- Pattern AST -----------------------------------------------------------

struct RNode {
  enum class Kind {
    kEmpty,
    kChar,
    kAny,
    kClass,
    kConcat,
    kAlt,
    kRepeat,
    kGroup,
    kAnchorStart,
    kAnchorEnd,
  };
  Kind kind = Kind::kEmpty;
  char ch = 0;
  uint32_t class_index = 0;
  uint32_t group = 0;                // kGroup: 1-based capture index
  uint32_t min = 0, max = 0;         // kRepeat; max == kNoUpperBound for {m,}
  std::vector<RNode> children;

  static constexpr uint32_t kNoUpperBound = static_cast<uint32_t>(-1);
};

// Recursive-descent pattern parser. Every error is anchored to a pattern
// offset so Compile callers can report precise syntax diagnostics.
class PatternParser {
 public:
  PatternParser(std::string_view pattern, std::vector<CharClass>* classes)
      : p_(pattern), classes_(classes) {}

  StatusOr<RNode> Parse() {
    MHX_ASSIGN_OR_RETURN(RNode root, ParseAlternation());
    if (pos_ != p_.size()) {
      return Error("unmatched ')'");
    }
    return root;
  }

  uint32_t group_count() const { return group_count_; }

 private:
  Status Error(const std::string& what) const {
    // Quote at most the head of a hostile-sized pattern.
    std::string shown(p_.substr(0, 128));
    if (p_.size() > 128) shown += "...";
    return InvalidArgumentError("regex syntax error at offset " +
                                std::to_string(pos_) + " in '" + shown +
                                "': " + what);
  }

  bool AtEnd() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }

  StatusOr<RNode> ParseAlternation() {
    RNode alt;
    alt.kind = RNode::Kind::kAlt;
    MHX_ASSIGN_OR_RETURN(RNode first, ParseConcat());
    alt.children.push_back(std::move(first));
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      MHX_ASSIGN_OR_RETURN(RNode next, ParseConcat());
      alt.children.push_back(std::move(next));
    }
    if (alt.children.size() == 1) return std::move(alt.children.front());
    return alt;
  }

  StatusOr<RNode> ParseConcat() {
    RNode cat;
    cat.kind = RNode::Kind::kConcat;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      MHX_ASSIGN_OR_RETURN(RNode item, ParseRepeat());
      cat.children.push_back(std::move(item));
    }
    if (cat.children.empty()) {
      cat.kind = RNode::Kind::kEmpty;
      cat.children.clear();
    } else if (cat.children.size() == 1) {
      return std::move(cat.children.front());
    }
    return cat;
  }

  StatusOr<RNode> ParseRepeat() {
    MHX_ASSIGN_OR_RETURN(RNode atom, ParseAtom());
    bool quantified = false;
    while (!AtEnd()) {
      char c = Peek();
      uint32_t min = 0, max = 0;
      if (c == '*') {
        min = 0;
        max = RNode::kNoUpperBound;
        ++pos_;
      } else if (c == '+') {
        min = 1;
        max = RNode::kNoUpperBound;
        ++pos_;
      } else if (c == '?') {
        min = 0;
        max = 1;
        ++pos_;
      } else if (c == '{') {
        MHX_RETURN_IF_ERROR(ParseBounds(&min, &max));
      } else {
        break;
      }
      if (quantified) return Error("double quantifier");
      quantified = true;
      RNode rep;
      rep.kind = RNode::Kind::kRepeat;
      rep.min = min;
      rep.max = max;
      rep.children.push_back(std::move(atom));
      atom = std::move(rep);
    }
    return atom;
  }

  Status ParseBounds(uint32_t* min, uint32_t* max) {
    ++pos_;  // '{'
    MHX_ASSIGN_OR_RETURN(*min, ParseBoundNumber());
    if (!AtEnd() && Peek() == ',') {
      ++pos_;
      if (!AtEnd() && Peek() == '}') {
        *max = RNode::kNoUpperBound;
      } else {
        MHX_ASSIGN_OR_RETURN(*max, ParseBoundNumber());
      }
    } else {
      *max = *min;
    }
    if (AtEnd() || Peek() != '}') return Error("expected '}' in bounds");
    ++pos_;
    if (*max != RNode::kNoUpperBound && *max < *min) {
      return Error("bounds {m,n} with m > n");
    }
    return OkStatus();
  }

  StatusOr<uint32_t> ParseBoundNumber() {
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("expected number in bounds");
    }
    uint32_t value = 0;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      value = value * 10 + static_cast<uint32_t>(Peek() - '0');
      if (value > kMaxBoundedRepeat) {
        return Error("repetition bound exceeds " +
                     std::to_string(kMaxBoundedRepeat));
      }
      ++pos_;
    }
    return value;
  }

  StatusOr<RNode> ParseAtom() {
    RNode node;
    char c = Peek();
    switch (c) {
      case '(': {
        if (depth_ >= kMaxGroupDepth) {
          return Error("groups nested deeper than " +
                       std::to_string(kMaxGroupDepth));
        }
        ++depth_;
        ++pos_;
        uint32_t group = ++group_count_;
        auto parsed = ParseAlternation();
        --depth_;
        if (!parsed.ok()) return parsed.status();
        RNode sub = std::move(parsed).value();
        if (AtEnd() || Peek() != ')') return Error("unclosed group");
        ++pos_;
        node.kind = RNode::Kind::kGroup;
        node.group = group;
        node.children.push_back(std::move(sub));
        return node;
      }
      case '[':
        return ParseClass();
      case '.':
        ++pos_;
        node.kind = RNode::Kind::kAny;
        return node;
      case '^':
        ++pos_;
        node.kind = RNode::Kind::kAnchorStart;
        return node;
      case '$':
        ++pos_;
        node.kind = RNode::Kind::kAnchorEnd;
        return node;
      case '*':
      case '+':
      case '?':
      case '{':
        return Error(std::string("nothing to repeat before '") + c + "'");
      case '\\': {
        if (pos_ + 1 >= p_.size()) return Error("trailing backslash");
        char e = p_[pos_ + 1];
        pos_ += 2;
        CharClass cls{};
        if (AddEscapeClass(e, &cls)) {
          node.kind = RNode::Kind::kClass;
          node.class_index = static_cast<uint32_t>(classes_->size());
          classes_->push_back(cls);
          return node;
        }
        node.kind = RNode::Kind::kChar;
        node.ch = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        return node;
      }
      default:
        ++pos_;
        node.kind = RNode::Kind::kChar;
        node.ch = c;
        return node;
    }
  }

  StatusOr<RNode> ParseClass() {
    ++pos_;  // '['
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    CharClass cls{};
    bool first = true;
    while (true) {
      if (AtEnd()) return Error("unterminated character class");
      char c = Peek();
      if (c == ']' && !first) break;
      first = false;
      ++pos_;
      if (c == '\\') {
        if (AtEnd()) return Error("trailing backslash in class");
        char e = Peek();
        ++pos_;
        if (AddEscapeClass(e, &cls)) continue;
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
      }
      // Range `c-hi` unless the '-' is the trailing literal.
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        char hi = p_[pos_ + 1];
        pos_ += 2;
        if (hi == '\\') {
          if (AtEnd()) return Error("trailing backslash in class");
          char e = Peek();
          ++pos_;
          // Multi-character escapes cannot bound a range.
          if (e == 'd' || e == 'D' || e == 'w' || e == 'W' || e == 's' ||
              e == 'S') {
            return Error(std::string("class escape \\") + e +
                         " cannot end a range");
          }
          hi = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        }
        if (static_cast<unsigned char>(c) > static_cast<unsigned char>(hi)) {
          return Error("invalid class range");
        }
        ClassAddRange(&cls, static_cast<unsigned char>(c),
                      static_cast<unsigned char>(hi));
        continue;
      }
      ClassAdd(&cls, static_cast<unsigned char>(c));
    }
    ++pos_;  // ']'
    if (negate) {
      for (auto& word : cls) word = ~word;
    }
    RNode node;
    node.kind = RNode::Kind::kClass;
    node.class_index = static_cast<uint32_t>(classes_->size());
    classes_->push_back(cls);
    return node;
  }

  std::string_view p_;
  size_t pos_ = 0;
  uint32_t group_count_ = 0;
  int depth_ = 0;
  std::vector<CharClass>* classes_;
};

}  // namespace

// Flattens the AST into the bytecode program. Kept a friend class (not a
// free function) so it can append into the Regex being built.
class RegexCompiler {
 public:
  explicit RegexCompiler(Regex* re) : re_(re) {}

  Status CompileProgram(const RNode& root) {
    EmitSave(0);
    MHX_RETURN_IF_ERROR(Emit(root));
    EmitSave(1);
    Append(Inst{Inst::Op::kMatch});
    return OkStatus();
  }

 private:
  std::vector<Inst>& prog() { return re_->program_; }

  uint32_t Append(Inst inst) {
    prog().push_back(inst);
    return static_cast<uint32_t>(prog().size() - 1);
  }

  void EmitSave(uint32_t slot) {
    Inst inst{Inst::Op::kSave};
    inst.arg = slot;
    Append(inst);
  }

  Status Emit(const RNode& n) {
    if (prog().size() > kMaxProgramSize) {
      return InvalidArgumentError("regex program exceeds " +
                                  std::to_string(kMaxProgramSize) +
                                  " instructions");
    }
    switch (n.kind) {
      case RNode::Kind::kEmpty:
        return OkStatus();
      case RNode::Kind::kChar: {
        Inst inst{Inst::Op::kChar};
        inst.ch = n.ch;
        Append(inst);
        return OkStatus();
      }
      case RNode::Kind::kAny:
        Append(Inst{Inst::Op::kAnyChar});
        return OkStatus();
      case RNode::Kind::kClass: {
        Inst inst{Inst::Op::kClass};
        inst.arg = n.class_index;
        Append(inst);
        return OkStatus();
      }
      case RNode::Kind::kAnchorStart:
        Append(Inst{Inst::Op::kAssertStart});
        return OkStatus();
      case RNode::Kind::kAnchorEnd:
        Append(Inst{Inst::Op::kAssertEnd});
        return OkStatus();
      case RNode::Kind::kConcat:
        for (const RNode& child : n.children) {
          MHX_RETURN_IF_ERROR(Emit(child));
        }
        return OkStatus();
      case RNode::Kind::kGroup:
        EmitSave(2 * n.group);
        MHX_RETURN_IF_ERROR(Emit(n.children.front()));
        EmitSave(2 * n.group + 1);
        return OkStatus();
      case RNode::Kind::kAlt: {
        // split -> alt0, next-alt; every alternative jumps to the common end.
        std::vector<uint32_t> jumps;
        for (size_t i = 0; i < n.children.size(); ++i) {
          uint32_t split = 0;
          if (i + 1 < n.children.size()) split = Append(Inst{Inst::Op::kSplit});
          MHX_RETURN_IF_ERROR(Emit(n.children[i]));
          if (i + 1 < n.children.size()) {
            jumps.push_back(Append(Inst{Inst::Op::kJmp}));
            prog()[split].next_a = split + 1;
            prog()[split].next_b = static_cast<uint32_t>(prog().size());
          }
        }
        uint32_t end = static_cast<uint32_t>(prog().size());
        for (uint32_t j : jumps) prog()[j].next_a = end;
        return OkStatus();
      }
      case RNode::Kind::kRepeat: {
        const RNode& body = n.children.front();
        for (uint32_t i = 0; i < n.min; ++i) {
          MHX_RETURN_IF_ERROR(Emit(body));
        }
        if (n.max == RNode::kNoUpperBound) {
          // Greedy loop: split(body, out); body; jmp split.
          uint32_t split = Append(Inst{Inst::Op::kSplit});
          MHX_RETURN_IF_ERROR(Emit(body));
          Inst jmp{Inst::Op::kJmp};
          jmp.next_a = split;
          Append(jmp);
          prog()[split].next_a = split + 1;
          prog()[split].next_b = static_cast<uint32_t>(prog().size());
          return OkStatus();
        }
        // (max - min) optional greedy copies, all bailing to the common end.
        std::vector<uint32_t> splits;
        for (uint32_t i = n.min; i < n.max; ++i) {
          splits.push_back(Append(Inst{Inst::Op::kSplit}));
          MHX_RETURN_IF_ERROR(Emit(body));
        }
        uint32_t end = static_cast<uint32_t>(prog().size());
        for (uint32_t s : splits) {
          prog()[s].next_a = s + 1;
          prog()[s].next_b = end;
        }
        return OkStatus();
      }
    }
    return InternalError("unhandled regex AST node");
  }

  Regex* re_;
};

namespace {

bool Consumes(const Inst& inst, const std::vector<CharClass>& classes,
              unsigned char b) {
  switch (inst.op) {
    case Inst::Op::kChar:
      return static_cast<unsigned char>(inst.ch) == b;
    case Inst::Op::kClass:
      return ClassHas(classes[inst.arg], b);
    case Inst::Op::kAnyChar:
      return b != '\n';
    default:
      return false;
  }
}

// A set of program counters: `words` 64-bit words, bit pc % 64 of word
// pc / 64.
void SetBit(uint64_t* set, uint32_t pc) {
  set[pc / 64] |= uint64_t{1} << (pc % 64);
}

// Splits the 256 byte values into classes that every consuming instruction
// treats alike, without testing every byte against every instruction: a
// range boundary falls wherever some kChar/kClass/kAnyChar set changes
// membership between byte b - 1 and b, and ranges that every instruction
// treats alike share a class. Returns, per class, the set of program
// counters whose instruction consumes that class's bytes.
std::vector<uint64_t> ComputeByteClasses(const std::vector<Inst>& program,
                                         const std::vector<CharClass>& classes,
                                         size_t words, internal::Dfa* dfa) {
  CharClass bounds{};
  ClassAdd(&bounds, 0);
  auto edge = [&bounds](unsigned c) {
    if (c < 256) ClassAdd(&bounds, static_cast<unsigned char>(c));
  };
  for (const Inst& inst : program) {
    if (inst.op == Inst::Op::kChar) {
      edge(static_cast<unsigned char>(inst.ch));
      edge(static_cast<unsigned char>(inst.ch) + 1u);
    } else if (inst.op == Inst::Op::kAnyChar) {
      edge('\n');
      edge('\n' + 1u);
    }
  }
  for (const CharClass& cls : classes) {
    // Bit b of (cls ^ (cls << 1)) is set where membership of b differs
    // from membership of b - 1.
    uint64_t carry = 0;
    for (size_t w = 0; w < cls.size(); ++w) {
      bounds[w] |= cls[w] ^ ((cls[w] << 1) | carry);
      carry = cls[w] >> 63;
    }
  }
  std::array<uint16_t, 257> range_begin;
  size_t ranges = 0;
  for (size_t w = 0; w < bounds.size(); ++w) {
    for (uint64_t bits = bounds[w]; bits != 0; bits &= bits - 1) {
      range_begin[ranges++] =
          static_cast<uint16_t>(64 * w + __builtin_ctzll(bits));
    }
  }
  range_begin[ranges] = 256;
  std::vector<uint64_t> accepts;  // class_count sets of `words` words
  std::vector<uint64_t> range(words);
  uint32_t class_count = 0;
  for (size_t r = 0; r < ranges; ++r) {
    const auto b = static_cast<unsigned char>(range_begin[r]);
    std::fill(range.begin(), range.end(), 0);
    for (uint32_t pc = 0; pc < program.size(); ++pc) {
      if (Consumes(program[pc], classes, b)) SetBit(range.data(), pc);
    }
    uint32_t c = 0;
    while (c < class_count &&
           !std::equal(range.begin(), range.end(), &accepts[c * words])) {
      ++c;
    }
    if (c == class_count) {
      accepts.insert(accepts.end(), range.begin(), range.end());
      ++class_count;
    }
    std::fill(dfa->byte_class.begin() + range_begin[r],
              dfa->byte_class.begin() + range_begin[r + 1],
              static_cast<uint8_t>(c));
  }
  dfa->class_count = class_count;
  return accepts;
}

// Subset construction over the compiled program. A DFA state is the set of
// program counters where epsilon closure stops: consuming instructions,
// kMatch, and kAssertEnd (kept in the set; it passes only when the text
// ends, which accept_at_end folds in). Sets are bitsets, so a transition is
// the union of the precomputed closures behind the instructions that
// consume the class. ^ passes only in the closure that builds the
// position-0 start state. When ^ also changes that state's end-of-text
// acceptance, as in "$^$", the start state is kept out of the set-to-state
// index, so a later state with the same set gets its own row.
class DfaBuilder {
 public:
  DfaBuilder(const std::vector<Inst>& program,
             const std::vector<CharClass>& classes, internal::Dfa* dfa)
      : program_(program),
        words_(program.size() / 64 + 1),
        mark_(program.size(), 0),
        after_(program.size() * words_, 0),
        closed_(program.size(), 0),
        set_(words_),
        current_(words_),
        end_set_(words_),
        later_start_(words_, 0),
        matches_(words_, 0),
        ends_(words_, 0) {
    accepts_ = ComputeByteClasses(program, classes, words_, dfa);
    for (uint32_t pc = 0; pc < program.size(); ++pc) {
      if (program[pc].op == Inst::Op::kMatch) SetBit(matches_.data(), pc);
      if (program[pc].op == Inst::Op::kAssertEnd) SetBit(ends_.data(), pc);
    }
    Close(0, /*at_start=*/false, /*at_end=*/false, later_start_.data());
  }

  // Fills `dfa`'s states: unanchored for ContainsMatch (a thread starts at
  // every position and the first match ends the scan), else anchored for
  // FullMatch. False when a budget is exceeded.
  bool Build(bool unanchored, internal::Dfa* dfa) {
    unanchored_ = unanchored;
    sets_.assign(2 * words_, 0);  // rows 0 (dead) and 1 (match) hold no set
    index_.fill(0);
    const uint32_t n = dfa->class_count;
    // Rows 0 and 1 loop on themselves; no scan reads them.
    dfa->accept_at_end = {0, 1};
    dfa->next.assign(2 * n, 0);
    std::fill(dfa->next.begin() + n, dfa->next.end(), n);

    std::fill(set_.begin(), set_.end(), 0);
    Close(0, /*at_start=*/true, /*at_end=*/false, set_.data());
    uint32_t start;
    if (!Finish(dfa, /*at_start=*/true, &start)) return false;
    dfa->start = start * n;
    for (uint32_t state = 2; state < sets_.size() / words_; ++state) {
      // A copy: Finish may grow sets_.
      std::copy_n(&sets_[state * words_], words_, current_.begin());
      for (uint32_t c = 0; c < n; ++c) {
        if (unanchored_) {
          set_ = later_start_;
        } else {
          std::fill(set_.begin(), set_.end(), 0);
        }
        for (size_t w = 0; w < words_; ++w) {
          for (uint64_t bits = current_[w] & accepts_[c * words_ + w];
               bits != 0; bits &= bits - 1) {
            const auto pc =
                static_cast<uint32_t>(64 * w + __builtin_ctzll(bits));
            const uint64_t* after = After(pc);
            for (size_t v = 0; v < words_; ++v) set_[v] |= after[v];
            steps_ += words_;
          }
        }
        uint32_t target;
        if (!Finish(dfa, /*at_start=*/false, &target)) return false;
        dfa->next[state * n + c] = target * n;
      }
    }
    return true;
  }

 private:
  bool Intersects(const std::vector<uint64_t>& a,
                  const std::vector<uint64_t>& b) const {
    for (size_t w = 0; w < words_; ++w) {
      if ((a[w] & b[w]) != 0) return true;
    }
    return false;
  }

  // The closure of pc + 1 with ^ blocked: what consuming `pc` leads to.
  const uint64_t* After(uint32_t pc) {
    uint64_t* out = &after_[pc * words_];
    if (!closed_[pc]) {
      closed_[pc] = 1;
      Close(pc + 1, /*at_start=*/false, /*at_end=*/false, out);
    }
    return out;
  }

  // Adds the epsilon closure of `pc` to the set `out`. ^ passes only
  // `at_start` and $ only `at_end`; a blocked $ stays in the set.
  void Close(uint32_t pc, bool at_start, bool at_end, uint64_t* out) {
    ++generation_;
    stack_.push_back(pc);
    while (!stack_.empty()) {
      const uint32_t at = stack_.back();
      stack_.pop_back();
      if (mark_[at] == generation_) continue;
      mark_[at] = generation_;
      ++steps_;
      const Inst& inst = program_[at];
      switch (inst.op) {
        case Inst::Op::kJmp:
          stack_.push_back(inst.next_a);
          break;
        case Inst::Op::kSplit:
          stack_.push_back(inst.next_b);
          stack_.push_back(inst.next_a);
          break;
        case Inst::Op::kSave:
          stack_.push_back(at + 1);
          break;
        case Inst::Op::kAssertStart:
          if (at_start) stack_.push_back(at + 1);
          break;
        case Inst::Op::kAssertEnd:
          if (at_end) {
            stack_.push_back(at + 1);
          } else {
            SetBit(out, at);
          }
          break;
        default:  // consuming instructions and kMatch
          SetBit(out, at);
          break;
      }
    }
  }

  // True when a text ending in a state holding set_ matches: the set holds
  // kMatch, or a kAssertEnd whose closure — $ now passing, ^ too when the
  // text is empty — reaches kMatch.
  bool AcceptsAtEnd(bool at_start) {
    if (Intersects(set_, matches_)) return true;
    std::fill(end_set_.begin(), end_set_.end(), 0);
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = set_[w] & ends_[w]; bits != 0; bits &= bits - 1) {
        const auto pc = static_cast<uint32_t>(64 * w + __builtin_ctzll(bits));
        Close(pc, at_start, /*at_end=*/true, end_set_.data());
      }
    }
    return Intersects(end_set_, matches_);
  }

  // Maps set_ to a state index: 1 when the unanchored DFA has seen a match,
  // 0 when no thread survives, else the interned set (a new state when
  // unseen). False when the state or step budget is exceeded.
  bool Finish(internal::Dfa* dfa, bool at_start, uint32_t* state) {
    if (steps_ > kMaxDfaBuildSteps) return false;
    if (unanchored_ && Intersects(set_, matches_)) {
      *state = 1;
      return true;
    }
    if (std::all_of(set_.begin(), set_.end(),
                    [](uint64_t w) { return w == 0; })) {
      *state = 0;
      return true;
    }
    // The position-0 start state stays out of the index when ^ changes its
    // end-of-text acceptance; otherwise it is interchangeable with a later
    // state holding the same set.
    bool interned = true;
    bool accepts = false;
    if (at_start) {
      accepts = AcceptsAtEnd(/*at_start=*/true);
      interned = accepts == AcceptsAtEnd(/*at_start=*/false);
    }
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t w : set_) hash = (hash ^ w) * 0x100000001b3ull;
    size_t slot = (hash ^ (hash >> 32)) & (index_.size() - 1);
    for (; interned && index_[slot] != 0;
         slot = (slot + 1) & (index_.size() - 1)) {
      const uint32_t id = index_[slot];
      if (std::equal(set_.begin(), set_.end(), &sets_[id * words_])) {
        *state = id;
        return true;
      }
    }
    const auto id = static_cast<uint32_t>(sets_.size() / words_);
    if (id >= kMaxDfaStates) return false;
    if (!at_start) accepts = AcceptsAtEnd(/*at_start=*/false);
    if (interned) index_[slot] = id;
    sets_.insert(sets_.end(), set_.begin(), set_.end());
    dfa->accept_at_end.push_back(accepts ? 1 : 0);
    dfa->next.resize((id + 1) * size_t{dfa->class_count}, 0);
    *state = id;
    return true;
  }

  const std::vector<Inst>& program_;
  const size_t words_;  // per program-counter set
  bool unanchored_ = false;
  size_t steps_ = 0;
  // Closure bookkeeping: visited marks per generation, the work stack.
  std::vector<uint32_t> mark_;
  uint32_t generation_ = 0;
  std::vector<uint32_t> stack_;
  // Per class: the program counters consuming its bytes.
  std::vector<uint64_t> accepts_;
  // Per program counter: After(pc), valid once closed_[pc] is set.
  std::vector<uint64_t> after_;
  std::vector<uint8_t> closed_;
  // The set being built, the state being expanded, AcceptsAtEnd's
  // closure, the closure of 0 past position 0, and the kMatch and
  // kAssertEnd instructions.
  std::vector<uint64_t> set_, current_, end_set_, later_start_, matches_,
      ends_;
  // State sets: state i holds sets_[i * words_, (i + 1) * words_).
  std::vector<uint64_t> sets_;
  // Open-addressing set-to-state index over the interned sets; 0 marks an
  // empty slot (rows 0 and 1 are never interned). Twice the state budget
  // keeps probes short.
  std::array<uint32_t, 2 * kMaxDfaStates> index_;
  static_assert((kMaxDfaStates & (kMaxDfaStates - 1)) == 0,
                "index_ probes by masking with its size");
};

// Builds the unanchored and anchored DFAs, or neither when the program is
// too large or either construction exceeds its budget.
void BuildDfas(const std::vector<Inst>& program,
               const std::vector<CharClass>& classes,
               internal::Dfa* contains, internal::Dfa* full) {
  if (program.size() > kMaxDfaProgramSize) return;
  DfaBuilder builder(program, classes, contains);
  full->byte_class = contains->byte_class;
  full->class_count = contains->class_count;
  if (!builder.Build(/*unanchored=*/true, contains) ||
      !builder.Build(/*unanchored=*/false, full)) {
    *contains = internal::Dfa{};
    *full = internal::Dfa{};
  }
}

}  // namespace

StatusOr<Regex> Regex::Compile(std::string_view pattern) {
  Regex re{std::string(pattern)};
  PatternParser parser(re.pattern_, &re.classes_);
  MHX_ASSIGN_OR_RETURN(RNode root, parser.Parse());
  re.group_count_ = parser.group_count();
  RegexCompiler compiler(&re);
  MHX_RETURN_IF_ERROR(compiler.CompileProgram(root));
  BuildDfas(re.program_, re.classes_, &re.contains_dfa_, &re.full_dfa_);
  return re;
}

namespace {

using internal::PendingThread;
using internal::SearchScratch;
using internal::SlotPool;
using internal::ThreadList;

using Pending = PendingThread;

struct AddContext {
  const std::vector<Inst>* program;
  std::vector<uint64_t>* mark;
  SlotPool* pool;
  // Reused epsilon-closure work stack (always drained on return), so the
  // hot loop allocates nothing.
  std::vector<Pending>* stack;
  uint64_t generation;
  size_t pos;
  size_t text_size;
};

// Follows epsilon transitions from `pc`, appending every runnable (or
// matching) instruction to `list` exactly once per step. Iterative with an
// explicit work stack (popping the preferred Split branch first preserves
// the depth-first priority order), so epsilon-chain length — which grows
// with the compiled program — cannot overflow the call stack. Takes
// ownership of one reference on `start_saves`; forks share the block
// (kSplit bumps the refcount) and only a kSave on a shared block clones.
void AddThread(const AddContext& ctx, ThreadList* list, uint32_t start_pc,
               uint32_t start_saves) {
  SlotPool& pool = *ctx.pool;
  std::vector<Pending>& stack = *ctx.stack;
  stack.push_back(Pending{start_pc, start_saves});
  while (!stack.empty()) {
    Pending t = stack.back();
    stack.pop_back();
    if ((*ctx.mark)[t.pc] == ctx.generation) {
      pool.Unref(t.saves);
      continue;
    }
    (*ctx.mark)[t.pc] = ctx.generation;
    const Inst& inst = (*ctx.program)[t.pc];
    switch (inst.op) {
      case Inst::Op::kJmp:
        stack.push_back(Pending{inst.next_a, t.saves});
        break;
      case Inst::Op::kSplit:
        pool.Ref(t.saves);
        stack.push_back(Pending{inst.next_b, t.saves});
        stack.push_back(Pending{inst.next_a, t.saves});
        break;
      case Inst::Op::kSave:
        stack.push_back(
            Pending{t.pc + 1, pool.SetSlot(t.saves, inst.arg, ctx.pos)});
        break;
      case Inst::Op::kAssertStart:
        if (ctx.pos == 0) {
          stack.push_back(Pending{t.pc + 1, t.saves});
        } else {
          pool.Unref(t.saves);
        }
        break;
      case Inst::Op::kAssertEnd:
        if (ctx.pos == ctx.text_size) {
          stack.push_back(Pending{t.pc + 1, t.saves});
        } else {
          pool.Unref(t.saves);
        }
        break;
      default:
        list->pcs.push_back(t.pc);
        list->saves.push_back(t.saves);
        break;
    }
  }
}

}  // namespace

bool Regex::Search(std::string_view text, size_t from, bool anchored,
                   bool full, bool first_only,
                   internal::SearchScratch* scratch,
                   SearchResult* out) const {
  const size_t n = text.size();
  const size_t nslots = 2 * (group_count_ + 1);
  ThreadList& clist = scratch->clist;
  ThreadList& nlist = scratch->nlist;
  SlotPool& pool = scratch->slots;
  clist.Clear();
  nlist.Clear();
  // Reclaims blocks still referenced by a previous Search's abandoned
  // threads (first_only early returns leave them behind by design).
  pool.Reset(nslots);
  // Stale marks from earlier Search calls on this scratch are harmless:
  // the generation counter only ever increases.
  std::vector<uint64_t>& mark = scratch->mark;
  mark.resize(program_.size());
  uint64_t& generation = scratch->generation;

  bool have_best = false;
  SearchResult best;

  for (size_t pos = from; pos <= n; ++pos) {
    ++generation;
    // Threads in clist run at `pos`; threads they spawn run at `pos + 1` and
    // deduplicate against the *next* generation's visited marks.
    AddContext seed_ctx{&program_, &mark,         &pool, &scratch->closure_stack,
                        generation, pos,          n};
    AddContext step_ctx{&program_,      &mark,   &pool, &scratch->closure_stack,
                        generation + 1, pos + 1, n};
    // Seed a new start thread (lowest priority) while a leftmost match has
    // not been found yet; later starts could not be leftmost anymore.
    if ((pos == from || (!anchored && !have_best))) {
      AddThread(seed_ctx, &clist, 0, pool.Alloc());
    }
    // With no live thread only a later seed can still match: stop unless
    // none will come (anchored, or a leftmost match is already in hand).
    if (clist.empty() && (anchored || have_best)) break;
    for (size_t t = 0; t < clist.pcs.size(); ++t) {
      const uint32_t pc = clist.pcs[t];
      const uint32_t saves = clist.saves[t];
      // A thread that starts after the best match's start can never improve
      // on leftmost-longest; drop it.
      if (have_best && pool.values(saves)[0] != kUnset &&
          pool.values(saves)[0] > best.begin) {
        pool.Unref(saves);
        continue;
      }
      const Inst& inst = program_[pc];
      switch (inst.op) {
        case Inst::Op::kChar:
          if (pos < n && text[pos] == inst.ch) {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kClass:
          if (pos < n &&
              ClassHas(classes_[inst.arg],
                       static_cast<unsigned char>(text[pos]))) {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kAnyChar:
          if (pos < n && text[pos] != '\n') {
            AddThread(step_ctx, &nlist, pc + 1, saves);
          } else {
            pool.Unref(saves);
          }
          break;
        case Inst::Op::kMatch: {
          if (full && pos != n) {
            pool.Unref(saves);
            break;
          }
          const std::vector<size_t>& slots = pool.values(saves);
          const size_t begin = slots[0];
          if (!have_best || begin < best.begin ||
              (begin == best.begin && pos > best.end)) {
            best.begin = begin;
            best.end = pos;
            best.saves = slots;  // copy out: best outlives the pool block
            have_best = true;
            if (first_only) {
              pool.Unref(saves);
              *out = std::move(best);
              return true;
            }
          }
          pool.Unref(saves);
          break;
        }
        default:
          pool.Unref(saves);
          break;  // epsilon ops never appear in a thread list
      }
    }
    // The next loop iteration's ++generation lands exactly on step_ctx's
    // generation, so its seed dedups against threads already advanced here.
    clist.Clear();
    std::swap(clist, nlist);
  }
  if (have_best) *out = std::move(best);
  return have_best;
}

std::vector<Regex::Match> Regex::PikeFindAll(std::string_view text) const {
  std::vector<Match> matches;
  SearchScratch scratch;
  size_t pos = 0;
  while (pos <= text.size()) {
    SearchResult r;
    if (!Search(text, pos, /*anchored=*/false, /*full=*/false,
                /*first_only=*/false, &scratch, &r)) {
      break;
    }
    Match m;
    m.range = TextRange(r.begin, r.end);
    m.groups.reserve(group_count_);
    for (size_t g = 1; g <= group_count_; ++g) {
      const size_t b = r.saves[2 * g], e = r.saves[2 * g + 1];
      m.groups.push_back(b == kUnset || e == kUnset ? TextRange(0, 0)
                                                    : TextRange(b, e));
    }
    matches.push_back(std::move(m));
    pos = r.end > r.begin ? r.end : r.end + 1;  // never loop on empty matches
  }
  return matches;
}

bool Regex::PikeContainsMatch(std::string_view text) const {
  SearchScratch scratch;
  SearchResult r;
  return Search(text, 0, /*anchored=*/false, /*full=*/false,
                /*first_only=*/true, &scratch, &r);
}

bool Regex::PikeFullMatch(std::string_view text) const {
  SearchScratch scratch;
  SearchResult r;
  return Search(text, 0, /*anchored=*/true, /*full=*/true,
                /*first_only=*/true, &scratch, &r);
}

bool internal::Dfa::Matches(std::string_view text) const {
  const uint32_t stop = 2 * class_count;  // rows 0 and 1
  uint32_t s = start;
  const uint32_t* table = next.data();
  for (char c : text) {
    if (s < stop) break;
    s = table[s + byte_class[static_cast<unsigned char>(c)]];
  }
  if (s < stop) return s == class_count;
  return accept_at_end[s / class_count] != 0;
}

std::vector<Regex::Match> Regex::FindAll(std::string_view text) const {
  // A text with no match never starts the VM.
  if (contains_dfa_.built() && !contains_dfa_.Matches(text)) return {};
  return PikeFindAll(text);
}

bool Regex::ContainsMatch(std::string_view text) const {
  return contains_dfa_.built() ? contains_dfa_.Matches(text)
                               : PikeContainsMatch(text);
}

bool Regex::FullMatch(std::string_view text) const {
  return full_dfa_.built() ? full_dfa_.Matches(text) : PikeFullMatch(text);
}

}  // namespace mhx::regex
