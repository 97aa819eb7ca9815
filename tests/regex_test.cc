// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "regex/regex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mhx::regex {

// The Pike VM alone, with the DFA bypassed: the oracle the DFA answers are
// checked against.
struct RegexTestPeer {
  static bool ContainsMatch(const Regex& re, std::string_view text) {
    return re.PikeContainsMatch(text);
  }
  static bool FullMatch(const Regex& re, std::string_view text) {
    return re.PikeFullMatch(text);
  }
  static std::vector<Regex::Match> FindAll(const Regex& re,
                                           std::string_view text) {
    return re.PikeFindAll(text);
  }
};

namespace {

Regex MustCompile(const char* pattern) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << re.status();
  return std::move(re).value();
}

std::vector<TextRange> MatchRanges(const Regex& re, std::string_view text) {
  std::vector<TextRange> out;
  for (const Regex::Match& m : re.FindAll(text)) out.push_back(m.range);
  return out;
}

// --- compilation and syntax errors -----------------------------------------

TEST(RegexCompileTest, AcceptsTheBenchmarkPatterns) {
  // All of them small enough for the existence-test DFA.
  for (const char* pattern :
       {"sceaft", "[aeiou][^aeiou ]+", "sceaft|hweo|thyt|frean",
        "(s(c)e)(aft)", ".*ea.*", ".*(an|en).*", "(e)o", "(a|a)*b",
        "(un)(a(we)?|[b-d]+){1,3}(end|ne)$"}) {
    auto re = Regex::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern;
    EXPECT_TRUE(re->has_dfa()) << pattern;
  }
}

TEST(RegexCompileTest, SyntaxErrorsAreAnchoredInvalidArgument) {
  for (const char* bad : {"(ab", "ab)", "[ab", "a{2,1}", "a{", "*a", "+",
                          "a\\", "a{9999}", "[z-a]", "a**"}) {
    auto re = Regex::Compile(bad);
    ASSERT_FALSE(re.ok()) << "pattern '" << bad << "' compiled";
    EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(re.status().message().find("offset"), std::string::npos) << bad;
  }
}

// --- matching semantics ----------------------------------------------------

TEST(RegexMatchTest, LiteralFindAll) {
  Regex re = MustCompile("ab");
  EXPECT_EQ(MatchRanges(re, "abxxabab"),
            (std::vector<TextRange>{{0, 2}, {4, 6}, {6, 8}}));
  EXPECT_TRUE(re.FindAll("xyz").empty());
}

TEST(RegexMatchTest, LeftmostLongestWinsOverAlternationOrder) {
  // A leftmost-first (Perl) engine would match "a"; leftmost-longest
  // matches "ab".
  Regex re = MustCompile("a|ab");
  auto matches = re.FindAll("ab");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 2));
}

TEST(RegexMatchTest, LeftmostWinsOverLonger) {
  // The match at offset 0 wins even though a longer one starts later.
  Regex re = MustCompile("ab|bcd");
  auto matches = re.FindAll("abcd");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 2));
}

TEST(RegexMatchTest, ClassesAndNegation) {
  Regex re = MustCompile("[aeiou][^aeiou ]+");
  auto matches = MatchRanges(re, "sceaft");
  // The only vowel followed by at least one non-vowel is the 'a' of "aft"
  // ('e' is followed by the vowel 'a').
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], TextRange(3, 6));  // "aft"
}

TEST(RegexMatchTest, EscapedClassRangeEndpoints) {
  // Range endpoints go through escape translation: [a-\n] is 'a'..0x0a,
  // an invalid (reversed) range — not the silent 'a'..'n' a raw read gives.
  EXPECT_FALSE(Regex::Compile("[a-\\n]").ok());
  Regex tab = MustCompile("[\\t-\\r]+");  // 0x09..0x0d, all whitespace ctrls
  EXPECT_TRUE(tab.FullMatch("\t\n\r"));
  EXPECT_FALSE(tab.ContainsMatch("mno"));  // must NOT match the raw letters
  EXPECT_FALSE(Regex::Compile("[0-\\d]").ok());  // \d cannot end a range
}

TEST(RegexMatchTest, EscapesAndPerlClasses) {
  EXPECT_TRUE(MustCompile("\\d+").FullMatch("12345"));
  EXPECT_FALSE(MustCompile("\\d+").FullMatch("12a45"));
  EXPECT_TRUE(MustCompile("\\w+").FullMatch("un_awe9"));
  EXPECT_TRUE(MustCompile("a\\.b").FullMatch("a.b"));
  EXPECT_FALSE(MustCompile("a\\.b").FullMatch("axb"));
  EXPECT_TRUE(MustCompile("a\\\\b").FullMatch("a\\b"));
  EXPECT_TRUE(MustCompile("[\\d]+").FullMatch("42"));
}

TEST(RegexMatchTest, CapturesReportGroupRanges) {
  Regex re = MustCompile("(s(c)e)(aft)");
  auto matches = re.FindAll("xsceaftx");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(1, 7));
  ASSERT_EQ(matches[0].groups.size(), 3u);
  EXPECT_EQ(matches[0].groups[0], TextRange(1, 4));  // "sce"
  EXPECT_EQ(matches[0].groups[1], TextRange(2, 3));  // "c"
  EXPECT_EQ(matches[0].groups[2], TextRange(4, 7));  // "aft"
}

TEST(RegexMatchTest, UnmatchedGroupsAreEmptyAtZero) {
  Regex re = MustCompile("a(b)?c");
  auto matches = re.FindAll("ac");
  ASSERT_EQ(matches.size(), 1u);
  ASSERT_EQ(matches[0].groups.size(), 1u);
  EXPECT_EQ(matches[0].groups[0], TextRange(0, 0));
}

TEST(RegexMatchTest, QuantifierEdgeCases) {
  EXPECT_TRUE(MustCompile("a{3}").FullMatch("aaa"));
  EXPECT_FALSE(MustCompile("a{3}").FullMatch("aa"));
  EXPECT_TRUE(MustCompile("a{2,}").FullMatch("aaaaa"));
  EXPECT_FALSE(MustCompile("a{2,}").FullMatch("a"));
  EXPECT_TRUE(MustCompile("a{0,2}").FullMatch(""));
  EXPECT_TRUE(MustCompile("a{0,2}").FullMatch("aa"));
  EXPECT_FALSE(MustCompile("a{0,2}").FullMatch("aaa"));
  EXPECT_TRUE(MustCompile("(ab){1,3}").FullMatch("ababab"));
  EXPECT_FALSE(MustCompile("(ab){1,3}").FullMatch("abababab"));
  // Greedy repetition still backs off to let the suffix match.
  EXPECT_TRUE(MustCompile("a*ab").FullMatch("aaab"));
  // An empty-matching body must not loop the VM.
  EXPECT_TRUE(MustCompile("(a?)*b").FullMatch("aab"));
}

TEST(RegexMatchTest, AnchorsBindToTextEnds) {
  Regex re = MustCompile("(end|ne)$");
  EXPECT_TRUE(re.ContainsMatch("unawend-ne"));
  EXPECT_FALSE(re.ContainsMatch("ne-wyrd"));
  EXPECT_FALSE(re.ContainsMatch("unawendendnex"));
  EXPECT_TRUE(re.FullMatch("end"));
  EXPECT_FALSE(re.FullMatch("xend"));
  Regex caret = MustCompile("^un");
  EXPECT_TRUE(caret.ContainsMatch("unawe"));
  EXPECT_FALSE(caret.ContainsMatch("aunwe"));
}

TEST(RegexMatchTest, ContainsAndFullMatch) {
  Regex re = MustCompile("ea");
  EXPECT_TRUE(re.ContainsMatch("sceaft"));
  EXPECT_FALSE(re.ContainsMatch("wyrd"));
  EXPECT_TRUE(re.FullMatch("ea"));
  EXPECT_FALSE(re.FullMatch("sceaft"));
  EXPECT_TRUE(MustCompile(".*ea.*").FullMatch("sceaft"));
}

TEST(RegexMatchTest, WildcardContextShape) {
  Regex re = MustCompile(".*un(a)we.*");
  auto matches = re.FindAll("unawendendne");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].range, TextRange(0, 12));  // leftmost-longest: all
  ASSERT_EQ(matches[0].groups.size(), 1u);
  EXPECT_EQ(matches[0].groups[0], TextRange(2, 3));
}

TEST(RegexMatchTest, PathologicalPatternStaysLinear) {
  // (a|a)*b over a^n: exponential for backtrackers. The DFA reads each
  // byte once (and the Pike VM's thread population is bounded by the
  // program size), so this returns quickly even at 4096.
  Regex re = MustCompile("(a|a)*b");
  std::string text(4096, 'a');
  EXPECT_FALSE(re.FullMatch(text));
  EXPECT_FALSE(re.ContainsMatch(text));
  text.push_back('b');
  EXPECT_TRUE(re.FullMatch(text));
  EXPECT_TRUE(re.ContainsMatch(text));
}

TEST(RegexCompileTest, DeepGroupNestingErrorsInsteadOfOverflowing) {
  std::string pattern(100000, '(');
  pattern += "a";
  pattern.append(100000, ')');
  auto re = Regex::Compile(pattern);
  ASSERT_FALSE(re.ok());
  EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(re.status().message().find("nested deeper"), std::string::npos);
}

TEST(RegexMatchTest, EmptyMatchesDoNotLoopFindAll) {
  Regex re = MustCompile("a*");
  auto matches = re.FindAll("ba");
  // One empty match at 0, then "a" at [1,2), then one empty match at end.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].range, TextRange(0, 0));
  EXPECT_EQ(matches[1].range, TextRange(1, 2));
  EXPECT_EQ(matches[2].range, TextRange(2, 2));
}

// --- the unanchored Pike search past dead positions ------------------------

TEST(RegexMatchTest, EndAnchorMatchesPastPositionsWhereNoThreadRuns) {
  // No thread survives the seed at offsets 0-2; the search must go on to
  // the empty match at the end instead of giving up.
  Regex end = MustCompile("$");
  EXPECT_TRUE(end.ContainsMatch("abc"));
  EXPECT_TRUE(RegexTestPeer::ContainsMatch(end, "abc"));
  EXPECT_EQ(MatchRanges(end, "b"), (std::vector<TextRange>{{1, 1}}));
  Regex end_star = MustCompile("$a*");
  EXPECT_TRUE(end_star.ContainsMatch("bab"));
  EXPECT_TRUE(RegexTestPeer::ContainsMatch(end_star, "bab"));
  EXPECT_EQ(MatchRanges(end_star, "bab"), (std::vector<TextRange>{{3, 3}}));
  EXPECT_TRUE(MustCompile("$|x").ContainsMatch("abc"));
  // ^ still passes only at offset 0.
  EXPECT_FALSE(MustCompile("^b").ContainsMatch("ab"));
  EXPECT_FALSE(RegexTestPeer::ContainsMatch(MustCompile("^b"), "ab"));
}

// --- the DFA against the Pike VM -------------------------------------------

// splitmix64: seeded, platform-deterministic.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Random patterns over the supported subset: literals (\n included), '.',
// classes and negated classes, \d/\w/\s and their negations, groups,
// alternation with empty branches, ^/$ anywhere, and every quantifier.
class PatternGenerator {
 public:
  explicit PatternGenerator(uint64_t seed) : rng_(seed) {}

  std::string Pattern() { return Alternation(3); }

 private:
  std::string Alternation(int depth) {
    std::string out = Concat(depth);
    const size_t more = rng_.Below(4) == 0 ? 1 + rng_.Below(2) : 0;
    for (size_t i = 0; i < more; ++i) out += "|" + Concat(depth);
    return out;
  }

  std::string Concat(int depth) {
    std::string out;
    const size_t items = rng_.Below(4);  // 0: an empty branch
    for (size_t i = 0; i < items; ++i) out += Quantified(depth);
    return out;
  }

  std::string Quantified(int depth) {
    std::string atom = Atom(depth);
    switch (rng_.Below(10)) {
      case 0:
        return atom + "?";
      case 1:
        return atom + "*";
      case 2:
        return atom + "+";
      case 3: {
        const size_t m = rng_.Below(3);
        const size_t n = m + rng_.Below(3);
        return atom + "{" + std::to_string(m) + "," + std::to_string(n) + "}";
      }
      case 4:
        return atom + "{" + std::to_string(rng_.Below(3)) + ",}";
      default:
        return atom;
    }
  }

  std::string Atom(int depth) {
    static const char* const kLiterals[] = {"a", "b", "c", "\\n", "\n", " "};
    static const char* const kClasses[] = {
        "[ab]",  "[^a]",  "[a-c]", "[^\\n]", "[b\\n]",
        "[\\d\\s]", "[^ab ]", "\\d", "\\w",   "\\s",
        "\\D",   "\\W",   "\\S"};
    switch (rng_.Below(12)) {
      case 0:
      case 1:
      case 2:
      case 3:
        return kLiterals[rng_.Below(std::size(kLiterals))];
      case 4:
        return ".";
      case 5:
      case 6:
        return kClasses[rng_.Below(std::size(kClasses))];
      case 7:
        return "^";
      case 8:
        return "$";
      default:
        if (depth == 0) return "a";
        return "(" + Alternation(depth - 1) + ")";
    }
  }

  Rng rng_;
};

std::string RandomText(Rng* rng) {
  // '\xc3' is the lead byte of UTF-8 letters such as the editions' æ.
  static const char kAlphabet[] = {'a', 'b', 'c', '1', ' ', '\n', '\xc3'};
  std::string text(rng->Below(9), 'a');
  for (char& c : text) c = kAlphabet[rng->Below(sizeof(kAlphabet))];
  return text;
}

// Asserts every public answer equals the Pike VM's own.
void ExpectAgreesWithPike(const Regex& re, std::string_view text) {
  EXPECT_EQ(re.ContainsMatch(text), RegexTestPeer::ContainsMatch(re, text))
      << "ContainsMatch /" << re.pattern() << "/ on '" << text << "'";
  EXPECT_EQ(re.FullMatch(text), RegexTestPeer::FullMatch(re, text))
      << "FullMatch /" << re.pattern() << "/ on '" << text << "'";
  const auto got = re.FindAll(text);
  const auto want = RegexTestPeer::FindAll(re, text);
  ASSERT_EQ(got.size(), want.size())
      << "FindAll /" << re.pattern() << "/ on '" << text << "'";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].range, want[i].range);
    EXPECT_EQ(got[i].groups, want[i].groups);
  }
}

TEST(RegexDfaTest, RandomPatternsAgreeWithThePikeVm) {
  PatternGenerator patterns(20261018);
  Rng texts(7);
  size_t with_dfa = 0;
  constexpr size_t kPatterns = 4000;
  for (size_t p = 0; p < kPatterns; ++p) {
    const std::string pattern = patterns.Pattern();
    auto re = Regex::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern << ": " << re.status();
    if (re->has_dfa()) ++with_dfa;
    ExpectAgreesWithPike(*re, "");
    for (int t = 0; t < 12; ++t) ExpectAgreesWithPike(*re, RandomText(&texts));
    if (HasFailure()) return;  // one diagnosed pattern is enough
  }
  // The patterns are small: nearly all of them must exercise the DFA.
  EXPECT_GT(with_dfa, kPatterns * 9 / 10);
}

TEST(RegexDfaTest, AnchorsAroundTheEmptyText) {
  // $^$ matches only the empty text: ^ passes at offset 0 alone, so the
  // start state accepts at end of text while a later state holding the
  // same instructions must not.
  Regex re = MustCompile("$^$");
  ASSERT_TRUE(re.has_dfa());
  EXPECT_TRUE(re.ContainsMatch(""));
  EXPECT_TRUE(re.FullMatch(""));
  EXPECT_FALSE(re.ContainsMatch("a"));
  EXPECT_FALSE(re.ContainsMatch("\n"));
  EXPECT_FALSE(re.FullMatch("a"));
  for (const char* pattern : {"$^$", "^$", "$^", "(^|a)$", "a$|^", "$\n*",
                              "(a$)*^b", "^*a", "$+"}) {
    Regex r = MustCompile(pattern);
    for (const char* text : {"", "a", "b", "ab", "\n", "ba\n"}) {
      ExpectAgreesWithPike(r, text);
    }
  }
}

TEST(RegexDfaTest, StateBudgetFallsBackToThePikeVm) {
  // Recognising "an a 13 bytes before the end" needs 2^13 states.
  Regex re = MustCompile("[ab]*a[ab]{12}");
  EXPECT_FALSE(re.has_dfa());
  EXPECT_TRUE(re.ContainsMatch("ab" + std::string(12, 'b')));
  EXPECT_FALSE(re.ContainsMatch(std::string(20, 'b')));
  EXPECT_TRUE(re.FullMatch("bba" + std::string(12, 'a')));
  EXPECT_FALSE(re.FullMatch("a" + std::string(11, 'b')));
  EXPECT_EQ(MatchRanges(re, "cc" + std::string(13, 'a') + "c"),
            (std::vector<TextRange>{{2, 15}}));
  Rng texts(3);
  for (int t = 0; t < 50; ++t) ExpectAgreesWithPike(re, RandomText(&texts));
}

TEST(RegexDfaTest, ProgramAtTheSizeLimitCompilesWithoutADfa) {
  // 127 groups of 512 literals: just under the program-size limit, far
  // over the DFA's. One more group is over the limit itself.
  const auto start = std::chrono::steady_clock::now();
  Regex re = MustCompile("(a{512}){127}");
  EXPECT_GT(re.program_size(), size_t{65000});
  EXPECT_FALSE(re.has_dfa());
  const std::string text(512 * 127, 'a');
  EXPECT_TRUE(re.FullMatch(text));
  EXPECT_FALSE(re.FullMatch(text.substr(1)));
  EXPECT_FALSE(re.ContainsMatch(std::string(100, 'a')));
  EXPECT_FALSE(Regex::Compile("(a{512}){128}").ok());
  // Generous bound: no DFA construction is attempted at this size.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

// --- reject-don't-crash: random bytes into the compiler --------------------

TEST(RegexFuzzTest, RandomMetacharacterStringsCompileOrReject) {
  static const char kBytes[] = "()[]{}|*+?.^$\\-,0123abdnsw\n ";
  Rng texts(11);
  size_t compiled = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
      std::string pattern(rng.Below(17), ' ');
      for (char& c : pattern) c = kBytes[rng.Below(sizeof(kBytes) - 1)];
      auto re = Regex::Compile(pattern);
      if (!re.ok()) {
        EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument)
            << pattern;
        continue;
      }
      ++compiled;
      for (int t = 0; t < 3; ++t) {
        ExpectAgreesWithPike(*re, RandomText(&texts));
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(compiled, 0u);
}

}  // namespace
}  // namespace mhx::regex
