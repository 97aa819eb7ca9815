// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <vector>

#include "mutation.h"
#include "regex/fragment_pattern.h"
#include "regex/regex.h"

namespace mhx::regex {
namespace {

TEST(FragmentPatternTest, TranslatesExampleOnePattern) {
  auto f = TranslateFragmentPattern(".*un<a>a</a>we.*");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->regex, ".*un(a)we.*");
  EXPECT_EQ(f->group_names, (std::vector<std::string>{"a"}));
}

TEST(FragmentPatternTest, TranslatesNestedFragments) {
  auto f = TranslateFragmentPattern(".*un<a>a<b>w</b>e</a>nden<c>dne</c>.*");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->regex, ".*un(a(w)e)nden(dne).*");
  EXPECT_EQ(f->group_names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FragmentPatternTest, PlainRegexPassesThrough) {
  auto f = TranslateFragmentPattern("[aeiou][^aeiou ]+");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->regex, "[aeiou][^aeiou ]+");
  EXPECT_TRUE(f->group_names.empty());
}

TEST(FragmentPatternTest, UserGroupsKeepNumberingWithEmptyNames) {
  // A plain capture group the user wrote consumes a group number; the
  // placeholder keeps fragment names aligned with the residual regex.
  auto f = TranslateFragmentPattern("(t|T)h<a>a</a>et");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->regex, "(t|T)h(a)et");
  EXPECT_EQ(f->group_names, (std::vector<std::string>{"", "a"}));
}

TEST(FragmentPatternTest, ClassContentsAreNeverMarkupOrGroups) {
  auto f = TranslateFragmentPattern("[<(]<a>x</a>");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->regex, "[<(](x)");
  EXPECT_EQ(f->group_names, (std::vector<std::string>{"a"}));
}

TEST(FragmentPatternTest, LeadingClassBracketLiteralMatchesRegexLexing) {
  // "[]<]" is a class of ']' and '<' (leading ']' is a literal, as the
  // regex parser lexes it); the '<' inside must not start markup.
  auto f = TranslateFragmentPattern("[]<]x<a>y</a>");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->regex, "[]<]x(y)");
  EXPECT_EQ(f->group_names, (std::vector<std::string>{"a"}));
  auto negated = TranslateFragmentPattern("[^](]<b>z</b>");
  ASSERT_TRUE(negated.ok()) << negated.status();
  EXPECT_EQ(negated->regex, "[^](](z)");
  EXPECT_EQ(negated->group_names, (std::vector<std::string>{"b"}));
}

TEST(FragmentPatternTest, EscapesPassThrough) {
  auto f = TranslateFragmentPattern("a\\<b\\>c");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->regex, "a\\<b\\>c");
}

TEST(FragmentPatternTest, RejectsMalformedMarkup) {
  EXPECT_FALSE(TranslateFragmentPattern("<a>x").ok());       // unclosed
  EXPECT_FALSE(TranslateFragmentPattern("x</a>").ok());      // stray close
  EXPECT_FALSE(TranslateFragmentPattern("<a>x</b>").ok());   // mismatched
  EXPECT_FALSE(TranslateFragmentPattern("<a>b<c>d</a>e</c>").ok());  // crossing
  EXPECT_FALSE(TranslateFragmentPattern("a<b").ok());        // malformed tag
  EXPECT_FALSE(TranslateFragmentPattern("a<>b").ok());       // empty name
}

TEST(StripContextWildcardsTest, StripsLeadingAndTrailing) {
  EXPECT_EQ(StripContextWildcards(".*un<a>a</a>we.*"), "un<a>a</a>we");
  EXPECT_EQ(StripContextWildcards(".*abc"), "abc");
  EXPECT_EQ(StripContextWildcards("abc.*"), "abc");
  EXPECT_EQ(StripContextWildcards("abc"), "abc");
  EXPECT_EQ(StripContextWildcards(".*"), "");
  // An escaped trailing dot is not a context wildcard.
  EXPECT_EQ(StripContextWildcards("ab\\.*"), "ab\\.*");
}

// Reject, don't crash: mutations of valid fragment patterns either
// translate or fail with InvalidArgument, and a translated one compiles or
// fails the same way; a compiled one scans a sample text.
TEST(FragmentPatternTest, MutatedPatternsTranslateOrReject) {
  const std::vector<std::string> seeds = {
      ".*un<a>a</a>we.*", "sc<q>e</q>aft",       "(t|T)h<a>a</a>et",
      "<x><y>a</y>b+</x>", "[<a>]b{2,3}(c)?<z/>", "a\\<b[^x-z]\\d*$",
  };
  size_t compiled = 0;
  fuzz::ForEachMutation(
      seeds, "<>/()[]{}|*+?.\\^$-,ab0123", 2000, 0x5EED3ull,
      [&compiled](const std::string& pattern) {
        auto fragment = TranslateFragmentPattern(StripContextWildcards(pattern));
        if (!fragment.ok()) {
          EXPECT_EQ(fragment.status().code(), StatusCode::kInvalidArgument)
              << fragment.status();
          return;
        }
        auto re = Regex::Compile(fragment->regex);
        if (!re.ok()) {
          EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument)
              << re.status();
          return;
        }
        ++compiled;
        re->FindAll("unawendendne sceaft thaet ab0123");
      });
  EXPECT_GT(compiled, 0u);
}

}  // namespace
}  // namespace mhx::regex
