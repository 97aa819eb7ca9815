// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "workload/generator.h"

#include <algorithm>
#include <utility>

#include "xml/parser.h"

namespace mhx::workload {
namespace {

// splitmix64: tiny, seedable, and — unlike <random> distributions — produces
// identical sequences on every platform, which the benchmarks rely on.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n); n must be > 0.
  size_t Uniform(size_t n) { return static_cast<size_t>(Next() % n); }

  // Uniform in [lo, hi] inclusive.
  size_t Between(size_t lo, size_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

 private:
  uint64_t state_;
};

// Old English-flavoured vocabulary (ASCII transliterations), echoing the
// paper's manuscript example. Deliberately rich in "ea" digraphs and
// including the Example 1 word "unawendendne" plus the strings the regex
// benchmarks search for.
constexpr const char* kVocabulary[] = {
    "unawendendne", "sceaft",  "hweol",   "thytte",   "frean",    "waes",
    "weorc",        "eall",    "eac",     "swa",      "some",     "wyrd",
    "heofon",       "eorthe",  "middan",  "geard",    "dryhten",  "cyning",
    "beorht",       "leoht",   "sweart",  "niht",     "daeg",     "wundor",
    "weard",        "metod",   "maere",   "mihtig",   "engel",    "heah",
    "heall",        "sele",    "beag",    "gold",     "seolfor",  "sweord",
    "scyld",        "gar",     "here",    "folc",     "thegn",    "eorl",
    "ceorl",        "wif",     "bearn",   "sunu",     "faeder",   "modor",
    "brothor",      "sweostor","hand",    "heorte",   "heafod",   "eage",
    "eare",         "muth",    "tunge",   "fot",      "ban",      "blod",
    "sae",          "stream",  "ea",      "brim",     "flod",     "waeter",
    "stan",         "beorg",   "dun",     "wudu",     "treow",    "leaf",
    "blaed",        "gras",    "feld",    "aecer",    "corn",     "hwaete",
    "bere",         "mete",    "hlaf",    "win",      "ealu",     "medu",
    "seax",         "cniht",   "ridan",   "gangan",   "faran",    "cuman",
    "seon",         "heran",   "sprecan", "singan",   "writan",   "raedan",
    "leornian",     "taecan",  "niman",   "giefan",   "healdan",  "beran",
    "dragan",       "teon",    "slean",   "feallan",  "standan",  "sittan",
    "licgan",       "slaepan", "waecnan", "libban",   "sweltan",  "death",
    "lif",          "sawol",   "gast",    "mod",      "hyge",     "sefa",
};
constexpr size_t kVocabularySize = sizeof(kVocabulary) / sizeof(kVocabulary[0]);

// A non-overlapping span list over [0, n), in text order.
struct SpanPlan {
  std::vector<TextRange> spans;
};

// Places spans of length [min_len, max_len] until roughly `coverage * n`
// characters are covered, separated by random gaps sized so spans spread
// over the whole text.
SpanPlan PlanSpans(Rng& rng, size_t n, double coverage, size_t min_len,
                   size_t max_len) {
  SpanPlan plan;
  if (n == 0 || coverage <= 0.0) return plan;
  size_t target = static_cast<size_t>(coverage * static_cast<double>(n));
  size_t mean_len = (min_len + max_len) / 2;
  // gap/span alternation sized to hit the target coverage on average.
  size_t mean_gap = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(mean_len) *
                             (1.0 - coverage) / std::max(coverage, 1e-9)));
  size_t covered = 0;
  size_t pos = rng.Between(1, std::max<size_t>(1, mean_gap));
  while (pos + min_len < n && covered < target) {
    size_t len = std::min(rng.Between(min_len, max_len), n - pos);
    plan.spans.push_back(TextRange(pos, pos + len));
    covered += len;
    pos += len + rng.Between(1, std::max<size_t>(2, 2 * mean_gap));
  }
  return plan;
}

// Serialises a flat span hierarchy: uncovered text as character data in the
// root, covered stretches wrapped in `<tag attr="...">`.
std::string SpanXml(const std::string& base_text, const std::string& root_tag,
                    const std::string& tag, const std::string& attr,
                    const std::vector<std::string>& attr_values, Rng& rng,
                    const SpanPlan& plan) {
  std::string xml = "<" + root_tag + ">";
  size_t pos = 0;
  for (const TextRange& span : plan.spans) {
    xml += xml::EscapeText(base_text.substr(pos, span.begin - pos));
    xml += "<" + tag + " " + attr + "=\"" +
           attr_values[rng.Uniform(attr_values.size())] + "\">";
    xml += xml::EscapeText(base_text.substr(span.begin, span.length()));
    xml += "</" + tag + ">";
    pos = span.end;
  }
  xml += xml::EscapeText(base_text.substr(pos));
  xml += "</" + root_tag + ">";
  return xml;
}

}  // namespace

std::vector<std::string> SampleVocabulary(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    words.push_back(kVocabulary[rng.Uniform(kVocabularySize)]);
  }
  return words;
}

Edition GenerateEdition(const EditionConfig& config) {
  Edition edition;

  // Base text: words joined by single spaces. Each sub-stream gets its own
  // RNG so tweaking one hierarchy's parameters never reshuffles another.
  std::vector<std::string> words =
      SampleVocabulary(config.seed, config.word_count);
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) edition.base_text += ' ';
    edition.base_text += words[i];
  }
  const std::string& text = edition.base_text;
  const size_t n = text.size();

  // Structural: <text><s><w>..</w> ... </s> ...</text>. The inter-word
  // spaces are character data between the <w> elements; sentence breaks fall
  // on those spaces.
  {
    Rng rng(config.seed ^ 0x5354525543545552ULL);  // "STRUCTUR"
    std::string& xml = edition.structural_xml;
    xml = "<text>";
    size_t jitter = std::max<size_t>(1, config.words_per_sentence / 2);
    size_t in_sentence = 0;
    size_t sentence_len = 0;
    for (size_t i = 0; i < words.size(); ++i) {
      if (in_sentence == 0) {
        sentence_len = config.words_per_sentence +
                       rng.Uniform(2 * jitter + 1) - jitter;
        sentence_len = std::max<size_t>(1, sentence_len);
        xml += "<s>";
      }
      xml += "<w>" + xml::EscapeText(words[i]) + "</w>";
      ++in_sentence;
      bool last_word = i + 1 == words.size();
      bool close = in_sentence >= sentence_len || last_word;
      if (close) {
        xml += "</s>";
        in_sentence = 0;
      }
      if (!last_word) xml += " ";
    }
    xml += "</text>";
  }

  // Physical: <sheet><page><line>...</line>...</page></sheet>, cutting every
  // chars_per_line characters with no regard for word boundaries — the
  // source of word/line overlap.
  {
    std::string& xml = edition.physical_xml;
    xml = "<sheet>";
    size_t per_line = std::max<size_t>(1, config.chars_per_line);
    size_t line_in_page = 0;
    size_t line_number = 0;
    for (size_t pos = 0; pos < n || line_number == 0; pos += per_line) {
      if (line_in_page == 0) xml += "<page>";
      ++line_number;
      xml += "<line n=\"" + std::to_string(line_number) + "\">";
      xml += xml::EscapeText(text.substr(pos, per_line));
      xml += "</line>";
      if (++line_in_page >= std::max<size_t>(1, config.lines_per_page)) {
        xml += "</page>";
        line_in_page = 0;
      }
    }
    if (line_in_page != 0) xml += "</page>";
    xml += "</sheet>";
  }

  // Restoration and condition: flat unaligned span hierarchies.
  {
    Rng rng(config.seed ^ 0x5245535355524543ULL);
    SpanPlan plan = PlanSpans(rng, n, config.restoration_coverage,
                              /*min_len=*/5, /*max_len=*/25);
    edition.restoration_xml =
        SpanXml(text, "rest", "res", "resp", {"IK", "AD", "KY"}, rng, plan);
  }
  {
    Rng rng(config.seed ^ 0x434F4E444954494FULL);
    SpanPlan plan = PlanSpans(rng, n, config.damage_coverage,
                              /*min_len=*/3, /*max_len=*/15);
    edition.condition_xml = SpanXml(text, "cond", "dmg", "agent",
                                    {"damp", "fire", "tear"}, rng, plan);
  }
  return edition;
}

StatusOr<MultihierarchicalDocument> BuildEditionDocument(
    const EditionConfig& config) {
  Edition edition = GenerateEdition(config);
  MultihierarchicalDocument::Builder builder;
  // Moved, not copied: the Builder owns the only copies while Build parses
  // them and builds the index and stats.
  builder.SetBaseText(std::move(edition.base_text));
  builder.AddHierarchy("physical", std::move(edition.physical_xml));
  builder.AddHierarchy("structural", std::move(edition.structural_xml));
  builder.AddHierarchy("restoration", std::move(edition.restoration_xml));
  builder.AddHierarchy("condition", std::move(edition.condition_xml));
  return builder.Build();
}

}  // namespace mhx::workload
