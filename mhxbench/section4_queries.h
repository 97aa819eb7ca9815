// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The edition-generic forms of the paper's four Section 4 queries. The
// verbatim I.1/II.1 texts pin words of the Figure 1 text that a generated
// edition does not contain; these keep the shapes — overlap-aware line selection, leaf-walk highlighting,
// analyze-string() re-partitioning, restoration italics — over any
// workload::GenerateEdition output. The texts are identical to the ones
// bench/bench_corpus.cc drives, so the two drivers measure the same
// queries.

#ifndef MHXBENCH_SECTION4_QUERIES_H_
#define MHXBENCH_SECTION4_QUERIES_H_

namespace mhxbench {

// I.1, I.2, II.1, III.1 in that order.
inline constexpr const char* kSection4Queries[] = {
    // I.1: lines containing a matching word, overlap-aware.
    R"(
for $l in /descendant::line[xdescendant::w[matches(string(.), ".*ea.*")] or
                            overlapping::w[matches(string(.), ".*ea.*")]]
return <line>{string($l)}</line>)",
    // I.2: every line with damaged words highlighted, walking shared
    // leaves.
    R"(
for $l in /descendant::line
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))",
    // II.1: analyze-string() over matching words, match spans emphasised
    // per leaf (the analyze-string-heavy class, admission-controlled).
    R"(
for $w in /descendant::w[matches(string(.), ".*ea.*")]
return (
  let $r := analyze-string($w, ".*ea.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))",
    // III.1: restored text in italics.
    R"(
for $leaf in /descendant::leaf()
return if ($leaf/xancestor::res) then <i>{$leaf}</i> else $leaf)",
};

}  // namespace mhxbench

#endif  // MHXBENCH_SECTION4_QUERIES_H_
