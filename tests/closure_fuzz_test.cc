// Randomized cross-checks of the closure fixpoint against the naive
// rule-enumeration reference on *pathological* graphs: reserved
// vocabulary appearing in subject/object positions, sp edges into the
// vocabulary, blank properties — every interaction Note 2.4 and
// Example 3.15 warn about. RdfsClosure and IncrementalClosure share one
// rule join, so every entry point is checked against the naive oracle
// rather than against each other.

#include <gtest/gtest.h>

#include "inference/closure.h"
#include "inference/proof.h"
#include "model/interpretation.h"
#include "model/canonical.h"
#include "rdf/graph.h"
#include "util/rng.h"

namespace swdb {
namespace {

// A random graph over a tiny universe that *includes* the five reserved
// terms as first-class citizens in every position (predicate positions
// keep IRIs only, per well-formedness).
Graph PathologicalGraph(Dictionary* dict, Rng* rng, uint32_t triples) {
  std::vector<Term> names = {
      vocab::kSp,          vocab::kSc,          vocab::kType,
      vocab::kDom,         vocab::kRange,       dict->Iri("fz:a"),
      dict->Iri("fz:b"),   dict->Iri("fz:p"),   dict->Iri("fz:q"),
      dict->Blank("fzX"),  dict->Blank("fzY"),
  };
  Graph g;
  for (uint32_t i = 0; i < triples; ++i) {
    Term s = names[rng->Below(names.size())];
    Term p = names[rng->Below(names.size())];
    Term o = names[rng->Below(names.size())];
    Triple t(s, p, o);
    if (t.IsWellFormedData()) g.Insert(t);
  }
  return g;
}

// PathologicalGraph plus `edges` random sp/sc pairs over the same
// universe, so the hierarchies chain, branch and cycle.
Graph WithHierarchy(Graph g, Rng* rng, uint32_t edges) {
  std::vector<Term> names = g.Universe();
  if (names.empty()) return g;
  for (uint32_t i = 0; i < edges; ++i) {
    Term s = names[rng->Below(names.size())];
    Term o = names[rng->Below(names.size())];
    g.Insert(s, rng->Below(2) == 0 ? vocab::kSp : vocab::kSc, o);
  }
  return g;
}

class ClosureFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureFuzz,
                         ::testing::Range<uint64_t>(1, 41));

TEST_P(ClosureFuzz, WorklistMatchesNaiveOnPathologicalGraphs) {
  Dictionary dict;
  Rng rng(GetParam());
  Graph g = PathologicalGraph(&dict, &rng, 4 + rng.Below(6));
  Graph fast = RdfsClosure(g);
  Graph naive = RdfsClosureNaive(g);
  EXPECT_EQ(fast, naive) << "seed " << GetParam();
}

TEST_P(ClosureFuzz, MembershipFallbackMatchesOnPathologicalGraphs) {
  Dictionary dict;
  Rng rng(GetParam() + 1000);
  Graph g = PathologicalGraph(&dict, &rng, 4 + rng.Below(6));
  ClosureMembership membership(g);
  Graph cl = RdfsClosure(g);
  for (const Triple& t : cl) {
    EXPECT_TRUE(membership.Contains(t)) << "seed " << GetParam();
  }
  // Sample some non-members.
  std::vector<Term> universe = g.Universe();
  if (universe.empty()) return;
  for (int i = 0; i < 30; ++i) {
    Term s = universe[rng.Below(universe.size())];
    Term p = universe[rng.Below(universe.size())];
    Term o = universe[rng.Below(universe.size())];
    if (!p.IsIri()) continue;
    Triple t(s, p, o);
    EXPECT_EQ(membership.Contains(t), cl.Contains(t))
        << "seed " << GetParam();
  }
}

TEST_P(ClosureFuzz, CanonicalModelIsAModelEvenForPathologicalGraphs) {
  Dictionary dict;
  Rng rng(GetParam() + 2000);
  Graph g = PathologicalGraph(&dict, &rng, 3 + rng.Below(5));
  Interpretation canonical = CanonicalModel(g, &dict);
  EXPECT_TRUE(canonical.CheckRdfsConditions().ok())
      << "seed " << GetParam() << ": "
      << canonical.CheckRdfsConditions().ToString();
  EXPECT_TRUE(SatisfiesSimple(canonical, g)) << "seed " << GetParam();
}

TEST_P(ClosureFuzz, SemanticClosureMatchesOnPathologicalGraphs) {
  Dictionary dict;
  Rng rng(GetParam() + 3000);
  Graph g = PathologicalGraph(&dict, &rng, 3 + rng.Below(5));
  EXPECT_EQ(SemanticClosure(g, &dict), RdfsClosure(g))
      << "seed " << GetParam();
}

class NaiveOracle : public ::testing::TestWithParam<uint64_t> {
 protected:
  // A pathological graph with 2–6 extra sp/sc pairs mixed in.
  Graph Draw(Dictionary* dict, Rng* rng) {
    Graph g = PathologicalGraph(dict, rng, 3 + rng->Below(5));
    return WithHierarchy(std::move(g), rng, 2 + rng->Below(5));
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveOracle,
                         ::testing::Range<uint64_t>(1, 151));

TEST_P(NaiveOracle, SplitInsertMatches) {
  Dictionary dict;
  Rng rng(GetParam());
  Graph g = Draw(&dict, &rng);
  std::vector<Triple> first, second;
  for (const Triple& t : g) {
    (rng.Below(2) == 0 ? first : second).push_back(t);
  }
  IncrementalClosure inc{Graph(std::move(first))};
  inc.InsertDelta(Graph(std::move(second)));
  EXPECT_EQ(inc.closure(), RdfsClosureNaive(g)) << "seed " << GetParam();
}

TEST_P(NaiveOracle, DRedEraseMatches) {
  Dictionary dict;
  Rng rng(GetParam() + 5000);
  Graph g = Draw(&dict, &rng);
  IncrementalClosure inc(g);
  Graph deleted;
  const uint32_t k = 1 + rng.Below(3);
  for (uint32_t i = 0; i < k && i < g.size(); ++i) {
    deleted.Insert(g[rng.Below(g.size())]);
  }
  Graph after = g;
  for (const Triple& t : deleted) after.Erase(t);
  inc.EraseDelta(after, deleted);
  EXPECT_EQ(inc.closure(), RdfsClosureNaive(after)) << "seed " << GetParam();
}

TEST_P(NaiveOracle, TraceReplaysAndProofChecks) {
  Dictionary dict;
  Rng rng(GetParam() + 6000);
  Graph g = Draw(&dict, &rng);
  std::vector<RuleApplication> trace;
  Graph cl = RdfsClosure(g, &trace);
  EXPECT_EQ(cl, RdfsClosureNaive(g)) << "seed " << GetParam();
  Graph replay = g;
  for (const RuleApplication& app : trace) {
    ASSERT_TRUE(ValidateApplication(app).ok())
        << "seed " << GetParam() << ": " << ValidateApplication(app).ToString();
    for (const Triple& premise : app.premises) {
      ASSERT_TRUE(replay.Contains(premise)) << "seed " << GetParam();
    }
    for (const Triple& conclusion : app.conclusions) replay.Insert(conclusion);
  }
  EXPECT_EQ(replay, cl) << "seed " << GetParam();
  // Entail a sample of the closure: the proof is the trace plus one map.
  Graph goal;
  for (const Triple& t : cl) {
    if (rng.Below(4) == 0) goal.Insert(t);
  }
  Result<Proof> proof = ProveEntailment(g, goal);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(CheckProof(*proof).ok()) << CheckProof(*proof).ToString();
}

// A property hierarchy with many uses: p0..p3 chained by random sp
// pairs, (q, sp, sp) and (r, sp, sc) so that uses of q and r conclude
// sp/sc pairs by rule (3), dom/range on the properties and uses of all
// of them over a few subjects and objects. Most of the first round's
// conclusions come from the uses, so it outsizes a quarter of the graph
// and mixes sp/sc pairs with ordinary triples.
Graph HierarchyWithUses(Dictionary* dict, Rng* rng) {
  std::vector<Term> props, terms;
  for (int i = 0; i < 4; ++i) {
    props.push_back(dict->Iri("hu:p" + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    terms.push_back(dict->Iri("hu:t" + std::to_string(i)));
  }
  terms.push_back(dict->Blank("huB"));
  const Term q = dict->Iri("hu:q");
  const Term r = dict->Iri("hu:r");
  Graph g;
  for (size_t i = 0; i + 1 < props.size(); ++i) {
    const size_t above = i + 1 + rng->Below(props.size() - i - 1);
    g.Insert(props[i], vocab::kSp, props[above]);
  }
  g.Insert(q, vocab::kSp, vocab::kSp);
  g.Insert(r, vocab::kSp, vocab::kSc);
  g.Insert(props[rng->Below(props.size())], vocab::kDom, terms[0]);
  g.Insert(props[rng->Below(props.size())], vocab::kRange, terms[1]);
  auto term = [&] { return terms[rng->Below(terms.size())]; };
  for (int i = 0; i < 10; ++i) g.Insert(term(), props[rng->Below(2)], term());
  for (int i = 0; i < 3; ++i) {
    g.Insert(term(), q, term());
    g.Insert(term(), r, term());
  }
  return g;
}

TEST_P(NaiveOracle, TracedLargeRoundWithPairsReplays) {
  Dictionary dict;
  Rng rng(GetParam() + 8000);
  const Graph g = HierarchyWithUses(&dict, &rng);
  std::vector<RuleApplication> trace;
  const Graph cl = RdfsClosure(g, &trace);
  EXPECT_EQ(cl, RdfsClosureNaive(g)) << "seed " << GetParam();
  // Rule (3) alone puts every use under each of its properties' supers
  // into the first round.
  size_t first_round = 0;
  for (const Triple& t : g) {
    first_round += g.CountMatches(t.p, vocab::kSp, std::nullopt);
  }
  EXPECT_GT(first_round, g.size() / 4);
  Graph replay = g;
  for (const RuleApplication& app : trace) {
    ASSERT_TRUE(ValidateApplication(app).ok())
        << "seed " << GetParam() << ": " << ValidateApplication(app).ToString();
    for (const Triple& premise : app.premises) {
      ASSERT_TRUE(replay.Contains(premise)) << "seed " << GetParam();
    }
    for (const Triple& conclusion : app.conclusions) replay.Insert(conclusion);
  }
  EXPECT_EQ(replay, cl) << "seed " << GetParam();
}

TEST_P(NaiveOracle, DRedEraseOfALargeConeMatches) {
  Dictionary dict;
  Rng rng(GetParam() + 9000);
  // A class chain c0 sc c1 sc ... with instances typed at its root, plus
  // a pathological graph: cutting a chain edge suspects every type the
  // instances got above it.
  Graph g = Draw(&dict, &rng);
  const uint32_t chain = 3 + rng.Below(4);
  std::vector<Term> classes;
  for (uint32_t i = 0; i <= chain; ++i) {
    classes.push_back(dict.Iri("cone:c" + std::to_string(i)));
  }
  for (uint32_t i = 0; i < chain; ++i) {
    g.Insert(classes[i], vocab::kSc, classes[i + 1]);
  }
  for (int i = 0; i < 12; ++i) {
    g.Insert(dict.Iri("cone:x" + std::to_string(i)), vocab::kType, classes[0]);
  }
  IncrementalClosure inc(g);
  const size_t before = inc.closure().size();
  const uint32_t cut = rng.Below(chain);
  const Graph deleted{Triple(classes[cut], vocab::kSc, classes[cut + 1])};
  Graph after = g;
  after.Erase(deleted[0]);
  ClosureDeltaStats stats;
  inc.EraseDelta(after, deleted, &stats);
  EXPECT_GT(stats.overdeleted * 16, before) << "seed " << GetParam();
  EXPECT_EQ(inc.closure(), RdfsClosure(after)) << "seed " << GetParam();
}

TEST_P(NaiveOracle, AllRulesMatches) {
  Dictionary dict;
  Rng rng(GetParam() + 7000);
  Graph g = Draw(&dict, &rng);
  EXPECT_EQ(RdfsClosureWithRules(g, RuleSet::All()), RdfsClosureNaive(g))
      << "seed " << GetParam();
}

}  // namespace
}  // namespace swdb
