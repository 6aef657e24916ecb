#include "inference/closure.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/generators.h"
#include "rdf/hom.h"
#include "rdf/iso.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Data;
using vocab::kDom;
using vocab::kRange;
using vocab::kSc;
using vocab::kSp;
using vocab::kType;

class ClosureTest : public ::testing::Test {
 protected:
  Dictionary dict_;
  Term a_ = dict_.Iri("a");
  Term b_ = dict_.Iri("b");
  Term c_ = dict_.Iri("c");
  Term d_ = dict_.Iri("d");
  Term p_ = dict_.Iri("p");
  Term q_ = dict_.Iri("q");
  Term x_ = dict_.Iri("x");
  Term y_ = dict_.Iri("y");
};

TEST_F(ClosureTest, EmptyGraphClosureIsVocabReflexivity) {
  Graph cl = RdfsClosure(Graph());
  EXPECT_EQ(cl.size(), 5u);
  for (Term v : vocab::kAll) {
    EXPECT_TRUE(cl.Contains(Triple(v, kSp, v)));
  }
}

TEST_F(ClosureTest, ScTransitivityAndReflexivity) {
  Graph g{Triple(a_, kSc, b_), Triple(b_, kSc, c_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(a_, kSc, c_)));
  EXPECT_TRUE(cl.Contains(Triple(a_, kSc, a_)));
  EXPECT_TRUE(cl.Contains(Triple(b_, kSc, b_)));
  EXPECT_TRUE(cl.Contains(Triple(c_, kSc, c_)));
}

TEST_F(ClosureTest, SpInheritancePropagatesUses) {
  Graph g{Triple(p_, kSp, q_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(x_, q_, y_)));
  EXPECT_TRUE(cl.Contains(Triple(p_, kSp, p_)));
  EXPECT_TRUE(cl.Contains(Triple(q_, kSp, q_)));
}

TEST_F(ClosureTest, TypeLiftsThroughSubclass) {
  Graph g{Triple(a_, kSc, b_), Triple(x_, kType, a_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, b_)));
  EXPECT_TRUE(cl.Contains(Triple(a_, kSc, a_)));  // rule (12)
}

TEST_F(ClosureTest, DomainTyping) {
  Graph g{Triple(p_, kDom, c_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, c_)));
  EXPECT_FALSE(cl.Contains(Triple(y_, kType, c_)));
}

TEST_F(ClosureTest, RangeTyping) {
  Graph g{Triple(p_, kRange, c_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(y_, kType, c_)));
  EXPECT_FALSE(cl.Contains(Triple(x_, kType, c_)));
}

TEST_F(ClosureTest, DomainTypingThroughSubproperty) {
  // Marin's rule (6): dom on the superproperty types users of the sub.
  Graph g{Triple(q_, kDom, c_), Triple(p_, kSp, q_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, c_)));
}

TEST_F(ClosureTest, RangeTypingThroughBlankProperty) {
  // Note 2.4's problem case: a blank node standing for a property.
  Dictionary dict;
  Term blank = dict.Blank("P");
  Graph g{Triple(blank, kRange, c_), Triple(p_, kSp, blank),
          Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(y_, kType, c_)));
}

TEST_F(ClosureTest, ChainedTypingAcrossRules) {
  // dom typing then sc lifting.
  Graph g{Triple(p_, kDom, a_), Triple(a_, kSc, b_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, a_)));
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, b_)));
}

TEST_F(ClosureTest, SpChainPropagation) {
  // p0 sp p1 sp p2; a use of p0 gains all three predicates.
  Graph g{Triple(p_, kSp, q_), Triple(q_, kSp, d_), Triple(x_, p_, y_)};
  Graph cl = RdfsClosure(g);
  EXPECT_TRUE(cl.Contains(Triple(p_, kSp, d_)));
  EXPECT_TRUE(cl.Contains(Triple(x_, q_, y_)));
  EXPECT_TRUE(cl.Contains(Triple(x_, d_, y_)));
}

TEST_F(ClosureTest, ClosureIsIdempotent) {
  Dictionary dict;
  Rng rng(7);
  SchemaWorkloadSpec spec;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  Graph cl = RdfsClosure(g);
  EXPECT_EQ(RdfsClosure(cl), cl);
}

TEST_F(ClosureTest, ClosureContainsInput) {
  Dictionary dict;
  Rng rng(13);
  SchemaWorkloadSpec spec;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  EXPECT_TRUE(g.IsSubgraphOf(RdfsClosure(g)));
}

TEST_F(ClosureTest, MatchesNaiveReferenceOnSchemaWorkloads) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Dictionary dict;
    Rng rng(seed);
    SchemaWorkloadSpec spec;
    spec.num_classes = 5;
    spec.num_properties = 4;
    spec.num_instances = 6;
    spec.num_facts = 10;
    Graph g = SchemaWorkload(spec, &dict, &rng);
    EXPECT_EQ(RdfsClosure(g), RdfsClosureNaive(g)) << "seed " << seed;
  }
}

TEST_F(ClosureTest, DeltaExtensionMatchesScratchOnGeneratedGraphs) {
  // Extending a maintained cl(A) by the delta B gives cl(A ∪ B) on the
  // schema, sc-chain and sp-chain generators, each split into a closed
  // half and a delta half.
  Dictionary dict;
  Rng rng(3);
  SchemaWorkloadSpec spec;
  spec.num_classes = 30;
  spec.num_properties = 12;
  spec.num_instances = 100;
  spec.num_facts = 250;
  const std::vector<Graph> graphs = {SchemaWorkload(spec, &dict, &rng),
                                     ScChain(60, &dict),
                                     SpChainWithUses(40, 30, &dict)};
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    std::vector<Triple> first, second;
    size_t k = 0;
    for (const Triple& t : g) (k++ % 2 == 0 ? first : second).push_back(t);
    IncrementalClosure inc{Graph(std::move(first))};
    inc.InsertDelta(Graph(std::move(second)));
    EXPECT_EQ(inc.closure(), RdfsClosure(g)) << "graph " << i;
  }

  // A whole sp-chain arriving as the delta of a closed schema workload.
  Dictionary dict2;
  Rng rng2(9);
  SchemaWorkloadSpec small;
  small.num_classes = 20;
  small.num_properties = 8;
  small.num_instances = 60;
  small.num_facts = 150;
  Graph g = SchemaWorkload(small, &dict2, &rng2);
  Graph delta = SpChainWithUses(15, 20, &dict2);
  IncrementalClosure inc(g);
  inc.InsertDelta(delta);
  EXPECT_EQ(inc.closure(), RdfsClosure(Graph::Union(g, delta)));
}

TEST_F(ClosureTest, MatchesNaiveReferenceWithVocabInDataPositions) {
  // Example 3.15-style pathological graph.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a sc b .\n"
                 "type dom a .\n"
                 "x type a .\n");
  EXPECT_EQ(RdfsClosure(g), RdfsClosureNaive(g));
}

TEST_F(ClosureTest, MatchesNaiveOnSpIntoVocabPathology) {
  // (e, sp, sc): rule (3) mints sc edges from e edges.
  Dictionary dict;
  Term e = dict.Iri("e");
  Graph g{Triple(e, kSp, kSc), Triple(a_, e, b_), Triple(x_, kType, a_)};
  Graph cl = RdfsClosure(g);
  EXPECT_EQ(cl, RdfsClosureNaive(g));
  EXPECT_TRUE(cl.Contains(Triple(a_, kSc, b_)));
  EXPECT_TRUE(cl.Contains(Triple(x_, kType, b_)));
}

TEST_F(ClosureTest, SemanticClosureEqualsDeductiveClosureGround) {
  // Thm 3.6(2) for a ground graph.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a sc b .\n"
                 "p dom a .\n"
                 "u p v .\n");
  EXPECT_EQ(SemanticClosure(g, &dict), RdfsClosure(g));
}

TEST_F(ClosureTest, SemanticClosureEqualsDeductiveClosureWithBlanks) {
  // Thm 3.6(2) through Skolemization (Lemma 3.4).
  Dictionary dict;
  Graph g = Data(&dict,
                 "_:X sc b .\n"
                 "a sp _:P .\n"
                 "u a v .\n");
  EXPECT_EQ(SemanticClosure(g, &dict), RdfsClosure(g));
}

TEST_F(ClosureTest, ClosureSizeQuadraticOnScChain) {
  // Thm 3.6(3): |cl(G)| = Θ(|G|²) — an sc-chain of n triples closes to
  // n(n+1)/2 sc pairs + n+1 reflexive + 5 vocab + (sc,sp,sc) reflexive.
  Dictionary dict;
  const uint32_t n = 30;
  Graph g = ScChain(n, &dict);
  Graph cl = RdfsClosure(g);
  size_t expected_sc_pairs = static_cast<size_t>(n) * (n + 1) / 2;
  size_t count = cl.CountMatches(std::nullopt, kSc, std::nullopt);
  EXPECT_EQ(count, expected_sc_pairs + (n + 1));  // pairs + reflexives
}

TEST_F(ClosureTest, TraceReplaysToClosure) {
  Dictionary dict;
  Rng rng(99);
  SchemaWorkloadSpec spec;
  spec.num_classes = 4;
  spec.num_properties = 3;
  spec.num_instances = 5;
  spec.num_facts = 8;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  std::vector<RuleApplication> trace;
  Graph cl = RdfsClosure(g, &trace);
  Graph replay = g;
  for (const RuleApplication& app : trace) {
    EXPECT_TRUE(ValidateApplication(app).ok())
        << ValidateApplication(app).ToString();
    for (const Triple& premise : app.premises) {
      EXPECT_TRUE(replay.Contains(premise));
    }
    for (const Triple& conclusion : app.conclusions) {
      replay.Insert(conclusion);
    }
  }
  EXPECT_EQ(replay, cl);
}

TEST_F(ClosureTest, RdfsEntailsBasics) {
  Graph g1{Triple(a_, kSc, b_), Triple(x_, kType, a_)};
  Graph g2{Triple(x_, kType, b_)};
  EXPECT_TRUE(RdfsEntails(g1, g2));
  EXPECT_FALSE(RdfsEntails(g2, g1));
  EXPECT_FALSE(RdfsEquivalent(g1, g2));
}

TEST_F(ClosureTest, RdfsEntailsWithBlankInQuery) {
  Graph g1{Triple(p_, kDom, c_), Triple(x_, p_, y_)};
  Dictionary dict;
  Term blank = dict.Blank("W");
  Graph g2{Triple(blank, kType, c_)};
  EXPECT_TRUE(RdfsEntails(g1, g2));
}

TEST_F(ClosureTest, RdfsEntailsTautologies) {
  // (type, sp, type) is entailed by everything (rule 9).
  Graph g2{Triple(kType, kSp, kType)};
  EXPECT_TRUE(RdfsEntails(Graph(), g2));
}

TEST_F(ClosureTest, EquivalentGraphsWithDifferentSyntax) {
  // Example 3.17: G and H are equivalent.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a sc b .\n"
                 "b sc c .\n"
                 "_:N sc c .\n"
                 "a sc _:N .\n");
  Graph h = Data(&dict,
                 "a sc b .\n"
                 "b sc c .\n"
                 "a sc c .\n");
  EXPECT_TRUE(RdfsEquivalent(g, h));
}

TEST_F(ClosureTest, Example32NaiveClosureIsNotUnique) {
  // Example 3.2 / Def. 3.1: a graph with two incomparable maximal
  // equivalent extensions — adding (X,r,d) or (X,q,d) each preserves
  // equivalence, but adding both does not.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "a p c .\n"
                 "a p b .\n"
                 "c r d .\n"
                 "b q d .\n");
  Term x = dict.Blank("X");
  Triple via_r(x, dict.Iri("r"), dict.Iri("d"));
  Triple via_q(x, dict.Iri("q"), dict.Iri("d"));
  Graph with_r = g;
  with_r.Insert(via_r);
  Graph with_q = g;
  with_q.Insert(via_q);
  Graph with_both = with_r;
  with_both.Insert(via_q);
  EXPECT_TRUE(RdfsEquivalent(g, with_r));
  EXPECT_TRUE(RdfsEquivalent(g, with_q));
  EXPECT_FALSE(RdfsEquivalent(g, with_both));
  // Hence there are (at least) two distinct maximal equivalent
  // extensions, so Def. 3.1 does not define a unique closure — the
  // motivation for the Skolemization-based Def. 3.5.
}

TEST_F(ClosureTest, Lemma33DeductiveClosureInsideEveryNaiveClosure) {
  // Lemma 3.3: RDFS-cl(G) is contained in every maximal equivalent
  // extension; spot-check by growing Example 3.2's graph either way.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "a p c .\n"
                 "c r d .\n");
  Graph cl = RdfsClosure(g);
  Graph extended = g;
  extended.Insert(dict.Blank("X"), dict.Iri("r"), dict.Iri("d"));
  ASSERT_TRUE(RdfsEquivalent(g, extended));
  // Any maximal equivalent extension contains the extension's closure,
  // which contains RDFS-cl(G).
  EXPECT_TRUE(cl.IsSubgraphOf(RdfsClosure(extended)));
}

}  // namespace
}  // namespace swdb
