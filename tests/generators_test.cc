#include "gen/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cq/cq.h"
#include "gen/sp2b.h"
#include "inference/closure.h"
#include "query/answer.h"

namespace swdb {
namespace {

TEST(Generators, RandomSimpleGraphIsDeterministicPerSeed) {
  Dictionary d1;
  Dictionary d2;
  Rng r1(42);
  Rng r2(42);
  RandomGraphSpec spec;
  Graph g1 = RandomSimpleGraph(spec, &d1, &r1);
  Graph g2 = RandomSimpleGraph(spec, &d2, &r2);
  EXPECT_EQ(g1, g2);
}

TEST(Generators, RandomSimpleGraphRespectsSpec) {
  Dictionary dict;
  Rng rng(9);
  RandomGraphSpec spec;
  spec.num_nodes = 10;
  spec.num_triples = 50;
  spec.num_predicates = 3;
  spec.blank_ratio = 0;
  Graph g = RandomSimpleGraph(spec, &dict, &rng);
  EXPECT_LE(g.size(), 50u);  // duplicates collapse
  EXPECT_GT(g.size(), 20u);
  EXPECT_TRUE(g.IsGround());
  EXPECT_TRUE(g.IsSimple());
}

TEST(Generators, ScChainShape) {
  Dictionary dict;
  Graph g = ScChain(5, &dict);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.CountMatches(std::nullopt, vocab::kSc, std::nullopt), 5u);
}

TEST(Generators, SpChainWithUsesShape) {
  Dictionary dict;
  Graph g = SpChainWithUses(4, 3, &dict);
  EXPECT_EQ(g.CountMatches(std::nullopt, vocab::kSp, std::nullopt), 4u);
  EXPECT_EQ(g.size(), 7u);
  // Closure propagates every use up the chain.
  Graph cl = RdfsClosure(g);
  Term top = dict.Iri("urn:sp4");
  EXPECT_EQ(cl.CountMatches(std::nullopt, top, std::nullopt), 3u);
}

TEST(Generators, SchemaWorkloadIsAcyclicAndWellFormed) {
  Dictionary dict;
  Rng rng(3);
  SchemaWorkloadSpec spec;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  EXPECT_TRUE(g.IsWellFormedData());
  EXPECT_GT(g.CountMatches(std::nullopt, vocab::kSc, std::nullopt), 0u);
  EXPECT_GT(g.CountMatches(std::nullopt, vocab::kDom, std::nullopt), 0u);
}

TEST(Generators, BlankChainHasNoCycle) {
  Dictionary dict;
  Graph chain = BlankChain(10, dict.Iri("p"), &dict);
  EXPECT_FALSE(HasBlankInducedCycle(chain));
  EXPECT_EQ(chain.size(), 10u);
  Graph cycle = BlankCycle(10, dict.Iri("p"), &dict);
  EXPECT_TRUE(HasBlankInducedCycle(cycle));
  EXPECT_EQ(cycle.size(), 10u);
}

TEST(Generators, PatternQueryAlwaysMatchesItsSource) {
  Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    Dictionary dict;
    RandomGraphSpec spec;
    spec.num_nodes = 8;
    spec.num_triples = 15;
    spec.blank_ratio = 0.2;
    Graph data = RandomSimpleGraph(spec, &dict, &rng);
    Query q = PatternQueryFromGraph(data, 3, 0.5, &dict, &rng);
    ASSERT_TRUE(q.Validate().ok()) << q.Validate().ToString();
    QueryEvaluator eval(&dict);
    Result<std::vector<Graph>> pre = eval.PreAnswer(q, data);
    ASSERT_TRUE(pre.ok());
    EXPECT_FALSE(pre->empty()) << "round " << round;
  }
}

TEST(Generators, EquivalentMutationPreservesEquivalence) {
  Rng rng(31);
  for (int round = 0; round < 5; ++round) {
    Dictionary dict;
    SchemaWorkloadSpec spec;
    spec.num_classes = 4;
    spec.num_properties = 3;
    spec.num_instances = 4;
    spec.num_facts = 6;
    Graph g = SchemaWorkload(spec, &dict, &rng);
    Graph mutated = EquivalentMutation(g, 5, &dict, &rng);
    EXPECT_TRUE(RdfsEquivalent(g, mutated)) << "round " << round;
    EXPECT_GE(mutated.size(), g.size());
  }
}

TEST(Generators, OverlappingQueryMixShapeAndValidity) {
  Rng rng(47);
  Dictionary dict;
  RandomGraphSpec gspec;
  gspec.num_nodes = 30;
  gspec.num_triples = 80;
  gspec.blank_ratio = 0.0;
  Graph data = RandomSimpleGraph(gspec, &dict, &rng);
  QueryMixSpec spec;
  spec.num_families = 4;
  spec.queries_per_family = 6;
  spec.prefix_size = 2;
  spec.suffix_size = 2;
  std::vector<Query> mix = OverlappingQueryMix(data, spec, &dict, &rng);
  ASSERT_EQ(mix.size(), 24u);
  QueryEvaluator eval(&dict);
  for (size_t i = 0; i < mix.size(); ++i) {
    const Query& q = mix[i];
    ASSERT_TRUE(q.Validate().ok()) << i << ": " << q.Validate().ToString();
    EXPECT_TRUE(q.premise.empty());
    EXPECT_EQ(q.head.triples(), q.body.triples());
    EXPECT_GE(q.body.size(), spec.prefix_size);
    // Every query matches its source graph somewhere.
    Result<std::vector<Graph>> pre = eval.PreAnswer(q, data);
    ASSERT_TRUE(pre.ok()) << i;
    EXPECT_FALSE(pre->empty()) << i;
  }
}

// ---------------------------------------------------------------------
// sp2b: the SP²Bench-style DBLP-shaped serving corpus.

Sp2bSpec SmallSp2b(uint64_t target, uint64_t seed) {
  Sp2bSpec spec;
  spec.target_triples = target;
  spec.seed = seed;
  return spec;
}

TEST(Sp2b, SameSeedSameCorpusAndStream) {
  Dictionary d1, d2;
  Sp2bGenerator g1(SmallSp2b(10000, 5), &d1);
  Sp2bGenerator g2(SmallSp2b(10000, 5), &d2);
  EXPECT_EQ(g1.GenerateCorpus(), g2.GenerateCorpus());
  // The writer stream continues deterministically too.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(g1.NextPublications(500), g2.NextPublications(500));
  }
  EXPECT_EQ(g1.triples_emitted(), g2.triples_emitted());
  EXPECT_EQ(g1.authors().size(), g2.authors().size());
}

TEST(Sp2b, DifferentSeedsDiffer) {
  Dictionary d1, d2;
  Sp2bGenerator g1(SmallSp2b(10000, 5), &d1);
  Sp2bGenerator g2(SmallSp2b(10000, 6), &d2);
  EXPECT_NE(g1.GenerateCorpus(), g2.GenerateCorpus());
}

TEST(Sp2b, HitsTripleTargetWithinOnePercent) {
  for (const uint64_t target : {uint64_t{10000}, uint64_t{100000}}) {
    Dictionary dict;
    Sp2bGenerator gen(SmallSp2b(target, 1), &dict);
    const Graph corpus = gen.GenerateCorpus();
    EXPECT_GE(corpus.size(), target);
    EXPECT_LE(corpus.size(), target + target / 100)
        << "overshoot above 1% at target " << target;
    // The emitted stream had no duplicate triples.
    EXPECT_EQ(corpus.size(), gen.triples_emitted());
  }
}

TEST(Sp2b, MaxAuthorDegreeGrowsWithCorpusSize) {
  auto max_degree = [](uint64_t target) {
    Dictionary dict;
    Sp2bGenerator gen(SmallSp2b(target, 1), &dict);
    const Graph corpus = gen.GenerateCorpus();
    const Sp2bVocab& v = gen.vocab();
    std::unordered_map<Term, size_t> degree;
    for (const Triple& t : corpus) {
      if (t.p == v.creator || t.p == v.first_author) degree[t.o] += 1;
    }
    size_t best = 0;
    for (const auto& [author, d] : degree) best = std::max(best, d);
    return best;
  };
  const size_t at_10k = max_degree(10000);
  const size_t at_100k = max_degree(100000);
  // Preferential attachment: the most prolific author's degree must
  // keep growing with corpus size (a uniform-attachment corpus would
  // plateau near the mean).
  EXPECT_GT(at_10k, 10u);
  EXPECT_GT(at_100k, 2 * at_10k);
}

TEST(Sp2b, NoDanglingCitationsAndWellFormed) {
  for (const uint64_t target : {uint64_t{10000}, uint64_t{100000}}) {
    Dictionary dict;
    Sp2bGenerator gen(SmallSp2b(target, 3), &dict);
    const Graph corpus = gen.GenerateCorpus();
    const Sp2bVocab& v = gen.vocab();
    std::unordered_set<Term> papers;
    for (const Triple& t : corpus) {
      ASSERT_TRUE(t.IsWellFormedData());
      if (t.p == vocab::kType &&
          (t.o == v.article || t.o == v.inproceedings)) {
        papers.insert(t.s);
      }
    }
    EXPECT_EQ(papers.size(), gen.papers().size());
    size_t citations = 0;
    for (const Triple& t : corpus) {
      if (t.p != v.references) continue;
      ++citations;
      ASSERT_TRUE(papers.count(t.s)) << "citation from a non-paper";
      ASSERT_TRUE(papers.count(t.o)) << "dangling citation target";
    }
    EXPECT_GT(citations, target / 20);
  }
}

TEST(Sp2b, StreamContinuesYearPartition) {
  Dictionary dict;
  Sp2bGenerator gen(SmallSp2b(5000, 7), &dict);
  (void)gen.GenerateCorpus();
  const uint32_t year_before = gen.current_year();
  EXPECT_GT(year_before, gen.spec().start_year);
  // New publications keep citing only already-existing papers.
  const size_t papers_before = gen.papers().size();
  const std::vector<Triple> delta = gen.NextPublications(2000);
  EXPECT_GE(delta.size(), 2000u);
  EXPECT_GE(gen.current_year(), year_before);
  EXPECT_GT(gen.papers().size(), papers_before);
  std::unordered_set<Term> all_papers(gen.papers().begin(),
                                      gen.papers().end());
  for (const Triple& t : delta) {
    if (t.p == gen.vocab().references) {
      EXPECT_TRUE(all_papers.count(t.o));
    }
  }
}

}  // namespace
}  // namespace swdb
