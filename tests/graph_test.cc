#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <random>
#include <set>
#include <type_traits>
#include <unordered_set>

#include "parser/text.h"
#include "testutil.h"

namespace swdb {
namespace {

using swdb::testing::Data;

class GraphTest : public ::testing::Test {
 protected:
  Dictionary dict_;
  Term a_ = dict_.Iri("urn:a");
  Term b_ = dict_.Iri("urn:b");
  Term c_ = dict_.Iri("urn:c");
  Term p_ = dict_.Iri("urn:p");
  Term q_ = dict_.Iri("urn:q");
  Term x_ = dict_.Blank("X");
  Term y_ = dict_.Blank("Y");
};

TEST_F(GraphTest, InsertDeduplicatesAndSorts) {
  Graph g;
  EXPECT_TRUE(g.Insert(Triple(b_, p_, c_)));
  EXPECT_TRUE(g.Insert(Triple(a_, p_, b_)));
  EXPECT_FALSE(g.Insert(Triple(a_, p_, b_)));
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
}

TEST_F(GraphTest, InitializerListNormalizes) {
  Graph g{Triple(b_, p_, c_), Triple(a_, p_, b_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains(Triple(a_, p_, b_)));
}

TEST_F(GraphTest, EraseRemovesAndReportsPresence) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_TRUE(g.Erase(Triple(a_, p_, b_)));
  EXPECT_FALSE(g.Erase(Triple(a_, p_, b_)));
  EXPECT_TRUE(g.empty());
}

TEST_F(GraphTest, SubgraphRelation) {
  Graph g{Triple(a_, p_, b_), Triple(b_, p_, c_)};
  Graph sub{Triple(a_, p_, b_)};
  EXPECT_TRUE(sub.IsSubgraphOf(g));
  EXPECT_FALSE(g.IsSubgraphOf(sub));
  EXPECT_TRUE(g.IsSubgraphOf(g));
}

TEST_F(GraphTest, UniverseAndVocabulary) {
  Graph g{Triple(a_, p_, x_), Triple(x_, q_, b_)};
  std::vector<Term> universe = g.Universe();
  EXPECT_EQ(universe.size(), 5u);  // a, p, X, q, b
  std::vector<Term> voc = g.Vocabulary();
  EXPECT_EQ(voc.size(), 4u);  // a, p, q, b
  std::vector<Term> blanks = g.BlankNodes();
  ASSERT_EQ(blanks.size(), 1u);
  EXPECT_EQ(blanks[0], x_);
}

TEST_F(GraphTest, GroundAndSimplePredicates) {
  Graph ground{Triple(a_, p_, b_)};
  EXPECT_TRUE(ground.IsGround());
  EXPECT_TRUE(ground.IsSimple());

  Graph with_blank{Triple(a_, p_, x_)};
  EXPECT_FALSE(with_blank.IsGround());
  EXPECT_TRUE(with_blank.IsSimple());

  Graph with_vocab{Triple(a_, vocab::kSc, b_)};
  EXPECT_TRUE(with_vocab.IsGround());
  EXPECT_FALSE(with_vocab.IsSimple());
}

TEST_F(GraphTest, SimpleChecksAllPositions) {
  // Vocabulary in subject or object position also breaks simplicity
  // (Def. 2.2 intersects the whole vocabulary with rdfsV).
  Graph subj{Triple(vocab::kType, p_, b_)};
  EXPECT_FALSE(subj.IsSimple());
  Graph obj{Triple(a_, p_, vocab::kType)};
  EXPECT_FALSE(obj.IsSimple());
}

TEST_F(GraphTest, UnionSharesBlankNodes) {
  Graph g1{Triple(x_, p_, a_)};
  Graph g2{Triple(x_, p_, b_)};
  Graph u = Graph::Union(g1, g2);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u.BlankNodes().size(), 1u);  // X shared
}

TEST_F(GraphTest, MatchBySubject) {
  Graph g{Triple(a_, p_, b_), Triple(a_, q_, c_), Triple(b_, p_, c_)};
  size_t count = 0;
  g.Match(a_, std::nullopt, std::nullopt, [&](const Triple&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);
}

TEST_F(GraphTest, MatchByPredicate) {
  Graph g{Triple(a_, p_, b_), Triple(a_, q_, c_), Triple(b_, p_, c_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 2u);
  EXPECT_EQ(g.CountMatches(std::nullopt, q_, std::nullopt), 1u);
}

TEST_F(GraphTest, MatchByPredicateObject) {
  Graph g{Triple(a_, p_, c_), Triple(b_, p_, c_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, c_), 2u);
}

TEST_F(GraphTest, MatchByObjectOnly) {
  Graph g{Triple(a_, p_, c_), Triple(b_, q_, c_), Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, std::nullopt, c_), 2u);
}

TEST_F(GraphTest, MatchFullyBound) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(a_, p_, b_), 1u);
  EXPECT_EQ(g.CountMatches(a_, p_, c_), 0u);
}

TEST_F(GraphTest, MatchSubjectPredicate) {
  Graph g{Triple(a_, p_, b_), Triple(a_, p_, c_), Triple(a_, q_, b_)};
  EXPECT_EQ(g.CountMatches(a_, p_, std::nullopt), 2u);
}

TEST_F(GraphTest, MatchEarlyStop) {
  Graph g{Triple(a_, p_, b_), Triple(a_, p_, c_)};
  size_t count = 0;
  bool completed = g.Match(std::nullopt, std::nullopt, std::nullopt,
                           [&](const Triple&) {
                             ++count;
                             return false;
                           });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 1u);
}

TEST_F(GraphTest, MatchSurvivesMutationBetweenCalls) {
  Graph g{Triple(a_, p_, b_)};
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 1u);
  g.Insert(Triple(b_, p_, c_));
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 2u);
  g.Erase(Triple(a_, p_, b_));
  EXPECT_EQ(g.CountMatches(std::nullopt, p_, std::nullopt), 1u);
}

TEST_F(GraphTest, InsertAllIsSetUnion) {
  Graph g1{Triple(a_, p_, b_)};
  Graph g2{Triple(a_, p_, b_), Triple(b_, p_, c_)};
  g1.InsertAll(g2);
  EXPECT_EQ(g1.size(), 2u);
}

class MatchRangeTest : public ::testing::Test {
 protected:
  MatchRangeTest() {
    for (int s = 0; s < 4; ++s) {
      for (int p = 0; p < 3; ++p) {
        for (int o = 0; o < 4; ++o) {
          if ((s + 2 * p + o) % 3 == 0) {
            g_.Insert(Term_(s), Pred_(p), Term_(o));
          }
        }
      }
    }
  }
  Term Term_(int i) { return dict_.Iri("urn:n" + std::to_string(i)); }
  Term Pred_(int i) { return dict_.Iri("urn:p" + std::to_string(i)); }

  // Reference: brute-force filter over all triples.
  std::vector<Triple> Brute(std::optional<Term> s, std::optional<Term> p,
                            std::optional<Term> o) {
    std::vector<Triple> out;
    for (const Triple& t : g_) {
      if (s && t.s != *s) continue;
      if (p && t.p != *p) continue;
      if (o && t.o != *o) continue;
      out.push_back(t);
    }
    return out;
  }

  Dictionary dict_;
  Graph g_;
};

TEST_F(MatchRangeTest, EveryBoundCombinationAgreesWithBruteForce) {
  std::vector<std::optional<Term>> subjects = {std::nullopt, Term_(0), Term_(2),
                                               dict_.Iri("urn:absent")};
  std::vector<std::optional<Term>> preds = {std::nullopt, Pred_(0), Pred_(1)};
  std::vector<std::optional<Term>> objects = {std::nullopt, Term_(1), Term_(3)};
  for (const auto& s : subjects) {
    for (const auto& p : preds) {
      for (const auto& o : objects) {
        std::vector<Triple> expected = Brute(s, p, o);
        MatchRange range = g_.Matches(s, p, o);
        EXPECT_EQ(range.size(), expected.size());
        EXPECT_EQ(range.empty(), expected.empty());
        std::vector<Triple> got(range.begin(), range.end());
        std::sort(got.begin(), got.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected);
        EXPECT_EQ(g_.CountMatches(s, p, o), expected.size());
      }
    }
  }
}

TEST_F(MatchRangeTest, IndexOrderSelection) {
  // Each bound-position combination resolves to one contiguous range in a
  // specific permutation.
  EXPECT_EQ(g_.Matches(std::nullopt, std::nullopt, std::nullopt).order(),
            IndexOrder::kFullScan);
  EXPECT_EQ(g_.Matches(Term_(0), std::nullopt, std::nullopt).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(Term_(0), Pred_(0), std::nullopt).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(Term_(0), Pred_(0), Term_(0)).order(),
            IndexOrder::kSpo);
  EXPECT_EQ(g_.Matches(std::nullopt, Pred_(0), std::nullopt).order(),
            IndexOrder::kPso);
  EXPECT_EQ(g_.Matches(std::nullopt, Pred_(0), Term_(0)).order(),
            IndexOrder::kPos);
  EXPECT_EQ(g_.Matches(std::nullopt, std::nullopt, Term_(0)).order(),
            IndexOrder::kOsp);
  EXPECT_EQ(g_.Matches(Term_(0), std::nullopt, Term_(0)).order(),
            IndexOrder::kOsp);
  // MatchOrder predicts every routing, and the bound positions lead it.
  for (int mask = 0; mask < 8; ++mask) {
    const bool s = mask & 1, p = mask & 2, o = mask & 4;
    const auto bound = [](bool b, Term t) {
      return b ? std::optional<Term>(t) : std::nullopt;
    };
    const IndexOrder order = MatchOrder(s, p, o);
    EXPECT_EQ(g_.Matches(bound(s, Term_(0)), bound(p, Pred_(0)),
                         bound(o, Term_(0)))
                  .order(),
              order)
        << mask;
    const int prefix = s + p + o;
    for (int pos = 0; pos < 3; ++pos) {
      const bool is_bound = pos == 0 ? s : pos == 1 ? p : o;
      EXPECT_EQ(ColumnOfPosition(order, pos) < prefix, is_bound) << mask;
      EXPECT_EQ(PositionOfColumn(order, ColumnOfPosition(order, pos)), pos);
    }
  }
}

TEST_F(MatchRangeTest, IndexOrderNamesAreStable) {
  EXPECT_STREQ(IndexOrderName(IndexOrder::kSpo), "spo");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kPso), "pso");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kPos), "pos");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kOsp), "osp");
  EXPECT_STREQ(IndexOrderName(IndexOrder::kFullScan), "scan");
}

TEST_F(MatchRangeTest, MatchVisitorSeesSameTriplesAndStopsEarly) {
  size_t visited = 0;
  g_.Match(std::nullopt, Pred_(1), std::nullopt, [&](const Triple& t) {
    EXPECT_EQ(t.p, Pred_(1));
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, g_.CountMatches(std::nullopt, Pred_(1), std::nullopt));

  size_t stopped_at = 0;
  bool completed = g_.Match(std::nullopt, std::nullopt, std::nullopt,
                            [&](const Triple&) { return ++stopped_at < 2; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(stopped_at, 2u);
}

TEST_F(MatchRangeTest, MutationAfterIndexBuildIsReflected) {
  Term s = Term_(0);
  size_t before = g_.CountMatches(std::nullopt, std::nullopt, s);
  g_.Insert(dict_.Iri("urn:new"), Pred_(0), s);
  EXPECT_EQ(g_.CountMatches(std::nullopt, std::nullopt, s), before + 1);
  g_.Erase(Triple(dict_.Iri("urn:new"), Pred_(0), s));
  EXPECT_EQ(g_.CountMatches(std::nullopt, std::nullopt, s), before);
}

// ---------------------------------------------------------------------------
// Columnar storage: randomized parity against brute force over all 8
// bound-position combinations, with the enumeration order pinned to the
// serving permutation, before and after interleaved in-place patching.

class ColumnarFuzzTest : public ::testing::Test {
 protected:
  Term S(uint32_t i) { return Term::Iri(vocab::kReservedIris + i); }
  Term P(uint32_t i) { return Term::Iri(vocab::kReservedIris + 100 + i); }
  Term O(uint32_t i) { return Term::Blank(i); }  // exercises kind bits

  Triple RandomTriple(std::mt19937& rng) {
    return Triple(S(rng() % 9), P(rng() % 5), O(rng() % 9));
  }

  static std::array<uint32_t, 3> KeyOf(const Triple& t, IndexOrder ord) {
    switch (ord) {
      case IndexOrder::kPso:
        return {t.p.bits(), t.s.bits(), t.o.bits()};
      case IndexOrder::kPos:
        return {t.p.bits(), t.o.bits(), t.s.bits()};
      case IndexOrder::kOsp:
        return {t.o.bits(), t.s.bits(), t.p.bits()};
      default:
        return {t.s.bits(), t.p.bits(), t.o.bits()};
    }
  }

  // Checks every bound combination over a sample of keys: same triples
  // as brute force, in exactly the serving permutation's order.
  void CheckAllCombos(const Graph& g) {
    std::vector<std::optional<Term>> ss = {std::nullopt, S(0), S(4), S(8)};
    std::vector<std::optional<Term>> ps = {std::nullopt, P(0), P(3)};
    std::vector<std::optional<Term>> os = {std::nullopt, O(1), O(7)};
    for (const auto& s : ss) {
      for (const auto& p : ps) {
        for (const auto& o : os) {
          std::vector<Triple> expected;
          for (const Triple& t : g) {
            if (s && t.s != *s) continue;
            if (p && t.p != *p) continue;
            if (o && t.o != *o) continue;
            expected.push_back(t);
          }
          MatchRange range = g.Matches(s, p, o);
          const IndexOrder ord = range.order();
          std::sort(expected.begin(), expected.end(),
                    [ord](const Triple& x, const Triple& y) {
                      return KeyOf(x, ord) < KeyOf(y, ord);
                    });
          std::vector<Triple> got(range.begin(), range.end());
          ASSERT_EQ(got, expected)
              << "order " << IndexOrderName(ord) << " size " << g.size();
        }
      }
    }
  }
};

TEST_F(ColumnarFuzzTest, MatchesAgreeWithBruteForceAcrossMutations) {
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    Graph g;
    for (int i = 0; i < 120; ++i) g.Insert(RandomTriple(rng));
    CheckAllCombos(g);  // freshly built indexes
    // Interleaved single-triple mutations: reads between them keep the
    // unread-patch counter below the crossover, so this exercises the
    // in-place columnar patch paths.
    for (int step = 0; step < 60; ++step) {
      if (rng() & 1) {
        g.Insert(RandomTriple(rng));
      } else if (!g.empty()) {
        const Triple victim = g[rng() % g.size()];
        g.Erase(victim);
      }
      if (step % 10 == 0) CheckAllCombos(g);
    }
    CheckAllCombos(g);
    const GraphStats st = g.Stats();
    EXPECT_GT(st.index_patches, 0u) << "fuzz never hit the patch path";
  }
}

TEST_F(ColumnarFuzzTest, FilterPairEqualAgreesWithBruteForce) {
  std::mt19937 rng(99);
  Graph g;
  for (int i = 0; i < 200; ++i) g.Insert(RandomTriple(rng));
  // Diagonal triples so FilterPairEqual has survivors: s and o share the
  // term universe only through explicit equality of bits, so craft a few
  // (b, p, b) rows via blank subjects.
  for (uint32_t i = 0; i < 6; ++i) g.Insert(Triple(O(i), P(0), O(i)));

  // Columnar range (predicate-bound) and direct range (full scan).
  const MatchRange byp = g.Matches(std::nullopt, P(0), std::nullopt);
  ASSERT_TRUE(byp.columnar());
  const MatchRange full = g.Matches(std::nullopt, std::nullopt, std::nullopt);
  ASSERT_FALSE(full.columnar());

  for (const MatchRange* range : {&byp, &full}) {
    // FilterPairEqual on (s, o).
    std::vector<uint32_t> rows;
    range->FilterPairEqual(0, 2, &rows);
    std::vector<Triple> got;
    for (uint32_t row : rows) got.push_back(range->TripleAt(row));
    std::vector<Triple> want;
    for (const Triple& t : *range) {
      if (t.s == t.o) want.push_back(t);
    }
    EXPECT_EQ(got, want);
    EXPECT_FALSE(want.empty()) << "pair filter had nothing to keep";
  }
}

// ---------------------------------------------------------------------------
// COW spine sharing, leaf splits, and stats.

TEST(GraphSpine, CopySharesLeavesAndPatchesDiverge) {
  Graph g;
  for (uint32_t i = 0; i < 5000; ++i) {
    g.Insert(Triple(Term::Iri(100 + i), Term::Iri(50 + i % 7),
                    Term::Iri(200 + i % 97)));
  }
  g.WarmIndexes();
  const Graph snapshot = g;  // copies leaf handles, not contents
  snapshot.WarmIndexes();    // already built: shares the spines

  const SpineSharing before = g.SharedLeaves(snapshot);
  ASSERT_GT(before.total, 8u);  // 5000 triples span multiple leaves
  EXPECT_EQ(before.shared, before.total);

  // A single insert clones at most one leaf per spine (plus a possible
  // split); everything else stays shared, and the snapshot is untouched.
  const size_t snap_size = snapshot.size();
  ASSERT_TRUE(g.Insert(Triple(Term::Iri(99), Term::Iri(49), Term::Iri(199))));
  const SpineSharing after = g.SharedLeaves(snapshot);
  EXPECT_EQ(snapshot.size(), snap_size);
  EXPECT_FALSE(snapshot.Contains(
      Triple(Term::Iri(99), Term::Iri(49), Term::Iri(199))));
  EXPECT_GE(after.shared + 8, after.total);  // ≤ 2 leaves diverged per spine
  EXPECT_LT(after.shared, after.total);
  EXPECT_GT(g.Stats().index_patches, 0u);
}

TEST(GraphSpine, LargeInsertAllKeepsWarmPermutationsAndSharedLeaves) {
  // 20k triples over subjects 100.. and objects 200..; a 500-triple
  // delta on one fresh subject whose objects lie above all others lands
  // in one leaf of each order (the head of spo and of p's pso run, the
  // tail of p's pos run and of osp).
  Graph g;
  std::vector<Triple> base;
  for (uint32_t i = 0; i < 20000; ++i) {
    base.emplace_back(Term::Iri(100 + i), Term::Iri(50 + i % 7),
                      Term::Iri(200 + i % 997));
  }
  g.InsertAll(Graph(std::move(base)));
  g.WarmIndexes();
  const Graph copy = g;
  Graph delta;
  for (uint32_t i = 0; i < 500; ++i) {
    delta.Insert(Triple(Term::Iri(1), Term::Iri(56), Term::Iri(5000 + i)));
  }
  const uint64_t rebuilds = g.Stats().index_rebuilds;
  g.InsertAll(delta);
  EXPECT_TRUE(g.Stats().indexes_built);
  EXPECT_EQ(g.CountMatches(std::nullopt, Term::Iri(56), std::nullopt),
            copy.CountMatches(std::nullopt, Term::Iri(56), std::nullopt) +
                500);
  EXPECT_EQ(g.Stats().index_rebuilds, rebuilds);
  // Of the copy's leaves, only the one touched leaf per order went.
  const SpineSharing sharing = copy.SharedLeaves(g);
  EXPECT_GT(sharing.total, 40u);
  EXPECT_EQ(sharing.shared + 4, sharing.total);
  EXPECT_EQ(copy.size(), 20000u);
  EXPECT_EQ(g.size(), 20500u);
}

TEST(GraphSpine, MutationFuzzMatchesFromScratchBuild) {
  std::mt19937 rng(20260808);
  Graph g;
  std::set<Triple> ref;
  // Interleave inserts/erases (biased toward growth so leaves split),
  // periodically checking the mutated graph is bit-identical to a
  // from-scratch build of the reference set.
  for (int step = 0; step < 12000; ++step) {
    const Triple t(Term::Iri(rng() % 700), Term::Iri(rng() % 11),
                   Term::Iri(rng() % 700));
    if (rng() % 4 != 0) {
      EXPECT_EQ(g.Insert(t), ref.insert(t).second);
    } else {
      EXPECT_EQ(g.Erase(t), ref.erase(t) != 0);
    }
    if (step % 400 == 0) g.WarmIndexes();  // exercise the patch paths
    if (step % 1499 == 0) {
      ASSERT_EQ(g.size(), ref.size());
      const Graph fresh(std::vector<Triple>(ref.begin(), ref.end()));
      ASSERT_TRUE(g == fresh);
      ASSERT_EQ(g.triples(), fresh.triples());
    }
  }
  // Random mixed batches through Graph::Apply, on warm permutations:
  // empty and one-triple batches, one subject's 5000 triples (cut into
  // pieces in every order) and random batches, alternately with a copy
  // sharing every leaf, which must come out unchanged.
  g.WarmIndexes();
  auto random_triple = [&] {
    return Triple(Term::Iri(rng() % 700), Term::Iri(rng() % 11),
                  Term::Iri(rng() % 700));
  };
  for (int batch = 0; batch < 60; ++batch) {
    std::set<Triple> inserts, erases;
    const size_t n = batch % 10 == 0 ? 0 : batch % 10 == 1 ? 1 : rng() % 400;
    for (size_t i = 0; i < n; ++i) {
      (rng() % 3 == 0 ? erases : inserts).insert(random_triple());
    }
    if (batch == 30) {
      for (uint32_t i = 0; i < 5000; ++i) {
        inserts.insert(Triple(Term::Iri(350), Term::Iri(i % 11),
                              Term::Iri(1000 + i)));
      }
    }
    for (const Triple& t : inserts) erases.erase(t);
    const Graph copy = batch % 2 == 1 ? g : Graph();
    const std::vector<Triple> before = copy.triples();
    size_t want = 0;
    for (const Triple& t : erases) want += ref.erase(t);
    for (const Triple& t : inserts) want += ref.insert(t).second;
    const uint64_t epoch = g.epoch();
    ASSERT_EQ(g.Apply(std::vector<Triple>(erases.begin(), erases.end()),
                      std::vector<Triple>(inserts.begin(), inserts.end())),
              want);
    ASSERT_EQ(g.epoch(), epoch + (want != 0 ? 1 : 0));
    ASSERT_TRUE(g.Stats().indexes_built);
    ASSERT_EQ(g.triples(), std::vector<Triple>(ref.begin(), ref.end()));
    ASSERT_EQ(copy.triples(), before);
    for (int probe = 0; probe < 20; ++probe) {
      const Triple t = random_triple();
      size_t by_p = 0, by_po = 0, by_o = 0, by_so = 0;
      for (const Triple& r : ref) {
        by_p += r.p == t.p;
        by_po += r.p == t.p && r.o == t.o;
        by_o += r.o == t.o;
        by_so += r.s == t.s && r.o == t.o;
      }
      ASSERT_EQ(g.CountMatches(std::nullopt, t.p, std::nullopt), by_p);
      ASSERT_EQ(g.CountMatches(std::nullopt, t.p, t.o), by_po);
      ASSERT_EQ(g.CountMatches(std::nullopt, std::nullopt, t.o), by_o);
      ASSERT_EQ(g.CountMatches(t.s, std::nullopt, t.o), by_so);
    }
  }
  ASSERT_EQ(g.size(), ref.size());
  size_t i = 0;
  for (const Triple& t : g) {
    ASSERT_EQ(g[i++], t);
    ASSERT_TRUE(ref.count(t) != 0);
  }
  // Lookups agree with the reference on every routing combination.
  std::vector<Triple> probes(ref.begin(), ref.end());
  for (size_t k = 0; k < probes.size(); k += 97) {
    const Triple& t = probes[k];
    EXPECT_GE(g.CountMatches(t.s, std::nullopt, std::nullopt), 1u);
    EXPECT_GE(g.CountMatches(t.s, t.p, std::nullopt), 1u);
    EXPECT_GE(g.CountMatches(std::nullopt, t.p, t.o), 1u);
    EXPECT_EQ(g.CountMatches(t.s, t.p, t.o), 1u);
  }
}

// ---------------------------------------------------------------------------
// Spine::LexLess and the leaf-walking iterator.

// One-key writes: Spine::Apply with a one-key span.
bool Insert(Spine* s, const SpineKey& key) {
  return s->Apply({}, {&key, 1}) != 0;
}
bool Erase(Spine* s, const SpineKey& key) {
  return s->Apply({&key, 1}, {}) != 0;
}

Spine SpineOf(const std::set<SpineKey>& keys) {
  Spine s;
  s.BulkBuild(std::vector<SpineKey>(keys.begin(), keys.end()));
  return s;
}

TEST(SpineLexLess, AgreesWithVectorOrder) {
  std::mt19937 rng(19);
  std::vector<Graph> graphs;
  for (int i = 0; i < 120; ++i) {
    std::vector<Triple> ts;
    const size_t n = rng() % 4 == 0 ? 3000 + rng() % 3000 : rng() % 4;
    for (size_t j = 0; j < n; ++j) {
      ts.push_back(Triple(Term::Iri(rng() % 5), Term::Iri(rng() % 2),
                          Term::Iri(rng() % (n < 4 ? 3 : 900))));
    }
    graphs.emplace_back(std::move(ts));
  }
  graphs.push_back(graphs[7]);  // a leaf-sharing copy
  graphs.push_back(graphs.back());
  graphs.back().Insert(Triple(Term::Iri(9), Term::Iri(9), Term::Iri(9)));
  for (const Graph& a : graphs) {
    for (const Graph& b : graphs) {
      ASSERT_EQ(TriplesLess(a, b), a.triples() < b.triples());
    }
  }
}

TEST(GraphIterator, WalksLeavesAndSlicesAcrossThem) {
  Graph g;
  for (uint32_t i = 0; i < 7000; ++i) {
    g.Insert(Triple(Term::Iri(i % 901), Term::Iri(i % 3), Term::Iri(i)));
  }
  const std::vector<Triple> all = g.triples();
  std::vector<Triple> walked(g.begin(), g.end());
  EXPECT_EQ(walked, all);
  for (size_t from : {size_t{0}, size_t{1}, size_t{1023}, size_t{1024},
                      size_t{4097}, all.size() - 1, all.size()}) {
    const auto offset = static_cast<std::ptrdiff_t>(from);
    const Graph::const_iterator it = g.begin() + offset;
    EXPECT_EQ(static_cast<size_t>(it - g.begin()), from);
    EXPECT_EQ(std::vector<Triple>(it, g.end()),
              std::vector<Triple>(all.begin() + offset, all.end()));
  }
}

TEST(GraphKindRun, HoldsExactlyTheTriplesWithThatKindAtThePosition) {
  std::mt19937 rng(23);
  Graph g;
  auto term = [&]() {
    return rng() % 3 == 0 ? Term::Blank(rng() % 40) : Term::Iri(rng() % 40);
  };
  for (int i = 0; i < 5000; ++i) {
    g.Insert(Triple(term(), Term::Iri(rng() % 4), term()));
  }
  for (int pos = 0; pos < 3; ++pos) {
    for (TermKind kind : {TermKind::kIri, TermKind::kBlank, TermKind::kVar}) {
      std::set<Triple> got;
      for (const Triple& t : g.KindRun(pos, kind)) got.insert(t);
      std::set<Triple> want;
      for (const Triple& t : g) {
        const Term x = pos == 0 ? t.s : pos == 1 ? t.p : t.o;
        if (x.kind() == kind) want.insert(t);
      }
      EXPECT_EQ(got, want) << "pos " << pos;
    }
  }
}

TEST(GraphStatsTest, CountsCallsBytesAndYields) {
  Graph g;
  for (uint32_t i = 0; i < 64; ++i) {
    g.Insert(Triple(Term::Iri(100 + i % 8), Term::Iri(50 + i % 4),
                    Term::Iri(200 + i % 16)));
  }
  const size_t n = g.size();
  GraphStats st = g.Stats();
  EXPECT_EQ(st.matches_calls, 0u);
  EXPECT_FALSE(st.indexes_built);
  EXPECT_GE(st.bytes_primary, n * sizeof(Triple));
  EXPECT_EQ(st.bytes_pso, 0u);

  const size_t hits = g.CountMatches(std::nullopt, Term::Iri(50), std::nullopt);
  g.CountMatches(std::nullopt, std::nullopt, Term::Iri(200));
  st = g.Stats();
  EXPECT_EQ(st.matches_calls, 2u);
  EXPECT_GE(st.rows_yielded, hits);
  EXPECT_TRUE(st.indexes_built);
  // Three uint32 key columns per permutation spine, three permutations.
  EXPECT_GE(st.bytes_pso, n * 3 * sizeof(uint32_t));
  EXPECT_GE(st.bytes_total(),
            st.bytes_primary + 3 * n * 3 * sizeof(uint32_t));
  EXPECT_GE(st.leaves_primary, 1u);
  EXPECT_GE(st.leaves_index, 3u);
}

// ---------------------------------------------------------------------------
// The two-level search: per-leaf metadata and the lookups built on it.

// Keys whose parts include 0 and UINT32_MAX, so prefix successors hit
// both ends of the key space. ~48k distinct keys: enough to split.
SpineKey EdgeKey(std::mt19937* rng) {
  static constexpr uint32_t kLead[] = {0,    1,          2,         7,
                                       1000, UINT32_MAX - 1, UINT32_MAX};
  static constexpr uint32_t kMid[] = {0, 3, 4, 9, UINT32_MAX - 1, UINT32_MAX};
  const uint32_t k2 =
      (*rng)() % 8 == 0 ? UINT32_MAX : static_cast<uint32_t>((*rng)() % 1200);
  return {kLead[(*rng)() % 7], kMid[(*rng)() % 6], k2};
}

// Every metadata entry is {leaf_start, leaf(i).at(0)}, leaves are
// non-empty and their sizes add up to the spine's.
void ExpectMetadataCurrent(const Spine& s) {
  size_t start = 0;
  for (size_t li = 0; li < s.leaf_count(); ++li) {
    ASSERT_GT(s.leaf(li).size(), 0u) << "leaf " << li;
    ASSERT_EQ(s.leaf_start(li), start) << "leaf " << li;
    ASSERT_EQ(s.leaf_first(li), s.leaf(li).at(0)) << "leaf " << li;
    start += s.leaf(li).size();
  }
  ASSERT_EQ(start, s.size());
}

// A non-empty run names the leaf that holds its first slot.
void ExpectLeafSeedsTheRun(const Spine& s, const SpineRun& run) {
  if (run.empty()) return;
  ASSERT_LT(run.leaf, s.leaf_count());
  ASSERT_LE(s.leaf_start(run.leaf), run.first);
  ASSERT_LT(run.first, s.leaf_start(run.leaf) + s.leaf(run.leaf).size());
}

// The run's slots, for comparing with std::equal_range results.
std::pair<size_t, size_t> Slots(const SpineRun& run) {
  return {run.first, run.last};
}

// LowerBound, Locate and EqualRange (with and without key1) for one
// key against the standard algorithms over the flattened keys.
void ExpectLookupMatchesFlattened(const Spine& s,
                                  const std::vector<SpineKey>& flat,
                                  const SpineKey& key) {
  const auto lb = std::lower_bound(flat.begin(), flat.end(), key);
  const size_t want = static_cast<size_t>(lb - flat.begin());
  ASSERT_EQ(s.LowerBound(key), want);
  const SpineRun at = s.Locate(key);
  const bool hit = lb != flat.end() && *lb == key;
  ASSERT_EQ(at.first, want);
  ASSERT_EQ(at.size(), hit ? 1u : 0u);
  ASSERT_EQ(s.Contains(key), hit);
  ExpectLeafSeedsTheRun(s, at);

  auto by_k0 = [](const SpineKey& a, const SpineKey& b) {
    return a[0] < b[0];
  };
  const auto r0 = std::equal_range(flat.begin(), flat.end(), key, by_k0);
  size_t scanned = 0;
  const SpineRun got0 = s.EqualRange(key[0], nullptr, &scanned);
  ASSERT_EQ(got0.first, static_cast<size_t>(r0.first - flat.begin()));
  ASSERT_EQ(got0.last, static_cast<size_t>(r0.second - flat.begin()));
  if (!s.empty()) ASSERT_GT(scanned, 0u);
  ExpectLeafSeedsTheRun(s, got0);

  auto by_k01 = [](const SpineKey& a, const SpineKey& b) {
    return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
  };
  const auto r1 = std::equal_range(flat.begin(), flat.end(), key, by_k01);
  const SpineRun got1 = s.EqualRange(key[0], &key[1]);
  ASSERT_EQ(got1.first, static_cast<size_t>(r1.first - flat.begin()));
  ASSERT_EQ(got1.last, static_cast<size_t>(r1.second - flat.begin()));
  ExpectLeafSeedsTheRun(s, got1);
}

void ExpectLookupsMatchFlattened(const Spine& s, std::mt19937* rng) {
  const std::vector<SpineKey> flat = s.Keys();
  for (int i = 0; i < 300; ++i) {
    ExpectLookupMatchesFlattened(s, flat, EdgeKey(rng));
  }
  for (uint32_t a : {0u, UINT32_MAX}) {
    for (uint32_t b : {0u, UINT32_MAX}) {
      for (uint32_t c : {0u, UINT32_MAX}) {
        ExpectLookupMatchesFlattened(s, flat, {a, b, c});
      }
    }
  }
  for (size_t i = 0; i < flat.size(); i += 1 + flat.size() / 50) {
    ExpectLookupMatchesFlattened(s, flat, flat[i]);
  }
}

// Applies one batch to `s` and `ref`: the spine matches the set, its
// metadata is current, no leaf outgrows kLeafMax and Apply counts the
// keys that changed. With `share`, a copy taken before the batch shares
// every leaf and must come out unchanged.
void ApplyBatch(Spine* s, std::set<SpineKey>* ref,
                std::vector<SpineKey> erases, std::vector<SpineKey> inserts,
                bool share) {
  std::sort(inserts.begin(), inserts.end());
  inserts.erase(std::unique(inserts.begin(), inserts.end()), inserts.end());
  std::sort(erases.begin(), erases.end());
  erases.erase(std::unique(erases.begin(), erases.end()), erases.end());
  std::erase_if(erases, [&](const SpineKey& k) {
    return std::binary_search(inserts.begin(), inserts.end(), k);
  });
  const Spine copy = share ? *s : Spine();
  const std::vector<SpineKey> before = copy.Keys();
  size_t want = 0;
  for (const SpineKey& k : erases) want += ref->erase(k);
  for (const SpineKey& k : inserts) want += ref->insert(k).second;
  ASSERT_EQ(s->Apply(erases, inserts), want);
  ASSERT_EQ(s->Keys(), std::vector<SpineKey>(ref->begin(), ref->end()));
  ExpectMetadataCurrent(*s);
  for (size_t li = 0; li < s->leaf_count(); ++li) {
    ASSERT_LE(s->leaf(li).size(), Spine::kLeafMax) << "leaf " << li;
    ASSERT_LE(s->leaf(li).size(), s->leaf(li).capacity()) << "leaf " << li;
  }
  if (share) {
    ASSERT_EQ(copy.Keys(), before);
    ExpectMetadataCurrent(copy);
  }
}

// Mixed batches through one Apply each, on unique leaves or on leaves a
// copy shares: into an empty spine, empty and one-key batches, keys
// below the first leaf and above the last, a whole leaf out and in, one
// leaf cut into three or more pieces, emptied leaves and random batches.
void RunMixedBatches(bool share) {
  SCOPED_TRACE(share ? "shared leaves" : "unique leaves");
  std::mt19937 rng(share ? 7 : 11);
  Spine s;
  std::set<SpineKey> ref;
  auto random_keys = [&](size_t n) {
    std::vector<SpineKey> keys;
    for (size_t i = 0; i < n; ++i) keys.push_back(EdgeKey(&rng));
    return keys;
  };
  auto batch = [&](std::vector<SpineKey> erases,
                   std::vector<SpineKey> inserts) {
    ApplyBatch(&s, &ref, std::move(erases), std::move(inserts), share);
  };
  // Into the empty spine, then an empty batch and one-key batches.
  ASSERT_NO_FATAL_FAILURE(batch(random_keys(50), random_keys(12000)));
  ASSERT_GT(s.leaf_count(), 4u);
  ASSERT_NO_FATAL_FAILURE(batch({}, {}));
  ASSERT_NO_FATAL_FAILURE(batch({}, random_keys(1)));
  ASSERT_NO_FATAL_FAILURE(batch({*ref.begin()}, {}));
  ASSERT_NO_FATAL_FAILURE(batch({EdgeKey(&rng)}, {}));
  ExpectLookupsMatchFlattened(s, &rng);

  // The first and last ten keys out, then back in: keys below the
  // first leaf and above the last.
  std::vector<SpineKey> ends(ref.begin(), std::next(ref.begin(), 10));
  ends.insert(ends.end(), std::prev(ref.end(), 10), ref.end());
  ASSERT_NO_FATAL_FAILURE(batch(ends, {}));
  ASSERT_NO_FATAL_FAILURE(batch({}, ends));
  EXPECT_EQ(s.leaf_first(0), ends.front());

  // A whole leaf out, and a whole leaf's worth of keys in.
  const size_t leaves = s.leaf_count();
  std::vector<SpineKey> gone;
  for (size_t i = 0; i < s.leaf(1).size(); ++i) gone.push_back(s.leaf(1).at(i));
  ASSERT_NO_FATAL_FAILURE(batch(gone, {}));
  EXPECT_EQ(s.leaf_count(), leaves - 1);
  ASSERT_NO_FATAL_FAILURE(batch({}, gone));

  // One leaf's range takes 3 * kLeafMax keys: k0 = 5 lies between
  // EdgeKey's leading parts, so they all fall into one leaf, which is
  // cut into at least three exactly sized pieces.
  const size_t before_cut = s.leaf_count();
  std::vector<SpineKey> crowd;
  for (uint32_t j = 0; j < 3 * Spine::kLeafMax; ++j) crowd.push_back({5, 5, j});
  ASSERT_NO_FATAL_FAILURE(batch({}, crowd));
  EXPECT_GE(s.leaf_count(), before_cut + 2);
  const size_t first_piece = s.LeafIndexOf(s.LowerBound({5, 5, 0}));
  EXPECT_EQ(s.leaf(first_piece + 1).size(),
            s.leaf(first_piece + 1).capacity());

  // Empty two whole leaves and half a third, with inserts into the last
  // piece cut above.
  std::vector<SpineKey> emptied;
  for (size_t li = 2; li < 5; ++li) {
    const SpineLeaf& leaf = s.leaf(li);
    const size_t n = li == 4 ? leaf.size() / 2 : leaf.size();
    for (size_t i = 0; i < n; ++i) emptied.push_back(leaf.at(i));
  }
  std::vector<SpineKey> elsewhere;
  for (uint32_t j = 0; j < 40; ++j) elsewhere.push_back({5, 6, j});
  const size_t before_empty = s.leaf_count();
  ASSERT_NO_FATAL_FAILURE(batch(emptied, elsewhere));
  EXPECT_EQ(s.leaf_count(), before_empty - 2);

  // Random mixed batches, erases drawn half from present keys.
  for (int round = 0; round < 40; ++round) {
    std::vector<SpineKey> erases = random_keys(rng() % 300);
    for (size_t i = rng() % 300; i > 0 && !ref.empty(); --i) {
      erases.push_back(*std::next(ref.begin(), rng() % ref.size()));
    }
    ASSERT_NO_FATAL_FAILURE(batch(erases, random_keys(rng() % 600)));
  }
  ExpectLookupsMatchFlattened(s, &rng);

  // Everything out in one batch.
  ASSERT_NO_FATAL_FAILURE(
      batch(std::vector<SpineKey>(ref.begin(), ref.end()), {}));
  EXPECT_EQ(s.leaf_count(), 0u);
}

TEST(SpineSearch, MetadataAndLookupsTrackInsertsErasesAndEmptiedLeaves) {
  std::mt19937 rng(20261018);
  Spine s;
  std::set<SpineKey> ref;
  ExpectLookupsMatchFlattened(s, &rng);
  // Growth: random inserts split leaves; a few erases in between.
  for (int step = 0; step < 16000; ++step) {
    const SpineKey k = EdgeKey(&rng);
    if (rng() % 5 != 0) {
      ASSERT_EQ(Insert(&s, k), ref.insert(k).second);
    } else {
      ASSERT_EQ(Erase(&s, k), ref.erase(k) != 0);
    }
    if (step % 500 == 0) ExpectMetadataCurrent(s);
  }
  ASSERT_GT(s.leaf_count(), 4u);
  ASSERT_EQ(s.Keys(), std::vector<SpineKey>(ref.begin(), ref.end()));
  ExpectMetadataCurrent(s);
  ExpectLookupsMatchFlattened(s, &rng);

  // A key below everything moves leaf 0's first key.
  const SpineKey least = {0, 0, 0};
  if (ref.insert(least).second) ASSERT_TRUE(Insert(&s, least));
  ExpectMetadataCurrent(s);

  // Empty whole leaves: the first, then one in the middle, key by key
  // from the front so every erase moves that leaf's first key.
  for (size_t victim : {size_t{0}, s.leaf_count() / 2}) {
    const size_t before = s.leaf_count();
    // A handle copy shares the leaf's block: the erases below write
    // fresh blocks for `s`, and `doomed` keeps the keys it had.
    const SpineLeaf doomed = s.leaf(victim);
    for (size_t i = 0; i < doomed.size(); ++i) {
      ASSERT_TRUE(Erase(&s, doomed.at(i)));
      ref.erase(doomed.at(i));
      if (i % 97 == 0) ExpectMetadataCurrent(s);
    }
    ASSERT_EQ(s.leaf_count(), before - 1);
    ExpectMetadataCurrent(s);
    ExpectLookupsMatchFlattened(s, &rng);
  }
  ASSERT_EQ(s.Keys(), std::vector<SpineKey>(ref.begin(), ref.end()));

  // Drain to empty, then lookups on the empty spine.
  for (const SpineKey& k : ref) ASSERT_TRUE(Erase(&s, k));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.leaf_count(), 0u);
  ExpectLookupsMatchFlattened(s, &rng);

  RunMixedBatches(/*share=*/false);
  RunMixedBatches(/*share=*/true);
}


TEST(SpineSearch, BulkBuildAndCopyThenMutateKeepMetadataCurrent) {
  std::mt19937 rng(29);
  std::set<SpineKey> keys;
  while (keys.size() < 20000) keys.insert(EdgeKey(&rng));
  const Spine built = SpineOf(keys);
  ExpectMetadataCurrent(built);
  ExpectLookupsMatchFlattened(built, &rng);

  // Mutating a leaf-sharing copy clones leaves under it; the original's
  // metadata and contents stay as they were.
  Spine copy = built;
  for (int i = 0; i < 3000; ++i) {
    const SpineKey k = EdgeKey(&rng);
    if (rng() % 2 == 0) {
      Insert(&copy, k);
    } else {
      Erase(&copy, k);
    }
  }
  ExpectMetadataCurrent(copy);
  ExpectLookupsMatchFlattened(copy, &rng);
  ExpectMetadataCurrent(built);
  ASSERT_EQ(built.Keys(), std::vector<SpineKey>(keys.begin(), keys.end()));
  ExpectLookupsMatchFlattened(built, &rng);
}

// The sharing count by hashing block identities, as CountSharedLeavesWith
// once computed it.
size_t SharedByHash(const Spine& a, const Spine& b) {
  std::unordered_set<const void*> theirs;
  for (size_t li = 0; li < b.leaf_count(); ++li) theirs.insert(b.leaf(li).id());
  size_t shared = 0;
  for (size_t li = 0; li < a.leaf_count(); ++li) {
    shared += theirs.count(a.leaf(li).id());
  }
  return shared;
}

TEST(SpineSearch, SharedLeafCountMatchesPointerHashing) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    std::set<SpineKey> keys;
    const size_t n = 500 + rng() % 20000;
    while (keys.size() < n) keys.insert(EdgeKey(&rng));
    const Spine from = SpineOf(keys);
    Spine to = from;
    const int edits = static_cast<int>(rng() % 2500);
    for (int i = 0; i < edits; ++i) {
      const SpineKey k = EdgeKey(&rng);
      if (rng() % 3 == 0) {
        Erase(&to, k);
      } else {
        Insert(&to, k);
      }
    }
    EXPECT_EQ(to.CountSharedLeavesWith(from), SharedByHash(to, from))
        << "seed " << seed;
    EXPECT_EQ(from.CountSharedLeavesWith(to), SharedByHash(from, to))
        << "seed " << seed;
    EXPECT_EQ(from.CountSharedLeavesWith(from), from.leaf_count());
    // Equal contents in different leaves share nothing.
    Spine rebuilt;
    for (const SpineKey& k : keys) Insert(&rebuilt, k);
    EXPECT_EQ(rebuilt.CountSharedLeavesWith(from), 0u);
    EXPECT_EQ(SharedByHash(rebuilt, from), 0u);
  }
}

// ---------------------------------------------------------------------------
// One heap block per leaf: block geometry, copy-on-write identity and
// in-place writes.

std::vector<SpineKey> KeysOfLeaf(const SpineLeaf& leaf) {
  std::vector<SpineKey> out;
  for (size_t i = 0; i < leaf.size(); ++i) out.push_back(leaf.at(i));
  return out;
}

TEST(SpineLeafBlock, OneTripleGraphIsOneExactBlock) {
  const Triple t(Term::Iri(5), Term::Iri(6), Term::Iri(7));
  const Graph g = Graph::FromSorted(&t, 1);
  const GraphStats st = g.Stats();
  EXPECT_EQ(st.leaves_primary, 1u);
  EXPECT_EQ(SpineLeaf::BlockBytes(1), 5 * sizeof(uint32_t));
  EXPECT_EQ(st.bytes_primary, Spine::kLeafRefBytes + SpineLeaf::BlockBytes(1));
  EXPECT_EQ(st.bytes_total(), st.bytes_primary);

  Spine s;
  s.BulkBuild({{1, 2, 3}});
  ASSERT_EQ(s.leaf_count(), 1u);
  EXPECT_EQ(s.leaf(0).size(), 1u);
  EXPECT_EQ(s.leaf(0).capacity(), 1u);
  EXPECT_EQ(s.leaf(0).bytes(), SpineLeaf::BlockBytes(1));
  EXPECT_EQ(s.bytes(), Spine::kLeafRefBytes + SpineLeaf::BlockBytes(1));
  // The columns sit one capacity apart in the block.
  EXPECT_EQ(s.leaf(0).column(1), s.leaf(0).column(0) + 1);
  EXPECT_EQ(s.leaf(0).column(2), s.leaf(0).column(0) + 2);
  EXPECT_EQ(s.leaf(0).at(0), (SpineKey{1, 2, 3}));
}

TEST(SpineLeafBlock, WritesToACopyLeaveTheOriginalsBlocksAlone) {
  std::mt19937 rng(41);
  std::set<SpineKey> keys;
  while (keys.size() < 6000) keys.insert(EdgeKey(&rng));
  const Spine original = SpineOf(keys);
  std::vector<const void*> ids;
  std::vector<std::vector<SpineKey>> contents;
  for (size_t li = 0; li < original.leaf_count(); ++li) {
    ids.push_back(original.leaf(li).id());
    contents.push_back(KeysOfLeaf(original.leaf(li)));
  }
  Spine copy = original;
  std::set<SpineKey> ref = keys;
  for (int i = 0; i < 4000; ++i) {
    const SpineKey k = EdgeKey(&rng);
    if (rng() % 3 == 0) {
      ASSERT_EQ(Erase(&copy, k), ref.erase(k) != 0);
    } else {
      ASSERT_EQ(Insert(&copy, k), ref.insert(k).second);
    }
  }
  ASSERT_EQ(copy.Keys(), std::vector<SpineKey>(ref.begin(), ref.end()));
  ExpectMetadataCurrent(copy);
  ASSERT_EQ(original.leaf_count(), ids.size());
  for (size_t li = 0; li < original.leaf_count(); ++li) {
    EXPECT_EQ(original.leaf(li).id(), ids[li]) << li;
    EXPECT_EQ(KeysOfLeaf(original.leaf(li)), contents[li]) << li;
  }
  EXPECT_EQ(original.Keys(), std::vector<SpineKey>(keys.begin(), keys.end()));

  // The publication pattern: the writer's leaves now have spare room,
  // and each round's snapshot shares them. A write into a shared leaf
  // with room must still go to a fresh block.
  std::vector<std::pair<Spine, std::vector<SpineKey>>> snapshots;
  for (int round = 0; round < 8; ++round) {
    snapshots.emplace_back(copy, copy.Keys());
    for (int i = 0; i < 200; ++i) {
      const SpineKey k = EdgeKey(&rng);
      if (rng() % 3 == 0) {
        Erase(&copy, k);
      } else {
        Insert(&copy, k);
      }
    }
  }
  for (const auto& [snapshot, want] : snapshots) {
    EXPECT_EQ(snapshot.Keys(), want);
    ExpectMetadataCurrent(snapshot);
  }
}

TEST(SpineLeafBlock, ACopiedLeafIsRewrittenOnceThenWrittenInPlace) {
  const size_t fill = 256;
  // One bulk-built leaf of even keys: exactly sized, then shared.
  Spine original;
  original.BulkBuild(fill, [](size_t i) {
    return SpineKey{1, 1, static_cast<uint32_t>(2 * i)};
  });
  ASSERT_EQ(original.leaf_count(), 1u);
  EXPECT_EQ(original.leaf(0).capacity(), fill);
  const void* original_id = original.leaf(0).id();

  Spine copy = original;
  ASSERT_EQ(copy.leaf(0).id(), original_id);
  // The first insert writes a fresh block with clone headroom.
  ASSERT_TRUE(Insert(&copy, {1, 1, 1}));
  const void* cloned = copy.leaf(0).id();
  EXPECT_NE(cloned, original_id);
  EXPECT_EQ(copy.leaf(0).capacity(), Spine::CloneCapacity(fill));
  EXPECT_EQ(Spine::CloneCapacity(fill), fill + 1 + fill / 8);
  // Inserts and erases within that capacity stay in the same block.
  uint32_t odd = 3;
  while (copy.leaf(0).size() < copy.leaf(0).capacity()) {
    ASSERT_TRUE(Insert(&copy, {1, 1, odd}));
    odd += 2;
    ASSERT_EQ(copy.leaf(0).id(), cloned);
  }
  ASSERT_TRUE(Erase(&copy, {1, 1, 0}));
  ASSERT_TRUE(Insert(&copy, {0, 0, 0}));  // a new first key, in place
  EXPECT_EQ(copy.leaf(0).id(), cloned);
  EXPECT_EQ(copy.leaf_first(0), (SpineKey{0, 0, 0}));
  // A full unshared leaf grows to twice its size.
  const size_t full = copy.leaf(0).size();
  ASSERT_TRUE(Insert(&copy, {1, 1, odd}));
  EXPECT_NE(copy.leaf(0).id(), cloned);
  EXPECT_EQ(copy.leaf(0).capacity(), Spine::GrowCapacity(full));
  EXPECT_EQ(Spine::GrowCapacity(full), 2 * full);
  // Growth and clones stop at kLeafMax, where inserts split.
  EXPECT_EQ(Spine::GrowCapacity(Spine::kLeafMax - 1), Spine::kLeafMax);
  EXPECT_EQ(Spine::CloneCapacity(Spine::kLeafMax - 1), Spine::kLeafMax);
  ExpectMetadataCurrent(copy);
  // The original never moved.
  EXPECT_EQ(original.leaf(0).id(), original_id);
  EXPECT_EQ(original.size(), fill);
  EXPECT_EQ(original.leaf(0).at(0), (SpineKey{1, 1, 0}));
}

TEST(SpineLeafBlock, SplittingAFullUnsharedLeafWritesExactHalves) {
  for (uint32_t where : {0u, 1u, 1024u, 1025u, 3000u, 5000u}) {
    SCOPED_TRACE(where);
    Spine s;
    std::set<SpineKey> ref;
    // Fill one leaf to kLeafMax by inserts (never shared).
    for (uint32_t i = 0; ref.size() < Spine::kLeafMax; ++i) {
      const SpineKey k{2, 2, 2 * i + 1};
      ASSERT_TRUE(Insert(&s, k));
      ref.insert(k);
    }
    ASSERT_EQ(s.leaf_count(), 1u);
    ASSERT_EQ(s.leaf(0).size(), Spine::kLeafMax);
    ASSERT_EQ(s.leaf(0).capacity(), Spine::kLeafMax);
    const SpineKey extra{2, 2, 2 * where};
    ASSERT_TRUE(Insert(&s, extra));
    ref.insert(extra);
    ASSERT_EQ(s.leaf_count(), 2u);
    const size_t n = Spine::kLeafMax + 1;
    EXPECT_EQ(s.leaf(0).size(), n / 2);
    EXPECT_EQ(s.leaf(1).size(), n - n / 2);
    for (size_t li = 0; li < 2; ++li) {
      EXPECT_EQ(s.leaf(li).capacity(), s.leaf(li).size()) << li;
    }
    ExpectMetadataCurrent(s);
    EXPECT_EQ(s.Keys(), std::vector<SpineKey>(ref.begin(), ref.end()));
  }
}

TEST(SpineLeafBlock, ErasingFromASharedLeafRewritesItErasingInPlaceDoesNot) {
  Spine original;
  original.BulkBuild(300, [](size_t i) {
    return SpineKey{3, 3, static_cast<uint32_t>(i)};
  });
  Spine copy = original;
  ASSERT_TRUE(Erase(&copy, {3, 3, 0}));
  const void* cloned = copy.leaf(0).id();
  EXPECT_NE(cloned, original.leaf(0).id());
  EXPECT_EQ(copy.leaf(0).capacity(), Spine::CloneCapacity(300));
  EXPECT_EQ(copy.leaf_first(0), (SpineKey{3, 3, 1}));
  for (uint32_t i = 1; i < 299; ++i) {
    ASSERT_TRUE(Erase(&copy, {3, 3, i}));
    ASSERT_EQ(copy.leaf(0).id(), cloned);
  }
  EXPECT_EQ(copy.Keys(), (std::vector<SpineKey>{{3, 3, 299}}));
  ASSERT_TRUE(Erase(&copy, {3, 3, 299}));
  EXPECT_EQ(copy.leaf_count(), 0u);
  EXPECT_EQ(original.size(), 300u);
  EXPECT_EQ(original.leaf(0).at(0), (SpineKey{3, 3, 0}));
}

// ---------------------------------------------------------------------------
// EqualRange's in-leaf gallop and the one-call fully bound lookup, on
// spines whose runs are laid out against the leaf boundaries.

// n keys in runs of `run` entries sharing a (k0, k1) prefix: entry i is
// (base + 2 * (i / run), 7, i), so odd k0 values fall between runs.
// BulkBuild fills each leaf with kLeafMax / 2 entries: a run length
// dividing that ends runs exactly at leaf ends, any other length makes
// some runs straddle two leaves.
Spine RunSpine(size_t n, size_t run, uint32_t base) {
  Spine s;
  s.BulkBuild(n, [&](size_t i) {
    return SpineKey{base + static_cast<uint32_t>(2 * (i / run)), 7,
                    static_cast<uint32_t>(i)};
  });
  return s;
}

// Every run prefix, the gaps on either side of it, the keys on both
// sides of every leaf boundary and keys past the last leaf.
void ExpectRunLookupsMatchFlattened(const Spine& s) {
  const std::vector<SpineKey> flat = s.Keys();
  std::set<SpineKey> probes;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (i > 0 && flat[i][0] == flat[i - 1][0]) continue;
    for (uint32_t d : {0u, 1u, 2u}) {
      for (uint32_t k1 : {6u, 7u, 8u}) {
        probes.insert({flat[i][0] + d - 1, k1, 0});
        probes.insert({flat[i][0] + d - 1, k1, UINT32_MAX});
      }
    }
  }
  for (size_t li = 0; li < s.leaf_count(); ++li) {
    const size_t start = s.leaf_start(li);
    probes.insert(flat[start]);
    if (start > 0) probes.insert(flat[start - 1]);
    SpineKey after = flat[start];
    ++after[2];
    probes.insert(after);
  }
  probes.insert({flat.back()[0] + 2, 7, 0});
  probes.insert({UINT32_MAX, UINT32_MAX, UINT32_MAX});
  for (const SpineKey& key : probes) {
    ExpectLookupMatchesFlattened(s, flat, key);
  }
}

TEST(SpineEqualRange, RunsEndingAtLeafEndsAndSpanningLeavesMatchBruteForce) {
  const size_t fill = Spine::kLeafMax / 2;
  for (size_t run : {size_t{1}, size_t{3}, size_t{256}, fill / 2, fill,
                     size_t{300}, size_t{1500}, size_t{5000}}) {
    SCOPED_TRACE(run);
    const Spine s = RunSpine(8 * fill + 17, run, 10);
    ASSERT_GE(s.leaf_count(), 8u);
    ExpectRunLookupsMatchFlattened(s);
  }
  // A run ending at leaf 0's last slot ends exactly at leaf 1's start.
  const Spine halves = RunSpine(8 * fill, fill / 2, 10);
  const uint32_t second_run = 12;
  EXPECT_EQ(Slots(halves.EqualRange(second_run, nullptr)),
            std::make_pair(fill / 2, fill));
  const uint32_t seven = 7;
  EXPECT_EQ(Slots(halves.EqualRange(second_run, &seven)),
            std::make_pair(fill / 2, fill));
  // A run spanning two leaves.
  const Spine spanning = RunSpine(8 * fill, 1500, 10);
  EXPECT_EQ(Slots(spanning.EqualRange(12, nullptr)),
            std::make_pair(size_t{1500}, size_t{3000}));
  // A key past the last leaf, with and without key1.
  EXPECT_EQ(Slots(spanning.EqualRange(1000, nullptr)),
            std::make_pair(spanning.size(), spanning.size()));
  EXPECT_EQ(Slots(spanning.EqualRange(1000, &seven)),
            std::make_pair(spanning.size(), spanning.size()));
}

TEST(SpineEqualRange, UintMaxPrefixesRunToTheEnd) {
  std::set<SpineKey> keys;
  for (uint32_t i = 0; i < 2000; ++i) keys.insert({3, 3, i});
  for (uint32_t i = 0; i < 1500; ++i) keys.insert({UINT32_MAX - 1, UINT32_MAX, i});
  for (uint32_t i = 0; i < 500; ++i) keys.insert({UINT32_MAX, 5, i});
  for (uint32_t i = 0; i < 3000; ++i) keys.insert({UINT32_MAX, UINT32_MAX, i});
  Spine s = SpineOf(keys);
  ASSERT_GE(s.leaf_count(), 6u);
  ExpectRunLookupsMatchFlattened(s);
  const uint32_t max = UINT32_MAX;
  EXPECT_EQ(s.EqualRange(max, &max).last, s.size());
  EXPECT_EQ(s.EqualRange(max, nullptr).last, s.size());
  EXPECT_EQ(s.EqualRange(max - 1, &max).last, 2000u + 1500u);
  // Inserts split leaves off the bulk-built boundaries.
  std::mt19937 rng(31);
  for (int i = 0; i < 4000; ++i) {
    const uint32_t lead = rng() % 2 == 0 ? UINT32_MAX : 3;
    Insert(&s, {lead, rng() % 3 == 0 ? 5u : UINT32_MAX,
              static_cast<uint32_t>(rng())});
  }
  ExpectMetadataCurrent(s);
  ExpectRunLookupsMatchFlattened(s);
}

TEST(SpineEqualRange, ShortRunInsideALeafGallopsInsteadOfASecondSearch) {
  const Spine s = RunSpine(64 * (Spine::kLeafMax / 2), 4, 10);
  ASSERT_GE(s.leaf_count(), 64u);
  const std::vector<SpineKey> flat = s.Keys();
  for (size_t i = 100; i < flat.size(); i += 4 * 97) {
    const SpineKey key = flat[i - i % 4];
    size_t lower = 0;
    s.LowerBound({key[0], 0, 0}, &lower);
    size_t scanned = 0;
    const SpineRun range = s.EqualRange(key[0], nullptr, &scanned);
    ASSERT_EQ(range.size(), 4u);
    // The first end's probes plus a gallop over four entries, not a
    // second two-level search.
    EXPECT_LE(scanned, lower + 6) << i;
    EXPECT_LT(scanned, 2 * lower) << i;
    // Iterating and filtering the run start at the leaf the search
    // found: no LeafIndexOf search for it.
    const uint64_t searches = Spine::leaf_index_searches();
    const MatchRange r = MatchRange::Over(&s, range, IndexOrder::kSpo);
    size_t seen = 0;
    for (const Triple& t : r) {
      ASSERT_EQ(t.s.bits(), key[0]);
      ++seen;
    }
    std::vector<uint32_t> slots;
    r.FilterPairEqual(0, 0, &slots);
    EXPECT_EQ(seen, 4u);
    EXPECT_EQ(slots.size(), 4u);
    EXPECT_EQ(Spine::leaf_index_searches(), searches) << i;
  }
}

TEST(SpineEqualRange, IteratingRunsAcrossLeavesSearchesNoLeaf) {
  // Runs of 1500 straddle leaf boundaries; 5000 spans several leaves.
  for (size_t run : {size_t{1500}, size_t{5000}}) {
    const Spine s = RunSpine(8 * (Spine::kLeafMax / 2), run, 10);
    const std::vector<SpineKey> flat = s.Keys();
    for (uint32_t k0 = 10; k0 <= flat.back()[0]; k0 += 2) {
      const uint32_t seven = 7;
      const SpineRun range = s.EqualRange(k0, &seven);
      const uint64_t searches = Spine::leaf_index_searches();
      std::vector<SpineKey> got;
      for (const Triple& t : MatchRange::Over(&s, range, IndexOrder::kSpo)) {
        got.push_back({t.s.bits(), t.p.bits(), t.o.bits()});
      }
      ASSERT_EQ(Spine::leaf_index_searches(), searches) << k0;
      const auto want = std::equal_range(
          flat.begin(), flat.end(), SpineKey{k0, 7, 0},
          [](const SpineKey& a, const SpineKey& b) { return a[0] < b[0]; });
      ASSERT_EQ(got, std::vector<SpineKey>(want.first, want.second)) << k0;
    }
  }
  // And through Graph::Matches on every routing of a multi-leaf graph.
  std::vector<Triple> ts;
  for (uint32_t i = 0; i < 9000; ++i) {
    ts.push_back(Triple(Term::Iri(i % 7), Term::Iri(1 + i % 3),
                        Term::Iri(i)));
  }
  const Graph g(ts);
  g.WarmIndexes();
  ASSERT_GE(g.Stats().leaves_primary, 4u);
  const uint64_t searches = Spine::leaf_index_searches();
  size_t rows = 0;
  for (const Triple& t : g.Matches(Term::Iri(3), std::nullopt, std::nullopt)) {
    rows += t.s == Term::Iri(3) ? 1 : 0;
  }
  for (const Triple& t : g.Matches(std::nullopt, Term::Iri(2), Term::Iri(4))) {
    rows += t.o == Term::Iri(4) ? 1 : 0;
  }
  for (const Triple& t : g.Matches(std::nullopt, std::nullopt, Term::Iri(4))) {
    rows += t.o == Term::Iri(4) ? 1 : 0;
  }
  for (const Triple& t : g.Matches(Term::Iri(3), Term::Iri(1), Term::Iri(3))) {
    rows += t.o == Term::Iri(3) ? 1 : 0;
  }
  for (const Triple& t : g) rows += t.p.bits() != 0 ? 1 : 0;
  EXPECT_EQ(Spine::leaf_index_searches(), searches);
  EXPECT_EQ(rows, g.CountMatches(Term::Iri(3), std::nullopt, std::nullopt) +
                      g.CountMatches(std::nullopt, Term::Iri(2), Term::Iri(4)) +
                      g.CountMatches(std::nullopt, std::nullopt, Term::Iri(4)) +
                      g.CountMatches(Term::Iri(3), Term::Iri(1), Term::Iri(3)) +
                      g.size());
}

TEST(GraphFullyBoundLookup, OneSpineCallAgreesWithBruteForceOverManyLeaves) {
  std::vector<Triple> ts;
  for (uint32_t i = 0; i < 9000; ++i) {
    ts.push_back(Triple(Term::Iri(i / 6 * 2), Term::Iri(1 + i % 2),
                        Term::Iri(i % 6 * 2)));
  }
  const Graph g(ts);
  ASSERT_GE(g.Stats().leaves_primary, 4u);
  const std::set<Triple> present(ts.begin(), ts.end());
  auto check = [&](const Triple& t) {
    const bool hit = present.count(t) > 0;
    const MatchRange r = g.Matches(t.s, t.p, t.o);
    ASSERT_EQ(r.size(), hit ? 1u : 0u);
    ASSERT_EQ(r.order(), IndexOrder::kSpo);
    if (hit) {
      ASSERT_EQ(*r.begin(), t);
    }
    ASSERT_EQ(g.Contains(t), hit);
    ASSERT_EQ(g.CountMatches(t.s, t.p, t.o), hit ? 1u : 0u);
  };
  const std::vector<Triple> sorted = g.triples();
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Triple& t = sorted[i];
    // Every leaf boundary and a sample in between, plus absent
    // neighbours (odd ids never occur).
    const size_t in_leaf = i % (Spine::kLeafMax / 2);
    if (in_leaf != 0 && in_leaf + 1 != Spine::kLeafMax / 2 && i % 37 != 0) {
      continue;
    }
    check(t);
    check(Triple(t.s, t.p, Term::Iri(t.o.id() + 1)));
    check(Triple(Term::Iri(t.s.id() + 1), t.p, t.o));
  }
  check(Triple(Term::Iri(1u << 29), Term::Iri(1), Term::Iri(0)));
  check(Triple(Term::Iri(0), Term::Iri(0), Term::Iri(0)));
  const uint64_t yielded = g.Stats().rows_yielded;
  (void)g.Matches(sorted[5].s, sorted[5].p, sorted[5].o);
  (void)g.Matches(Term::Iri(1), Term::Iri(1), Term::Iri(1));
  EXPECT_EQ(g.Stats().rows_yielded, yielded + 1);
}

// MatchCursor: forward seeks over a range's sorted column, checked
// against std::equal_range over the flattened range.

// The keys of a MatchRange over an spo-ordered spine, in range order.
std::vector<SpineKey> KeysOf(const MatchRange& r) {
  std::vector<SpineKey> out;
  for (const Triple& t : r) out.push_back({t.s.bits(), t.p.bits(), t.o.bits()});
  return out;
}

// Seeks `keys` (ascending) with one cursor over `range` on column
// `column` of its spo keys, and checks every run against equal_range
// over the flattened range; the cursor and iterating its runs search no
// leaf. Returns the probes of all seeks.
size_t ExpectSeeksMatchFlattened(const MatchRange& range, int column,
                                 const std::vector<uint32_t>& keys) {
  const std::vector<SpineKey> flat = KeysOf(range);
  const auto by_column = [column](const SpineKey& a, const SpineKey& b) {
    return a[column] < b[column];
  };
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end(), by_column));
  MatchCursor cursor(range, column);
  size_t probes = 0;
  for (const uint32_t key : keys) {
    SpineKey want_key{};
    want_key[column] = key;
    const auto want =
        std::equal_range(flat.begin(), flat.end(), want_key, by_column);
    const uint64_t searches = Spine::leaf_index_searches();
    const MatchRange run = cursor.Seek(key, &probes);
    EXPECT_EQ(run.size(), static_cast<size_t>(want.second - want.first))
        << key;
    EXPECT_EQ(KeysOf(run), std::vector<SpineKey>(want.first, want.second))
        << key;
    EXPECT_EQ(Spine::leaf_index_searches(), searches) << key;
  }
  return probes;
}

// Every value of the column, the absent values on either side of each
// and past both ends.
std::vector<uint32_t> DenseSeekKeys(const MatchRange& range, int column) {
  std::set<uint32_t> keys;
  for (const SpineKey& k : KeysOf(range)) {
    keys.insert(k[column]);
    if (k[column] > 0) keys.insert(k[column] - 1);
    if (k[column] < UINT32_MAX) keys.insert(k[column] + 1);
  }
  keys.insert(0);
  keys.insert(UINT32_MAX);
  return std::vector<uint32_t>(keys.begin(), keys.end());
}

TEST(MatchCursorSeek, RunsAtAndAcrossLeafBoundariesMatchEqualRange) {
  const size_t fill = Spine::kLeafMax / 2;
  for (size_t run : {size_t{1}, size_t{3}, fill / 2, fill, size_t{300},
                     size_t{1500}, size_t{5000}}) {
    SCOPED_TRACE(run);
    const Spine s = RunSpine(8 * fill + 17, run, 10);
    ASSERT_GE(s.leaf_count(), 8u);
    // The whole spine, sought on its leading column.
    const MatchRange all =
        MatchRange::Over(&s, SpineRun{0, s.size(), 0}, IndexOrder::kSpo);
    ExpectSeeksMatchFlattened(all, 0, DenseSeekKeys(all, 0));
    // A range starting and ending inside leaves, on the same column.
    const size_t first = fill / 3;
    const size_t last = s.size() - fill / 5;
    const MatchRange inner = MatchRange::Over(
        &s, SpineRun{first, last, s.LeafIndexOf(first)}, IndexOrder::kSpo);
    ExpectSeeksMatchFlattened(inner, 0, DenseSeekKeys(inner, 0));
  }
}

TEST(MatchCursorSeek, SeeksPastAFixedPrefixUseOnlyTheRangesLeaves) {
  // Keys (k0, i / run, i) for k0 in {5, 6, 7}: the k0 = 6 range is
  // sorted by column 1, and the leaves around it hold other k0 values
  // whose column 1 would mislead a seek that looked past the range.
  const size_t fill = Spine::kLeafMax / 2;
  for (size_t run : {size_t{1}, size_t{7}, fill, size_t{1500}}) {
    SCOPED_TRACE(run);
    std::set<SpineKey> keys;
    for (uint32_t k0 : {5u, 6u, 7u}) {
      const uint32_t n = k0 == 6 ? 6 * fill + 11 : 3 * fill / 2;
      for (uint32_t i = 0; i < n; ++i) {
        keys.insert({k0, 2 * static_cast<uint32_t>(i / run) + 4 * k0, i});
      }
    }
    const Spine s = SpineOf(keys);
    const SpineRun six = s.EqualRange(6, nullptr);
    ASSERT_GE(six.size(), 6 * fill);
    const MatchRange range = MatchRange::Over(&s, six, IndexOrder::kSpo);
    ExpectSeeksMatchFlattened(range, 1, DenseSeekKeys(range, 1));
    // Sparse: every 5th value, so seeks skip runs and leaves.
    std::vector<uint32_t> sparse;
    const std::vector<uint32_t> dense = DenseSeekKeys(range, 1);
    for (size_t i = 0; i < dense.size(); i += 5) sparse.push_back(dense[i]);
    ExpectSeeksMatchFlattened(range, 1, sparse);
  }
}

TEST(MatchCursorSeek, SparseSeeksGallopOverLeavesInsteadOfWalkingThem) {
  const size_t fill = Spine::kLeafMax / 2;
  const Spine s = RunSpine(256 * fill, 4, 10);
  ASSERT_GE(s.leaf_count(), 256u);
  const MatchRange all =
      MatchRange::Over(&s, SpineRun{0, s.size(), 0}, IndexOrder::kSpo);
  // One seek across ~200 leaves: a gallop and bisection over the leaf
  // first keys plus one in-leaf search, then the run's end.
  const uint32_t far = 10 + 2 * static_cast<uint32_t>(200 * fill / 4 + 5);
  MatchCursor cursor(all, 0);
  size_t probes = 0;
  const MatchRange run = cursor.Seek(far, &probes);
  ASSERT_EQ(run.size(), 4u);
  EXPECT_EQ(run.begin()->s.bits(), far);
  const size_t bound = 2 * 9 + 2 * 11 + 8;  // 2·log2(leaves) + 2·log2(leaf)
  EXPECT_LE(probes, bound);
  EXPECT_LT(probes, size_t{200});
  // Seeks jumping ~20 leaves each: per seek O(log) probes, not a walk.
  std::vector<uint32_t> keys;
  for (uint32_t k = 10; k < 10 + 2 * (s.size() / 4); k += 2 * 20 * 257) {
    keys.push_back(k);
    keys.push_back(k + 1);  // absent, between two runs
  }
  const size_t total = ExpectSeeksMatchFlattened(all, 0, keys);
  EXPECT_LE(total, keys.size() * bound);
}

TEST(MatchCursorSeek, UintMaxKeysRunToTheRangesEnd) {
  std::set<SpineKey> keys;
  for (uint32_t i = 0; i < 2000; ++i) keys.insert({3, 3, i});
  for (uint32_t i = 0; i < 1500; ++i) keys.insert({UINT32_MAX - 1, 9, i});
  for (uint32_t i = 0; i < 500; ++i) keys.insert({UINT32_MAX, 5, i});
  for (uint32_t i = 0; i < 3000; ++i) {
    keys.insert({UINT32_MAX, UINT32_MAX, i});
  }
  const Spine s = SpineOf(keys);
  ASSERT_GE(s.leaf_count(), 6u);
  const MatchRange all =
      MatchRange::Over(&s, SpineRun{0, s.size(), 0}, IndexOrder::kSpo);
  ExpectSeeksMatchFlattened(all, 0, {0, 3, 4, UINT32_MAX - 1, UINT32_MAX});
  ExpectSeeksMatchFlattened(all, 0, {UINT32_MAX});
  // Past the UINT32_MAX prefix, column 1 ends in UINT32_MAX too.
  const MatchRange top = MatchRange::Over(&s, s.EqualRange(UINT32_MAX, nullptr),
                                          IndexOrder::kSpo);
  ASSERT_EQ(top.size(), 3500u);
  ExpectSeeksMatchFlattened(top, 1, DenseSeekKeys(top, 1));
  MatchCursor cursor(top, 1);
  size_t probes = 0;
  EXPECT_EQ(cursor.Seek(UINT32_MAX, &probes).size(), 3000u);
  EXPECT_EQ(cursor.Seek(UINT32_MAX, &probes).size(), 3000u);
}

TEST(MatchCursorSeek, GraphSeekCountsProbesAndRunsButNoRangeResolution) {
  // Objects of one predicate, sought through the pso range's subject
  // column as the matcher's sibling cursors do.
  std::vector<Triple> ts;
  for (uint32_t i = 0; i < 9000; ++i) {
    ts.push_back(Triple(Term::Iri(2 * (i / 3)), Term::Iri(1 + i % 2),
                        Term::Iri(i)));
  }
  const Graph g(ts);
  const MatchRange range = g.Matches(std::nullopt, Term::Iri(1), std::nullopt);
  ASSERT_EQ(range.order(), IndexOrder::kPso);
  MatchCursor counted(range, 0);
  MatchCursor twin(range, 0);
  const GraphStats before = g.Stats();
  size_t probes = 0;
  size_t yielded = 0;
  for (uint32_t s = 0; s < 3000; s += 7) {
    const MatchRange run = g.Seek(&counted, Term::Iri(s));
    const MatchRange want = twin.Seek(Term::Iri(s).bits(), &probes);
    yielded += want.size();
    ASSERT_EQ(run.size(), want.size());
    ASSERT_EQ(run.size(),
              g.CountMatches(Term::Iri(s), Term::Iri(1), std::nullopt));
    for (const Triple& t : run) {
      ASSERT_EQ(t.s, Term::Iri(s));
      ASSERT_EQ(t.p, Term::Iri(1));
    }
  }
  const GraphStats after = g.Stats();
  // CountMatches resolved a range per seek; the seeks themselves did not.
  const uint64_t seeks = (3000 + 6) / 7;
  EXPECT_EQ(after.matches_calls - before.matches_calls, seeks);
  size_t count_scanned = 0;
  size_t count_yielded = 0;
  for (uint32_t s = 0; s < 3000; s += 7) {
    const GraphStats b = g.Stats();
    (void)g.CountMatches(Term::Iri(s), Term::Iri(1), std::nullopt);
    const GraphStats a = g.Stats();
    count_scanned += a.rows_scanned - b.rows_scanned;
    count_yielded += a.rows_yielded - b.rows_yielded;
  }
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(after.rows_scanned - before.rows_scanned, probes + count_scanned);
  EXPECT_EQ(after.rows_yielded - before.rows_yielded, yielded + count_yielded);
}

// Vectors of Graph (answer vectors) move their elements on
// reallocation only if these hold; otherwise they copy every spine.
static_assert(std::is_nothrow_move_constructible_v<Graph>);
static_assert(std::is_nothrow_move_assignable_v<Graph>);

TEST(GraphParse, RoundTrip) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "urn:a urn:p urn:b .\n"
                 "_:X urn:p urn:b .\n"
                 "urn:a sc urn:c .\n");
  std::string text = FormatGraph(g, dict);
  Dictionary dict2;
  Result<Graph> reparsed = ParseGraph(text, &dict2);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->size(), g.size());
  EXPECT_EQ(FormatGraph(*reparsed, dict2), text);
}

}  // namespace
}  // namespace swdb
