#include "rdf/hom.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "query/query.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/str.h"

namespace swdb {
namespace {

using swdb::testing::Data;
using swdb::testing::G;

class HomTest : public ::testing::Test {
 protected:
  Dictionary dict_;
};

TEST_F(HomTest, GroundSubgraphMaps) {
  Graph g1 = Data(&dict_, "a p b .\nb p c .");
  Graph g2 = Data(&dict_, "a p b .");
  EXPECT_TRUE(HasHomomorphism(g2, g1));
  EXPECT_FALSE(HasHomomorphism(g1, g2));
}

TEST_F(HomTest, BlankMapsToUri) {
  Graph pattern = Data(&dict_, "_:X p b .");
  Graph target = Data(&dict_, "a p b .");
  Result<std::optional<TermMap>> r = FindHomomorphism(pattern, target);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ((*r)->Apply(dict_.Blank("X")), dict_.Iri("a"));
}

TEST_F(HomTest, SharedBlankMustAgree) {
  Graph pattern = Data(&dict_, "_:X p b .\n_:X q c .");
  Graph target_ok = Data(&dict_, "a p b .\na q c .");
  Graph target_bad = Data(&dict_, "a p b .\nd q c .");
  EXPECT_TRUE(HasHomomorphism(pattern, target_ok));
  EXPECT_FALSE(HasHomomorphism(pattern, target_bad));
}

TEST_F(HomTest, RepeatedBlankInOneTriple) {
  Graph pattern = Data(&dict_, "_:X p _:X .");
  Graph no_loop = Data(&dict_, "a p b .");
  Graph loop = Data(&dict_, "a p a .");
  EXPECT_FALSE(HasHomomorphism(pattern, no_loop));
  EXPECT_TRUE(HasHomomorphism(pattern, loop));
}

TEST_F(HomTest, EmptyPatternAlwaysMaps) {
  Graph empty;
  Graph target = Data(&dict_, "a p b .");
  EXPECT_TRUE(HasHomomorphism(empty, target));
  EXPECT_TRUE(HasHomomorphism(empty, empty));
}

TEST_F(HomTest, NonEmptyPatternNeverMapsToEmpty) {
  Graph pattern = Data(&dict_, "_:X p _:Y .");
  EXPECT_FALSE(HasHomomorphism(pattern, Graph()));
}

TEST_F(HomTest, VariablesInPatternsBindLikeBlanks) {
  Graph pattern = G(&dict_, "?S ?P ?O .");
  Graph target = Data(&dict_, "a p b .");
  PatternMatcher matcher(pattern.triples(), &target);
  size_t solutions = 0;
  Status s = matcher.Enumerate([&](const TermMap& mu) {
    EXPECT_EQ(mu.Apply(dict_.Var("S")), dict_.Iri("a"));
    EXPECT_EQ(mu.Apply(dict_.Var("P")), dict_.Iri("p"));
    EXPECT_EQ(mu.Apply(dict_.Var("O")), dict_.Iri("b"));
    ++solutions;
    return true;
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(solutions, 1u);
}

TEST_F(HomTest, EnumerationIsDuplicateFree) {
  Graph pattern = G(&dict_, "?X p ?Y .\n?Y p ?Z .");
  Graph target = Data(&dict_, "a p b .\nb p c .\nb p d .");
  PatternMatcher matcher(pattern.triples(), &target);
  std::vector<std::vector<Term>> seen;
  Status s = matcher.Enumerate([&](const TermMap& mu) {
    seen.push_back({mu.Apply(dict_.Var("X")), mu.Apply(dict_.Var("Y")),
                    mu.Apply(dict_.Var("Z"))});
    return true;
  });
  EXPECT_TRUE(s.ok());
  std::sort(seen.begin(), seen.end());
  auto dup = std::adjacent_find(seen.begin(), seen.end());
  EXPECT_EQ(dup, seen.end());
  EXPECT_EQ(seen.size(), 2u);  // (a,b,c) and (a,b,d)
}

TEST_F(HomTest, BudgetExhaustionReportsLimitExceeded) {
  // A 10-variable clique pattern against a large random-ish target with
  // a tiny budget must hit the limit.
  Graph pattern;
  Term p = dict_.Iri("p");
  std::vector<Term> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(dict_.Var(NumberedName("v", i)));
  for (Term x : vars) {
    for (Term y : vars) {
      if (x != y) pattern.Insert(x, p, y);
    }
  }
  Graph target;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      if (i != j && (i + j) % 3 != 0) {
        target.Insert(dict_.Iri(NumberedName("n", i)), p,
                      dict_.Iri(NumberedName("n", j)));
      }
    }
  }
  MatchOptions options;
  options.max_steps = 5;
  MatchStats stats;
  options.stats = &stats;
  PatternMatcher matcher(pattern.triples(), &target, options);
  size_t count = 0;
  Status s = matcher.Enumerate([&](const TermMap&) {
    ++count;
    return true;
  });
  EXPECT_EQ(s.code(), StatusCode::kLimitExceeded);
  // The search stops at the first step past the budget, which is counted.
  EXPECT_EQ(stats.steps_used, options.max_steps + 1);

  // A joined random pattern with the same tiny budget exhausts the same
  // way.
  Rng rng(7);
  RandomGraphSpec spec;
  spec.num_nodes = 12;
  spec.num_triples = 150;
  spec.num_predicates = 2;
  Graph data = RandomSimpleGraph(spec, &dict_, &rng);
  Query q = PatternQueryFromGraph(data, 3, 0.9, &dict_, &rng);
  PatternMatcher joined(q.body, &data, options);
  Status js = joined.Enumerate([](const TermMap&) { return true; });
  EXPECT_EQ(js.code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(stats.steps_used, options.max_steps + 1);
}

TEST_F(HomTest, SimpleEntailsDirection) {
  // Thm 2.8(2): G1 ⊨ G2 iff there is a map G2 → G1.
  Graph g1 = Data(&dict_, "a p b .");
  Graph g2 = Data(&dict_, "_:X p b .");
  EXPECT_TRUE(SimpleEntails(g1, g2));   // X → a
  EXPECT_FALSE(SimpleEntails(g2, g1));  // a is not in g2
}

TEST_F(HomTest, EntailmentIsReflexiveAndTransitive) {
  Graph g1 = Data(&dict_, "a p b .\nb p c .");
  Graph g2 = Data(&dict_, "_:X p _:Y .\n_:Y p _:Z .");
  Graph g3 = Data(&dict_, "_:U p _:V .");
  EXPECT_TRUE(SimpleEntails(g1, g1));
  EXPECT_TRUE(SimpleEntails(g1, g2));
  EXPECT_TRUE(SimpleEntails(g2, g3));
  EXPECT_TRUE(SimpleEntails(g1, g3));
}

TEST_F(HomTest, EquivalenceOfBlankRenamings) {
  Graph g1 = Data(&dict_, "_:X p _:Y .");
  Graph g2 = Data(&dict_, "_:U p _:V .");
  EXPECT_TRUE(SimpleEquivalent(g1, g2));
}

TEST_F(HomTest, LeanAndNonLeanEquivalent) {
  // {(a,p,X)} ≡ {(a,p,X),(a,p,Y)}.
  Graph lean = Data(&dict_, "a p _:X .");
  Graph redundant = Data(&dict_, "a p _:X .\na p _:Y .");
  EXPECT_TRUE(SimpleEquivalent(lean, redundant));
}

TEST_F(HomTest, GroundTriplePrefilterRejectsEarly) {
  Graph pattern = Data(&dict_, "a p b .\n_:X p c .");
  Graph target = Data(&dict_, "_:X p c .\nd p c .");  // lacks ground (a,p,b)
  EXPECT_FALSE(HasHomomorphism(pattern, target));
}

TEST_F(HomTest, TrySimpleEntailsReportsBudgetInsteadOfAborting) {
  // The same adversarial shape as BudgetExhaustionReportsLimitExceeded:
  // the Try API must surface kLimitExceeded as a value, not crash.
  Graph pattern;
  Graph target;
  Term p = dict_.Iri("p");
  std::vector<Term> blanks;
  for (int i = 0; i < 6; ++i) {
    blanks.push_back(dict_.Blank(NumberedName("b", i)));
  }
  for (Term x : blanks) {
    for (Term y : blanks) {
      if (x != y) pattern.Insert(x, p, y);
    }
  }
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      if (i != j && (i + j) % 3 != 0) {
        target.Insert(dict_.Iri(NumberedName("n", i)), p,
                      dict_.Iri(NumberedName("n", j)));
      }
    }
  }
  MatchOptions options;
  options.max_steps = 5;
  Result<bool> r = TrySimpleEntails(target, pattern, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kLimitExceeded);
}

TEST_F(HomTest, StatsCountNodesCandidatesAndSolutions) {
  Graph pattern = G(&dict_, "?X p ?Y .");
  Graph target = Data(&dict_, "a p b .\na p c .\nb p d .");
  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  PatternMatcher matcher(pattern, &target, options);
  size_t solutions = 0;
  Status s = matcher.Enumerate([&solutions](const TermMap&) {
    ++solutions;
    return true;
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(solutions, 3u);
  // One node resolves the predicate range once; its three candidates all
  // bind and reach a solution leaf.
  EXPECT_EQ(stats.nodes_expanded, 1u);
  EXPECT_EQ(stats.candidates_scanned, 3u);
  EXPECT_EQ(stats.binds_attempted, 3u);
  EXPECT_EQ(stats.solutions_found, 3u);
  EXPECT_EQ(stats.index_hits[static_cast<size_t>(IndexOrder::kPso)], 1u);
  EXPECT_EQ(stats.steps_used, matcher.steps_used());
  EXPECT_GE(stats.selectivity_recomputes, 1u);
  EXPECT_EQ(stats.steps_used, 4u);  // root node + three solution leaves
}

TEST_F(HomTest, BudgetExhaustionMidEnumerationKeepsPartialSolutions) {
  Graph pattern = G(&dict_, "?X p ?Y .");
  Graph target = Data(&dict_, "a p b .\na p c .\nb p d .");
  MatchOptions options;
  options.max_steps = 3;  // root + two solution leaves, then exhausted
  PatternMatcher matcher(pattern, &target, options);
  size_t solutions = 0;
  Status s = matcher.Enumerate([&solutions](const TermMap&) {
    ++solutions;
    return true;
  });
  EXPECT_EQ(s.code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(solutions, 2u);  // partial enumeration was still delivered
}

TEST_F(HomTest, InjectiveBlanksInteractWithBlanksToBlanksOnly) {
  MatchOptions options;
  options.blanks_to_blanks_only = true;
  options.injective_blanks = true;

  Graph pattern = Data(&dict_, "_:A p _:B .");
  // No blanks in the target: blanks_to_blanks_only leaves no images.
  Graph ground_target = Data(&dict_, "a p b .");
  PatternMatcher no_blanks(pattern, &ground_target, options);
  Result<std::optional<TermMap>> r = no_blanks.FindAny();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());

  // A single blank self-loop satisfies blanks_to_blanks_only but not
  // injectivity (A and B would share the image).
  Graph loop_target = Data(&dict_, "_:U p _:U .");
  PatternMatcher loop(pattern, &loop_target, options);
  r = loop.FindAny();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());

  // Injectivity alone (without blanks_to_blanks_only) allows mapping A
  // and B to the two distinct URIs.
  MatchOptions injective_only;
  injective_only.injective_blanks = true;
  PatternMatcher uris(pattern, &ground_target, injective_only);
  r = uris.FindAny();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());

  // Two distinct blanks satisfy both restrictions.
  Graph two_blanks = Data(&dict_, "_:U p _:V .");
  PatternMatcher ok(pattern, &two_blanks, options);
  r = ok.FindAny();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_NE((*r)->Apply(dict_.Blank("A")), (*r)->Apply(dict_.Blank("B")));
}

TEST_F(HomTest, ExcludeTripleOnGroundPattern) {
  Graph pattern = Data(&dict_, "a p b .");
  Graph target = Data(&dict_, "a p b .\nb p c .");
  MatchOptions options;
  options.exclude_triple =
      Triple(dict_.Iri("a"), dict_.Iri("p"), dict_.Iri("b"));
  PatternMatcher matcher(pattern, &target, options);
  size_t solutions = 0;
  Status s = matcher.Enumerate([&solutions](const TermMap&) {
    ++solutions;
    return true;
  });
  // The ground prefilter must honour the exclusion: the pattern's only
  // support in the target is the excluded triple.
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(solutions, 0u);

  // Excluding an unrelated triple leaves the (empty-map) solution.
  matcher.set_exclude_triple(
      Triple(dict_.Iri("b"), dict_.Iri("p"), dict_.Iri("c")));
  solutions = 0;
  s = matcher.Enumerate([&solutions](const TermMap&) {
    ++solutions;
    return true;
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(solutions, 1u);
}

TEST_F(HomTest, SetTargetRebindsCompiledPattern) {
  Graph pattern = Data(&dict_, "_:X p c .");
  Graph with = Data(&dict_, "a p c .");
  Graph without = Data(&dict_, "a p b .");
  PatternMatcher matcher(pattern, &with);
  Result<std::optional<TermMap>> r = matcher.FindAny();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());
  matcher.set_target(&without);
  r = matcher.FindAny();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST_F(HomTest, EnumerationOrderIsDeterministic) {
  // Regression pin for the dense-binding rewrite: candidates are walked
  // in index order and the most-constrained-first pick breaks ties by
  // pattern position, so the solution order is fully determined.
  Graph pattern = G(&dict_, "?X p ?Y .\n?Y p ?Z .");
  Graph target = Data(&dict_, "a p b .\nb p c .\nb p d .");
  auto run = [&]() {
    std::vector<std::vector<Term>> order;
    PatternMatcher matcher(pattern, &target);
    Status s = matcher.Enumerate([&](const TermMap& mu) {
      order.push_back({mu.Apply(dict_.Var("X")), mu.Apply(dict_.Var("Y")),
                       mu.Apply(dict_.Var("Z"))});
      return true;
    });
    EXPECT_TRUE(s.ok());
    return order;
  };
  std::vector<std::vector<Term>> first = run();
  ASSERT_EQ(first.size(), 2u);
  std::vector<std::vector<Term>> expected = {
      {dict_.Iri("a"), dict_.Iri("b"), dict_.Iri("c")},
      {dict_.Iri("a"), dict_.Iri("b"), dict_.Iri("d")},
  };
  EXPECT_EQ(first, expected);
  EXPECT_EQ(run(), first);  // stable across repeated runs
}

TEST_F(HomTest, RandomPatternsFindPlantedMatchAndFindAnyIsFirst) {
  // PatternQueryFromGraph plants a match, so enumeration is nonempty;
  // FindAny returns the first solution Enumerate delivers, and the
  // stats count exactly the delivered solutions.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Dictionary dict;
    Rng rng(seed);
    RandomGraphSpec spec;
    spec.num_nodes = 18;
    spec.num_triples = 120;
    spec.num_predicates = 3;
    spec.blank_ratio = 0.2;
    Graph data = RandomSimpleGraph(spec, &dict, &rng);
    Query q = PatternQueryFromGraph(data, 3, 0.6, &dict, &rng);

    MatchStats stats;
    MatchOptions options;
    options.stats = &stats;
    PatternMatcher matcher(q.body, &data, options);
    std::vector<TermMap> solutions;
    ASSERT_TRUE(matcher
                    .Enumerate([&](const TermMap& mu) {
                      solutions.push_back(mu);
                      return true;
                    })
                    .ok());
    ASSERT_FALSE(solutions.empty()) << "seed " << seed;
    EXPECT_EQ(stats.solutions_found, solutions.size()) << "seed " << seed;
    EXPECT_EQ(stats.steps_used, matcher.steps_used()) << "seed " << seed;

    Result<std::optional<TermMap>> first = matcher.FindAny();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->has_value());
    EXPECT_EQ(**first, solutions.front()) << "seed " << seed;
  }
}

TEST_F(HomTest, StaticOrderAgreesWithDynamicOrder) {
  Graph pattern = G(&dict_, "?X p ?Y .\n?Y q ?Z .\n?Z p ?X .");
  Graph target = Data(&dict_,
                      "a p b .\nb q c .\nc p a .\n"
                      "b p c .\nc q a .\na q b .");
  auto solutions = [&](bool static_order) {
    MatchOptions options;
    options.static_order = static_order;
    PatternMatcher matcher(pattern, &target, options);
    std::vector<std::vector<Term>> out;
    Status s = matcher.Enumerate([&](const TermMap& mu) {
      out.push_back({mu.Apply(dict_.Var("X")), mu.Apply(dict_.Var("Y")),
                     mu.Apply(dict_.Var("Z"))});
      return true;
    });
    EXPECT_TRUE(s.ok());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(solutions(false), solutions(true));
}

TEST_F(HomTest, RepeatedVariableAcrossPositionsOfOneTriple) {
  // (X, p, X) with X already bound by a neighbouring triple exercises
  // the within-triple repeated-slot check of the dense binder.
  Graph pattern = G(&dict_, "?X p ?X .\n?X q c .");
  Graph target = Data(&dict_, "a p a .\na q c .\nb p b .");
  PatternMatcher matcher(pattern, &target);
  std::vector<Term> xs;
  Status s = matcher.Enumerate([&](const TermMap& mu) {
    xs.push_back(mu.Apply(dict_.Var("X")));
    return true;
  });
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0], dict_.Iri("a"));
}

TEST_F(HomTest, RepeatedSlotFastPathFiltersResiduals) {
  // Unbound repeated slot (X, p, X): the index range is the whole p run,
  // and the matcher's pair-equality fast path must keep exactly the
  // diagonal rows, in range order, with the residual rejects counted as
  // scanned but never entering TryBind.
  Graph target;
  Term p = dict_.Iri("p");
  for (uint32_t i = 0; i < 40; ++i) {
    Term a = dict_.Iri("n" + std::to_string(i));
    Term b = dict_.Iri("n" + std::to_string((i + 1) % 40));
    target.Insert(Triple(a, p, b));  // off-diagonal
    if (i % 5 == 0) target.Insert(Triple(a, p, a));  // diagonal
  }
  Graph pattern = G(&dict_, "?X p ?X .");
  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  PatternMatcher matcher(pattern, &target, options);
  std::vector<Term> xs;
  ASSERT_TRUE(matcher
                  .Enumerate([&](const TermMap& mu) {
                    xs.push_back(mu.Apply(dict_.Var("X")));
                    return true;
                  })
                  .ok());
  ASSERT_EQ(xs.size(), 8u);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));  // pso range order
  EXPECT_EQ(stats.candidates_scanned, target.size());
  EXPECT_EQ(stats.binds_attempted, 8u);
  EXPECT_EQ(stats.solutions_found, 8u);

  // Excluding one diagonal row drops exactly that solution.
  MatchStats stats2;
  options.stats = &stats2;
  options.exclude_triple = Triple(dict_.Iri("n0"), p, dict_.Iri("n0"));
  PatternMatcher excl(pattern, &target, options);
  size_t count = 0;
  ASSERT_TRUE(excl.Enumerate([&](const TermMap&) {
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(stats2.binds_attempted, 7u);
}

// ---------------------------------------------------------------------------
// Binding rows. The row visitor and the TermMap wrapper deliver the same
// solutions in the same order, and the search counters are the ones the
// matcher gave when Search still resolved the picked triple's range a
// second time instead of reusing PickNext's.

struct MatcherCase {
  Graph pattern;
  Graph target;
  bool static_order = false;
  // When non-empty, the same matcher is then re-pointed here with
  // set_target and enumerates again.
  Graph retarget;
};

// Random patterns with variables and blanks, the blank part of a data
// graph as a pattern, and repeated-slot patterns, each under the
// dynamic and the static order.
std::vector<MatcherCase> MatcherCases(Dictionary* dict) {
  std::vector<MatcherCase> cases;
  RandomGraphSpec spec;
  spec.num_nodes = 18;
  spec.num_triples = 120;
  spec.num_predicates = 3;
  spec.blank_ratio = 0.2;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Graph data = RandomSimpleGraph(spec, dict, &rng);
    const Graph body = PatternQueryFromGraph(data, 3, 0.6, dict, &rng).body;
    const Graph other = RandomSimpleGraph(spec, dict, &rng);
    std::vector<Triple> blank_part;
    for (const Triple& t : data) {
      if (blank_part.size() < 3 && (t.s.IsBlank() || t.o.IsBlank())) {
        blank_part.push_back(t);
      }
    }
    for (bool static_order : {false, true}) {
      cases.push_back({body, data, static_order, other});
      cases.push_back({Graph(blank_part), data, static_order, other});
    }
  }
  Graph loops;
  const Term p = dict->Iri("p");
  const Term q = dict->Iri("q");
  const auto node = [dict](uint32_t i) {
    std::string name = "n";
    name += std::to_string(i);
    return dict->Iri(name);
  };
  for (uint32_t i = 0; i < 30; ++i) {
    const Term n = node(i);
    loops.Insert(Triple(n, p, node(i % 7)));
    loops.Insert(Triple(n, q, node(i * 3 % 11)));
  }
  for (const char* text : {"?X p ?X .\n?X q ?Y .", "?X ?P ?X .",
                           "?X p ?Y .\n?Y p ?X .\n?Y q ?Z .",
                           "_:a p _:a .\n_:a q _:b ."}) {
    for (bool static_order : {false, true}) {
      cases.push_back({swdb::testing::G(dict, text), loops, static_order,
                       Graph()});
    }
  }
  return cases;
}

// The counters of every MatcherCases run and of its set_target rerun, in
// order: {steps_used, nodes_expanded, candidates_scanned,
// selectivity_recomputes, binds_attempted, solutions_found}.
constexpr uint64_t kPinnedStats[][6] = {
    {231, 3, 230, 3, 230, 228},
    {0, 0, 0, 0, 0, 0},
    {8, 3, 7, 4, 7, 5},
    {3, 3, 6, 5, 6, 0},
    {231, 3, 230, 0, 230, 228},
    {0, 0, 0, 0, 0, 0},
    {16, 11, 15, 0, 15, 5},
    {7, 7, 6, 0, 6, 0},
    {8, 3, 7, 4, 7, 5},
    {2, 2, 1, 4, 1, 0},
    {6, 3, 6, 3, 6, 3},
    {10, 7, 18, 7, 18, 3},
    {11, 6, 10, 0, 10, 5},
    {2, 2, 1, 0, 1, 0},
    {12, 9, 11, 0, 11, 3},
    {20, 17, 19, 0, 19, 3},
    {69, 3, 68, 3, 68, 66},
    {0, 0, 0, 0, 0, 0},
    {7, 3, 8, 3, 8, 4},
    {1, 1, 0, 2, 0, 0},
    {69, 3, 68, 0, 68, 66},
    {0, 0, 0, 0, 0, 0},
    {9, 5, 8, 0, 8, 4},
    {4, 4, 3, 0, 3, 0},
    {1571, 196, 1570, 201, 1570, 1375},
    {1114, 127, 1113, 130, 1113, 987},
    {8, 3, 9, 3, 9, 5},
    {2, 2, 1, 4, 1, 0},
    {1946, 571, 1945, 0, 1945, 1375},
    {1327, 340, 1326, 0, 1326, 987},
    {36, 31, 35, 0, 35, 5},
    {13, 13, 12, 0, 12, 0},
    {2904, 104, 2903, 105, 2903, 2800},
    {2803, 105, 2802, 106, 2802, 2698},
    {6, 3, 6, 3, 6, 3},
    {3, 3, 8, 5, 8, 0},
    {2909, 109, 2908, 0, 2908, 2800},
    {2803, 105, 2802, 0, 2802, 2698},
    {12, 9, 11, 0, 11, 3},
    {10, 10, 9, 0, 9, 0},
    {142, 112, 149, 114, 149, 30},
    {112, 69, 160, 38, 160, 43},
    {5, 3, 4, 4, 4, 2},
    {1, 1, 0, 1, 0, 0},
    {378, 348, 377, 0, 377, 30},
    {417, 374, 416, 0, 416, 43},
    {6, 4, 5, 0, 5, 2},
    {1, 1, 0, 0, 0, 0},
    {15, 8, 37, 9, 14, 7},
    {15, 8, 37, 0, 14, 7},
    {9, 1, 60, 1, 8, 8},
    {9, 1, 60, 0, 8, 8},
    {45, 38, 44, 40, 44, 7},
    {45, 38, 44, 0, 44, 7},
    {15, 8, 37, 9, 14, 7},
    {15, 8, 37, 0, 14, 7},
};

std::vector<Term> OpenTerms(const Graph& pattern) {
  std::vector<Term> open;
  for (Term t : pattern.Universe()) {
    if (!t.IsIri()) open.push_back(t);
  }
  return open;
}

void ExpectSameStats(const MatchStats& a, const MatchStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.candidates_scanned, b.candidates_scanned);
  EXPECT_EQ(a.binds_attempted, b.binds_attempted);
  EXPECT_EQ(a.solutions_found, b.solutions_found);
  EXPECT_EQ(a.steps_used, b.steps_used);
  EXPECT_EQ(a.selectivity_recomputes, b.selectivity_recomputes);
  EXPECT_EQ(a.index_hits, b.index_hits);
}

TEST(MatcherRows, RowVisitorAndTermMapWrapperAgreeAndCountersArePinned) {
  Dictionary dict;
  const std::vector<MatcherCase> cases = MatcherCases(&dict);
  size_t run = 0;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    SCOPED_TRACE(ci);
    const MatcherCase& c = cases[ci];
    MatchOptions options;
    options.static_order = c.static_order;
    PatternMatcher matcher(c.pattern, &c.target, options);
    const std::vector<Term> open = OpenTerms(c.pattern);
    ASSERT_EQ(matcher.num_slots(), open.size());
    EXPECT_EQ(matcher.SlotOf(dict.Iri("p")), -1);
    for (const Graph* target : {&c.target, &c.retarget}) {
      if (target == &c.retarget) {
        if (target->empty()) break;
        matcher.set_target(target);
      }
      std::vector<std::vector<Term>> by_row;
      ASSERT_TRUE(matcher
                      .EnumerateRows([&](const Term* row) {
                        by_row.emplace_back(row, row + matcher.num_slots());
                        return true;
                      })
                      .ok());
      const MatchStats row_stats = matcher.stats();
      std::vector<std::vector<Term>> by_map;
      ASSERT_TRUE(matcher
                      .Enumerate([&](const TermMap& mu) {
                        EXPECT_EQ(mu.size(), open.size());
                        std::vector<Term> row(open.size());
                        for (Term t : open) row[matcher.SlotOf(t)] = mu.Apply(t);
                        by_map.push_back(std::move(row));
                        return true;
                      })
                      .ok());
      EXPECT_EQ(by_row, by_map);
      ExpectSameStats(row_stats, matcher.stats());

      ASSERT_LT(run, std::size(kPinnedStats));
      const uint64_t* want = kPinnedStats[run++];
      EXPECT_EQ(row_stats.steps_used, want[0]);
      EXPECT_EQ(row_stats.nodes_expanded, want[1]);
      EXPECT_EQ(row_stats.candidates_scanned, want[2]);
      EXPECT_EQ(row_stats.selectivity_recomputes, want[3]);
      EXPECT_EQ(row_stats.binds_attempted, want[4]);
      EXPECT_EQ(row_stats.solutions_found, want[5]);
      EXPECT_EQ(row_stats.solutions_found, by_row.size());
    }
  }
  EXPECT_EQ(run, std::size(kPinnedStats));
}

// ---------------------------------------------------------------------------
// Exclusion probes. A matcher probing pattern → target \ {t} ends a
// branch once the pattern triple equal to t is bound to t, and keeps the
// ranges it resolved with nothing bound from one probe to the next.
// Neither may change a row or its order.

using Rows = std::vector<std::vector<Term>>;

Rows EnumerateAll(PatternMatcher* matcher) {
  Rows rows;
  EXPECT_TRUE(matcher
                  ->EnumerateRows([&](const Term* row) {
                    rows.emplace_back(row, row + matcher->num_slots());
                    return true;
                  })
                  .ok());
  return rows;
}

// The image of pattern triple t under a row of `matcher`.
Triple ImageOf(const Triple& t, const PatternMatcher& matcher,
               const std::vector<Term>& row) {
  const auto image = [&](Term x) {
    const int32_t slot = matcher.SlotOf(x);
    return slot < 0 ? x : row[static_cast<size_t>(slot)];
  };
  return Triple(image(t.s), image(t.p), image(t.o));
}

// A few triples of a random blank-heavy target (so exclusions hit
// pattern triples literally), with some IRIs consistently turned into
// variables and, now and then, a repeated-slot triple.
std::vector<Triple> RandomProbePattern(const Graph& target, Rng* rng,
                                       Dictionary* dict) {
  const std::vector<Triple> triples = target.triples();
  std::vector<std::pair<Term, Term>> to_var;
  const auto var_for = [&](Term iri) {
    for (const auto& [from, var] : to_var) {
      if (from == iri) return var;
    }
    to_var.emplace_back(iri, dict->Var("v" + std::to_string(to_var.size())));
    return to_var.back().second;
  };
  std::vector<Triple> pattern;
  const size_t size = 2 + rng->Below(4);
  for (size_t i = 0; i < size; ++i) {
    Triple t = triples[rng->Below(triples.size())];
    if (t.s.IsIri() && rng->Chance(0.3)) t.s = var_for(t.s);
    if (t.o.IsIri() && rng->Chance(0.3)) t.o = var_for(t.o);
    if (rng->Chance(0.1)) t.p = var_for(t.p);
    pattern.push_back(t);
  }
  if (rng->Chance(0.3)) {
    const Term r = dict->Var("r");
    pattern.push_back(Triple(r, triples[0].p, r));
  }
  return pattern;
}

TEST(ExclusionProbes, RowsAreTheUnprunedRowsWhoseImageAvoidsTheTriple) {
  RandomGraphSpec spec;
  spec.num_nodes = 7;
  spec.num_triples = 16;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.5;
  size_t pruned_rows = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Dictionary dict;
    Rng rng(seed);
    const Graph target = RandomSimpleGraph(spec, &dict, &rng);
    const std::vector<Triple> pattern =
        RandomProbePattern(target, &rng, &dict);
    PatternMatcher unpruned(pattern, &target);
    const Rows all = EnumerateAll(&unpruned);

    // Every target triple (pattern triples among them) and one triple
    // the target lacks.
    std::vector<Triple> exclusions = target.triples();
    exclusions.push_back(
        Triple(dict.Iri("absent"), dict.Iri("p0"), dict.Iri("absent")));
    PatternMatcher loop(pattern, &target);
    uint64_t loop_recomputes = 0;
    uint64_t fresh_recomputes = 0;
    for (size_t i = 0; i < exclusions.size(); ++i) {
      const Triple& t = exclusions[i];
      Rows expected;
      for (const std::vector<Term>& row : all) {
        bool hits = false;
        for (const Triple& pt : pattern) {
          hits = hits || ImageOf(pt, unpruned, row) == t;
        }
        if (!hits) expected.push_back(row);
      }
      pruned_rows += all.size() - expected.size();

      MatchOptions options;
      options.exclude_triple = t;
      PatternMatcher fresh(pattern, &target, options);
      EXPECT_EQ(EnumerateAll(&fresh), expected) << "exclusion " << i;
      loop.set_exclude_triple(t);
      EXPECT_EQ(EnumerateAll(&loop), expected) << "exclusion " << i;

      // Kept ranges equal resolved ones, so only the resolution count
      // may differ from a fresh matcher.
      const MatchStats& a = loop.stats();
      const MatchStats& b = fresh.stats();
      EXPECT_EQ(a.steps_used, b.steps_used) << "exclusion " << i;
      EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << "exclusion " << i;
      EXPECT_EQ(a.candidates_scanned, b.candidates_scanned)
          << "exclusion " << i;
      EXPECT_EQ(a.binds_attempted, b.binds_attempted) << "exclusion " << i;
      EXPECT_EQ(a.solutions_found, b.solutions_found) << "exclusion " << i;
      EXPECT_EQ(a.index_hits, b.index_hits) << "exclusion " << i;
      EXPECT_LE(a.selectivity_recomputes, b.selectivity_recomputes)
          << "exclusion " << i;
      if (i > 0) {
        loop_recomputes += a.selectivity_recomputes;
        fresh_recomputes += b.selectivity_recomputes;
      }
    }
    if (fresh_recomputes > 0) EXPECT_LT(loop_recomputes, fresh_recomputes);
  }
  EXPECT_GT(pruned_rows, 0u);  // the exclusions really remove rows
}

TEST(ExclusionProbes, SetTargetDropsTheKeptRanges) {
  // Two targets at the same epoch: only set_target tells the matcher
  // that its kept ranges belong to the other graph.
  Dictionary dict;
  const Term p = dict.Iri("p");
  const Term q = dict.Iri("q");
  const Term c = dict.Iri("c");
  const Term a = dict.Iri("a");
  const Term b = dict.Iri("b");
  Graph first;
  first.Insert(a, p, c);
  first.Insert(b, q, c);
  Graph second;
  second.Insert(b, p, c);
  second.Insert(a, q, c);
  ASSERT_EQ(first.epoch(), second.epoch());
  const std::vector<Triple> pattern = {Triple(dict.Blank("x"), p, c)};

  PatternMatcher matcher(pattern, &first);
  matcher.set_exclude_triple(Triple(a, q, c));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{a}}));
  matcher.set_target(&second);
  matcher.set_exclude_triple(Triple(b, q, c));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{b}}));
}

TEST(ExclusionProbes, MutatingTheTargetDropsTheKeptRanges) {
  Dictionary dict;
  const Term p = dict.Iri("p");
  const Term c = dict.Iri("c");
  const Term z = dict.Iri("z");
  const Term a = dict.Iri("a");
  const Term b = dict.Iri("b");
  const Term d = dict.Iri("d");
  const Term e = dict.Iri("e");
  Graph target;
  for (Term s : {a, b, d}) target.Insert(s, p, c);
  target.Insert(e, p, z);
  const std::vector<Triple> pattern = {Triple(dict.Blank("x"), p, c)};
  PatternMatcher matcher(pattern, &target);
  matcher.set_exclude_triple(Triple(e, p, z));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{a}, {b}, {d}}));

  target.Erase(Triple(b, p, c));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{a}, {d}}));
  matcher.set_exclude_triple(Triple(a, p, c));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{d}}));

  target.Insert(Triple(e, p, c));
  EXPECT_EQ(EnumerateAll(&matcher), Rows({{d}, {e}}));
}

// ---------------------------------------------------------------------------
// An independent referee. Every assignment of the pattern's open terms
// (at most four) over the target's universe is tried against the
// target's triples, read by iteration: no Graph::Matches, no index
// order, no search. The matcher must deliver exactly the assignments
// that map the pattern into the target, once each, under every ordering
// and option.

using RowSet = std::set<std::vector<Term>>;

// Open terms of `pattern` in slot order.
std::vector<Term> SlotTerms(const std::vector<Triple>& pattern,
                            const PatternMatcher& matcher) {
  std::vector<Term> terms(matcher.num_slots());
  for (const Triple& t : pattern) {
    for (Term x : {t.s, t.p, t.o}) {
      const int32_t slot = matcher.SlotOf(x);
      if (slot >= 0) terms[static_cast<size_t>(slot)] = x;
    }
  }
  return terms;
}

// Every row mapping `pattern` into `target`, by exhaustive enumeration.
RowSet RefereeRows(const std::vector<Triple>& pattern,
                   const std::vector<Term>& slot_terms, const Graph& target) {
  const std::vector<Triple> listed = target.triples();
  const std::set<Triple> triples(listed.begin(), listed.end());
  const std::vector<Term> universe = target.Universe();
  RowSet rows;
  if (universe.empty()) return rows;
  const size_t k = slot_terms.size();
  std::vector<size_t> choice(k, 0);
  std::vector<Term> row(k);
  const auto image = [&](Term x) {
    for (size_t i = 0; i < k; ++i) {
      if (slot_terms[i] == x) return row[i];
    }
    return x;
  };
  for (;;) {
    for (size_t i = 0; i < k; ++i) row[i] = universe[choice[i]];
    bool maps = true;
    for (const Triple& t : pattern) {
      maps = maps && triples.count(Triple(image(t.s), image(t.p), image(t.o)));
    }
    if (maps) rows.insert(row);
    size_t b = 0;  // odometer
    while (b < k && ++choice[b] == universe.size()) choice[b++] = 0;
    if (b == k) break;
  }
  return rows;
}

// The rows a matcher enumerates, as a set; fails on a duplicate row.
RowSet MatcherRows(PatternMatcher* matcher) {
  RowSet rows;
  EXPECT_TRUE(matcher
                  ->EnumerateRows([&](const Term* row) {
                    EXPECT_TRUE(
                        rows.emplace(row, row + matcher->num_slots()).second);
                    return true;
                  })
                  .ok());
  return rows;
}

// Up to four open terms, variables and blanks, spread over a few target
// triples so that slots repeat within triples and across them; now and
// then a target triple is kept verbatim, its own blanks open, so that
// exclusions hit pattern triples literally.
std::vector<Triple> RandomRefereePattern(const Graph& target, Rng* rng,
                                         Dictionary* dict) {
  const std::vector<Triple> triples = target.triples();
  for (;;) {
    std::vector<Term> open;
    const size_t k = 1 + rng->Below(4);
    for (size_t i = 0; i < k; ++i) {
      const std::string name = "r" + std::to_string(i);
      open.push_back(rng->Chance(0.3) ? dict->Blank(name) : dict->Var(name));
    }
    std::vector<Triple> pattern;
    const size_t size = 2 + rng->Below(4);
    for (size_t i = 0; i < size; ++i) {
      Triple t = triples[rng->Below(triples.size())];
      if (!rng->Chance(0.2)) {
        if (rng->Chance(0.6)) t.s = open[rng->Below(k)];
        if (rng->Chance(0.1)) t.p = open[rng->Below(k)];
        if (rng->Chance(0.5)) t.o = open[rng->Below(k)];
      }
      pattern.push_back(t);
    }
    std::set<Term> terms;
    for (const Triple& t : pattern) {
      for (Term x : {t.s, t.p, t.o}) {
        if (!x.IsIri()) terms.insert(x);
      }
    }
    if (terms.size() <= 4) return pattern;
  }
}

TEST(MatcherReferee, EveryOrderAndOptionAgreesWithExhaustiveAssignment) {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_triples = 14;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.4;
  MatchStats cursors;  // summed over the dynamic-order runs
  size_t solutions = 0;
  size_t exclusion_cuts = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    Dictionary dict;
    Rng rng(seed * 7 + 3);
    const Graph target = RandomSimpleGraph(spec, &dict, &rng);
    const std::vector<Triple> pattern =
        RandomRefereePattern(target, &rng, &dict);
    PatternMatcher probe(pattern, &target);
    const std::vector<Term> slot_terms = SlotTerms(pattern, probe);
    const RowSet all = RefereeRows(pattern, slot_terms, target);
    solutions += all.size();
    const auto keep = [&](auto pred) {
      RowSet out;
      for (const std::vector<Term>& row : all) {
        if (pred(row)) out.insert(row);
      }
      return out;
    };
    const auto blanks_only = [&](const std::vector<Term>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (slot_terms[i].IsBlank() && !row[i].IsBlank()) return false;
      }
      return true;
    };
    const auto injective = [&](const std::vector<Term>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        for (size_t j = i + 1; j < row.size(); ++j) {
          if (slot_terms[i].IsBlank() && slot_terms[j].IsBlank() &&
              row[i] == row[j]) {
            return false;
          }
        }
      }
      return true;
    };
    const auto avoids = [&](const Triple& excluded) {
      return [&, excluded](const std::vector<Term>& row) {
        for (const Triple& t : pattern) {
          if (ImageOf(t, probe, row) == excluded) return false;
        }
        return true;
      };
    };

    for (bool static_order : {false, true}) {
      SCOPED_TRACE(static_order ? "static" : "dynamic");
      const auto run = [&](MatchOptions options, const RowSet& want) {
        options.static_order = static_order;
        PatternMatcher matcher(pattern, &target, options);
        EXPECT_EQ(MatcherRows(&matcher), want);
        if (!static_order) {
          cursors.sibling_seeks += matcher.stats().sibling_seeks;
          cursors.sibling_prunes += matcher.stats().sibling_prunes;
        } else {
          EXPECT_EQ(matcher.stats().sibling_seeks, 0u);
        }
      };
      run(MatchOptions(), all);
      MatchOptions options;
      options.blanks_to_blanks_only = true;
      run(options, keep(blanks_only));
      options = MatchOptions();
      options.injective_blanks = true;
      run(options, keep(injective));
      options.blanks_to_blanks_only = true;
      run(options, keep([&](const std::vector<Term>& row) {
            return blanks_only(row) && injective(row);
          }));

      // Exclusion probes: every target triple and every pattern triple,
      // both on fresh matchers and through one set_exclude_triple loop.
      std::vector<Triple> exclusions = target.triples();
      exclusions.insert(exclusions.end(), pattern.begin(), pattern.end());
      MatchOptions loop_options;
      loop_options.static_order = static_order;
      PatternMatcher loop(pattern, &target, loop_options);
      for (const Triple& t : exclusions) {
        const RowSet want = keep(avoids(t));
        exclusion_cuts += all.size() - want.size();
        options = MatchOptions();
        options.exclude_triple = t;
        run(options, want);
        loop.set_exclude_triple(t);
        EXPECT_EQ(MatcherRows(&loop), want);
      }
    }
  }
  EXPECT_GT(solutions, 0u);
  EXPECT_GT(exclusion_cuts, 0u);
  // The dynamic order really opened sibling cursors and pruned on them.
  EXPECT_GT(cursors.sibling_seeks, 0u);
  EXPECT_GT(cursors.sibling_prunes, 0u);
}

}  // namespace
}  // namespace swdb
