#include "normal/core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "graphtheory/digraph.h"
#include "inference/closure.h"
#include "query/database.h"
#include "rdf/iso.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Data;

// A blank-heavy graph with several independent blank components: a
// union of random blobs (each blob's blanks are fresh, so blobs never
// share a component) over a partially shared ground vocabulary.
Graph MultiComponentGraph(uint64_t seed, Dictionary* dict) {
  Rng rng(seed * 977 + 13);
  RandomGraphSpec spec;
  spec.num_nodes = 8;
  spec.num_triples = 14;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.6;
  Graph g;
  const int blobs = 2 + static_cast<int>(seed % 4);
  for (int b = 0; b < blobs; ++b) {
    g.InsertAll(RandomSimpleGraph(spec, dict, &rng));
  }
  return g;
}

// The closure of an SP²Bench-shaped corpus with 10% blank authors:
// ~100 blank components, a couple of dozen of which fold.
Graph Sp2bBlankClosure(uint64_t target_triples, uint64_t seed,
                       Dictionary* dict) {
  Sp2bSpec spec;
  spec.target_triples = target_triples;
  spec.seed = seed;
  spec.blank_author_fraction = 0.1;
  Sp2bGenerator gen(spec, dict);
  return RdfsClosure(gen.GenerateCorpus());
}

// The copy-per-fold core loop that CoreChecked ran before it folded in
// place: every round re-partitions the whole graph, skips components
// whose exact triple vector an earlier round refuted, searches the rest
// lowest first, and applies the winning fold to a full copy of the
// graph. Kept as the parity oracle for the in-place loop.
Result<Graph> CopyPerFoldCore(const Graph& g, MatchOptions options,
                              TermMap* witness, CoreStats* stats) {
  options.stats = nullptr;
  Graph current = g;
  TermMap composed;
  CoreStats local;
  std::set<std::vector<Triple>> proven_lean;
  for (;;) {
    ++local.iterations;
    std::vector<std::vector<Triple>> targets;
    for (std::vector<Triple>& c : BlankComponents(current)) {
      if (proven_lean.count(c) != 0) {
        ++local.lean_cache_hits;
      } else {
        targets.push_back(std::move(c));
      }
    }
    std::optional<TermMap> fold;
    bool budget_hit = false;
    for (const std::vector<Triple>& component : targets) {
      ++local.components_searched;
      PatternMatcher matcher(component, &current, options);
      bool component_budget_hit = false;
      for (const Triple& t : component) {
        matcher.set_exclude_triple(t);
        Result<std::optional<TermMap>> r = matcher.FindAny();
        local.steps_used += matcher.steps_used();
        if (!r.ok()) {
          component_budget_hit = true;
        } else if (r->has_value()) {
          fold = std::move(**r);
          break;
        }
      }
      if (fold.has_value()) break;
      if (component_budget_hit) {
        budget_hit = true;
      } else {
        proven_lean.insert(component);
      }
    }
    if (!fold.has_value()) {
      if (stats != nullptr) *stats = local;
      if (budget_hit) return Status::LimitExceeded("oracle budget hit");
      break;
    }
    ++local.folds;
    composed = composed.ComposeWith(*fold);
    current = fold->Apply(current);
  }
  if (witness != nullptr) *witness = composed;
  if (stats != nullptr) *stats = local;
  return current;
}

// CoreChecked and the copy-per-fold oracle agree on g under `options`:
// same outcome, graph, witness and every CoreStats field.
void ExpectCoreParity(const Graph& g, MatchOptions options,
                      const std::string& label) {
  TermMap witness;
  TermMap oracle_witness;
  CoreStats stats;
  CoreStats oracle_stats;
  Result<Graph> core = CoreChecked(g, options, &witness, &stats);
  Result<Graph> oracle =
      CopyPerFoldCore(g, options, &oracle_witness, &oracle_stats);
  ASSERT_EQ(core.ok(), oracle.ok()) << label;
  if (core.ok()) {
    EXPECT_EQ(core->triples(), oracle->triples()) << label;
    EXPECT_TRUE(witness == oracle_witness) << label;
  } else {
    EXPECT_EQ(core.status().code(), StatusCode::kLimitExceeded) << label;
    EXPECT_EQ(oracle.status().code(), StatusCode::kLimitExceeded) << label;
  }
  EXPECT_EQ(stats.folds, oracle_stats.folds) << label;
  EXPECT_EQ(stats.iterations, oracle_stats.iterations) << label;
  EXPECT_EQ(stats.components_searched, oracle_stats.components_searched)
      << label;
  EXPECT_EQ(stats.lean_cache_hits, oracle_stats.lean_cache_hits) << label;
  EXPECT_EQ(stats.steps_used, oracle_stats.steps_used) << label;
}

TEST(Lean, GroundGraphsAreLean) {
  Dictionary dict;
  Graph g = Data(&dict, "a p b .\nb p c .\na q c .");
  EXPECT_TRUE(IsLean(g));
}

TEST(Lean, Example38NotLean) {
  // Example 3.8, G1: a -p-> X, a -p-> Y is not lean.
  Dictionary dict;
  Graph g1 = Data(&dict, "a p _:X .\na p _:Y .");
  EXPECT_FALSE(IsLean(g1));
}

TEST(Lean, Example38Lean) {
  // Example 3.8, G2: a -p-> X, a -p-> Y -q-> ..., Y -r-> b is lean.
  Dictionary dict;
  Graph g2 = Data(&dict,
                  "a p _:X .\n"
                  "_:X q _:Y .\n"
                  "_:Y r b .");
  EXPECT_TRUE(IsLean(g2));
}

TEST(Lean, RedundantSpecializationIsNotLean) {
  Dictionary dict;
  Graph g = Data(&dict, "a p b .\na p _:X .");
  EXPECT_FALSE(IsLean(g));  // X → b
}

TEST(Lean, BlankChainFoldsOntoLoop) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p a .\n"
                 "_:X p _:Y .\n"
                 "_:Y p _:Z .");
  EXPECT_FALSE(IsLean(g));
}

TEST(Lean, ProperEndomorphismWitness) {
  Dictionary dict;
  Graph g = Data(&dict, "a p _:X .\na p _:Y .");
  Result<std::optional<TermMap>> mu = FindProperEndomorphism(g);
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->has_value());
  Graph image = (*mu)->Apply(g);
  EXPECT_TRUE(image.IsSubgraphOf(g));
  EXPECT_LT(image.size(), g.size());
}

TEST(Lean, FoldComesFromLowestFoldingComponent) {
  // Component 0 is an anchored odd cycle — lean, and expensive to
  // certify (the coNP shape of Thm 3.12). Component 1 folds instantly.
  // Components are searched lowest index first, so component 0 is
  // refuted and the fold returned is component 1's: x → b.
  Dictionary dict;
  Term e = dict.Iri("e");
  Graph g;
  std::vector<Term> cycle_blanks;
  g.InsertAll(EncodeAsRdf(Digraph::SymmetricCycle(7), &dict, e,
                          &cycle_blanks));
  g.Insert(dict.Iri("anchor"), dict.Iri("ap"), cycle_blanks[0]);
  Term x = dict.FreshBlank();
  g.Insert(dict.Iri("a"), dict.Iri("p"), x);
  g.Insert(dict.Iri("a"), dict.Iri("p"), dict.Iri("b"));

  Result<std::optional<TermMap>> mu = FindProperEndomorphism(g);
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->has_value());
  EXPECT_EQ((*mu)->Apply(x), dict.Iri("b"));
}

TEST(Core, CollapsesRedundantBlanks) {
  Dictionary dict;
  Graph g = Data(&dict, "a p _:X .\na p _:Y .\na p b .");
  Graph core = Core(g);
  EXPECT_EQ(core, Data(&dict, "a p b ."));
}

TEST(Core, LeanGraphIsItsOwnCore) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "_:X q _:Y .\n"
                 "_:Y r b .");
  EXPECT_EQ(Core(g), g);
}

TEST(Core, WitnessMapsGraphOntoCore) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "a p _:Y .\n"
                 "_:Y q b .\n"
                 "_:Z q b .");
  TermMap witness;
  Graph core = Core(g, &witness);
  EXPECT_EQ(witness.Apply(g), core);
  EXPECT_TRUE(core.IsSubgraphOf(g));
  EXPECT_TRUE(IsLean(core));
}

TEST(Core, CoreIsEquivalentToGraph) {
  Dictionary dict;
  Rng rng(3);
  RandomGraphSpec spec;
  spec.num_nodes = 8;
  spec.num_triples = 12;
  spec.blank_ratio = 0.5;
  for (int round = 0; round < 10; ++round) {
    Graph g = RandomSimpleGraph(spec, &dict, &rng);
    Graph core = Core(g);
    EXPECT_TRUE(SimpleEquivalent(g, core)) << "round " << round;
    EXPECT_TRUE(IsLean(core)) << "round " << round;
  }
}

TEST(Core, UniqueUpToIsomorphismAcrossPresentations) {
  // Thm 3.10: computing the core of two isomorphic copies (with blanks
  // renamed) gives isomorphic results.
  Dictionary dict;
  Rng rng(11);
  RandomGraphSpec spec;
  spec.num_nodes = 7;
  spec.num_triples = 10;
  spec.blank_ratio = 0.6;
  for (int round = 0; round < 10; ++round) {
    Graph g = RandomSimpleGraph(spec, &dict, &rng);
    Graph copy = FreshBlankCopy(g, &dict);
    EXPECT_TRUE(AreIsomorphic(Core(g), Core(copy))) << "round " << round;
  }
}

TEST(Core, Theorem311MinimalityForSimpleGraphs) {
  // core(G) is the unique minimal graph equivalent to G: no equivalent
  // subgraph can be smaller.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "_:X p a .\n"
                 "a p _:Y .\n"
                 "_:Y p a .\n"
                 "a p a .");
  Graph core = Core(g);
  EXPECT_EQ(core, Data(&dict, "a p a ."));
}

TEST(Core, Theorem311EquivalenceIffIsomorphicCores) {
  Dictionary dict;
  Graph g1 = Data(&dict, "a p _:X .\na p _:Y .");
  Graph g2 = Data(&dict, "a p _:Z .");
  Graph g3 = Data(&dict, "a p b .");
  EXPECT_TRUE(AreIsomorphic(Core(g1), Core(g2)));
  EXPECT_FALSE(AreIsomorphic(Core(g1), Core(g3)));
  EXPECT_TRUE(SimpleEquivalent(g1, g2));
  EXPECT_FALSE(SimpleEquivalent(g1, g3));
}

TEST(Core, IdempotentOnRandomGraphs) {
  // core(core(g)) = core(g): the core is lean, so the second pass finds
  // no proper endomorphism and returns its input unchanged.
  Dictionary dict;
  Rng rng(17);
  RandomGraphSpec spec;
  spec.num_nodes = 9;
  spec.num_triples = 16;
  spec.blank_ratio = 0.6;
  for (int round = 0; round < 15; ++round) {
    Graph core = Core(RandomSimpleGraph(spec, &dict, &rng));
    EXPECT_EQ(Core(core), core) << "round " << round;
  }
}

TEST(Core, WitnessFoldsRandomGraphsOntoCore) {
  Dictionary dict;
  Rng rng(29);
  RandomGraphSpec spec;
  spec.num_nodes = 8;
  spec.num_triples = 14;
  spec.blank_ratio = 0.7;
  for (int round = 0; round < 15; ++round) {
    Graph g = RandomSimpleGraph(spec, &dict, &rng);
    TermMap witness;
    Graph core = Core(g, &witness);
    EXPECT_EQ(witness.Apply(g), core) << "round " << round;
    EXPECT_TRUE(core.IsSubgraphOf(g)) << "round " << round;
    EXPECT_TRUE(IsLean(core)) << "round " << round;
  }
  // Multi-component inputs: each round folds some components and proves
  // the rest lean, so the cached refutations are exercised too.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Dictionary blob_dict;
    Graph g = MultiComponentGraph(seed, &blob_dict);
    TermMap witness;
    CoreStats stats;
    Result<Graph> core = CoreChecked(g, MatchOptions(), &witness, &stats);
    ASSERT_TRUE(core.ok()) << "seed " << seed;
    EXPECT_EQ(witness.Apply(g), *core) << "seed " << seed;
    EXPECT_TRUE(core->IsSubgraphOf(g)) << "seed " << seed;
    EXPECT_TRUE(IsLean(*core)) << "seed " << seed;
    EXPECT_EQ(stats.iterations, stats.folds + 1) << "seed " << seed;
    Result<std::optional<TermMap>> fold = FindProperEndomorphism(g);
    ASSERT_TRUE(fold.ok()) << "seed " << seed;
    EXPECT_EQ(fold->has_value(), core->size() < g.size()) << "seed " << seed;
  }
}

TEST(BlankComponents, GroupsByConnectedBlanks) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:X .\n"
                 "_:X q _:Y .\n"  // X–Y share a triple: one component
                 "b p c .\n"      // ground: in no component
                 "a p _:Z .");    // Z alone: second component
  std::vector<std::vector<Triple>> components = BlankComponents(g);
  Term a = dict.Iri("a");
  Term p = dict.Iri("p");
  Term q = dict.Iri("q");
  Term x = dict.Blank("X");
  Term y = dict.Blank("Y");
  Term z = dict.Blank("Z");
  ASSERT_EQ(components.size(), 2u);
  // Pinned order: components appear in order of their first triple in
  // g's (sorted) triple order, and "a p _:Z" sorts before "_:X q _:Y".
  EXPECT_EQ(components[0],
            (std::vector<Triple>{Triple(a, p, x), Triple(x, q, y)}));
  EXPECT_EQ(components[1], std::vector<Triple>{Triple(a, p, z)});
}

TEST(BlankComponents, PartitionsNonGroundTriples) {
  // Every non-ground triple lands in exactly one component, ground
  // triples in none, and no blank spans two components.
  Dictionary dict;
  Rng rng(41);
  RandomGraphSpec spec;
  spec.num_nodes = 10;
  spec.num_triples = 20;
  spec.blank_ratio = 0.5;
  for (int round = 0; round < 10; ++round) {
    Graph g = RandomSimpleGraph(spec, &dict, &rng);
    std::vector<std::vector<Triple>> components = BlankComponents(g);
    std::set<Triple> seen;
    std::set<Term> seen_blanks;
    for (const std::vector<Triple>& component : components) {
      ASSERT_FALSE(component.empty());
      std::set<Term> blanks;
      for (const Triple& t : component) {
        EXPECT_FALSE(t.IsGround());
        EXPECT_TRUE(g.Contains(t));
        EXPECT_TRUE(seen.insert(t).second) << "triple in two components";
        for (Term term : {t.s, t.p, t.o}) {
          if (term.IsBlank()) blanks.insert(term);
        }
      }
      for (Term b : blanks) {
        EXPECT_TRUE(seen_blanks.insert(b).second)
            << "blank shared across components";
      }
    }
    size_t non_ground = 0;
    for (const Triple& t : g) {
      if (!t.IsGround()) ++non_ground;
    }
    EXPECT_EQ(seen.size(), non_ground) << "round " << round;
  }
}

TEST(BlankComponents, DeepBlankChainDoesNotOverflowTheStack) {
  // Regression: the union-find `find` used to be recursive, and a
  // 10k-blank chain unioned into one long parent path blew the stack.
  // The iterative, path-compressing find must handle it.
  Dictionary dict;
  Graph g = BlankChain(10000, dict.Iri("p"), &dict);
  std::vector<std::vector<Triple>> components = BlankComponents(g);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), g.size());
}

// The full-walk partition BlankComponents reads by blank runs instead:
// union-find over every triple of g in (s,p,o) order, components in
// order of first appearance.
std::vector<std::vector<Triple>> FullWalkBlankComponents(const Graph& g) {
  std::map<Term, Term> parent;
  std::function<Term(Term)> find = [&](Term x) {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    return it->second = find(it->second);
  };
  for (const Triple& t : g) {
    if (t.s.IsBlank() && t.o.IsBlank()) {
      const Term ra = find(t.s);
      const Term rb = find(t.o);
      if (ra != rb) parent[ra] = rb;
    }
  }
  std::map<Term, size_t> index;
  std::vector<std::vector<Triple>> out;
  for (const Triple& t : g) {
    if (t.IsGround()) continue;
    const auto [it, fresh] =
        index.try_emplace(find(t.s.IsBlank() ? t.s : t.o), out.size());
    if (fresh) out.emplace_back();
    out[it->second].push_back(t);
  }
  return out;
}

TEST(BlankComponents, BlankRunsMatchTheFullWalk) {
  // Blank subjects only, blank objects only, and both, each over enough
  // ground triples to span many leaves on either side of the blank run.
  Dictionary dict;
  for (int shape = 0; shape < 3; ++shape) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 31 + static_cast<uint64_t>(shape));
      std::vector<Term> iris, blanks;
      for (int i = 0; i < 60; ++i) {
        iris.push_back(dict.Iri("bc" + std::to_string(i)));
        blanks.push_back(dict.Blank("bc" + std::to_string(i)));
      }
      const bool blank_s = shape != 1;
      const bool blank_o = shape != 0;
      Graph g;
      for (int i = 0; i < 6000; ++i) {
        const Term p = iris[rng.Below(4)];
        Term s = iris[rng.Below(iris.size())];
        Term o = iris[rng.Below(iris.size())];
        if (rng.Below(8) == 0) {
          if (blank_s && (!blank_o || rng.Below(2) == 0)) {
            s = blanks[rng.Below(blanks.size())];
          }
          if (blank_o && (!blank_s || rng.Below(2) == 0 || !s.IsBlank())) {
            o = blanks[rng.Below(blanks.size())];
          }
        }
        g.Insert(Triple(s, p, o));
      }
      const std::vector<std::vector<Triple>> want = FullWalkBlankComponents(g);
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(BlankComponents(g), want) << "shape " << shape;
      // A closure whose permutation spines are already built reads the
      // same runs.
      g.WarmIndexes();
      EXPECT_EQ(BlankComponents(g), want) << "shape " << shape;
    }
  }
  Graph ground;
  ground.Insert(Triple(dict.Iri("g1"), dict.Iri("g2"), dict.Iri("g3")));
  EXPECT_TRUE(BlankComponents(ground).empty());
  EXPECT_TRUE(BlankComponents(Graph()).empty());
}

TEST(Core, BudgetAwareVariantReportsExhaustion) {
  Dictionary dict;
  Rng rng(5);
  RandomGraphSpec spec;
  spec.num_nodes = 12;
  spec.num_triples = 30;
  spec.blank_ratio = 1.0;
  Graph g = RandomSimpleGraph(spec, &dict, &rng);
  MatchOptions options;
  options.max_steps = 1;
  Result<Graph> r = CoreChecked(g, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kLimitExceeded);

  // Budgets from 1 step up: CoreChecked either returns a lean graph the
  // witness folds g onto, or LimitExceeded — never anything else — and
  // the same budget always yields the same outcome and step count.
  const std::vector<uint64_t> budgets = {1, 4, 32, 256, 2048, 50'000'000};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Dictionary blob_dict;
    Graph blobs = MultiComponentGraph(seed, &blob_dict);
    for (uint64_t budget : budgets) {
      MatchOptions limited;
      limited.max_steps = budget;
      TermMap witness;
      CoreStats stats;
      Result<Graph> core = CoreChecked(blobs, limited, &witness, &stats);
      if (core.ok()) {
        EXPECT_EQ(witness.Apply(blobs), *core)
            << "seed " << seed << " budget " << budget;
        EXPECT_TRUE(IsLean(*core)) << "seed " << seed << " budget " << budget;
      } else {
        EXPECT_EQ(core.status().code(), StatusCode::kLimitExceeded)
            << "seed " << seed << " budget " << budget;
      }
      if (budget == budgets.back()) {
        EXPECT_TRUE(core.ok()) << "seed " << seed;
      }
      CoreStats again;
      Result<Graph> rerun = CoreChecked(blobs, limited, nullptr, &again);
      ASSERT_EQ(rerun.ok(), core.ok());
      if (core.ok()) {
        EXPECT_EQ(rerun->triples(), core->triples());
      }
      EXPECT_EQ(again.steps_used, stats.steps_used);
      EXPECT_EQ(again.folds, stats.folds);
      EXPECT_EQ(again.components_searched, stats.components_searched);
    }
  }
}

TEST(CoreInPlace, MatchesCopyPerFoldOracleOnMultiComponentInputs) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Dictionary dict;
    ExpectCoreParity(MultiComponentGraph(seed, &dict), MatchOptions(),
                     "seed " + std::to_string(seed));
  }
}

TEST(CoreInPlace, FoldThatSplitsAComponentRepartitionsTheSurvivors) {
  // One component: _:x and _:y both hang off a and off _:z. The fold
  // _:z → a drops the two _:z triples, and the survivors fall apart into
  // an _:x piece and a _:y piece, which the next round must search as
  // two components, in first-appearance order.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a p _:x .\n"
                 "a p _:y .\n"
                 "_:z p _:x .\n"
                 "_:z p _:y .\n"
                 "_:x p _:x .\n"
                 "_:y p a .");
  ASSERT_EQ(BlankComponents(g).size(), 1u);
  CoreStats stats;
  Result<Graph> core = CoreChecked(g, MatchOptions(), nullptr, &stats);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(BlankComponents(*core).size(), 2u);
  EXPECT_EQ(stats.components_searched, 3u);  // 1 before the fold, 2 after
  ExpectCoreParity(g, MatchOptions(), "split");
}

TEST(CoreInPlace, MatchesCopyPerFoldOracleAcrossBudgets) {
  // Small budgets end in LimitExceeded part-way through the folding
  // sequence; both loops must stop at the same round with the same
  // counters.
  const std::vector<uint64_t> budgets = {1, 4, 32, 256, 2048, 50'000'000};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Dictionary dict;
    Graph g = MultiComponentGraph(seed, &dict);
    for (uint64_t budget : budgets) {
      MatchOptions limited;
      limited.max_steps = budget;
      ExpectCoreParity(g, limited,
                       "seed " + std::to_string(seed) + " budget " +
                           std::to_string(budget));
    }
  }
}

TEST(CoreInPlace, MatchesCopyPerFoldOracleOnSp2bBlankClosures) {
  uint64_t folds = 0;
  for (uint64_t triples : {2'000u, 10'000u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Dictionary dict;
      Graph cl = Sp2bBlankClosure(triples, seed, &dict);
      ExpectCoreParity(cl, MatchOptions(),
                       std::to_string(triples) + " triples, seed " +
                           std::to_string(seed));
      CoreStats stats;
      ASSERT_TRUE(CoreChecked(cl, MatchOptions(), nullptr, &stats).ok());
      folds += stats.folds;
    }
  }
  EXPECT_GT(folds, 0u);  // the corpora really exercise folding
}

TEST(CoreInPlace, InputGraphIsNeverWritten) {
  // The core starts as a leaf-sharing copy of its input and erases in
  // place; every erase must clone the shared leaf, never write through.
  Dictionary dict;
  std::vector<Graph> inputs;
  inputs.push_back(Sp2bBlankClosure(2'000, 1, &dict));
  for (uint64_t seed = 0; seed < 6; ++seed) {
    inputs.push_back(MultiComponentGraph(seed, &dict));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    g.WarmIndexes();
    const Graph before = g;
    Result<Graph> core = CoreChecked(g, MatchOptions());
    ASSERT_TRUE(core.ok()) << "input " << i;
    EXPECT_EQ(g, before) << "input " << i;
    const SpineSharing sharing = g.SharedLeaves(before);
    EXPECT_EQ(sharing.shared, sharing.total) << "input " << i;
    EXPECT_GT(sharing.total, 0u) << "input " << i;
  }
}

TEST(CoreInPlace, SnapshotNfBuildPatchesTheClosureInsteadOfRebuilding) {
  // nf = core(cl) is built from a copy of the snapshot's warmed closure
  // by erasure: no permutation spine is rebuilt (the copy inherits the
  // closure's rebuild counter, so equal counters mean zero rebuilds),
  // and the nf shares most of its leaves with the closure.
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 10'000;
  spec.seed = 1;
  spec.blank_author_fraction = 0.1;
  Sp2bGenerator gen(spec, &dict);
  Database db(&dict);
  db.InsertGraph(gen.GenerateCorpus());
  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  const Graph& cl = snap->closure();
  const uint64_t rebuilds = cl.Stats().index_rebuilds;
  const Graph& nf = snap->normalized();
  EXPECT_LT(nf.size(), cl.size());  // the build really folded
  EXPECT_EQ(nf, Core(RdfsClosure(snap->data())));
  EXPECT_EQ(cl.Stats().index_rebuilds, rebuilds);
  EXPECT_EQ(nf.Stats().index_rebuilds, rebuilds);
  EXPECT_TRUE(nf.Stats().indexes_built);
  const SpineSharing sharing = nf.SharedLeaves(cl);
  EXPECT_GT(2 * sharing.shared, sharing.total)
      << sharing.shared << " of " << sharing.total << " leaves shared";
}

// ---------------------------------------------------------------------------
// A core referee that shares no code with PatternMatcher: on graphs with
// at most six blanks it tries every map of the blanks into the graph's
// terms, keeps the endomorphisms (image ⊆ g), and records the smallest
// image and whether some endomorphism sends g exactly onto a candidate.

struct BruteForceEndomorphisms {
  size_t smallest_image = 0;
  bool onto_candidate = false;
};

BruteForceEndomorphisms BruteForce(const Graph& g,
                                   const std::vector<Triple>& candidate) {
  const std::vector<Triple> triples = g.triples();  // sorted
  const std::vector<Term> blanks = g.BlankNodes();  // sorted
  const std::vector<Term> terms = g.Universe();
  const auto value_of = [&](Term x, const std::vector<size_t>& choice) {
    if (!x.IsBlank()) return x;
    const size_t b = static_cast<size_t>(
        std::lower_bound(blanks.begin(), blanks.end(), x) - blanks.begin());
    return terms[choice[b]];
  };
  BruteForceEndomorphisms out;
  out.smallest_image = triples.size();
  std::vector<size_t> choice(blanks.size(), 0);
  std::vector<Triple> image;
  for (;;) {
    image.clear();
    bool inside = true;
    for (const Triple& t : triples) {
      const Triple u(value_of(t.s, choice), value_of(t.p, choice),
                     value_of(t.o, choice));
      if (!std::binary_search(triples.begin(), triples.end(), u)) {
        inside = false;
        break;
      }
      image.push_back(u);
    }
    if (inside) {
      std::sort(image.begin(), image.end());
      image.erase(std::unique(image.begin(), image.end()), image.end());
      out.smallest_image = std::min(out.smallest_image, image.size());
      out.onto_candidate = out.onto_candidate || image == candidate;
    }
    size_t b = 0;  // next choice vector, odometer order
    while (b < choice.size() && ++choice[b] == terms.size()) choice[b++] = 0;
    if (b == choice.size()) break;
  }
  return out;
}

TEST(CoreReferee, CoreIsTheSmallestEndomorphicImageOfTheGraph) {
  RandomGraphSpec spec;
  spec.num_nodes = 7;
  spec.num_triples = 10;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.6;
  size_t checked = 0;
  size_t folded = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Dictionary dict;
    Rng rng(seed * 31 + 7);
    const Graph g = RandomSimpleGraph(spec, &dict, &rng);
    if (g.BlankNodes().size() > 6) continue;
    const Graph core = Core(g);
    const std::vector<Triple> core_triples = core.triples();
    EXPECT_TRUE(core.IsSubgraphOf(g)) << "seed " << seed;
    const BruteForceEndomorphisms referee = BruteForce(g, core_triples);
    EXPECT_TRUE(referee.onto_candidate) << "seed " << seed;
    EXPECT_EQ(core.size(), referee.smallest_image) << "seed " << seed;
    ++checked;
    folded += core.size() < g.size() ? 1 : 0;
  }
  EXPECT_GE(checked, 30u);
  EXPECT_GT(folded, 0u);            // some graphs fold,
  EXPECT_LT(folded, checked);       // and some are lean
}

TEST(CoreReferee, StarComponentStepsAreLinearInItsSize) {
  // One blank author on k papers: a lean k-triple component. Each probe
  // is refuted at its root node: the blank's own image binds the
  // excluded pattern triple to itself and ends there, and a coauthor
  // image empties some sibling triple's cursor run. So the refutation
  // costs one step per triple instead of a walk through the star.
  for (uint32_t k : {16u, 64u, 256u}) {
    Dictionary dict;
    const Graph g = BlankAuthorStar(k, &dict);
    ASSERT_EQ(BlankComponents(g).size(), 1u);
    ASSERT_EQ(BlankComponents(g)[0].size(), k);
    CoreStats stats;
    Result<Graph> core = CoreChecked(g, MatchOptions(), nullptr, &stats);
    ASSERT_TRUE(core.ok());
    EXPECT_EQ(*core, g) << k;
    EXPECT_EQ(stats.folds, 0u) << k;
    EXPECT_EQ(stats.components_searched, 1u) << k;
    EXPECT_EQ(stats.steps_used, uint64_t{k}) << k;
  }
}

}  // namespace
}  // namespace swdb
