// The materialized pre-answer view layer: ViewKey canonicalization
// (isomorphic query shapes share one key), ViewCache lookup/install/
// maintenance through the Database pipeline, and the soundness fuzz —
// cached PreAnswer must be bit-identical to from-scratch evaluation
// after every interleaved mutation.

#include "query/view_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "query/answer.h"
#include "query/database.h"
#include "query/query.h"
#include "query/union_query.h"
#include "query/view_cache.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Q;

// ---------------------------------------------------------------------------
// Canonicalization

TEST(ViewKey, IsomorphicQueriesShareAKey) {
  Dictionary dict;
  Query a = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X p ?Y .\nbody: ?Y q ?Z .\n");
  Query b = Q(&dict,
              "head: ?U p ?V .\n"
              "body: ?U p ?V .\nbody: ?V q ?W .\n");
  CanonicalQuery ca, cb;
  EXPECT_EQ(MakeViewKey(a, &ca), MakeViewKey(b, &cb));
  EXPECT_TRUE(ca.renamed);
  // Equal keys literally share one canonical spelling.
  EXPECT_EQ(ca.query.body, cb.query.body);
  EXPECT_EQ(ca.query.head, cb.query.head);
}

TEST(ViewKey, BodyTripleOrderDoesNotMatter) {
  Dictionary dict;
  Query a = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?X p ?Y .\nbody: ?Y q ?Z .\n");
  Query b = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?Y q ?Z .\nbody: ?X p ?Y .\n");
  EXPECT_EQ(MakeViewKey(a), MakeViewKey(b));
}

TEST(ViewKey, DifferentShapesGetDifferentKeys) {
  Dictionary dict;
  Query chain = Q(&dict,
                  "head: ?X r ?Z .\n"
                  "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  Query fork = Q(&dict,
                 "head: ?X r ?Z .\n"
                 "body: ?X p ?Y .\nbody: ?X p ?Z .\n");
  Query constant = Q(&dict,
                     "head: ?X r ?Z .\n"
                     "body: ?X p ?Y .\nbody: ?Y q ?Z .\n");
  EXPECT_NE(MakeViewKey(chain), MakeViewKey(fork));
  EXPECT_NE(MakeViewKey(chain), MakeViewKey(constant));
}

TEST(ViewKey, ConstraintOrderDoesNotMatterButPresenceDoes) {
  Dictionary dict;
  Query a = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X p ?Y .\n"
              "bind: ?X ?Y\n");
  // The same query with the constraint list in the other order (built
  // by hand — the parser normalizes the order itself).
  Query b = a;
  std::reverse(b.constraints.begin(), b.constraints.end());
  Query without = Q(&dict,
                    "head: ?X p ?Y .\n"
                    "body: ?X p ?Y .\n"
                    "bind: ?X\n");
  EXPECT_EQ(MakeViewKey(a), MakeViewKey(b));
  EXPECT_NE(MakeViewKey(a), MakeViewKey(without));
}

TEST(ViewKey, HeadBlankQueriesKeyOnExactSpelling) {
  Dictionary dict;
  // Skolemization keys on the concrete head blank and the concrete
  // sorted-variable tuple, so these shapes must not be renamed.
  Query a = Q(&dict,
              "head: ?X knows _:b .\n"
              "body: ?X p ?Y .\n");
  Query iso = Q(&dict,
                "head: ?U knows _:b .\n"
                "body: ?U p ?V .\n");
  CanonicalQuery ca;
  ViewKey ka = MakeViewKey(a, &ca);
  EXPECT_FALSE(ca.renamed);
  // The exact same spelling still shares.
  EXPECT_EQ(ka, MakeViewKey(a));
  // The isomorphic respelling must NOT share a key (its Skolem mints
  // would differ).
  EXPECT_NE(ka, MakeViewKey(iso));
}

TEST(ViewKey, PremiseIsPartOfTheKey) {
  Dictionary dict;
  Query bare = Q(&dict,
                 "head: ?X p ?Y .\n"
                 "body: ?X p ?Y .\n");
  Query with = Q(&dict,
                 "head: ?X p ?Y .\n"
                 "body: ?X p ?Y .\n"
                 "premise: a p b .\n");
  EXPECT_NE(MakeViewKey(bare), MakeViewKey(with));
}

// ---------------------------------------------------------------------------
// The Database pipeline through the cache

EvalOptions EagerViews() {
  EvalOptions options;
  options.views.promote_after = 1;  // materialize on first sight
  return options;
}

TEST(ViewCacheDatabase, RepeatedShapeHitsAndStaysBitIdentical) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\nc p d .\n").ok());
  Query q = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  Result<std::vector<Graph>> first = db.PreAnswer(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 2u);
  Result<std::vector<Graph>> second = db.PreAnswer(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);

  // An isomorphic respelling is served from the same view.
  Query iso = Q(&dict,
                "head: ?A r ?C .\n"
                "body: ?B p ?C .\nbody: ?A p ?B .\n");
  Result<std::vector<Graph>> third = db.PreAnswer(iso);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*first, *third);

  DatabaseStats stats = db.CollectStats();
  EXPECT_EQ(stats.views.installs, 1u);
  EXPECT_GE(stats.views.hits, 2u);
  EXPECT_EQ(stats.views.entries, 1u);
}

TEST(ViewCacheDatabase, DisabledViewsNeverCache) {
  Dictionary dict;
  EvalOptions options;
  options.views.enabled = false;
  Database db(&dict, options);
  ASSERT_TRUE(db.InsertText("a p b .\n").ok());
  Query q = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X p ?Y .\n");
  ASSERT_TRUE(db.PreAnswer(q).ok());
  ASSERT_TRUE(db.PreAnswer(q).ok());
  DatabaseStats stats = db.CollectStats();
  EXPECT_EQ(stats.views.hits, 0u);
  EXPECT_EQ(stats.views.installs, 0u);
  EXPECT_EQ(stats.views.entries, 0u);
}

TEST(ViewCacheDatabase, InsertPatchesInsteadOfRecomputing) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\n").ok());
  Query q = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  ASSERT_TRUE(db.PreAnswer(q).ok());  // installs the view

  // A relevant insert: the view must be patched, not dropped, and the
  // patched answers must equal from-scratch evaluation.
  db.Insert(Triple(dict.Iri("c"), dict.Iri("p"), dict.Iri("d")));
  Result<std::vector<Graph>> cached = db.PreAnswer(q);
  ASSERT_TRUE(cached.ok());
  Result<std::vector<Graph>> scratch = db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(*cached, *scratch);

  DatabaseStats stats = db.CollectStats();
  EXPECT_GE(stats.views.patches, 1u);
  EXPECT_EQ(stats.views.invalidations, 0u);
  EXPECT_GE(stats.views.patch_added, 1u);
  EXPECT_GE(stats.views.hits, 1u);
}

TEST(ViewCacheDatabase, UnrelatedInsertRevalidates) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\n").ok());
  Query q = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X p ?Y .\n");
  ASSERT_TRUE(db.PreAnswer(q).ok());
  // No delta triple can unify with (?X p ?Y)'s predicate constant.
  db.Insert(Triple(dict.Iri("x"), dict.Iri("q"), dict.Iri("y")));
  ASSERT_TRUE(db.PreAnswer(q).ok());
  DatabaseStats stats = db.CollectStats();
  EXPECT_GE(stats.views.revalidations, 1u);
  EXPECT_GE(stats.views.hits, 1u);
}

TEST(ViewCacheDatabase, ErasePatchesAndStaysSound) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\nc p d .\n").ok());
  Query q = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  Result<std::vector<Graph>> before = db.PreAnswer(q);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 2u);

  db.Erase(Triple(dict.Iri("b"), dict.Iri("p"), dict.Iri("c")));
  Result<std::vector<Graph>> cached = db.PreAnswer(q);
  ASSERT_TRUE(cached.ok());
  Result<std::vector<Graph>> scratch = db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(*cached, *scratch);
  EXPECT_TRUE(cached->empty());

  DatabaseStats stats = db.CollectStats();
  EXPECT_GE(stats.views.patch_removed, 1u);
}

TEST(ViewCacheDatabase, EraseEmptyingTheNfPatchesViewsToEmpty) {
  // Maintain across an erase delta that removes *every* nf triple: the
  // diff's removed set is the whole base nf, every stored matching loses
  // its image, and the patched view must be the empty answer vector —
  // not an invalidation, not a stale replay, not a crash on the empty
  // added set.
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\nc p d .\n").ok());
  Query q = Q(&dict,
              "head: ?X r ?Z .\n"
              "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  Result<std::vector<Graph>> before = db.PreAnswer(q);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 2u);  // view installed with live matchings

  const Term p = dict.Iri("p");
  db.Erase(Triple(dict.Iri("a"), p, dict.Iri("b")));
  db.Erase(Triple(dict.Iri("b"), p, dict.Iri("c")));
  db.Erase(Triple(dict.Iri("c"), p, dict.Iri("d")));
  EXPECT_EQ(db.size(), 0u);

  Result<std::vector<Graph>> cached = db.PreAnswer(q);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->empty());
  Result<std::vector<Graph>> scratch = db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(*cached, *scratch);

  DatabaseStats stats = db.CollectStats();
  EXPECT_GE(stats.views.patches, 1u);
  EXPECT_GE(stats.views.patch_removed, 2u);
  EXPECT_EQ(stats.views.invalidations, 0u);
  EXPECT_EQ(stats.views.entries, 1u);  // the emptied view stays resident

  // And the emptied view still patches back up when data returns.
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\n").ok());
  Result<std::vector<Graph>> revived = db.PreAnswer(q);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->size(), 1u);
  Result<std::vector<Graph>> scratch2 =
      db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch2.ok());
  EXPECT_EQ(*revived, *scratch2);
}

TEST(ViewCacheDatabase, ProjectedAnswerLivesUntilItsLastMatchingDies) {
  // "a has p" is derived by two matchings (Y = b and Y = c): it must
  // survive the first one's death and go with the second's. Then one
  // commit erases and inserts at once.
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\na p c .\nd p e .\n").ok());
  Query q = Q(&dict,
              "head: ?X has p .\n"
              "body: ?X p ?Y .\n");
  auto expect_fresh = [&](size_t size) {
    Result<std::vector<Graph>> cached = db.PreAnswer(q);
    ASSERT_TRUE(cached.ok());
    Result<std::vector<Graph>> scratch =
        db.evaluator()->PreAnswer(q, db.graph());
    ASSERT_TRUE(scratch.ok());
    EXPECT_EQ(*cached, *scratch);
    EXPECT_EQ(cached->size(), size);
  };
  expect_fresh(2);  // installs the view
  const Term a = dict.Iri("a");
  const Term p = dict.Iri("p");
  db.Erase(Triple(a, p, dict.Iri("b")));
  expect_fresh(2);
  db.Erase(Triple(a, p, dict.Iri("c")));
  expect_fresh(1);
  MutationBatch batch;
  batch.Insert(Triple(a, p, dict.Iri("f")));
  batch.Erase(Triple(dict.Iri("d"), p, dict.Iri("e")));
  db.Apply(batch);
  expect_fresh(1);

  DatabaseStats stats = db.CollectStats();
  EXPECT_EQ(stats.views.installs, 1u);
  EXPECT_GE(stats.views.patches, 3u);
  EXPECT_EQ(stats.views.invalidations, 0u);
  EXPECT_EQ(stats.views.hits, 3u);  // every read after the install
}

TEST(ViewCacheDatabase, HeadBlankAnswersReplayTheSameSkolemMints) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nc p d .\n").ok());
  Query q = Q(&dict,
              "head: ?X knows _:w .\n"
              "body: ?X p ?Y .\n");
  Result<std::vector<Graph>> first = db.PreAnswer(q);
  ASSERT_TRUE(first.ok());
  // The cached replay must carry the very same minted blank ids.
  Result<std::vector<Graph>> second = db.PreAnswer(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  Result<std::vector<Graph>> scratch = db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(*first, *scratch);
  EXPECT_GE(db.CollectStats().views.hits, 1u);
}

TEST(ViewCacheDatabase, BulkLoadResetClearsTheCache) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\n").ok());
  Query q = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X p ?Y .\n");
  ASSERT_TRUE(db.PreAnswer(q).ok());
  ASSERT_EQ(db.CollectStats().views.entries, 1u);

  // A bulk insert larger than half the closure drops the closure
  // incarnation; the view cache must go with it (version counters
  // restart) and the next answers must still be correct.
  std::vector<Triple> bulk;
  for (int i = 0; i < 64; ++i) {
    bulk.emplace_back(dict.Iri("n" + std::to_string(i)), dict.Iri("p"),
                      dict.Iri("n" + std::to_string(i + 1)));
  }
  db.InsertGraph(Graph(std::move(bulk)));
  DatabaseStats mid = db.CollectStats();
  EXPECT_GE(mid.views.clears, 1u);
  EXPECT_EQ(mid.views.entries, 0u);

  Result<std::vector<Graph>> cached = db.PreAnswer(q);
  ASSERT_TRUE(cached.ok());
  Result<std::vector<Graph>> scratch = db.evaluator()->PreAnswer(q, db.graph());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(*cached, *scratch);
  EXPECT_EQ(cached->size(), 65u);
}

TEST(ViewCacheDatabase, AnswerUnionSharesThePreAnswerMaterialization) {
  Dictionary dict;
  Database db(&dict, EagerViews());
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\n").ok());
  Query q = Q(&dict,
              "head: ?X r ?Y .\n"
              "body: ?X p ?Y .\n");
  ASSERT_TRUE(db.PreAnswer(q).ok());  // materializes the view
  ASSERT_TRUE(db.AnswerUnion(q).ok());
  ASSERT_TRUE(db.AnswerMerge(q).ok());
  // Both answer forms were served from the one materialization.
  EXPECT_GE(db.CollectStats().views.hits, 2u);
}

// ---------------------------------------------------------------------------
// Union queries through the database (one batch, pinned merge)

TEST(ViewCacheDatabase, UnionQueryMatchesViewlessTwin) {
  Dictionary dict;
  Dictionary dict_views;
  std::string text =
      "a p b .\nb p c .\nc q d .\na sc b .\nb sc c .\nx type a .\n";
  auto build_union = [](Dictionary* d) {
    UnionQuery out;
    out.branches.push_back(Q(d,
                             "head: ?X r ?Y .\n"
                             "body: ?X p ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X r ?Z .\n"
                             "body: ?X p ?Y .\nbody: ?Y q ?Z .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X anc ?Z .\n"
                             "body: ?X sc ?Z .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X madeOf _:stuff .\n"
                             "body: ?X type ?Y .\n"));
    return out;
  };

  EvalOptions no_views;
  no_views.views.enabled = false;
  Database plain(&dict, no_views);
  ASSERT_TRUE(plain.InsertText(text).ok());
  Result<std::vector<Graph>> reference = plain.PreAnswer(build_union(&dict));
  ASSERT_TRUE(reference.ok());

  Database db(&dict_views, EagerViews());
  ASSERT_TRUE(db.InsertText(text).ok());
  Result<std::vector<Graph>> first = db.PreAnswer(build_union(&dict_views));
  ASSERT_TRUE(first.ok());

  // Same dictionaries interned the same text in the same order, so the
  // graphs must be bit-identical with and without the view layer.
  EXPECT_EQ(*reference, *first);
  // And re-asking hits the views built on the first pass.
  Result<std::vector<Graph>> again = db.PreAnswer(build_union(&dict_views));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *again);
  EXPECT_GE(db.CollectStats().views.hits, 3u);
}

TEST(UnionQueryFreeFunction, MatchesBranchByBranchBitForBit) {
  const std::string data_text = "a p b .\nb p c .\na sc b .\nx type a .\n";
  auto build_union = [](Dictionary* d) {
    UnionQuery out;
    out.branches.push_back(Q(d,
                             "head: ?X r ?Y .\n"
                             "body: ?X p ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X anc ?Y .\n"
                             "body: ?X sc ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X has _:thing .\n"
                             "body: ?X type ?Y .\n"));
    return out;
  };

  Dictionary dict;
  Graph data = swdb::testing::Data(&dict, data_text);
  QueryEvaluator evaluator(&dict);
  const UnionQuery q = build_union(&dict);
  Result<std::vector<Graph>> batched = PreAnswerUnionQuery(&evaluator, q, data);
  ASSERT_TRUE(batched.ok());

  // Branch by branch, in order, on the same evaluator (whose Skolem
  // cache makes the head-blank mints comparable).
  std::vector<Result<std::vector<Graph>>> parts;
  for (const Query& branch : q.branches) {
    parts.push_back(evaluator.PreAnswer(branch, data));
  }
  Result<std::vector<Graph>> one_by_one = CombineBranches(std::move(parts));
  ASSERT_TRUE(one_by_one.ok());
  EXPECT_EQ(*batched, *one_by_one);

  Result<Graph> union_graph = AnswerUnionQuery(&evaluator, q, data);
  ASSERT_TRUE(union_graph.ok());
  Graph expected;
  for (const Graph& g : *batched) expected.InsertAll(g);
  EXPECT_EQ(*union_graph, expected);
}

// ---------------------------------------------------------------------------
// Soundness fuzz: cached == from-scratch after every mutation

std::vector<Term> Universe(Dictionary* dict) {
  return {
      dict->Iri("u:a"), dict->Iri("u:b"), dict->Iri("u:c"),
      dict->Iri("u:d"), dict->Iri("u:p"), dict->Iri("u:q"),
      dict->Iri("u:x"), dict->Blank("uB1"), dict->Blank("uB2"),
  };
}

Triple RandomTriple(const std::vector<Term>& universe, Rng* rng,
                    double schema_bias) {
  for (;;) {
    Term s = universe[rng->Below(universe.size())];
    Term o = universe[rng->Below(universe.size())];
    Term p;
    if (rng->Next() % 100 < static_cast<uint64_t>(schema_bias * 100)) {
      p = vocab::kAll[rng->Below(vocab::kReservedIris)];
    } else {
      p = universe[rng->Below(universe.size())];
    }
    Triple t(s, p, o);
    if (t.IsWellFormedData()) return t;
  }
}

std::vector<Query> FuzzQueries(Dictionary* dict) {
  std::vector<Query> queries;
  queries.push_back(Q(dict,
                      "head: ?X hasP ?Y .\n"
                      "body: ?X u:p ?Y .\n"));
  queries.push_back(Q(dict,
                      "head: ?X twoStep ?Z .\n"
                      "body: ?X u:p ?Y .\nbody: ?Y u:p ?Z .\n"));
  queries.push_back(Q(dict,
                      "head: ?X selfLoop ?X .\n"
                      "body: ?X ?P ?X .\n"));
  queries.push_back(Q(dict,
                      "head: ?X below ?Y .\n"
                      "body: ?X sc ?Y .\n"));
  // Head blank: Skolem replay must be exact.
  queries.push_back(Q(dict,
                      "head: ?X madeOf _:m .\n"
                      "body: ?X u:q ?Y .\n"));
  // Constraint: blank-valued matchings must stay filtered after patches.
  queries.push_back(Q(dict,
                      "head: ?X seen ?Y .\n"
                      "body: ?X ?P ?Y .\n"
                      "bind: ?Y\n"));
  // Symmetric body over a variable predicate: patch seeds bind
  // variables to blank nf nodes, whose images must stay pinned (the
  // matcher would otherwise remap the blank and admit a matching whose
  // image is not in nf).
  queries.push_back(Q(dict,
                      "head: ?X mutual ?Y .\n"
                      "body: ?X ?P ?Y .\n"
                      "body: ?Y ?P ?X .\n"));
  return queries;
}

TEST(ViewCacheFuzz, CachedEqualsFromScratchAcrossInterleavedMutations) {
  // >= 200 interleaved mutations across seeds (ISSUE 8 acceptance).
  constexpr uint64_t kSeeds = 4;
  constexpr int kMutations = 60;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Dictionary dict;
    Rng rng(seed * 7919);
    Database db(&dict, EagerViews());
    std::vector<Term> universe = Universe(&dict);
    std::vector<Query> queries = FuzzQueries(&dict);

    // Seed data so early queries have answers.
    for (int i = 0; i < 12; ++i) {
      db.Insert(RandomTriple(universe, &rng, 0.4));
    }

    for (int step = 0; step < kMutations; ++step) {
      // Interleave: ~2/3 inserts, ~1/3 erases of a present triple.
      if (rng.Next() % 3 != 0 || db.size() == 0) {
        db.Insert(RandomTriple(universe, &rng, 0.4));
      } else {
        const std::vector<Triple> triples = db.graph().triples();
        db.Erase(triples[rng.Below(triples.size())]);
      }
      for (const Query& q : queries) {
        Result<std::vector<Graph>> cached = db.PreAnswer(q);
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        Result<std::vector<Graph>> scratch =
            db.evaluator()->PreAnswer(q, db.graph());
        ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
        ASSERT_EQ(*cached, *scratch)
            << "seed " << seed << " step " << step << ": cached PreAnswer "
            << "diverged from from-scratch evaluation";
      }
    }

    // The run must actually have exercised the cache paths it claims to
    // test: views were served, patched, and fenced.
    DatabaseStats stats = db.CollectStats();
    EXPECT_GT(stats.views.hits, 0u) << "seed " << seed;
    EXPECT_GT(stats.views.installs, 0u) << "seed " << seed;
    EXPECT_GT(stats.views.patches + stats.views.revalidations, 0u)
        << "seed " << seed;
  }
}

// Projections: several matchings derive one answer, so answers must
// move by their multiplicities. Variable predicates and the blanks of
// the universe give blank-valued seeds.
std::vector<Query> ProjectionQueries(Dictionary* dict) {
  std::vector<Query> queries;
  queries.push_back(Q(dict,
                      "head: ?X hasOut u:x .\n"
                      "body: ?X u:p ?Y .\n"));
  queries.push_back(Q(dict,
                      "head: ?Y reached u:x .\n"
                      "body: ?X ?P ?Y .\nbody: ?Y u:q ?Z .\n"));
  queries.push_back(Q(dict,
                      "head: ?X typed ?C .\n"
                      "body: ?X type ?C .\nbody: ?C sc ?D .\n"));
  queries.push_back(Q(dict,
                      "head: ?P usedOn ?X .\n"
                      "body: ?X ?P ?Y .\n"
                      "bind: ?X\n"));
  return queries;
}

// One materialized view the parity fuzz follows.
struct FollowedView {
  ViewKey key;
  Query canonical;
};

// The stored matchings, answer counts and answers of every followed
// view equal a from-scratch PreAnswerPrenormalized capture on `nf`
// (which mints nothing new: the patch already minted each new
// matching's Skolem blanks).
void ExpectViewsEqualTheMatcher(const ViewCache& cache,
                                const std::vector<FollowedView>& views,
                                QueryEvaluator* evaluator, const Graph& nf,
                                uint64_t version, const std::string& where) {
  for (const FollowedView& v : views) {
    std::optional<Materialization> stored =
        cache.StoredMaterialization(v.key);
    ASSERT_TRUE(stored.has_value()) << where;
    std::optional<std::vector<Graph>> answers =
        cache.Lookup(v.key, version, cache.erase_stamp());
    ASSERT_TRUE(answers.has_value()) << where;
    Materialization want_table;
    Result<std::vector<Graph>> want =
        evaluator->PreAnswerPrenormalized(v.canonical, nf, &want_table);
    ASSERT_TRUE(want.ok()) << where;
    ASSERT_EQ(stored->width, want_table.width) << where;
    ASSERT_EQ(stored->rows, want_table.rows) << where << ": matchings";
    ASSERT_EQ(stored->values, want_table.values) << where << ": matchings";
    ASSERT_EQ(stored->counts, want_table.counts) << where << ": counts";
    ASSERT_EQ(*answers, *want) << where << ": answers";
  }
}

TEST(ViewCacheFuzz, StoredMatchingsAndAnswersEqualTheMatcherAfterMaintain) {
  // A standalone cache driven the way snapshots drive the shared one:
  // adopt the first nf, install every shape, then Maintain across each
  // commit's nf. Commits mix inserts and erases; the database (views
  // off) supplies leaf-sharing closures and in-place nfs.
  constexpr uint64_t kSeeds = 6;
  constexpr int kCommits = 40;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Dictionary dict;
    Rng rng(seed * 104729);
    EvalOptions no_views;
    no_views.views.enabled = false;
    Database db(&dict, no_views);
    QueryEvaluator evaluator(&dict);
    ViewCache cache;
    const MatchOptions match;
    std::vector<Term> universe = Universe(&dict);
    std::vector<Query> queries = FuzzQueries(&dict);
    for (Query& q : ProjectionQueries(&dict)) queries.push_back(std::move(q));

    MutationBatch initial;
    for (int i = 0; i < 16; ++i) {
      initial.Insert(RandomTriple(universe, &rng, 0.4));
    }
    db.Apply(initial);
    uint64_t version = 1;
    Graph nf = db.Snapshot()->normalized();
    cache.Maintain(nf, version, cache.erase_stamp(), &evaluator, match);
    std::vector<FollowedView> views;
    for (const Query& q : queries) {
      CanonicalQuery canon;
      const ViewKey key = MakeViewKey(q, &canon);
      Materialization table;
      Result<std::vector<Graph>> pre =
          evaluator.PreAnswerPrenormalized(canon.query, nf, &table);
      ASSERT_TRUE(pre.ok());
      cache.Install(key, canon.query, std::move(table), *pre, version,
                    cache.erase_stamp());
      views.push_back({key, canon.query});
    }
    ExpectViewsEqualTheMatcher(cache, views, &evaluator, nf, version,
                               "seed " + std::to_string(seed) + " install");

    for (int commit = 0; commit < kCommits; ++commit) {
      MutationBatch batch;
      const std::vector<Triple> present = db.graph().triples();
      const uint64_t erases = present.empty() ? 0 : rng.Below(4);
      for (uint64_t i = 0; i < erases; ++i) {
        batch.Erase(present[rng.Below(present.size())]);
      }
      const uint64_t inserts = rng.Below(4);
      for (uint64_t i = 0; i < inserts; ++i) {
        batch.Insert(RandomTriple(universe, &rng, 0.4));
      }
      if (db.Apply(batch).erased > 0) cache.OnErase();
      ++version;
      nf = db.Snapshot()->normalized();
      cache.Maintain(nf, version, cache.erase_stamp(), &evaluator, match);
      ExpectViewsEqualTheMatcher(
          cache, views, &evaluator, nf, version,
          "seed " + std::to_string(seed) + " commit " +
              std::to_string(commit));
    }

    const ViewCacheStats stats = cache.stats();
    EXPECT_GT(stats.patches, 0u) << "seed " << seed;
    EXPECT_GT(stats.patch_added, 0u) << "seed " << seed;
    EXPECT_GT(stats.patch_removed, 0u) << "seed " << seed;
    EXPECT_EQ(stats.invalidations, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace swdb
