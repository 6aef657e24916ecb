// Batched multi-query evaluation (query/batch.h): PreAnswerBatch must
// be slot for slot bit-identical to calling PreAnswer sequentially —
// same answers, same order, same minted blank ids — across random
// overlapping workloads and the adversarial shapes (no overlap, all
// identical, premise slots, head-blank slots, invalid slots, empty
// batches).

#include "query/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "query/database.h"
#include "query/query.h"
#include "query/union_query.h"
#include "query/view_key.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Q;

// Deterministically rebuilds one seed's workload into a fresh
// dictionary: twin dictionaries fed the same seed intern the same terms
// in the same order, so graphs and answers are comparable bit for bit
// across independent Database instances.
struct Workload {
  Graph data;
  std::vector<Query> queries;
};

Workload BuildWorkload(uint64_t seed, Dictionary* dict) {
  Rng rng(seed * 7919 + 13);
  Workload w;
  RandomGraphSpec gspec;
  gspec.num_nodes = 24;
  gspec.num_triples = 70;
  gspec.num_predicates = 5;
  gspec.blank_ratio = 0.2;
  w.data = RandomSimpleGraph(gspec, dict, &rng);
  QueryMixSpec qspec;
  qspec.num_families = 4;
  qspec.queries_per_family = 5;
  qspec.prefix_size = 2;
  qspec.suffix_size = 1;
  qspec.isomorphic_fraction = 0.3;
  w.queries = OverlappingQueryMix(w.data, qspec, dict, &rng);
  // Shapes the generator never emits: head-blank Skolemization (twice —
  // the identical respelling must dedupe), a premise-bearing slot, and
  // a constraint-filtered shape.
  w.queries.push_back(Q(dict,
                        "head: ?X madeOf _:stuff .\n"
                        "body: ?X urn:p0 ?Y .\n"));
  w.queries.push_back(Q(dict,
                        "head: ?X madeOf _:stuff .\n"
                        "body: ?X urn:p0 ?Y .\n"));
  w.queries.push_back(Q(dict,
                        "head: ?X rel ?Y .\n"
                        "body: ?X kin ?Y .\n"
                        "premise: urn:p1 sp kin .\n"));
  w.queries.push_back(Q(dict,
                        "head: ?X seen ?Y .\n"
                        "body: ?X urn:p1 ?Y .\n"
                        "bind: ?Y\n"));
  return w;
}

// One batched run on its own twin dictionary/database. Returns the per-slot results, the BatchStats,
// and a dictionary end-state probe (the bits of the next fresh blank —
// equal probes mean the runs minted the same number of blanks).
struct BatchRun {
  std::vector<Result<std::vector<Graph>>> results;
  BatchStats stats;
  uint32_t next_blank_bits = 0;
};

BatchRun RunBatched(uint64_t seed) {
  Dictionary dict;
  Database db(&dict, EvalOptions{});
  Workload w = BuildWorkload(seed, &dict);
  db.InsertGraph(w.data);
  BatchRun run;
  run.results = db.PreAnswerBatch(w.queries, &run.stats);
  run.next_blank_bits = dict.FreshBlank().bits();
  return run;
}

TEST(BatchParity, MatchesSequentialFuzz) {
  constexpr uint64_t kSeeds = 20;
  uint64_t total_deduped = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // Reference: the same workload answered by sequential PreAnswer
    // calls on a twin database.
    Dictionary dict_seq;
    Database seq(&dict_seq, EvalOptions{});
    Workload w = BuildWorkload(seed, &dict_seq);
    seq.InsertGraph(w.data);
    std::vector<Result<std::vector<Graph>>> expected;
    for (const Query& q : w.queries) expected.push_back(seq.PreAnswer(q));
    const uint32_t expected_blank = dict_seq.FreshBlank().bits();

    BatchRun run = RunBatched(seed);
    ASSERT_EQ(run.results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(run.results[i].ok(), expected[i].ok())
          << "seed " << seed << " slot " << i;
      if (expected[i].ok()) {
        ASSERT_EQ(*run.results[i], *expected[i])
            << "seed " << seed << " slot " << i;
      }
    }
    // Same Skolem mints ⇒ same dictionary end state.
    EXPECT_EQ(run.next_blank_bits, expected_blank) << "seed " << seed;
    EXPECT_EQ(run.stats.queries, w.queries.size());
    EXPECT_EQ(run.stats.premise_fallthroughs, 1u);
    EXPECT_GE(run.stats.deduped, 1u);  // the repeated head-blank slot
    total_deduped += run.stats.deduped;
  }
  // The fuzz must actually drive isomorphic dedupe: beyond the one
  // repeated head-blank slot per seed, respelled family variants have
  // to collapse onto their group's canonical spelling.
  EXPECT_GT(total_deduped, kSeeds);
}

TEST(BatchParity, AllIdenticalBatchAnswersOnce) {
  const std::string text = "a p b .\nb p c .\nc p d .\na q c .\n";
  Dictionary dict_seq;
  Database seq(&dict_seq, EvalOptions{});
  ASSERT_TRUE(seq.InsertText(text).ok());
  auto make = [](Dictionary* d) {
    return Q(d,
             "head: ?X r ?Z .\n"
             "body: ?X p ?Y .\nbody: ?Y p ?Z .\n");
  };
  Result<std::vector<Graph>> one = seq.PreAnswer(make(&dict_seq));
  ASSERT_TRUE(one.ok());

  Dictionary dict;
  Database db(&dict, EvalOptions{});
  ASSERT_TRUE(db.InsertText(text).ok());
  std::vector<Query> batch(8, make(&dict));
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch, &stats);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, *one);
  }
  EXPECT_EQ(stats.deduped, 7u);
  EXPECT_EQ(db.CollectStats().batch_deduped, 7u);
}

TEST(BatchParity, NoOverlapBatchFallsBackToSoloPlans) {
  const std::string text =
      "a p1 b .\nb p2 c .\nc p3 d .\nd p4 e .\ne p5 a .\n";
  Dictionary dict_seq;
  Database seq(&dict_seq, EvalOptions{});
  ASSERT_TRUE(seq.InsertText(text).ok());
  auto make = [](Dictionary* d) {
    std::vector<Query> qs;
    qs.push_back(Q(d, "head: ?X r1 ?Y .\nbody: ?X p1 ?Y .\n"));
    qs.push_back(Q(d, "head: ?X r2 ?Y .\nbody: ?X p2 ?Y .\n"));
    qs.push_back(Q(d,
                   "head: ?X r3 ?Z .\n"
                   "body: ?X p3 ?Y .\nbody: ?Y p4 ?Z .\n"));
    qs.push_back(Q(d, "head: ?X r5 ?Y .\nbody: ?X p5 ?Y .\n"));
    return qs;
  };
  std::vector<Result<std::vector<Graph>>> expected;
  for (const Query& q : make(&dict_seq)) expected.push_back(seq.PreAnswer(q));

  Dictionary dict;
  Database db(&dict, EvalOptions{});
  ASSERT_TRUE(db.InsertText(text).ok());
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(make(&dict), &stats);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i], *expected[i]) << i;
  }
  // Nothing shares: every group runs its own full matcher, exactly the
  // sequential plan.
  EXPECT_EQ(stats.deduped, 0u);
}

TEST(BatchParity, EmptyBatchAndInvalidSlots) {
  Dictionary dict;
  Database db(&dict, EvalOptions{});
  ASSERT_TRUE(db.InsertText("a p b .\n").ok());
  BatchStats stats;
  EXPECT_TRUE(db.PreAnswerBatch({}, &stats).empty());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_TRUE(stats == BatchStats{});

  // An unsafe slot (head variable not in the body) errors alone; its
  // status matches the sequential call's, and neighbors are unaffected.
  Query bad;
  bad.head = swdb::testing::G(&dict, "?X r ?Y .");
  bad.body = swdb::testing::G(&dict, "?X p ?Z .");
  Query good = Q(&dict, "head: ?X r ?Y .\nbody: ?X p ?Y .\n");
  Result<std::vector<Graph>> bad_seq = db.PreAnswer(bad);
  Result<std::vector<Graph>> good_seq = db.PreAnswer(good);
  ASSERT_FALSE(bad_seq.ok());
  ASSERT_TRUE(good_seq.ok());
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch({bad, good}, &stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), bad_seq.status().code());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(*results[1], *good_seq);
  EXPECT_EQ(stats.queries, 2u);
}

TEST(BatchParity, SnapshotBatchMatchesSequential) {
  const std::string text = "a p b .\nb p c .\nc q d .\nb q d .\n";
  auto make = [](Dictionary* d) {
    std::vector<Query> qs;
    qs.push_back(Q(d,
                   "head: ?X r ?Z .\n"
                   "body: ?X p ?Y .\nbody: ?Y q ?Z .\n"));
    // Isomorphic respelling of the first: same group.
    qs.push_back(Q(d,
                   "head: ?U r ?W .\n"
                   "body: ?U p ?V .\nbody: ?V q ?W .\n"));
    qs.push_back(Q(d, "head: ?X s ?Y .\nbody: ?X q ?Y .\n"));
    return qs;
  };

  Dictionary dict_seq;
  Database seq(&dict_seq);
  ASSERT_TRUE(seq.InsertText(text).ok());
  auto snap_seq = seq.Snapshot();
  std::vector<Result<std::vector<Graph>>> expected;
  for (const Query& q : make(&dict_seq)) {
    expected.push_back(snap_seq->PreAnswer(q));
  }

  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(text).ok());
  auto snap = db.Snapshot();
  std::vector<Query> queries = make(&dict);
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      snap->PreAnswerBatch(queries, &stats);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    ASSERT_TRUE(expected[i].ok());
    EXPECT_EQ(*results[i], *expected[i]) << i;
  }
  EXPECT_EQ(stats.deduped, 1u);

  // A fresh snapshot's re-ask evaluates again and replays the same
  // answers, with the same BatchStats.
  auto snap2 = db.Snapshot();
  BatchStats stats2;
  std::vector<Result<std::vector<Graph>>> again =
      snap2->PreAnswerBatch(queries, &stats2);
  ASSERT_EQ(again.size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(*again[i], *results[i]) << i;
  }
  EXPECT_TRUE(stats2 == stats);
}

TEST(BatchParity, BudgetExhaustionPoisonsOnlyTheExhaustedGroups) {
  // A dense two-hop workload under a tiny step budget: the batched path
  // must report the same per-slot LimitExceeded the sequential path
  // does, and slots of cheap disjoint shapes stay healthy.
  Dictionary dict;
  EvalOptions options;
  options.match.max_steps = 40;
  Database db(&dict, options);
  Graph data;
  Term p = dict.Iri("p");
  for (int i = 0; i < 14; ++i) {
    for (int j = 0; j < 14; ++j) {
      data.Insert(dict.Iri("n" + std::to_string(i)), p,
                  dict.Iri("n" + std::to_string(j)));
    }
  }
  data.Insert(dict.Iri("lone"), dict.Iri("q"), dict.Iri("peak"));
  db.InsertGraph(data);

  std::vector<Query> batch;
  batch.push_back(Q(&dict,
                    "head: ?X r ?Z .\n"
                    "body: ?X p ?Y .\nbody: ?Y p ?Z .\n"));
  batch.push_back(Q(&dict,
                    "head: ?X r2 ?W .\n"
                    "body: ?X p ?Y .\nbody: ?Y p ?W .\nbody: ?W p ?X .\n"));
  batch.push_back(Q(&dict, "head: ?X slim ?Y .\nbody: ?X q ?Y .\n"));

  std::vector<Result<std::vector<Graph>>> expected;
  for (const Query& q : batch) expected.push_back(db.PreAnswer(q));
  ASSERT_FALSE(expected[0].ok());
  ASSERT_FALSE(expected[1].ok());
  ASSERT_TRUE(expected[2].ok());

  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch, &stats);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], *expected[2]);
  EXPECT_EQ(stats.limit_exceeded, 2u);
}

// Builds the shared-prefix budget shape: |e| = 5 root edges x_i → y_i,
// each y_i fanning out to 100 p-successors z, so enumerating the common
// [e, p] prefix of the hop queries below alone costs 505 steps. Calls
// `decorate` once per z to hang each hop query's suffix triples off it.
template <typename Decorate>
Graph SharedPrefixData(Dictionary* dict, Decorate decorate) {
  Graph data;
  const Term e = dict->Iri("e");
  const Term p = dict->Iri("p");
  for (int i = 0; i < 5; ++i) {
    const Term x = dict->Iri("x" + std::to_string(i));
    const Term y = dict->Iri("y" + std::to_string(i));
    data.Insert(x, e, y);
    for (int j = 0; j < 100; ++j) {
      const Term z =
          dict->Iri("z" + std::to_string(i) + "_" + std::to_string(j));
      data.Insert(y, p, z);
      decorate(z, &data);
    }
  }
  data.Insert(dict->Iri("lone"), dict->Iri("q"), dict->Iri("peak"));
  return data;
}

TEST(BatchParity, BudgetExhaustionOnSharedPrefixMatchesSequential) {
  // Two hop queries that spell the same expensive [e, p] prefix and
  // differ in their suffix, under a budget the prefix alone overruns:
  // the 2-hop query's whole body is the shared prefix, the 3-hop query
  // adds a t-step whose probes Matches(z, t, *) are all empty. Each must
  // report the LimitExceeded its sequential call does; the disjoint
  // cheap shape stays healthy.
  Dictionary dict;
  EvalOptions options;
  options.match.max_steps = 300;
  Database db(&dict, options);
  Graph data = SharedPrefixData(&dict, [](Term, Graph*) {});
  // Bulk t-triples over nodes disjoint from every z.
  const Term t = dict.Iri("t");
  for (int k = 0; k < 600; ++k) {
    const Term w = dict.Iri("w" + std::to_string(k));
    data.Insert(w, t, w);
  }
  db.InsertGraph(data);

  std::vector<Query> batch;
  batch.push_back(Q(&dict,
                    "head: ?X r ?Z .\n"
                    "body: ?X e ?Y .\nbody: ?Y p ?Z .\n"));
  batch.push_back(Q(&dict,
                    "head: ?X r2 ?W .\n"
                    "body: ?X e ?Y .\nbody: ?Y p ?Z .\nbody: ?Z t ?W .\n"));
  batch.push_back(Q(&dict, "head: ?X slim ?Y .\nbody: ?X q ?Y .\n"));

  std::vector<Result<std::vector<Graph>>> expected;
  for (const Query& q : batch) expected.push_back(db.PreAnswer(q));
  ASSERT_FALSE(expected[0].ok());
  ASSERT_FALSE(expected[1].ok());
  ASSERT_TRUE(expected[2].ok());

  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch, &stats);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], *expected[2]);
  EXPECT_EQ(stats.limit_exceeded, 2u);
}

TEST(BatchParity, SharedPrefixDoesNotStretchTheStepBudget) {
  // Each query of a batch gets one sequential call's budget, no more:
  // the [e, p] prefix the two 3-hop queries share must be charged to
  // each of them in full. Every z carries one t and one u successor, so
  // a sequential call spends ~5 + 500 + 500 steps and overruns 1000;
  // charging the prefix to a pot apart from the suffix budget would let
  // both finish.
  Dictionary dict;
  EvalOptions options;
  options.match.max_steps = 1000;
  Database db(&dict, options);
  const Term t = dict.Iri("t");
  const Term u = dict.Iri("u");
  db.InsertGraph(SharedPrefixData(&dict, [&](Term z, Graph* g) {
    g->Insert(z, t, dict.Iri("t_" + std::string(dict.Name(z))));
    g->Insert(z, u, dict.Iri("u_" + std::string(dict.Name(z))));
  }));

  std::vector<Query> batch;
  batch.push_back(Q(&dict,
                    "head: ?X rt ?W .\n"
                    "body: ?X e ?Y .\nbody: ?Y p ?Z .\nbody: ?Z t ?W .\n"));
  batch.push_back(Q(&dict,
                    "head: ?X ru ?W .\n"
                    "body: ?X e ?Y .\nbody: ?Y p ?Z .\nbody: ?Z u ?W .\n"));

  for (const Query& q : batch) {
    ASSERT_EQ(db.PreAnswer(q).status().code(), StatusCode::kLimitExceeded);
  }
  BatchStats stats;
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch, &stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(stats.limit_exceeded, 2u);
}

TEST(UnionDedupe, IsomorphicBranchesEvaluateOnce) {
  const std::string text = "a p b .\nb p c .\nc q d .\nx type a .\n";
  auto build = [](Dictionary* d) {
    UnionQuery u;
    u.branches.push_back(Q(d,
                           "head: ?X r ?Z .\n"
                           "body: ?X p ?Y .\nbody: ?Y q ?Z .\n"));
    u.branches.push_back(Q(d, "head: ?X t ?Y .\nbody: ?X type ?Y .\n"));
    // Respelling of branch 0: dedupes onto it.
    u.branches.push_back(Q(d,
                           "head: ?A r ?C .\n"
                           "body: ?A p ?B .\nbody: ?B q ?C .\n"));
    // Identical head-blank branches: exact-spelling dedupe.
    u.branches.push_back(Q(d,
                           "head: ?X has _:thing .\n"
                           "body: ?X type ?Y .\n"));
    u.branches.push_back(Q(d,
                           "head: ?X has _:thing .\n"
                           "body: ?X type ?Y .\n"));
    return u;
  };

  // Expected: the branch pre-answers evaluated one by one on a twin,
  // concatenated in branch order, sorted, deduplicated — the definition
  // the union path implements.
  Dictionary dict_seq;
  Database seq(&dict_seq, EvalOptions{});
  ASSERT_TRUE(seq.InsertText(text).ok());
  std::vector<Graph> all;
  for (const Query& branch : build(&dict_seq).branches) {
    Result<std::vector<Graph>> part = seq.PreAnswer(branch);
    ASSERT_TRUE(part.ok());
    all.insert(all.end(), part->begin(), part->end());
  }
  std::sort(all.begin(), all.end(), [](const Graph& a, const Graph& b) {
    return a.triples() < b.triples();
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());

  Dictionary dict;
  Database db(&dict, EvalOptions{});
  ASSERT_TRUE(db.InsertText(text).ok());
  Result<std::vector<Graph>> deduped = db.PreAnswer(build(&dict));
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(*deduped, all);
  EXPECT_EQ(db.CollectStats().batch_deduped, 2u);

  // The evaluator-level free function dedupes the same way.
  Dictionary dict_free;
  Graph data = swdb::testing::Data(&dict_free, text);
  QueryEvaluator eval(&dict_free);
  Result<std::vector<Graph>> free_fn =
      PreAnswerUnionQuery(&eval, build(&dict_free), data);
  ASSERT_TRUE(free_fn.ok());
  EXPECT_EQ(*free_fn, all);
}

// ---------------------------------------------------------------------------
// ViewKey canonicalization: the key the batch groups slots by
// (isomorphic query shapes share one key)

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

}  // namespace
}  // namespace swdb
