// Batched multi-query evaluation (DatabaseSnapshot::PreAnswerBatch):
// a batch must be slot for slot bit-identical to calling PreAnswer
// sequentially — same answers, same order, same minted blank ids, same
// per-slot status — across random overlapping workloads and the
// adversarial shapes (repeated, premise, head-blank and invalid slots,
// empty batches, exhausted step budgets).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generators.h"
#include "query/database.h"
#include "query/query.h"
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
  w.queries = OverlappingQueryMix(w.data, qspec, dict, &rng);
  // Shapes the generator never emits: head-blank Skolemization (twice —
  // the repeated slot must reuse the first slot's mints), a
  // premise-bearing slot, and a constraint-filtered shape.
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

// One batched run on its own twin dictionary/database. Returns the
// per-slot results and a dictionary end-state probe (the bits of the
// next fresh blank — equal probes mean the runs minted the same number
// of blanks).
struct BatchRun {
  std::vector<Result<std::vector<Graph>>> results;
  uint32_t next_blank_bits = 0;
};

BatchRun RunBatched(uint64_t seed) {
  Dictionary dict;
  Database db(&dict, EvalOptions{});
  Workload w = BuildWorkload(seed, &dict);
  db.InsertGraph(w.data);
  BatchRun run;
  run.results = db.PreAnswerBatch(w.queries);
  run.next_blank_bits = dict.FreshBlank().bits();
  return run;
}

TEST(BatchParity, MatchesSequentialFuzz) {
  constexpr uint64_t kSeeds = 20;
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
      ASSERT_EQ(run.results[i].status().code(), expected[i].status().code())
          << "seed " << seed << " slot " << i;
      if (expected[i].ok()) {
        ASSERT_EQ(*run.results[i], *expected[i])
            << "seed " << seed << " slot " << i;
      }
    }
    // Same Skolem mints ⇒ same dictionary end state.
    EXPECT_EQ(run.next_blank_bits, expected_blank) << "seed " << seed;
  }
}

TEST(BatchParity, EmptyBatchAndInvalidSlots) {
  Dictionary dict;
  Database db(&dict, EvalOptions{});
  ASSERT_TRUE(db.InsertText("a p b .\n").ok());
  EXPECT_TRUE(db.PreAnswerBatch({}).empty());

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
      db.PreAnswerBatch({bad, good});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[0].status().code(), bad_seq.status().code());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(*results[1], *good_seq);
}

TEST(BatchParity, BudgetExhaustionPoisonsOnlyTheExhaustedSlots) {
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

  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], *expected[2]);
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
  // adds a t-step with one match per z. (Were the t-step empty for every
  // z, each z's child pick would be empty and end the z before its step,
  // and the 3-hop query would finish under the budget.) Each must
  // report the LimitExceeded its sequential call does; the disjoint
  // cheap shape stays healthy.
  Dictionary dict;
  EvalOptions options;
  options.match.max_steps = 300;
  Database db(&dict, options);
  const Term t = dict.Iri("t");
  Graph data = SharedPrefixData(&dict, [&](Term z, Graph* g) {
    g->Insert(z, t, dict.Iri("t_" + std::string(dict.Name(z))));
  });
  // Bulk t-triples over nodes disjoint from every z.
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

  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], *expected[2]);
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
  std::vector<Result<std::vector<Graph>>> results =
      db.PreAnswerBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kLimitExceeded);
  EXPECT_EQ(results[1].status().code(), StatusCode::kLimitExceeded);
}

}  // namespace
}  // namespace swdb
