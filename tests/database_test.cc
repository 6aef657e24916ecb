#include "query/database.h"

#include <gtest/gtest.h>

#include "graphtheory/digraph.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "normal/normal_form.h"
#include "query/union_query.h"
#include "testutil.h"

namespace swdb {
namespace {

using swdb::testing::Data;
using swdb::testing::G;
using swdb::testing::Q;

TEST(Database, InsertAndQueryText) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("cat sc mammal .\n"
                            "mammal sc animal .\n"
                            "tom type cat .\n")
                  .ok());
  EXPECT_EQ(db.size(), 3u);
  Result<Graph> ans = db.ExecuteQuery(
      "head: ?X isAn animal .\n"
      "body: ?X type animal .\n");
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->Contains(
      Triple(dict.Iri("tom"), dict.Iri("isAn"), dict.Iri("animal"))));
}

TEST(Database, EntailsDelegatesToRdfs) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("p dom c .\nx p y .").ok());
  Result<bool> yes = db.Entails(Data(&dict, "x type c ."));
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Result<bool> no = db.Entails(Data(&dict, "y type c ."));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(Database, EntailsReportsAnExhaustedBudget) {
  // enc(K4) does not map into enc(K3) (no 3-coloring of K4), and the
  // refutation takes far more than a few matcher steps: both the writer
  // and a snapshot must answer LimitExceeded instead of aborting.
  Dictionary dict;
  EvalOptions options;
  options.match.max_steps = 8;
  Database db(&dict, options);
  Term e = dict.Iri("e");
  db.InsertGraph(EncodeAsRdf(Digraph::CompleteSymmetric(3), &dict, e));
  const Graph k4 = EncodeAsRdf(Digraph::CompleteSymmetric(4), &dict, e);

  Result<bool> writer = db.Entails(k4);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kLimitExceeded);
  Result<bool> reader = db.Snapshot()->Entails(k4);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kLimitExceeded);

  // Under the default budget the same probe is refuted.
  Database roomy(&dict);
  roomy.InsertGraph(EncodeAsRdf(Digraph::CompleteSymmetric(3), &dict, e));
  Result<bool> refuted = roomy.Snapshot()->Entails(k4);
  ASSERT_TRUE(refuted.ok());
  EXPECT_FALSE(*refuted);
}

TEST(Database, NormalizedIsCachedUntilMutation) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .").ok());
  const Graph& first = db.Normalized();
  const Graph& second = db.Normalized();
  EXPECT_EQ(&first, &second);  // same cached object
  EXPECT_EQ(first, NormalForm(db.graph()));
  db.Insert(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("c")));
  const Graph& third = db.Normalized();
  EXPECT_TRUE(third.Contains(
      Triple(dict.Iri("a"), vocab::kSc, dict.Iri("c"))));
}

TEST(Database, DuplicateInsertDoesNotInvalidate) {
  Dictionary dict;
  Database db(&dict);
  Triple t(dict.Iri("a"), dict.Iri("p"), dict.Iri("b"));
  EXPECT_TRUE(db.Insert(t));
  const Graph& cached = db.Normalized();
  EXPECT_FALSE(db.Insert(t));
  EXPECT_EQ(&cached, &db.Normalized());
}

TEST(Database, EraseInvalidates) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .\nb sc c .").ok());
  EXPECT_TRUE(db.Normalized().Contains(
      Triple(dict.Iri("a"), vocab::kSc, dict.Iri("c"))));
  EXPECT_TRUE(db.Erase(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("c"))));
  EXPECT_FALSE(db.Normalized().Contains(
      Triple(dict.Iri("a"), vocab::kSc, dict.Iri("c"))));
}

TEST(Database, PremiseQueriesBypassTheCache) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("paul son Peter .").ok());
  Query q = Q(&dict,
              "head: ?X relative Peter .\n"
              "body: ?X relative Peter .\n"
              "premise: son sp relative .\n");
  Result<std::vector<Graph>> pre = db.PreAnswer(q);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->size(), 1u);
}

TEST(Database, AnswersMatchBareEvaluator) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a p b .\nb p c .\na q _:B .").ok());
  Query q = Q(&dict,
              "head: ?X r ?Y .\n"
              "body: ?X p ?Y .\n");
  QueryEvaluator eval(&dict);
  Result<Graph> expected = eval.AnswerUnion(q, db.graph());
  Result<Graph> actual = db.AnswerUnion(q);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(*expected, *actual);
  Result<Graph> merged = db.AnswerMerge(q);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), expected->size());  // ground answers here
}

TEST(Database, ParseErrorsSurface) {
  Dictionary dict;
  Database db(&dict);
  EXPECT_EQ(db.InsertText("a p").code(), StatusCode::kParseError);
  EXPECT_FALSE(db.ExecuteQuery("nonsense").ok());
}

TEST(Database, ClosureOnlyMode) {
  Dictionary dict;
  EvalOptions options;
  options.use_closure_only = true;
  Database db(&dict, options);
  ASSERT_TRUE(db.InsertText("a sc b .").ok());
  EXPECT_EQ(db.Normalized(), RdfsClosure(db.graph()));
}

// ---------------------------------------------------------------------------
// One read pipeline: the writer reads through its own latest snapshot.

// Data with one foldable blank (_:y onto rex) and one lean one (_:x), so
// nf differs from the closure.
constexpr char kPipelineData[] =
    "cat sc mammal .\n"
    "mammal sc animal .\n"
    "tom type cat .\n"
    "tom owns _:y .\n"
    "tom owns rex .\n"
    "_:x type cat .\n"
    "_:x name felix .\n";

// Queries covering every slot kind: a renamed shape, its respelling, a
// head-blank (Skolem-minting) shape, a premise query and an invalid one
// (head variable missing from the body).
std::vector<Query> PipelineQueries(Dictionary* dict) {
  std::vector<Query> qs;
  qs.push_back(Q(dict, "head: ?X isA ?C .\nbody: ?X type ?C .\n"));
  qs.push_back(Q(dict, "head: ?U isA ?V .\nbody: ?U type ?V .\n"));
  qs.push_back(Q(dict, "head: ?X has _:h .\nbody: ?X type animal .\n"));
  qs.push_back(Q(dict,
                 "head: ?X relative tom .\n"
                 "body: ?X relative tom .\n"
                 "premise: rex son tom .\n"
                 "premise: son sp relative .\n"));
  Query invalid;
  invalid.body = G(dict, "?X owns ?Y .");
  invalid.head = G(dict, "?Z owns ?Y .");
  qs.push_back(invalid);
  return qs;
}

void ExpectSameResult(const Result<std::vector<Graph>>& a,
                      const Result<std::vector<Graph>>& b) {
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  EXPECT_EQ(*a, *b);
}

TEST(ReadPipeline, WriterReadsMatchAPinnedSnapshot) {
  // Twin databases over twin dictionaries: one answers through the
  // writer methods, the other through an explicitly pinned snapshot,
  // call for call. Answers, their order and every Skolem/merge mint must
  // agree bit for bit, before and after a mutation.
  Dictionary dict_w, dict_s;
  Database writer(&dict_w), pinned(&dict_s);
  ASSERT_TRUE(writer.InsertText(kPipelineData).ok());
  ASSERT_TRUE(pinned.InsertText(kPipelineData).ok());
  const std::vector<Query> qw = PipelineQueries(&dict_w);
  const std::vector<Query> qs = PipelineQueries(&dict_s);
  UnionQuery uw, us;
  uw.branches.assign(qw.begin(), qw.begin() + 4);
  us.branches.assign(qs.begin(), qs.begin() + 4);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::shared_ptr<const DatabaseSnapshot> snap = pinned.Snapshot();
    EXPECT_EQ(writer.Normalized(), snap->normalized());
    for (size_t i = 0; i < qw.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameResult(writer.PreAnswer(qw[i]), snap->PreAnswer(qs[i]));
    }
    const auto batch_w = writer.PreAnswerBatch(qw);
    const auto batch_s = snap->PreAnswerBatch(qs);
    ASSERT_EQ(batch_w.size(), batch_s.size());
    for (size_t i = 0; i < batch_w.size(); ++i) {
      ExpectSameResult(batch_w[i], batch_s[i]);
    }
    ExpectSameResult(writer.PreAnswer(uw),
                     CombineBranches(snap->PreAnswerBatch(us.branches)));

    auto mutate = [](Database* db, Dictionary* dict) {
      MutationBatch batch;
      batch.Erase(Triple(dict->Iri("tom"), dict->Iri("owns"),
                         dict->Iri("rex")));
      batch.Insert(Triple(dict->Iri("rex"), vocab::kType, dict->Iri("cat")));
      db->Apply(batch);
    };
    mutate(&writer, &dict_w);
    mutate(&pinned, &dict_s);
  }
  EXPECT_EQ(dict_w.Stats().blanks, dict_s.Stats().blanks);
}

// Entailment probes over kPipelineData's vocabulary: asserted, derived
// (sc transitivity, typing, reflexivity) and absent triples.
std::vector<Triple> EntailmentProbes(Dictionary* dict) {
  const Term cat = dict->Iri("cat"), mammal = dict->Iri("mammal"),
             animal = dict->Iri("animal"), tom = dict->Iri("tom"),
             rex = dict->Iri("rex"), owns = dict->Iri("owns");
  return {Triple(cat, vocab::kSc, mammal),  Triple(cat, vocab::kSc, animal),
          Triple(tom, vocab::kType, animal), Triple(rex, vocab::kType, cat),
          Triple(tom, owns, rex),            Triple(rex, owns, tom),
          Triple(owns, vocab::kSp, owns),    Triple(animal, vocab::kSc, cat)};
}

TEST(ReadPipeline, EntailmentReadsMatchAPinnedSnapshot) {
  // The writer's Entails/EntailsTriple read its latest snapshot: they
  // agree with an explicitly pinned snapshot of the same epoch, and with
  // the from-scratch closure, before and after a mutation.
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(kPipelineData).ok());
  const std::vector<Triple> probes = EntailmentProbes(&dict);
  const Graph pattern = G(&dict, "_:who type _:kind .\n_:kind sc animal .");
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
    const Graph scratch = RdfsClosure(snap->data());
    for (const Triple& t : probes) {
      EXPECT_EQ(db.EntailsTriple(t), snap->EntailsTriple(t));
      EXPECT_EQ(snap->EntailsTriple(t), scratch.Contains(t));
      Result<bool> writer = db.Entails(Graph({t}));
      Result<bool> reader = snap->Entails(Graph({t}));
      ASSERT_TRUE(writer.ok() && reader.ok());
      EXPECT_EQ(*writer, *reader);
      EXPECT_EQ(*reader, scratch.Contains(t));
    }
    Result<bool> writer = db.Entails(pattern);
    Result<bool> reader = snap->Entails(pattern);
    ASSERT_TRUE(writer.ok() && reader.ok());
    EXPECT_EQ(*writer, *reader);
    EXPECT_EQ(*reader, round == 0);

    MutationBatch batch;
    batch.Erase(Triple(dict.Iri("mammal"), vocab::kSc, dict.Iri("animal")));
    batch.Insert(Triple(dict.Iri("rex"), vocab::kType, dict.Iri("cat")));
    db.Apply(batch);
  }
}

TEST(ReadPipeline, LaggingSnapshotEntailsItsOwnEpoch) {
  // A snapshot pinned before an erase keeps answering from its own
  // epoch's closure after the writer erased the supporting triple.
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(kPipelineData).ok());
  const Triple derived(dict.Iri("tom"), vocab::kType, dict.Iri("animal"));
  std::shared_ptr<const DatabaseSnapshot> lagging = db.Snapshot();
  ASSERT_TRUE(lagging->EntailsTriple(derived));

  ASSERT_TRUE(db.Erase(Triple(dict.Iri("mammal"), vocab::kSc,
                              dict.Iri("animal"))));
  EXPECT_FALSE(db.EntailsTriple(derived));
  EXPECT_FALSE(db.Snapshot()->EntailsTriple(derived));

  EXPECT_TRUE(lagging->EntailsTriple(derived));
  Result<bool> lagging_entails = lagging->Entails(Graph({derived}));
  ASSERT_TRUE(lagging_entails.ok());
  EXPECT_TRUE(*lagging_entails);
  EXPECT_EQ(lagging->closure(), RdfsClosure(lagging->data()));
}

TEST(ReadPipeline, BatchCountsEverySlotAndDedupesNothing) {
  // The two batch counters servebench reads: an n-slot batch adds n to
  // batch_queries, and batch_deduped stays 0 even for a repeated slot.
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(kPipelineData).ok());
  std::vector<Query> batch = PipelineQueries(&dict);
  batch.push_back(batch.front());
  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  const DatabaseStats before = db.CollectStats();
  EXPECT_EQ(snap->PreAnswerBatch(batch).size(), batch.size());
  EXPECT_EQ(db.PreAnswerBatch(batch).size(), batch.size());
  const DatabaseStats after = db.CollectStats();
  EXPECT_EQ(after.batch_queries.load() - before.batch_queries.load(),
            2 * batch.size());
  EXPECT_EQ(after.batch_deduped.load(), 0u);
}

TEST(ReadPipeline, NormalizedIsTheSnapshotsNormalForm) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(kPipelineData).ok());
  EXPECT_EQ(&db.Normalized(), &db.Snapshot()->normalized());
  EXPECT_EQ(db.Normalized(), Core(RdfsClosure(db.graph())));
  db.Insert(Triple(dict.Iri("rex"), vocab::kType, dict.Iri("cat")));
  EXPECT_EQ(&db.Normalized(), &db.Snapshot()->normalized());
  EXPECT_EQ(db.Normalized(), Core(RdfsClosure(db.graph())));
}

TEST(ReadPipeline, OneNfBuildPerClosureVersion) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .\nb sc c .\na sc c .\nx p _:y .\n")
                  .ok());
  auto builds = [&db] { return db.stats().snapshot_nf_builds.load(); };
  Query q = Q(&dict, "head: ?X sc ?Y .\nbody: ?X sc ?Y .\n");

  (void)db.Normalized();
  ASSERT_TRUE(db.PreAnswer(q).ok());
  ASSERT_TRUE(db.Snapshot()->PreAnswer(q).ok());
  EXPECT_EQ(builds(), 1u);

  // A new closure version: one more build, shared by every reader.
  db.Insert(Triple(dict.Iri("c"), vocab::kSc, dict.Iri("d")));
  std::shared_ptr<const DatabaseSnapshot> reader = db.Snapshot();
  EXPECT_EQ(&reader->normalized(), &db.Normalized());
  ASSERT_TRUE(db.PreAnswer(q).ok());
  EXPECT_EQ(builds(), 2u);

  // A derivable insert and an erase of a still-derivable triple leave
  // the closure unchanged: the new snapshots share the built nf.
  const Graph* nf = &db.Normalized();
  db.Insert(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("d")));
  EXPECT_NE(db.Snapshot()->epoch(), reader->epoch());
  EXPECT_EQ(&db.Normalized(), nf);
  db.Erase(Triple(dict.Iri("a"), vocab::kSc, dict.Iri("c")));
  EXPECT_EQ(&db.Normalized(), nf);
  EXPECT_EQ(builds(), 2u);
  EXPECT_EQ(db.Normalized(), Core(RdfsClosure(db.graph())));
}

// ---------------------------------------------------------------------------
// Invalid queries are rejected before any work on the read path.

TEST(ReadPipeline, InvalidQueryBuildsNoNormalForm) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText(kPipelineData).ok());
  Query invalid;
  invalid.body = G(&dict, "?X type ?C .");
  invalid.head = G(&dict, "?Z isA ?C .");
  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  const DatabaseStats before = db.CollectStats();

  Result<std::vector<Graph>> r = snap->PreAnswer(invalid);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.PreAnswer(invalid).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.PreAnswer(UnionQuery::Of(invalid)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(snap->PreAnswerBatch({invalid})[0].status().code(),
            StatusCode::kInvalidArgument);

  const DatabaseStats after = db.CollectStats();
  EXPECT_EQ(after.snapshot_nf_builds, before.snapshot_nf_builds);
}

TEST(ReadPipeline, InvalidPremiseQueryMintsNoBlank) {
  // The premise blank _:b clashes with the data's, so merging D + P
  // would mint a fresh blank — but a premise with a variable is invalid
  // and must be rejected before the merge.
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("_:b p c .\n").ok());
  Query invalid = Q(&dict, "head: ?X r c .\nbody: ?X p c .\n");
  invalid.premise = G(&dict, "_:b p ?Y .");
  const size_t blanks = dict.Stats().blanks;

  EXPECT_EQ(db.PreAnswer(invalid).status().code(),
            StatusCode::kInvalidArgument);
  QueryEvaluator eval(&dict);
  EXPECT_EQ(eval.PreAnswer(invalid, db.graph()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dict.Stats().blanks, blanks);
}

}  // namespace
}  // namespace swdb
