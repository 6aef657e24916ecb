// The incremental maintenance engine, cross-checked against from-scratch
// recomputation:
//   * IncrementalClosure inserts and RdfsClosureErase vs RdfsClosure on
//     random mutation sequences (including pathological vocabulary
//     placements);
//   * IncrementalClosure (the maintained closure graph) under interleaved
//     single- and multi-triple insert/erase batches, including sp2b
//     commit series of the serving benchmark's shape;
//   * Graph's in-place permutation-index maintenance vs freshly built
//     indexes, across every bound-position combination;
//   * the Database facade: ≥1000 random Insert/Erase/Apply/ExecuteQuery/
//     Entails steps, asserting the maintained closure and nf(D) are
//     bit-identical to scratch recomputation at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "normal/normal_form.h"
#include "query/database.h"
#include "rdf/graph.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/str.h"

namespace swdb {
namespace {

using swdb::testing::Data;

// A small universe that exercises every rule: schema terms, instances,
// and (for the pathological variants) the reserved vocabulary itself.
std::vector<Term> Universe(Dictionary* dict, bool pathological) {
  std::vector<Term> terms = {
      dict->Iri("u:a"), dict->Iri("u:b"), dict->Iri("u:c"),
      dict->Iri("u:p"), dict->Iri("u:q"), dict->Iri("u:x"),
      dict->Iri("u:y"), dict->Blank("uB1"), dict->Blank("uB2"),
  };
  if (pathological) {
    for (Term v : vocab::kAll) terms.push_back(v);
  }
  return terms;
}

Triple RandomTriple(const std::vector<Term>& universe, Rng* rng,
                    double schema_bias) {
  Term s = universe[rng->Below(universe.size())];
  Term o = universe[rng->Below(universe.size())];
  Term p;
  if (rng->Next() % 100 < static_cast<uint64_t>(schema_bias * 100)) {
    p = vocab::kAll[rng->Below(vocab::kReservedIris)];
  } else {
    p = universe[rng->Below(universe.size())];
  }
  return Triple(s, p, o);
}

// Up to `n` fresh well-formed triples not in `base`, deduplicated.
std::vector<Triple> RandomBatch(const std::vector<Term>& universe, Rng* rng,
                                const Graph& base, size_t n) {
  Graph seen;
  std::vector<Triple> out;
  for (size_t tries = 0; out.size() < n && tries < 8 * n; ++tries) {
    Triple t = RandomTriple(universe, rng, 0.5);
    if (!t.IsWellFormedData() || base.Contains(t) || !seen.Insert(t)) {
      continue;
    }
    out.push_back(t);
  }
  return out;
}

// Up to `n` distinct triples of `base`, chosen at random.
std::vector<Triple> RandomVictims(const Graph& base, Rng* rng, size_t n) {
  Graph seen;
  std::vector<Triple> out;
  for (size_t tries = 0; out.size() < n && tries < 4 * n; ++tries) {
    Triple t = base[rng->Below(base.size())];
    if (seen.Insert(t)) out.push_back(t);
  }
  return out;
}

// Applies one commit to `base` and `inc` the way Database::Apply does —
// the erase batch (one DRed pass), then the insert batch (one
// propagation pass) — and checks the maintained closure against scratch,
// the insert's derived slice against closure_after \ closure_before, and
// its delta_size against the inserted triples the closure lacked.
void CommitAndCheck(Graph* base, IncrementalClosure* inc,
                    const std::vector<Triple>& erases,
                    const std::vector<Triple>& inserts) {
  std::vector<Triple> erased;
  for (const Triple& t : erases) {
    if (base->Erase(t)) erased.push_back(t);
  }
  if (!erased.empty()) inc->EraseDelta(*base, Graph(std::move(erased)));
  std::vector<Triple> inserted;
  for (const Triple& t : inserts) {
    if (base->Insert(t)) inserted.push_back(t);
  }
  const Graph before = inc->closure();
  const uint64_t version = inc->version();
  const size_t fresh = static_cast<size_t>(
      std::count_if(inserted.begin(), inserted.end(),
                    [&](const Triple& t) { return !before.Contains(t); }));
  ClosureDeltaStats stats;
  std::vector<Triple> derived;
  inc->InsertDelta(Graph(std::move(inserted)), &stats, &derived);
  const Graph scratch = RdfsClosure(*base);
  ASSERT_EQ(inc->closure(), scratch);
  std::vector<Triple> want;
  for (const Triple& t : scratch) {
    if (!before.Contains(t)) want.push_back(t);
  }
  std::sort(derived.begin(), derived.end());
  ASSERT_EQ(derived, want);
  ASSERT_EQ(stats.derived, want.size());
  ASSERT_EQ(stats.delta_size, fresh);
  ASSERT_EQ(inc->version() != version, !want.empty());
}

// ---------------------------------------------------------------------
// Delta maintenance vs scratch.
// ---------------------------------------------------------------------

TEST(IncrementalInsert, ExtendsClosureExactly) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "cat sc mammal .\n"
                 "mammal sc animal .\n"
                 "tom type cat .\n");
  IncrementalClosure inc(g);
  Graph delta = Data(&dict, "animal sc being .\nfelix type cat .\n");
  ClosureDeltaStats stats;
  inc.InsertDelta(delta, &stats);
  EXPECT_EQ(inc.closure(), RdfsClosure(Graph::Union(g, delta)));
  EXPECT_EQ(stats.delta_size, 2u);
  EXPECT_GT(stats.derived, 0u);
}

TEST(IncrementalInsert, NoOpDeltaDerivesNothing) {
  Dictionary dict;
  Graph g = Data(&dict, "a sc b .\nb sc c .\n");
  IncrementalClosure inc(g);
  const uint64_t version = inc.version();
  // (a, sc, c) is already derived; re-asserting it must be free.
  ClosureDeltaStats stats;
  inc.InsertDelta(Data(&dict, "a sc c ."), &stats);
  EXPECT_EQ(inc.closure(), RdfsClosure(g));
  EXPECT_EQ(inc.version(), version);
  EXPECT_EQ(stats.delta_size, 0u);
  EXPECT_EQ(stats.derived, 0u);
}

TEST(RdfsClosureErase, DeletedButRederivableTripleSurvives) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "a sc b .\n"
                 "b sc c .\n"
                 "a sc c .\n");  // asserted AND derivable
  Graph cl = RdfsClosure(g);
  Graph deleted = Data(&dict, "a sc c .");
  Graph after = g;
  after.Erase(deleted[0]);
  ClosureDeltaStats stats;
  Graph maintained = RdfsClosureErase(cl, after, deleted, &stats);
  EXPECT_EQ(maintained, RdfsClosure(after));
  EXPECT_TRUE(maintained.Contains(deleted[0]));  // rederived via chain
  // The deleted triple is one-step derivable from the remaining base,
  // so over-deletion protects it outright: no suspicion propagates.
  EXPECT_EQ(stats.overdeleted, 0u);
}

TEST(RdfsClosureErase, DownstreamDerivationsFall) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "p dom c .\n"
                 "c sc d .\n"
                 "x p y .\n");
  Graph cl = RdfsClosure(g);
  Term x = dict.Iri("x");
  Term d = dict.Iri("d");
  ASSERT_TRUE(cl.Contains(Triple(x, vocab::kType, d)));
  Graph deleted = Data(&dict, "x p y .");
  Graph after = g;
  after.Erase(deleted[0]);
  Graph maintained = RdfsClosureErase(cl, after, deleted);
  EXPECT_EQ(maintained, RdfsClosure(after));
  EXPECT_FALSE(maintained.Contains(Triple(x, vocab::kType, d)));
}

TEST(RdfsClosureErase, RemainderHierarchyIsReclosed) {
  // (sp, sp, sc) turns sp pairs into sc pairs through rule (3), so
  // erasing the one use of n2 over-deletes sc pairs whose chains partly
  // survive; the rescued pairs must re-close the sc relation before the
  // fixpoint relies on it being closed. Minimized from a random case;
  // the term ids (interned in name order) fix the iteration order that
  // exposed it.
  Dictionary dict;
  for (int i = 0; i < 7; ++i) dict.Iri(NumberedName("n", i));
  Graph g = Data(&dict,
                 "sp sp sc .\n"
                 "sp type n3 .\n"
                 "sc sp n4 .\n"
                 "sc sp n5 .\n"
                 "sc sc n6 .\n"
                 "n1 sc n0 .\n"
                 "n1 n2 n4 .\n"
                 "n2 sp sp .\n"
                 "n3 sp n1 .\n"
                 "n3 sp n2 .\n"
                 "n4 sc n3 .\n"
                 "n5 sc sc .\n"
                 "n6 sp n2 .\n");
  Graph deleted = Data(&dict, "n1 n2 n4 .");
  Graph after = g;
  after.Erase(deleted[0]);
  EXPECT_EQ(RdfsClosureErase(RdfsClosure(g), after, deleted),
            RdfsClosureNaive(after));
}

// Randomized: single- and multi-triple insert and erase batches,
// pathological vocabulary allowed everywhere; an IncrementalClosure
// must stay bit-identical to the scratch recomputation after every
// commit. Every few steps the insert batch is large (96 triples), so one
// propagation round inserts and expands about a hundred triples at once.
class DeltaClosureFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaClosureFuzz,
                         ::testing::Range<uint64_t>(1, 21));

TEST_P(DeltaClosureFuzz, DeltaAndEraseMatchScratch) {
  Dictionary dict;
  Rng rng(GetParam());
  const bool pathological = GetParam() % 2 == 0;
  std::vector<Term> universe = Universe(&dict, pathological);
  Graph base;
  IncrementalClosure inc(base);
  for (int step = 0; step < 60; ++step) {
    const bool erase = !base.empty() && rng.Below(100) < 35;
    std::vector<Triple> erases, inserts;
    if (erase) {
      const size_t n = 1 + rng.Below(step % 3 == 0 ? 12 : 3);
      erases = RandomVictims(base, &rng, n);
    } else {
      // The pathological universe saturates its closure (and makes each
      // scratch recomputation slow) after a few large batches, so only
      // the plain one takes them.
      const size_t n = pathological        ? 1 + rng.Below(3)
                       : step % 7 == 3 ? 96
                                       : 1 + rng.Below(4);
      inserts = RandomBatch(universe, &rng, base, n);
      if (inserts.empty()) continue;
    }
    CommitAndCheck(&base, &inc, erases, inserts);
    ASSERT_FALSE(::testing::Test::HasFatalFailure())
        << "seed " << GetParam() << " step " << step;
  }
}

// ---------------------------------------------------------------------
// IncrementalClosure: the maintained closure graph.
// ---------------------------------------------------------------------

TEST(IncrementalClosure, MaintainsAcrossInterleavedUpdates) {
  for (const bool pathological : {false, true}) {
    SCOPED_TRACE(pathological ? "pathological" : "plain");
    Dictionary dict;
    Rng rng(7);
    std::vector<Term> universe = Universe(&dict, pathological);
    Graph base = Data(&dict, "a sc b .\nx type a .\n");
    IncrementalClosure inc(base);
    EXPECT_EQ(inc.closure(), RdfsClosure(base));
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(step);
      // Single-triple updates, small batches, and commits that erase a
      // batch and insert another; every tenth insert batch is large.
      std::vector<Triple> erases, inserts;
      const uint64_t dice = rng.Below(100);
      if (dice < 30 && !base.empty()) {
        erases = RandomVictims(base, &rng, 1 + rng.Below(6));
      } else if (dice < 60) {
        inserts = RandomBatch(universe, &rng, base, 1);
      } else {
        if (!base.empty()) erases = RandomVictims(base, &rng, rng.Below(5));
        inserts = RandomBatch(universe, &rng, base,
                              step % 10 == 9 ? 96 : 2 + rng.Below(8));
      }
      CommitAndCheck(&base, &inc, erases, inserts);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalClosure, SpChainDeltasMatchScratch) {
  Dictionary dict;
  Rng rng(13);
  SchemaWorkloadSpec spec;
  spec.num_classes = 15;
  spec.num_properties = 6;
  spec.num_instances = 40;
  spec.num_facts = 80;
  Graph base = SchemaWorkload(spec, &dict, &rng);
  IncrementalClosure inc(base);
  Graph accumulated = base;
  for (int round = 0; round < 5; ++round) {
    Graph delta = SpChainWithUses(10 + round, 5, &dict);
    accumulated.InsertAll(delta);
    inc.InsertDelta(delta);
    EXPECT_EQ(inc.closure(), RdfsClosure(accumulated)) << "round " << round;
  }
}

// The serving benchmark's commit shape on a ~10k sp2b corpus: each
// commit is one Apply that erases 32 of the writer's own earlier
// inserts and inserts NextPublications(96). After every commit the
// database's maintained closure and its snapshot's nf must equal the
// scratch recomputation, and a lockstep IncrementalClosure must report
// exactly closure_after \ closure_before as its derived slice. The
// benchmark's referees read the snapshot's own nf, so this is what
// guards closure maintenance under that workload.
void CheckSp2bCommitSeries(double blank_author_fraction) {
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 10'000;
  spec.seed = 5;
  spec.blank_author_fraction = blank_author_fraction;
  Sp2bGenerator gen(spec, &dict);
  Graph corpus = gen.GenerateCorpus();
  Database db(&dict);
  db.InsertGraph(corpus);
  ASSERT_EQ(db.Snapshot()->normalized(), Core(RdfsClosure(db.graph())));
  Graph base = corpus;
  IncrementalClosure inc(base);
  Rng rng(17);
  std::vector<Triple> own_inserts;
  for (int commit = 0; commit < 6; ++commit) {
    SCOPED_TRACE(commit);
    std::vector<Triple> erases;
    for (size_t i = 0; i < 32 && !own_inserts.empty(); ++i) {
      const size_t idx = rng.Below(own_inserts.size());
      erases.push_back(own_inserts[idx]);
      own_inserts[idx] = own_inserts.back();
      own_inserts.pop_back();
    }
    const std::vector<Triple> inserts = gen.NextPublications(96);
    own_inserts.insert(own_inserts.end(), inserts.begin(), inserts.end());
    MutationBatch batch;
    for (const Triple& t : erases) batch.Erase(t);
    for (const Triple& t : inserts) batch.Insert(t);
    const Database::ApplyResult applied = db.Apply(batch);
    ASSERT_EQ(applied.erased, erases.size());
    ASSERT_EQ(applied.inserted, inserts.size());

    CommitAndCheck(&base, &inc, erases, inserts);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(base, db.graph());
    const Graph scratch = RdfsClosure(db.graph());
    ASSERT_EQ(db.Closure(), scratch);
    ASSERT_EQ(db.Snapshot()->normalized(), Core(scratch));
  }
}

TEST(Sp2bCommitSeries, GroundCorpusMatchesScratch) {
  CheckSp2bCommitSeries(0.0);
}

TEST(Sp2bCommitSeries, BlankAuthorCorpusMatchesScratch) {
  CheckSp2bCommitSeries(0.1);
}

TEST(IncrementalClosure, VersionBumpsOnlyOnContentChange) {
  Dictionary dict;
  Graph base = Data(&dict, "a sc b .\nb sc c .\n");
  IncrementalClosure inc(base);
  const uint64_t v0 = inc.version();
  // Already derived: no content change, no version bump.
  inc.InsertDelta(Data(&dict, "a sc c ."));
  EXPECT_EQ(inc.version(), v0);
  inc.InsertDelta(Data(&dict, "c sc d ."));
  EXPECT_GT(inc.version(), v0);
}

// ---------------------------------------------------------------------
// Graph: in-place permutation-index maintenance.
// ---------------------------------------------------------------------

// Compares every bound-position combination between the incrementally
// maintained graph and a freshly indexed copy of the same triple set.
void ExpectIndexesEquivalent(const Graph& maintained, Rng* rng,
                             const std::vector<Term>& universe) {
  Graph fresh(std::vector<Triple>(maintained.begin(), maintained.end()));
  for (int i = 0; i < 40; ++i) {
    std::optional<Term> s, p, o;
    if (rng->Below(2)) s = universe[rng->Below(universe.size())];
    if (rng->Below(2)) p = universe[rng->Below(universe.size())];
    if (rng->Below(2)) o = universe[rng->Below(universe.size())];
    std::vector<Triple> got, want;
    maintained.Match(s, p, o, [&](const Triple& t) {
      got.push_back(t);
      return true;
    });
    fresh.Match(s, p, o, [&](const Triple& t) {
      want.push_back(t);
      return true;
    });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want);
    ASSERT_EQ(maintained.CountMatches(s, p, o), fresh.CountMatches(s, p, o));
  }
}

TEST(GraphIndexMaintenance, PatchedIndexesMatchFreshRebuild) {
  Dictionary dict;
  Rng rng(11);
  std::vector<Term> universe = Universe(&dict, /*pathological=*/false);
  Graph g;
  // Warm the permutation indexes so mutations take the patch path.
  g.CountMatches(std::nullopt, universe[0], std::nullopt);
  uint64_t epoch = g.epoch();
  for (int step = 0; step < 300; ++step) {
    if (!g.empty() && rng.Below(100) < 40) {
      Triple victim = g[rng.Below(g.size())];
      ASSERT_TRUE(g.Erase(victim));
      ASSERT_GT(g.epoch(), epoch);
    } else {
      Triple t = RandomTriple(universe, &rng, 0.3);
      if (!t.IsWellFormedData()) continue;
      bool added = g.Insert(t);
      ASSERT_EQ(g.epoch() > epoch, added);  // no-ops keep the epoch
    }
    epoch = g.epoch();
    if (step % 10 == 0) ExpectIndexesEquivalent(g, &rng, universe);
  }
  ExpectIndexesEquivalent(g, &rng, universe);
}

TEST(GraphEpoch, CountsOnlyEffectiveMutations) {
  Dictionary dict;
  Graph g;
  Triple t(dict.Iri("a"), dict.Iri("p"), dict.Iri("b"));
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_TRUE(g.Insert(t));
  EXPECT_EQ(g.epoch(), 1u);
  EXPECT_FALSE(g.Insert(t));  // duplicate
  EXPECT_EQ(g.epoch(), 1u);
  g.InsertAll(Graph({t}));  // subset: no-op
  EXPECT_EQ(g.epoch(), 1u);
  Triple u(dict.Iri("a"), dict.Iri("p"), dict.Iri("c"));
  g.InsertAll(Graph({u}));
  EXPECT_EQ(g.epoch(), 2u);
  EXPECT_TRUE(g.Erase(t));
  EXPECT_EQ(g.epoch(), 3u);
  EXPECT_FALSE(g.Erase(t));  // absent
  EXPECT_EQ(g.epoch(), 3u);
}

// ---------------------------------------------------------------------
// ClosureMembership: epoch awareness.
// ---------------------------------------------------------------------

TEST(ClosureMembershipEpoch, DetectsStalenessAndRebuilds) {
  Dictionary dict;
  Graph g = Data(&dict, "a sc b .\n");
  ClosureMembership membership(g);
  EXPECT_TRUE(membership.InSync());
  Term a = dict.Iri("a");
  Term c = dict.Iri("c");
  EXPECT_FALSE(membership.Contains(Triple(a, vocab::kSc, c)));
  g.Insert(Triple(dict.Iri("b"), vocab::kSc, c));
  EXPECT_FALSE(membership.InSync());
  // A mutated graph needs a new index; the stale one stays stale.
  ClosureMembership rebuilt(g);
  EXPECT_TRUE(rebuilt.InSync());
  EXPECT_FALSE(membership.InSync());
  EXPECT_EQ(rebuilt.built_epoch(), g.epoch());
  EXPECT_TRUE(rebuilt.Contains(Triple(a, vocab::kSc, c)));
}

TEST(ClosureMembershipEpochDeathTest, StaleUseAborts) {
  Dictionary dict;
  Graph g = Data(&dict, "a sc b .\n");
  ClosureMembership membership(g);
  g.Insert(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("c")));
  EXPECT_DEATH(membership.Contains(g[0]), "epoch mismatch");
}

// ---------------------------------------------------------------------
// Database: the full facade under random interleaved traffic.
// ---------------------------------------------------------------------

TEST(DatabaseIncremental, MutationBatchGroupsMaintenance) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .\nb sc c .\nx type a .\n").ok());
  (void)db.Normalized();  // materialize the caches
  MutationBatch batch;
  batch.Erase(Data(&dict, "b sc c .")[0])
      .Insert(Triple(dict.Iri("c"), vocab::kSc, dict.Iri("d")))
      .Insert(Triple(dict.Iri("y"), vocab::kType, dict.Iri("b")));
  Database::ApplyResult r = db.Apply(batch);
  EXPECT_EQ(r.erased, 1u);
  EXPECT_EQ(r.inserted, 2u);
  EXPECT_EQ(db.stats().batches, 1u);
  EXPECT_EQ(db.Closure(), RdfsClosure(db.graph()));
  EXPECT_EQ(db.Normalized(), NormalForm(db.graph()));
  // One DRed pass + one delta pass, not one per triple.
  EXPECT_EQ(db.stats().closure_erase_updates, 1u);
  EXPECT_EQ(db.stats().closure_delta_updates, 1u);
}

TEST(DatabaseIncremental, StatsObserveMaintenance) {
  Dictionary dict;
  Database db(&dict);
  // The closure is built once, at construction, and then maintained.
  EXPECT_EQ(db.stats().closure_full_builds, 1u);
  EXPECT_EQ(db.stats().snapshot_publishes, 1u);
  ASSERT_TRUE(db.InsertText("a sc b .\n").ok());
  EXPECT_EQ(db.stats().closure_delta_updates, 1u);
  EXPECT_EQ(db.Closure(), RdfsClosure(db.graph()));
  db.Insert(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("c")));
  EXPECT_EQ(db.stats().closure_delta_updates, 2u);
  db.Erase(Triple(dict.Iri("b"), vocab::kSc, dict.Iri("c")));
  EXPECT_EQ(db.stats().closure_erase_updates, 1u);
  EXPECT_EQ(db.stats().closure_full_builds, 1u);  // never recomputed
  // One publication per effective mutation; a duplicate publishes none.
  EXPECT_EQ(db.stats().snapshot_publishes, 4u);
  EXPECT_FALSE(db.Insert(Triple(dict.Iri("a"), vocab::kSc, dict.Iri("b"))));
  EXPECT_EQ(db.stats().snapshot_publishes, 4u);
  (void)db.Normalized();
  (void)db.Normalized();
  EXPECT_EQ(db.stats().snapshot_nf_builds, 1u);
  EXPECT_TRUE(db.EntailsTriple(Triple(dict.Iri("a"), vocab::kSc,
                                      dict.Iri("b"))));
  EXPECT_EQ(db.stats().inserts, 2u);
  EXPECT_EQ(db.stats().erases, 1u);
  EXPECT_EQ(db.stats().batches, 0u);  // only Apply counts batches
}

TEST(DatabaseIncremental, NfCacheSurvivesDerivableInserts) {
  Dictionary dict;
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .\nb sc c .\n").ok());
  const Graph* nf = &db.Normalized();
  ASSERT_EQ(db.stats().snapshot_nf_builds, 1u);
  // (a, sc, c) is already in the closure: the maintained closure does
  // not change, so the new snapshot shares the built nf(D).
  db.Insert(Triple(dict.Iri("a"), vocab::kSc, dict.Iri("c")));
  EXPECT_EQ(&db.Normalized(), nf);
  EXPECT_EQ(db.stats().snapshot_nf_builds, 1u);
}

TEST(DatabaseIncremental, BulkLoadFallsBackToBatchedRebuild) {
  Dictionary dict;
  Rng rng(3);
  Database db(&dict);
  ASSERT_TRUE(db.InsertText("a sc b .\n").ok());
  std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();
  const Graph* nf = &before->normalized();
  ASSERT_EQ(db.stats().closure_full_builds, 1u);
  SchemaWorkloadSpec spec;
  spec.num_classes = 8;
  spec.num_properties = 5;
  spec.num_instances = 20;
  spec.num_facts = 40;
  // More new triples than half the closure: one refixpoint, no delta.
  db.InsertGraph(SchemaWorkload(spec, &dict, &rng));
  EXPECT_EQ(db.stats().closure_full_builds, 2u);
  EXPECT_EQ(db.stats().closure_delta_updates, 1u);  // the first insert only
  EXPECT_EQ(db.Closure(), RdfsClosure(db.graph()));
  // The rebuilt closure restarts its version counter; its snapshot must
  // not reuse the old nf slot.
  EXPECT_NE(&db.Normalized(), nf);
  EXPECT_EQ(db.Normalized(), NormalForm(db.graph()));
  // The same rule holds inside Apply.
  MutationBatch batch;
  for (int i = 0; i < 1000; ++i) {
    batch.Insert(Triple(dict.Iri("bulk" + std::to_string(i)), vocab::kType,
                        dict.Iri("a")));
  }
  EXPECT_EQ(db.Apply(batch).inserted, 1000u);
  EXPECT_EQ(db.stats().closure_full_builds, 3u);
  EXPECT_EQ(db.Closure(), RdfsClosure(db.graph()));
  EXPECT_EQ(db.Normalized(), NormalForm(db.graph()));
}

// The acceptance fuzz: ≥1000 random mutation steps interleaved with
// queries and entailment checks; maintained closure and nf(D) must be
// bit-identical to scratch recomputation at every step, and every
// query/entailment answer must match a fresh database over the same
// data.
class DatabaseFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DatabaseFuzz,
                         ::testing::Range<uint64_t>(1, 6));

TEST_P(DatabaseFuzz, MaintainedStateMatchesScratchRecompute) {
  Dictionary dict;
  Rng rng(GetParam() * 97);
  const bool pathological = GetParam() % 2 == 0;
  std::vector<Term> universe = Universe(&dict, pathological);
  Database db(&dict);
  (void)db.Normalized();  // materialize: every mutation is maintained
  const char* query_text =
      "head: ?X below c .\n"
      "body: ?X sc c .\n";
  int mutations = 0;
  for (int step = 0; mutations < 220; ++step) {
    const uint64_t dice = rng.Below(100);
    if (dice < 45 || db.size() == 0) {
      Triple t = RandomTriple(universe, &rng, 0.5);
      if (!t.IsWellFormedData()) continue;
      db.Insert(t);
      ++mutations;
    } else if (dice < 70) {
      db.Erase(db.graph()[rng.Below(db.size())]);
      ++mutations;
    } else if (dice < 85) {
      MutationBatch batch;
      for (int i = 0; i < 3; ++i) {
        Triple t = RandomTriple(universe, &rng, 0.5);
        if (t.IsWellFormedData()) batch.Insert(t);
      }
      if (db.size() > 0) batch.Erase(db.graph()[rng.Below(db.size())]);
      db.Apply(batch);
      mutations += static_cast<int>(batch.size());
    } else if (dice < 93) {
      Result<Graph> got = db.ExecuteQuery(query_text);
      Database fresh_db(&dict);
      fresh_db.InsertGraph(db.graph());
      Result<Graph> want = fresh_db.ExecuteQuery(query_text);
      ASSERT_EQ(got.ok(), want.ok());
      if (got.ok()) ASSERT_EQ(*got, *want);
      continue;
    } else {
      Triple t = RandomTriple(universe, &rng, 0.5);
      if (!t.IsWellFormedData()) continue;
      Result<bool> entailed = db.Entails(Graph({t}));
      ASSERT_TRUE(entailed.ok());
      ASSERT_EQ(*entailed, RdfsEntails(db.graph(), Graph({t})));
      ASSERT_EQ(db.EntailsTriple(t), RdfsClosure(db.graph()).Contains(t));
      continue;
    }
    // After every mutation: maintained artifacts == scratch recompute.
    ASSERT_EQ(db.Closure(), RdfsClosure(db.graph()))
        << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(db.Normalized(), NormalForm(db.graph()))
        << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(db.stats().closure_full_builds, 1u);  // genuinely incremental
  }
  // Batched mutations maintain once per batch, so the update count is
  // below the mutation count — but every one of the 220 mutations went
  // through some incremental pass, never a full rebuild.
  EXPECT_GE(db.stats().closure_delta_updates +
                db.stats().closure_erase_updates,
            100u);
}

}  // namespace
}  // namespace swdb
