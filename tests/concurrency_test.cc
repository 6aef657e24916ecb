// The Database concurrent read path: N reader threads working through
// epoch-tagged snapshots while one writer applies randomized mutation
// batches. Every reader-observed snapshot must equal some committed
// epoch's from-scratch state — never a partial mutation — and snapshots
// taken earlier must stay unchanged while the database moves on.
//
// Sizes are deliberately modest: this binary is the core of the TSan job
// (scripts/check_tsan.sh), which runs it under ~10x instrumentation
// slowdown.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/sp2b.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "query/database.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

// A small universe that exercises every rule (mirrors incremental_test).
std::vector<Term> Universe(Dictionary* dict) {
  return {
      dict->Iri("u:a"), dict->Iri("u:b"), dict->Iri("u:c"),
      dict->Iri("u:p"), dict->Iri("u:q"), dict->Iri("u:x"),
      dict->Iri("u:y"), dict->Blank("uB1"), dict->Blank("uB2"),
  };
}

// Well-formed only: the Database contract (like the parser front door)
// excludes blank-predicate triples, and incremental maintenance matches
// the from-scratch closure only on well-formed data.
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

TEST(DatabaseSnapshot, ReflectsCommittedStateAndStaysImmutable) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng rng(42);

  db.Insert(RandomTriple(universe, &rng, 0.5));
  std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();
  const Graph frozen_data = before->data();
  const Graph frozen_closure = before->closure();
  EXPECT_EQ(before->epoch(), db.epoch());
  EXPECT_EQ(before->closure(), RdfsClosure(before->data()));

  for (int step = 0; step < 30; ++step) {
    MutationBatch batch;
    for (int i = 0; i < 3; ++i) {
      batch.Insert(RandomTriple(universe, &rng, 0.6));
    }
    if (db.size() > 0 && rng.Chance(0.4)) {
      batch.Erase(db.graph().triples()[rng.Below(db.size())]);
    }
    db.Apply(batch);

    std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
    EXPECT_EQ(snap->epoch(), db.epoch());
    EXPECT_EQ(snap->data(), db.graph());
    EXPECT_EQ(snap->closure(), RdfsClosure(snap->data()));
  }
  // The old snapshot is frozen at its epoch forever.
  EXPECT_EQ(before->data(), frozen_data);
  EXPECT_EQ(before->closure(), frozen_closure);
}

TEST(DatabaseSnapshot, ConcurrentReadersSeeOnlyCommittedEpochs) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(7);

  // Seed and publish the first snapshot from the writer thread, so
  // readers never trigger the initial closure build themselves.
  for (int i = 0; i < 10; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.5));
  }
  db.Snapshot();

  constexpr int kReaders = 4;
  constexpr int kWriterSteps = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> snapshots_checked{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &stop, &reader_failures, &snapshots_checked,
                          r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        // Internal consistency: the snapshot's artifacts belong to ONE
        // epoch. (Equality with the writer's from-scratch closure for
        // this epoch is verified below, on the writer thread, against
        // the recorded epoch->data history.)
        if (snap->epoch() != snap->data().epoch()) {
          reader_failures.fetch_add(1);
          break;
        }
        if (rng.Chance(0.3)) {
          // Membership answers must agree with the frozen closure.
          const Graph& cl = snap->closure();
          if (cl.size() > 0) {
            const Triple probe =
                cl.triples()[rng.Below(cl.size())];
            if (!snap->EntailsTriple(probe)) {
              reader_failures.fetch_add(1);
              break;
            }
          }
        } else {
          // Entailment of a triple drawn from the closure always holds.
          const Graph& cl = snap->closure();
          if (cl.size() > 0) {
            const Triple probe = cl.triples()[rng.Below(cl.size())];
            Result<bool> entailed = snap->Entails(Graph({probe}));
            if (!entailed.ok() || !*entailed) {
              reader_failures.fetch_add(1);
              break;
            }
          }
        }
        snapshots_checked.fetch_add(1);
      }
    });
  }

  // Writer: randomized batches; record each committed epoch's data graph
  // so snapshots can be validated against from-scratch recomputation.
  std::map<uint64_t, Graph> committed;
  committed[db.epoch()] = db.graph();
  std::vector<std::shared_ptr<const DatabaseSnapshot>> observed;
  for (int step = 0; step < kWriterSteps; ++step) {
    MutationBatch batch;
    const int inserts = 1 + static_cast<int>(writer_rng.Below(3));
    for (int i = 0; i < inserts; ++i) {
      batch.Insert(RandomTriple(universe, &writer_rng, 0.6));
    }
    if (db.size() > 0 && writer_rng.Chance(0.5)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
    committed[db.epoch()] = db.graph();
    observed.push_back(db.Snapshot());
  }
  // On a loaded (or single-core) machine the writer can finish before a
  // reader completes one iteration; wait for real reader progress so the
  // liveness assertion below is meaningful.
  while (snapshots_checked.load() == 0 && reader_failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Every snapshot the writer collected mid-stream equals the recorded
  // committed state of its epoch, closure included.
  for (const auto& snap : observed) {
    auto it = committed.find(snap->epoch());
    ASSERT_NE(it, committed.end());
    EXPECT_EQ(snap->data(), it->second);
    EXPECT_EQ(snap->closure(), RdfsClosure(it->second));
  }
}

TEST(DatabaseSnapshot, ConcurrentPremiseFreePreAnswer) {
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(21);
  for (int i = 0; i < 12; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.4));
  }
  db.Snapshot();

  // A premise-free query: one open triple over the normalized database.
  Query q;
  Term var_x = dict.Var("x");
  Term var_y = dict.Var("y");
  q.body.Insert(Triple(var_x, vocab::kType, var_y));
  q.head.Insert(Triple(var_x, vocab::kType, var_y));

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &q, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        Result<std::vector<Graph>> answers = snap->PreAnswer(q);
        if (!answers.ok()) {
          failures.fetch_add(1);
          break;
        }
        // Every answer triple is entailed by the snapshot.
        for (const Graph& a : *answers) {
          for (const Triple& t : a) {
            if (!snap->closure().Contains(t)) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (int step = 0; step < 25; ++step) {
    MutationBatch batch;
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    if (db.size() > 0 && writer_rng.Chance(0.3)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Blank-redundant data whose nf(D) actually folds: several independent
// blank components, each subsumed by a ground triple, so the lazy
// normalized() build runs the full core engine.
void InsertFoldableData(Database* db, Dictionary* dict) {
  Term a = dict->Iri("u:a");
  for (int i = 0; i < 4; ++i) {
    Term p = dict->Iri("u:p" + std::to_string(i));
    db->Insert(Triple(a, p, dict->Iri("u:b" + std::to_string(i))));
    db->Insert(Triple(a, p, dict->FreshBlank()));
  }
}

TEST(DatabaseSnapshot, RacedNormalizedBuildsCoreExactlyOnce) {
  // N readers race the first normalized() call on a fresh snapshot: the
  // call_once slot must run the core build exactly once (observed via
  // the snapshot_nf_builds counter), and every reader must see the same
  // Graph object with the from-scratch nf(D) content.
  Dictionary dict;
  Database db(&dict);
  InsertFoldableData(&db, &dict);
  std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  ASSERT_EQ(db.stats().snapshot_nf_builds.load(), 0u);

  constexpr int kReaders = 8;
  std::atomic<int> ready{0};
  std::vector<const Graph*> observed(kReaders, nullptr);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&snap, &ready, &observed, r] {
      // Crude barrier so the calls really race the call_once.
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kReaders) {
        std::this_thread::yield();
      }
      observed[r] = &snap->normalized();
    });
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);
  const Graph expected = Core(RdfsClosure(snap->data()));
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_NE(observed[r], nullptr);
    EXPECT_EQ(observed[r], observed[0]) << "reader " << r;
    EXPECT_EQ(*observed[r], expected) << "reader " << r;
  }
  // The core really folded the redundant blanks away.
  EXPECT_LT(expected.size(), RdfsClosure(snap->data()).size());
}

TEST(DatabaseSnapshot, NormalizedBuildsOncePerSnapshotEpoch) {
  Dictionary dict;
  Database db(&dict);
  InsertFoldableData(&db, &dict);
  std::shared_ptr<const DatabaseSnapshot> first = db.Snapshot();
  const Graph& first_nf = first->normalized();
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);
  // Repeated calls on the same snapshot reuse the built core.
  EXPECT_EQ(&first->normalized(), &first_nf);
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 1u);

  db.Insert(Triple(dict.Iri("u:a"), dict.Iri("u:q"), dict.FreshBlank()));
  std::shared_ptr<const DatabaseSnapshot> second = db.Snapshot();
  ASSERT_NE(second, first);
  const Graph second_nf = second->normalized();
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 2u);
  EXPECT_EQ(second_nf, Core(RdfsClosure(second->data())));
  // The first snapshot's normal form is frozen at its epoch.
  EXPECT_EQ(first->normalized(), Core(RdfsClosure(first->data())));
  EXPECT_EQ(db.stats().snapshot_nf_builds.load(), 2u);
}

// --------------------------------------------------------------------------
// Sharded dictionary: concurrent interning.

TEST(DictionaryConcurrency, ParallelInternOfSharedNamesConverges) {
  // N threads intern the same name set in different orders. Every
  // thread must end up with the same name -> id assignment (ids are
  // handed out once, under the owning shard's lock), and the lock-free
  // Name() must round-trip every id.
  Dictionary dict;
  constexpr int kThreads = 8;
  constexpr int kNames = 400;
  std::vector<std::string> names;
  names.reserve(kNames);
  for (int i = 0; i < kNames; ++i) {
    names.push_back("u:shared" + std::to_string(i));
  }

  std::vector<std::vector<Term>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kThreads) {
        std::this_thread::yield();
      }
      got[w].reserve(kNames);
      // Stagger the order per thread so shards are hit in different
      // sequences and first-interner races actually happen.
      for (int i = 0; i < kNames; ++i) {
        const int j = (i * 7 + w * 53) % kNames;
        Term t = (j % 3 == 0) ? dict.Blank(names[j]) : dict.Iri(names[j]);
        got[w].push_back(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Agreement: reorder each thread's terms back to canonical order.
  for (int w = 0; w < kThreads; ++w) {
    std::vector<Term> canon(kNames);
    for (int i = 0; i < kNames; ++i) {
      canon[(i * 7 + w * 53) % kNames] = got[w][i];
    }
    for (int j = 0; j < kNames; ++j) {
      EXPECT_EQ(canon[j], (j % 3 == 0) ? dict.Blank(names[j])
                                       : dict.Iri(names[j]))
          << "thread " << w << " name " << j;
      // Blank labels render with the "_:" prefix.
      EXPECT_EQ(dict.Name(canon[j]),
                (j % 3 == 0) ? "_:" + names[j] : names[j]);
    }
  }
  // Exactly one id per distinct (kind, name): no duplicates leaked.
  DictionaryStats ds = dict.Stats();
  size_t sharded = 0;
  for (size_t n : ds.shard_entries) sharded += n;
  EXPECT_EQ(sharded, ds.terms());
}

TEST(DictionaryConcurrency, LockFreeNameReadsRaceInterning) {
  // Readers hammer Name() on every id published so far while writers
  // keep interning fresh names: Name() takes no lock, so this is the
  // TSan-visible proof the id -> name table publication is race-free.
  Dictionary dict;
  std::atomic<uint32_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int i = 0; i < 4000; ++i) {
      Term t = dict.Iri("u:grow" + std::to_string(i));
      published.store(t.id(), std::memory_order_release);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_relaxed) || reads == 0) {
        const uint32_t hi = published.load(std::memory_order_acquire);
        if (hi == 0) continue;
        Term probe = Term::Iri(hi);
        if (dict.Name(probe).rfind("u:grow", 0) != 0) failures.fetch_add(1);
        ++reads;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dict.Name(dict.Iri("u:grow0")), "u:grow0");
}

TEST(DictionaryConcurrency, FreshBlanksDistinctAcrossThreads) {
  Dictionary dict;
  constexpr int kThreads = 8;
  constexpr int kEach = 300;
  std::vector<std::vector<Term>> fresh(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) fresh[w].push_back(dict.FreshBlank());
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<uint32_t, int> seen;
  for (int w = 0; w < kThreads; ++w) {
    for (Term t : fresh[w]) {
      EXPECT_TRUE(t.IsBlank());
      EXPECT_EQ(++seen[t.id()], 1) << "duplicate fresh blank id " << t.id();
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kEach));
}

// --------------------------------------------------------------------------
// Delta-proportional publication.

TEST(DatabaseSnapshot, PublicationSharesLeavesWithPredecessor) {
  // After a big load, a single-triple insert must republish by sharing
  // almost every spine leaf with the previous snapshot and copying only
  // the touched ones.
  Dictionary dict;
  Database db(&dict);
  std::vector<Triple> bulk;
  Term p = dict.Iri("u:p");
  for (int i = 0; i < 6000; ++i) {
    bulk.emplace_back(dict.Iri("u:s" + std::to_string(i)), p,
                      dict.Iri("u:o" + std::to_string(i % 97)));
  }
  db.InsertGraph(Graph(std::move(bulk)));
  std::shared_ptr<const DatabaseSnapshot> first = db.Snapshot();
  // The load's own publication replaced the constructor's empty snapshot
  // and so copied every leaf; count from here.
  db.ResetStats();

  db.Insert(Triple(dict.Iri("u:new"), p, dict.Iri("u:o0")));
  std::shared_ptr<const DatabaseSnapshot> second = db.Snapshot();
  ASSERT_NE(second, first);

  // Direct structural check: nearly all of the second snapshot's leaves
  // are the first snapshot's leaves (pointer-identical).
  SpineSharing s = second->data().SharedLeaves(first->data());
  EXPECT_GT(s.total, 20u);  // the load is big enough to be multi-leaf
  EXPECT_GT(s.shared, 0u);
  EXPECT_LE(s.total - s.shared, 8u)  // at most ~one leaf per spine copied
      << "shared " << s.shared << " of " << s.total;

  // And the counters saw it: the second publication shared much more
  // than it copied.
  const DatabaseStats stats = db.stats();
  EXPECT_EQ(stats.snapshot_publishes.load(), 1u);
  EXPECT_GT(stats.publish_leaves_shared.load(),
            stats.publish_leaves_copied.load());

  // Sharing is an optimization only: content equals a from-scratch
  // build.
  EXPECT_EQ(second->data(), db.graph());
  EXPECT_EQ(second->closure(), RdfsClosure(second->data()));
  EXPECT_EQ(first->data().size(), 6000u);
}

// --------------------------------------------------------------------------
// Normal form across epochs.

TEST(NormalFormEpochs, InsertFoldsNewlyFoldableComponent) {
  // A lean component becomes foldable when its ground image appears:
  // the second normal form must drop the blank triple.
  Dictionary dict;
  Database db(&dict);
  Term a = dict.Iri("u:a");
  Term p = dict.Iri("u:p");
  Term blank = dict.FreshBlank();
  db.Insert(Triple(a, p, blank));  // lean: nothing to fold onto
  const Graph& nf1 = db.Normalized();
  EXPECT_TRUE(nf1.Contains(Triple(a, p, blank)));

  db.Insert(Triple(a, p, dict.Iri("u:b")));  // ground image appears
  const Graph& nf2 = db.Normalized();
  EXPECT_FALSE(nf2.Contains(Triple(a, p, blank)));
  EXPECT_EQ(nf2, Core(RdfsClosure(db.graph())));
}

TEST(NormalFormEpochs, InPlaceFoldsRaceReadersAndWriterCommits) {
  // nf builds fold a leaf-sharing copy of the snapshot's closure in
  // place. Four readers scan closure() and race normalized() while the
  // writer applies serving-shaped commits (32 erases of its own earlier
  // inserts plus NextPublications(96)) on a blank-author corpus, so the
  // nf builds' copy-on-write erases hit leaves shared with the live
  // snapshot and with the writer's maintained closure. Every nf a
  // reader built must equal the from-scratch core of its snapshot.
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 2'000;
  spec.seed = 1;
  spec.blank_author_fraction = 0.1;
  Sp2bGenerator gen(spec, &dict);
  Database db(&dict);
  db.InsertGraph(gen.GenerateCorpus());
  db.Snapshot();  // publish before readers start

  constexpr int kReaders = 4;
  constexpr int kCommits = 10;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::vector<std::shared_ptr<const DatabaseSnapshot>>> seen(
      kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &stop, &failures, &seen, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        const Graph& cl = snap->closure();
        size_t scanned = 0;
        for (const Triple& t : cl) {
          (void)t;
          ++scanned;
        }
        const Graph& nf = snap->normalized();
        if (scanned != cl.size() || !nf.IsSubgraphOf(cl)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (seen[r].empty() || seen[r].back() != snap) {
          seen[r].push_back(std::move(snap));
        }
      }
    });
  }

  Rng rng(7);
  std::vector<Triple> own_inserts;
  for (int c = 0; c < kCommits; ++c) {
    MutationBatch batch;
    for (int i = 0; i < 32 && !own_inserts.empty(); ++i) {
      const size_t idx = rng.Below(own_inserts.size());
      batch.Erase(own_inserts[idx]);
      own_inserts[idx] = own_inserts.back();
      own_inserts.pop_back();
    }
    for (const Triple& t : gen.NextPublications(96)) {
      batch.Insert(t);
      own_inserts.push_back(t);
    }
    db.Apply(batch);
    // The writer's visibility read races the readers' nf builds.
    EXPECT_TRUE(db.Normalized().IsSubgraphOf(db.Closure()));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  size_t checked = 0;
  for (const auto& snaps : seen) {
    for (const std::shared_ptr<const DatabaseSnapshot>& snap : snaps) {
      EXPECT_EQ(snap->normalized(), Core(RdfsClosure(snap->data())))
          << "epoch " << snap->epoch();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // The corpus really folds, so the builds above erased in place.
  EXPECT_LT(db.Normalized().size(), db.Closure().size());
}

TEST(NormalFormEpochs, LaggingSnapshotKeepsItsOwnNormalForm) {
  // A snapshot published before an erase keeps the normal form of its
  // own, larger graph, even after the writer normalized the smaller one.
  Dictionary dict;
  Database db(&dict);
  Term a = dict.Iri("u:a");
  Term p = dict.Iri("u:p");
  Term q = dict.Iri("u:q");
  Term blank = dict.FreshBlank();
  db.Insert(Triple(a, p, blank));
  db.Insert(Triple(a, p, dict.Iri("u:b")));  // makes the component fold
  db.Insert(Triple(a, q, dict.Iri("u:c")));
  std::shared_ptr<const DatabaseSnapshot> lagging = db.Snapshot();

  // Erase the ground image: in the *new* state the blank component is
  // lean again.
  db.Erase(Triple(a, p, dict.Iri("u:b")));
  EXPECT_TRUE(db.Normalized().Contains(Triple(a, p, blank)));

  // The lagging snapshot still contains the ground image, so its
  // component folds.
  const Graph& nf = lagging->normalized();
  EXPECT_FALSE(nf.Contains(Triple(a, p, blank)));
  EXPECT_EQ(nf, Core(RdfsClosure(lagging->data())));
}

TEST(DatabaseSnapshot, ConcurrentReadersStayBitIdenticalWhileWriterCommits) {
  // Reader threads answer a fixed query set through epoch-tagged
  // snapshots while the writer applies mutation batches and queries
  // through its own snapshots; all of them share one evaluator's Skolem
  // cache. Every reader-observed answer vector must equal from-scratch
  // evaluation of that snapshot's frozen data — bit-identical,
  // including Skolem-minted head blanks.
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(11);
  for (int i = 0; i < 12; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.4));
  }
  std::vector<Query> queries;
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: ?X u:q ?Y .\n"
                               "body: ?X ?P ?Y .\n"
                               "body: ?Y ?P ?X .\n"));
  queries.push_back(testing::Q(&dict,
                               "head: _:m u:p ?Y .\n"
                               "body: ?X u:p ?Y .\n"));
  db.Snapshot();  // publish before readers start

  constexpr int kReaders = 4;
  constexpr int kWriterSteps = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> answers_checked{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &queries, &stop, &reader_failures,
                          &answers_checked] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        for (const Query& q : queries) {
          Result<std::vector<Graph>> served = snap->PreAnswer(q);
          Result<std::vector<Graph>> scratch =
              db.evaluator()->PreAnswer(q, snap->data());
          if (!served.ok() || !scratch.ok() || *served != *scratch) {
            reader_failures.fetch_add(1, std::memory_order_relaxed);
          }
          answers_checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Start committing only once some reader is answering, so the writer
  // cannot finish before any reader ran.
  while (answers_checked.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int step = 0; step < kWriterSteps; ++step) {
    MutationBatch batch;
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    batch.Insert(RandomTriple(universe, &writer_rng, 0.5));
    if (db.size() > 0 && writer_rng.Chance(0.3)) {
      batch.Erase(db.graph().triples()[writer_rng.Below(db.size())]);
    }
    db.Apply(batch);
    for (const Query& q : queries) {
      Result<std::vector<Graph>> writer_answers = db.PreAnswer(q);
      EXPECT_TRUE(writer_answers.ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(answers_checked.load(), 0u);
}

TEST(DatabaseSnapshot, ColdReadersRaceTheWritersFirstCalls) {
  // Readers take their first Snapshot() of a database whose closure the
  // writer has never been asked for, while the writer reads Closure(),
  // answers Entails and inserts. The constructor built the closure and
  // published, so a first Snapshot() is a pointer copy like any other
  // and never touches the writer's graphs.
  Dictionary dict;
  Database db(&dict);
  std::vector<Term> universe = Universe(&dict);
  Rng writer_rng(5);
  for (int i = 0; i < 10; ++i) {
    db.Insert(RandomTriple(universe, &writer_rng, 0.5));
  }

  constexpr int kReaders = 4;
  constexpr int kWriterSteps = 20;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &go, &stop, &failures] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      do {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        const Graph& cl = snap->closure();
        if (cl != RdfsClosure(snap->data())) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        for (const Triple& t : snap->data()) {
          if (!snap->EntailsTriple(t)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  go.store(true, std::memory_order_release);
  for (int step = 0; step < kWriterSteps; ++step) {
    EXPECT_EQ(db.Closure(), RdfsClosure(db.graph()));
    const Triple t = RandomTriple(universe, &writer_rng, 0.5);
    Result<bool> entailed = db.Entails(Graph({t}));
    ASSERT_TRUE(entailed.ok());
    EXPECT_EQ(*entailed, RdfsEntails(db.graph(), Graph({t})));
    db.Insert(t);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(DatabaseSnapshot, PremiseQueriesOnPinnedSnapshotsRaceTheWriter) {
  // Premise queries merge D + P and normalize it per call (interning and
  // minting through the shared dictionary and Skolem cache). Four readers
  // answer them on pinned snapshots while the writer applies
  // serving-shaped commits (32 erases of its own earlier inserts plus
  // NextPublications(96)); every recorded answer must equal direct
  // evaluation on that snapshot's data, computed after the readers join.
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 1'000;
  spec.seed = 3;
  spec.blank_author_fraction = 0.1;
  Sp2bGenerator gen(spec, &dict);
  Database db(&dict);
  db.InsertGraph(gen.GenerateCorpus());

  // The premise_cites and premise_author shapes over corpus entities,
  // drawn before the writer grows the generator's pools.
  const Sp2bVocab& v = gen.vocab();
  const Term d = dict.Var("D"), z = dict.Var("Z"), a = dict.Var("A"),
             y = dict.Var("Y");
  Rng pick(9);
  auto paper = [&] { return gen.papers()[pick.Below(gen.papers().size())]; };
  auto author = [&] {
    return gen.authors()[pick.Below(gen.authors().size())];
  };
  std::vector<Query> queries;
  for (int i = 0; i < 2; ++i) {
    const Term x = paper();
    Query cites;
    cites.premise = Graph({Triple(x, v.references, paper())});
    cites.body = Graph({Triple(x, v.references, z), Triple(z, v.creator, a)});
    cites.head = Graph({Triple(z, v.creator, a)});
    queries.push_back(std::move(cites));
    const Term who = author();
    Query wrote;
    wrote.premise = Graph({Triple(paper(), v.creator, who)});
    wrote.body = Graph({Triple(d, v.creator, who), Triple(d, v.issued, y)});
    wrote.head = Graph({Triple(d, v.issued, y)});
    queries.push_back(std::move(wrote));
  }

  struct Record {
    std::shared_ptr<const DatabaseSnapshot> snap;
    size_t query;
    Result<std::vector<Graph>> answer;
  };
  // Each reader records its answer on the first few distinct snapshots
  // it pins.
  constexpr int kReaders = 4;
  constexpr int kCommits = 8;
  constexpr size_t kRecordsPerReader = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> recording_readers{0};
  std::vector<std::vector<Record>> records(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<Record>& mine = records[r];
      for (size_t i = static_cast<size_t>(r);
           !stop.load(std::memory_order_relaxed); ++i) {
        std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
        const size_t q = i % queries.size();
        Result<std::vector<Graph>> answer = snap->PreAnswer(queries[q]);
        if (mine.size() < kRecordsPerReader &&
            (mine.empty() || mine.back().snap != snap)) {
          if (mine.empty()) recording_readers.fetch_add(1);
          mine.push_back({std::move(snap), q, std::move(answer)});
        }
      }
    });
  }

  Rng rng(7);
  std::vector<Triple> own_inserts;
  for (int c = 0; c < kCommits; ++c) {
    MutationBatch batch;
    for (int i = 0; i < 32 && !own_inserts.empty(); ++i) {
      const size_t idx = rng.Below(own_inserts.size());
      batch.Erase(own_inserts[idx]);
      own_inserts[idx] = own_inserts.back();
      own_inserts.pop_back();
    }
    for (const Triple& t : gen.NextPublications(96)) {
      batch.Insert(t);
      own_inserts.push_back(t);
    }
    db.Apply(batch);
  }
  while (recording_readers.load() < kReaders) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  size_t checked = 0;
  for (const std::vector<Record>& mine : records) {
    for (const Record& rec : mine) {
      const Result<std::vector<Graph>> direct =
          db.evaluator()->PreAnswer(queries[rec.query], rec.snap->data());
      ASSERT_TRUE(rec.answer.ok() && direct.ok());
      EXPECT_EQ(*rec.answer, *direct)
          << "query " << rec.query << " epoch " << rec.snap->epoch();
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<size_t>(kReaders));
}

TEST(DatabaseStatsAtomics, CopyAndResetBehave) {
  Dictionary dict;
  Database db(&dict);
  db.Insert(Triple(dict.Iri("a"), vocab::kType, dict.Iri("b")));
  DatabaseStats copy = db.stats();
  EXPECT_EQ(copy.inserts.load(), 1u);
  EXPECT_EQ(copy.closure_full_builds.load(), 1u);
  EXPECT_EQ(copy.snapshot_publishes.load(), 2u);
  db.ResetStats();
  EXPECT_EQ(db.stats().inserts.load(), 0u);
  EXPECT_EQ(db.stats().snapshot_publishes.load(), 0u);
  // The copy is independent of the reset.
  EXPECT_EQ(copy.inserts.load(), 1u);
}

}  // namespace
}  // namespace swdb
