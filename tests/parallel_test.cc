// The parallel execution layer:
//   * ThreadPool / Latch / TaskGroup primitives (inline degradation,
//     range coverage, nested fan-out);
//   * parallel PatternMatcher enumeration bit-identical to sequential
//     (solution sequence, order included) across fuzzed graphs/patterns;
//   * parallel FindAny returning the sequential first solution;
//   * shared step budgets staying exact under fan-out;
//   * RdfsClosureParallel / RdfsClosureDelta(pool) producing graphs
//     identical to the sequential engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "gen/generators.h"
#include "inference/closure.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace swdb {
namespace {

// ---------------------------------------------------------------------
// ThreadPool primitives.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int count = 0;  // no atomics needed: everything runs on this thread
  pool.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
  TaskGroup group(&pool);
  group.Run([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count, 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);  // chunks are disjoint: no races
  pool.ParallelFor(hits.size(), 7, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ParallelForZeroAndTiny) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 0, [&calls](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<size_t> total{0};
  pool.ParallelFor(3, 0, [&total](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 3u);
}

TEST(ThreadPool, NestedTaskGroupsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&pool, &count] {
      TaskGroup inner(&pool);  // fan out from inside a worker
      for (int j = 0; j < 8; ++j) {
        inner.Run([&count] { count.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(Latch, BlocksUntilCountedDown) {
  ThreadPool pool(2);
  Latch latch(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&latch, &done] {
      done.fetch_add(1);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), 3);
}

// ---------------------------------------------------------------------
// Parallel matcher: bit-identical to sequential.
// ---------------------------------------------------------------------

// The open terms of a pattern, in deterministic order.
std::vector<Term> OpenTerms(const Graph& pattern) {
  std::vector<Term> open;
  for (const Triple& t : pattern) {
    for (Term x : {t.s, t.p, t.o}) {
      if (x.IsVar() || x.IsBlank()) open.push_back(x);
    }
  }
  std::sort(open.begin(), open.end());
  open.erase(std::unique(open.begin(), open.end()), open.end());
  return open;
}

// Enumerates all solutions as tuples of open-term images, preserving
// the enumeration order.
std::vector<std::vector<Term>> Solutions(const Graph& pattern,
                                         const Graph& target,
                                         const MatchOptions& options,
                                         Status* status_out = nullptr) {
  const std::vector<Term> open = OpenTerms(pattern);
  std::vector<std::vector<Term>> out;
  PatternMatcher matcher(pattern, &target, options);
  Status s = matcher.Enumerate([&](const TermMap& v) {
    std::vector<Term> row;
    row.reserve(open.size());
    for (Term x : open) row.push_back(v.Apply(x));
    out.push_back(std::move(row));
    return true;
  });
  if (status_out != nullptr) *status_out = s;
  return out;
}

class ParallelMatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMatchFuzz, EnumerationBitIdenticalToSequential) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dictionary dict;
  Rng rng(seed);
  RandomGraphSpec spec;
  spec.num_nodes = 18;
  spec.num_triples = 120;
  spec.num_predicates = 3;
  spec.blank_ratio = 0.2;
  Graph data = RandomSimpleGraph(spec, &dict, &rng);
  Query q = PatternQueryFromGraph(data, 3, 0.6, &dict, &rng);

  ThreadPool pool(4);
  MatchOptions seq;
  MatchOptions par;
  par.pool = &pool;
  par.parallel_min_root = 2;  // force fan-out even on tiny root ranges

  std::vector<std::vector<Term>> want = Solutions(q.body, data, seq);
  std::vector<std::vector<Term>> got = Solutions(q.body, data, par);
  EXPECT_EQ(got, want) << "seed " << seed;
  EXPECT_FALSE(want.empty());  // PatternQueryFromGraph guarantees a match
}

TEST_P(ParallelMatchFuzz, FindAnyReturnsSequentialFirstSolution) {
  const uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  Dictionary dict;
  Rng rng(seed);
  RandomGraphSpec spec;
  spec.num_nodes = 14;
  spec.num_triples = 90;
  spec.blank_ratio = 0.4;
  Graph data = RandomSimpleGraph(spec, &dict, &rng);
  Query q = PatternQueryFromGraph(data, 3, 0.7, &dict, &rng);
  const std::vector<Term> open = OpenTerms(q.body);

  ThreadPool pool(4);
  MatchOptions par;
  par.pool = &pool;
  par.parallel_min_root = 2;

  PatternMatcher seq_matcher(q.body, &data, MatchOptions());
  PatternMatcher par_matcher(q.body, &data, par);
  Result<std::optional<TermMap>> want = seq_matcher.FindAny();
  Result<std::optional<TermMap>> got = par_matcher.FindAny();
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_TRUE(want->has_value());
  ASSERT_TRUE(got->has_value());
  for (Term x : open) {
    EXPECT_EQ((*got)->Apply(x), (*want)->Apply(x)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelMatchFuzz, ::testing::Range(1, 21));

TEST(ParallelMatch, SharedBudgetStaysExact) {
  Dictionary dict;
  Rng rng(7);
  RandomGraphSpec spec;
  spec.num_nodes = 12;
  spec.num_triples = 150;
  spec.num_predicates = 2;
  Graph data = RandomSimpleGraph(spec, &dict, &rng);
  // A joined pattern with a tiny budget: must exhaust, and the total
  // consumed steps must never exceed the budget even with many workers.
  Query q = PatternQueryFromGraph(data, 3, 0.9, &dict, &rng);

  ThreadPool pool(4);
  MatchOptions par;
  par.pool = &pool;
  par.parallel_min_root = 2;
  par.max_steps = 5;
  MatchStats stats;
  par.stats = &stats;

  PatternMatcher matcher(q.body, &data, par);
  Status s = matcher.Enumerate([](const TermMap&) { return true; });
  EXPECT_EQ(s.code(), StatusCode::kLimitExceeded);
  EXPECT_LE(stats.steps_used, par.max_steps);
}

TEST(ParallelMatch, StatsAggregateAcrossWorkers) {
  Dictionary dict;
  Rng rng(11);
  RandomGraphSpec spec;
  spec.num_nodes = 16;
  spec.num_triples = 100;
  Graph data = RandomSimpleGraph(spec, &dict, &rng);
  Query q = PatternQueryFromGraph(data, 3, 0.6, &dict, &rng);

  ThreadPool pool(4);
  MatchOptions seq;
  MatchStats seq_stats;
  seq.stats = &seq_stats;
  MatchOptions par;
  MatchStats par_stats;
  par.pool = &pool;
  par.parallel_min_root = 2;
  par.stats = &par_stats;

  Solutions(q.body, data, seq);
  Solutions(q.body, data, par);
  // A full (non-cancelled) enumeration explores the same tree; the core
  // counters must agree exactly with the sequential run.
  EXPECT_EQ(par_stats.solutions_found, seq_stats.solutions_found);
  EXPECT_EQ(par_stats.nodes_expanded, seq_stats.nodes_expanded);
  EXPECT_EQ(par_stats.binds_attempted, seq_stats.binds_attempted);
  EXPECT_EQ(par_stats.steps_used, seq_stats.steps_used);
}

// ---------------------------------------------------------------------
// Parallel closure: identical graphs.
// ---------------------------------------------------------------------

TEST(ParallelClosure, SchemaWorkloadMatchesSequential) {
  Dictionary dict;
  Rng rng(3);
  SchemaWorkloadSpec spec;
  spec.num_classes = 30;
  spec.num_properties = 12;
  spec.num_instances = 100;
  spec.num_facts = 250;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  ThreadPool pool(4);
  EXPECT_EQ(RdfsClosureParallel(g, &pool), RdfsClosure(g));
}

TEST(ParallelClosure, ScChainMatchesSequential) {
  Dictionary dict;
  Graph g = ScChain(60, &dict);  // Θ(n²) closure: many parallel rounds
  ThreadPool pool(4);
  EXPECT_EQ(RdfsClosureParallel(g, &pool), RdfsClosure(g));
}

TEST(ParallelClosure, SpChainWithUsesMatchesSequential) {
  Dictionary dict;
  Graph g = SpChainWithUses(40, 30, &dict);
  ThreadPool pool(4);
  EXPECT_EQ(RdfsClosureParallel(g, &pool), RdfsClosure(g));
}

TEST(ParallelClosure, PathologicalVocabularyMatchesSequential) {
  // Reserved vocabulary in subject/object positions exercises the rule
  // cascades the direct membership analysis cannot model; the parallel
  // engine must agree with the sequential one there too.
  Dictionary dict;
  Rng rng(5);
  std::vector<Term> universe = {
      dict.Iri("u:a"), dict.Iri("u:b"), dict.Iri("u:c"),
      dict.Iri("u:p"), dict.Iri("u:q"),
  };
  for (Term v : vocab::kAll) universe.push_back(v);
  std::vector<Triple> triples;
  for (int i = 0; i < 400; ++i) {
    Term s = universe[rng.Below(universe.size())];
    Term p = rng.Chance(0.5) ? vocab::kAll[rng.Below(vocab::kReservedIris)]
                             : universe[rng.Below(universe.size())];
    Term o = universe[rng.Below(universe.size())];
    triples.emplace_back(s, p, o);
  }
  Graph g(std::move(triples));
  ThreadPool pool(4);
  EXPECT_EQ(RdfsClosureParallel(g, &pool), RdfsClosure(g));
}

TEST(ParallelClosure, NullAndZeroThreadPoolsDegrade) {
  Dictionary dict;
  Graph g = ScChain(25, &dict);
  ThreadPool zero(0);
  EXPECT_EQ(RdfsClosureParallel(g, nullptr), RdfsClosure(g));
  EXPECT_EQ(RdfsClosureParallel(g, &zero), RdfsClosure(g));
}

TEST(ParallelClosure, DeltaWithPoolMatchesScratch) {
  Dictionary dict;
  Rng rng(9);
  SchemaWorkloadSpec spec;
  spec.num_classes = 20;
  spec.num_properties = 8;
  spec.num_instances = 60;
  spec.num_facts = 150;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  Graph cl = RdfsClosure(g);
  Graph delta = SpChainWithUses(15, 20, &dict);
  ThreadPool pool(4);
  Graph got = RdfsClosureDelta(cl, delta, nullptr, nullptr, &pool);
  EXPECT_EQ(got, RdfsClosure(Graph::Union(g, delta)));
}

}  // namespace
}  // namespace swdb
