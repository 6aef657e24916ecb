// E14 — the incremental maintenance engine vs from-scratch recomputation.
//
// Series reported (all on SchemaWorkload graphs; see EXPERIMENTS.md):
//   * InsertSeriesFull/n        — K single-triple inserts, each followed
//                                 by a full RdfsClosure refixpoint (the
//                                 pre-maintenance Database behaviour).
//   * InsertSeriesDelta/n       — the same series through one maintained
//                                 IncrementalClosure::InsertDelta. The
//                                 per-update time ratio at the largest n
//                                 is the ≥10× acceptance bar.
//   * EraseSeriesFull/n         — K single-triple erases, full refixpoint
//                                 each.
//   * EraseSeriesDRed/n         — the same series via EraseDelta
//                                 (over-delete + re-derive).
//   * MixedSeries/n             — K ops through one IncrementalClosure,
//                                 each erasing one base triple and then
//                                 inserting one novel fact: the
//                                 erase/insert interleaving of a serving
//                                 writer's commits.
//   * IndexPatchInsert/n        — one Graph::Insert + Erase pair with
//                                 warm permutation indexes (one-key
//                                 Applies, written in place).
//
// Counters: |G|, |cl|, derived/op (mean new derivations per insert),
// and for the delta series `speedup_hint` = full-series ns from a
// one-shot calibration (informative only; the authoritative ratio is
// computed across series by scripts/bench_incremental.sh).

#include <benchmark/benchmark.h>

#include <vector>

#include "gen/generators.h"
#include "inference/closure.h"
#include "rdf/graph.h"
#include "util/rng.h"

namespace swdb {
namespace {

constexpr int kUpdates = 64;  // single-triple updates per series

SchemaWorkloadSpec SpecFor(uint32_t n) {
  SchemaWorkloadSpec spec;
  spec.num_classes = n / 16 + 4;
  spec.num_properties = n / 32 + 3;
  spec.num_instances = n / 2;
  spec.num_facts = n;
  return spec;
}

// Fresh fact triples over the workload's existing instance/property
// universe, none already present in g.
std::vector<Triple> NovelFacts(const Graph& g, Dictionary* dict, int count,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Term> subjects, objects, props;
  for (const Triple& t : g) {
    if (!vocab::IsRdfsVocab(t.p)) props.push_back(t.p);
    subjects.push_back(t.s);
    objects.push_back(t.o);
  }
  std::vector<Triple> out;
  Graph taken = g;
  while (static_cast<int>(out.size()) < count) {
    Triple t(subjects[rng.Below(subjects.size())],
             props[rng.Below(props.size())],
             objects[rng.Below(objects.size())]);
    if (!t.IsWellFormedData() || !taken.Insert(t)) continue;
    out.push_back(t);
  }
  return out;
}

// --- Closure maintenance: insert series ------------------------------

void BM_InsertSeriesFull(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph base = SchemaWorkload(SpecFor(n), &dict, &rng);
  std::vector<Triple> updates = NovelFacts(base, &dict, kUpdates, n * 31);
  size_t closure_size = 0;
  for (auto _ : state) {
    Graph g = base;
    for (const Triple& t : updates) {
      g.Insert(t);
      Graph cl = RdfsClosure(g);
      closure_size = cl.size();
      benchmark::DoNotOptimize(cl);
    }
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["|G|"] = static_cast<double>(base.size());
  state.counters["|cl|"] = static_cast<double>(closure_size);
}
BENCHMARK(BM_InsertSeriesFull)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_InsertSeriesDelta(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph base = SchemaWorkload(SpecFor(n), &dict, &rng);
  std::vector<Triple> updates = NovelFacts(base, &dict, kUpdates, n * 31);
  size_t closure_size = 0;
  size_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    IncrementalClosure inc(base);  // the initial fixpoint is prep,
    state.ResumeTiming();          // the series is what we measure
    derived = 0;
    for (const Triple& t : updates) {
      ClosureDeltaStats ds;
      inc.InsertDelta(Graph({t}), &ds);
      derived += ds.derived;
    }
    closure_size = inc.closure().size();
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["|G|"] = static_cast<double>(base.size());
  state.counters["|cl|"] = static_cast<double>(closure_size);
  state.counters["derived/op"] =
      static_cast<double>(derived) / static_cast<double>(kUpdates);
}
BENCHMARK(BM_InsertSeriesDelta)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- Closure maintenance: erase series -------------------------------

void BM_EraseSeriesFull(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph base = SchemaWorkload(SpecFor(n), &dict, &rng);
  size_t closure_size = 0;
  for (auto _ : state) {
    Graph g = base;
    Rng victim_rng(n * 7);
    for (int i = 0; i < kUpdates; ++i) {
      g.Erase(g[victim_rng.Below(g.size())]);
      Graph cl = RdfsClosure(g);
      closure_size = cl.size();
      benchmark::DoNotOptimize(cl);
    }
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["|G|"] = static_cast<double>(base.size());
  state.counters["|cl|"] = static_cast<double>(closure_size);
}
BENCHMARK(BM_EraseSeriesFull)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_EraseSeriesDRed(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph base = SchemaWorkload(SpecFor(n), &dict, &rng);
  size_t overdeleted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = base;
    IncrementalClosure inc(g);
    state.ResumeTiming();
    Rng victim_rng(n * 7);
    overdeleted = 0;
    for (int i = 0; i < kUpdates; ++i) {
      Triple victim = g[victim_rng.Below(g.size())];
      g.Erase(victim);
      ClosureDeltaStats ds;
      inc.EraseDelta(g, Graph({victim}), &ds);
      overdeleted += ds.overdeleted;
    }
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["|G|"] = static_cast<double>(base.size());
  state.counters["overdeleted/op"] =
      static_cast<double>(overdeleted) / static_cast<double>(kUpdates);
}
BENCHMARK(BM_EraseSeriesDRed)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// --- Closure maintenance: interleaved erase + insert -----------------

void BM_MixedSeries(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph base = SchemaWorkload(SpecFor(n), &dict, &rng);
  std::vector<Triple> updates = NovelFacts(base, &dict, kUpdates, n * 31);
  size_t derived = 0;
  size_t overdeleted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = base;
    IncrementalClosure inc(g);
    state.ResumeTiming();
    Rng victim_rng(n * 7);
    derived = 0;
    overdeleted = 0;
    for (const Triple& t : updates) {
      Triple victim = g[victim_rng.Below(g.size())];
      g.Erase(victim);
      ClosureDeltaStats ds;
      inc.EraseDelta(g, Graph({victim}), &ds);
      overdeleted += ds.overdeleted;
      g.Insert(t);
      inc.InsertDelta(Graph({t}), &ds);
      derived += ds.derived;
    }
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["|G|"] = static_cast<double>(base.size());
  state.counters["derived/op"] =
      static_cast<double>(derived) / static_cast<double>(kUpdates);
  state.counters["overdeleted/op"] =
      static_cast<double>(overdeleted) / static_cast<double>(kUpdates);
}
BENCHMARK(BM_MixedSeries)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- Graph index maintenance -----------------------------------------

void BM_IndexPatchInsert(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(n);
  Graph g = SchemaWorkload(SpecFor(n), &dict, &rng);
  std::vector<Triple> updates = NovelFacts(g, &dict, 64, n * 13);
  g.CountMatches(std::nullopt, vocab::kType, std::nullopt);  // warm indexes
  size_t i = 0;
  for (auto _ : state) {
    const Triple& t = updates[i++ % updates.size()];
    g.Insert(t);  // writes the three warm permutation indexes in place
    g.Erase(t);   // ditto; graph size stays constant across iterations
    benchmark::DoNotOptimize(g);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_IndexPatchInsert)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
