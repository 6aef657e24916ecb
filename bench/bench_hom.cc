// E13 — homomorphism kernel: the dense-binding PatternMatcher on
// classic hard and index-sensitive workloads, with its MatchStats
// exported as benchmark counters. (The series keep their `New` suffix
// from when they were recorded beside the retired map-based matcher;
// EXPERIMENTS.md E13 quotes that comparison as history.)
//
// Counters are the last run's MatchStats: nodes, candidates, steps,
// selectivity recomputes, and sibling-cursor seeks and prunes.
//
// Series reported:
//   * CliqueRefuted/k    — enc(K_k) ⊨ enc(K_{k+1}): exhaustive refusal.
//   * CliqueIntoSelf/k   — enc(K_k) → enc(K_k): satisfiable search.
//   * OddCycle/n         — enc(C_{2n+1}) → enc(K3): 3-coloring gadget.
//   * CoreFold/n         — enc(C_{2n}) → itself minus one triple: the
//                          proper-endomorphism probe of core computation.
//   * ObjectBoundStar/n  — object-constant pattern over a wide graph:
//                          the osp-index case.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <optional>

#include "graphtheory/digraph.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "util/str.h"

namespace swdb {
namespace {

// ---------------------------------------------------------------------
// Workload builders.
// ---------------------------------------------------------------------
struct Workload {
  Dictionary dict;
  Graph pattern;
  Graph target;
  MatchOptions options;
};

Workload CliqueRefuted(uint32_t k) {
  Workload w;
  Term e = w.dict.Iri("e");
  w.target = EncodeAsRdf(Digraph::CompleteSymmetric(k), &w.dict, e);
  w.pattern = EncodeAsRdf(Digraph::CompleteSymmetric(k + 1), &w.dict, e);
  w.options.max_steps = 500'000'000;
  return w;
}

Workload CliqueIntoSelf(uint32_t k) {
  Workload w;
  Term e = w.dict.Iri("e");
  w.target = EncodeAsRdf(Digraph::CompleteSymmetric(k), &w.dict, e);
  w.pattern = EncodeAsRdf(Digraph::CompleteSymmetric(k), &w.dict, e);
  return w;
}

Workload OddCycle(uint32_t n) {
  Workload w;
  Term e = w.dict.Iri("e");
  w.target = EncodeAsRdf(Digraph::CompleteSymmetric(3), &w.dict, e);
  w.pattern = EncodeAsRdf(Digraph::SymmetricCycle(2 * n + 1), &w.dict, e);
  return w;
}

Workload CoreFold(uint32_t n) {
  Workload w;
  Term e = w.dict.Iri("e");
  w.target = EncodeAsRdf(Digraph::SymmetricCycle(2 * n), &w.dict, e);
  w.pattern = w.target;
  w.options.exclude_triple = *w.target.begin();
  return w;
}

Workload ObjectBoundStar(uint32_t n) {
  Workload w;
  // A wide haystack where only object-bound lookups are selective.
  for (uint32_t i = 0; i < n; ++i) {
    w.target.Insert(w.dict.Iri(NumberedName("s", i)),
                    w.dict.Iri(NumberedName("p", i % 7)),
                    w.dict.Iri(NumberedName("t", i)));
  }
  Term hub = w.dict.Iri("hub");
  w.target.Insert(hub, w.dict.Iri("p0"), w.dict.Iri("needle1"));
  w.target.Insert(hub, w.dict.Iri("p1"), w.dict.Iri("needle2"));
  // Both triples bind only through their constant objects.
  w.pattern.Insert(w.dict.Var("X"), w.dict.Var("P"),
                   w.dict.Iri("needle1"));
  w.pattern.Insert(w.dict.Var("X"), w.dict.Var("Q"),
                   w.dict.Iri("needle2"));
  return w;
}

void RunNew(benchmark::State& state, Workload w) {
  MatchStats stats;
  w.options.stats = &stats;
  for (auto _ : state) {
    PatternMatcher matcher(w.pattern, &w.target, w.options);
    Result<std::optional<TermMap>> r = matcher.FindAny();
    benchmark::DoNotOptimize(r);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes_expanded);
  state.counters["cands"] = static_cast<double>(stats.candidates_scanned);
  state.counters["steps"] = static_cast<double>(stats.steps_used);
  state.counters["recomputes"] =
      static_cast<double>(stats.selectivity_recomputes);
  state.counters["seeks"] = static_cast<double>(stats.sibling_seeks);
  state.counters["prunes"] = static_cast<double>(stats.sibling_prunes);
}

void BM_CliqueRefutedNew(benchmark::State& state) {
  RunNew(state, CliqueRefuted(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_CliqueRefutedNew)->Arg(3)->Arg(4)->Arg(5);

void BM_CliqueIntoSelfNew(benchmark::State& state) {
  RunNew(state, CliqueIntoSelf(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_CliqueIntoSelfNew)->Arg(6)->Arg(8);

void BM_OddCycleNew(benchmark::State& state) {
  RunNew(state, OddCycle(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_OddCycleNew)->Arg(20)->Arg(80);

void BM_CoreFoldNew(benchmark::State& state) {
  RunNew(state, CoreFold(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_CoreFoldNew)->Arg(8)->Arg(16)->Arg(32);

void BM_ObjectBoundStarNew(benchmark::State& state) {
  RunNew(state, ObjectBoundStar(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_ObjectBoundStarNew)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
