// E4 — Thm 3.12: leanness testing is coNP-complete and core
// computation is hard; but structured instances stay tractable.
//
// Series reported:
//   * LeanBlankTree/n       — blank trees (no blank cycles): fast.
//   * LeanWithRedundancy/n  — graphs with folding opportunities.
//   * CoreRedundant/n       — core computation, n redundant blanks.
//   * CoreEncodedCycle/n    — enc(C_{2n}) ∪ enc(K2): the graph-core
//                             gadget of the Thm 3.12 reduction — the
//                             even cycle folds onto the edge.
//   * LeanCliqueGadget/k    — enc(K_k) plus a pendant blank: the
//                             exponential shape.
//
// Multi-component shapes:
//   * CoreComponentSweep/n  — n anchored clique gadgets, all lean: every
//                             component must be refuted.
//   * NormalFormLeanGadgets — nf(D) = core(cl(D)) end to end on 48
//                             gadgets plus a schema workload.
//   * CoreFoldingChain      — components that all fold, one per round.
//   * CoreSp2bBlankCorpus   — nf probe: Core(RdfsClosure(corpus)) of a
//                             10k SP²Bench corpus with 10% blank authors
//                             (seed 1), the serving-shaped nf build.
//   * CoreStarComponent/k   — one blank author on k papers: the lean
//                             k-triple star that dominated that build.

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "graphtheory/digraph.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "normal/normal_form.h"
#include "util/rng.h"
#include "util/str.h"

namespace swdb {
namespace {

// `count` disjoint blank components, each enc(K_k) with a ground anchor
// triple into the clique. The anchor makes each copy rigid (no map onto
// a sibling copy), so the whole graph is lean and Core() must refute a
// homomorphism for every dropped triple of every component — coNP work
// that decomposes into independent per-component searches.
Graph AnchoredCliqueGadgets(uint32_t count, uint32_t k, Dictionary* dict) {
  Term e = dict->Iri("e");
  Term ap = dict->Iri("anchor");
  Graph g;
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<Term> blanks;
    g.InsertAll(
        EncodeAsRdf(Digraph::CompleteSymmetric(k), dict, e, &blanks));
    g.Insert(dict->Iri(NumberedName("a", i)), ap, blanks[0]);
  }
  return g;
}

// `count` disjoint even-cycle components plus one shared ground K2:
// every component folds onto the ground edge, one per Core() round.
Graph FoldingCycleGadgets(uint32_t count, uint32_t cycle,
                          Dictionary* dict) {
  Term e = dict->Iri("e");
  Graph g = EncodeAsRdf(Digraph::CompleteSymmetric(2), dict, e);
  for (uint32_t i = 0; i < count; ++i) {
    g.InsertAll(EncodeAsRdf(Digraph::SymmetricCycle(cycle), dict, e));
  }
  return g;
}

Graph BlankTree(uint32_t depth, uint32_t fanout, Term p, Dictionary* dict) {
  Graph g;
  std::vector<Term> level{dict->FreshBlank()};
  for (uint32_t d = 0; d < depth; ++d) {
    std::vector<Term> next;
    for (Term parent : level) {
      for (uint32_t f = 0; f < fanout; ++f) {
        Term child = dict->FreshBlank();
        g.Insert(parent, p, child);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  return g;
}

void BM_LeanBlankTree(benchmark::State& state) {
  const uint32_t depth = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Graph g = BlankTree(depth, 2, dict.Iri("p"), &dict);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsLean(g));
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_LeanBlankTree)->Arg(2)->Arg(4)->Arg(6)->Arg(7);

void BM_LeanWithRedundancy(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(17);
  Graph g;
  Term p = dict.Iri("p");
  // Ground base plus n redundant blank specializations.
  for (uint32_t i = 0; i < n; ++i) {
    Term s = dict.Iri(NumberedName("s", i));
    Term o = dict.Iri(NumberedName("o", i));
    g.Insert(s, p, o);
    g.Insert(s, p, dict.FreshBlank());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsLean(g));
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_LeanWithRedundancy)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_CoreRedundant(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Term p = dict.Iri("p");
  Graph g;
  Term hub = dict.Iri("hub");
  g.Insert(hub, p, dict.Iri("x"));
  for (uint32_t i = 0; i < n; ++i) {
    g.Insert(hub, p, dict.FreshBlank());
  }
  size_t core_size = 0;
  for (auto _ : state) {
    Graph core = Core(g);
    core_size = core.size();
    benchmark::DoNotOptimize(core);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|core|"] = static_cast<double>(core_size);
}
BENCHMARK(BM_CoreRedundant)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

void BM_CoreEncodedCycle(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Term e = dict.Iri("e");
  // Even cycle + K2: core folds the cycle onto the edge.
  Graph g = EncodeAsRdf(Digraph::SymmetricCycle(2 * n), &dict, e);
  g.InsertAll(EncodeAsRdf(Digraph::CompleteSymmetric(2), &dict, e));
  size_t core_size = 0;
  for (auto _ : state) {
    Graph core = Core(g);
    core_size = core.size();
    benchmark::DoNotOptimize(core);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|core|"] = static_cast<double>(core_size);
}
BENCHMARK(BM_CoreEncodedCycle)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_LeanOddCycleGadget(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Term e = dict.Iri("e");
  // enc(C_{2n+1}) is lean (odd symmetric cycles are graph cores, the
  // Hell–Nešetřil gadget behind Thm 3.12), so certifying leanness must
  // refute a homomorphism for every dropped triple — the coNP shape.
  Graph g = EncodeAsRdf(Digraph::SymmetricCycle(2 * n + 1), &dict, e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsLean(g));
  }
  state.counters["cycle"] = 2 * n + 1;
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_LeanOddCycleGadget)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// --- Multi-component core and nf -----------------------------------

void BM_NormalFormLeanGadgets(benchmark::State& state) {
  constexpr uint32_t kGadgets = 48;
  constexpr uint32_t kCliqueSize = 5;
  Dictionary dict;
  Rng rng(23);
  SchemaWorkloadSpec spec;
  spec.num_classes = 12;
  spec.num_properties = 8;
  spec.num_instances = 60;
  spec.num_facts = 150;
  Graph g = SchemaWorkload(spec, &dict, &rng);
  g.InsertAll(AnchoredCliqueGadgets(kGadgets, kCliqueSize, &dict));
  size_t nf_size = 0;
  for (auto _ : state) {
    Graph nf = NormalForm(g);
    nf_size = nf.size();
    benchmark::DoNotOptimize(nf);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|nf|"] = static_cast<double>(nf_size);
}
BENCHMARK(BM_NormalFormLeanGadgets)->Unit(benchmark::kMillisecond);

void BM_CoreFoldingChain(benchmark::State& state) {
  constexpr uint32_t kGadgets = 24;
  constexpr uint32_t kCycle = 8;
  Dictionary dict;
  Graph g = FoldingCycleGadgets(kGadgets, kCycle, &dict);
  size_t core_size = 0;
  for (auto _ : state) {
    Graph core = Core(g);
    core_size = core.size();
    benchmark::DoNotOptimize(core);
  }
  state.counters["components"] = kGadgets + 1;
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|core|"] = static_cast<double>(core_size);
}
BENCHMARK(BM_CoreFoldingChain)->Unit(benchmark::kMillisecond);

void BM_CoreComponentSweep(benchmark::State& state) {
  const uint32_t gadgets = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kCliqueSize = 5;
  Dictionary dict;
  Graph g = AnchoredCliqueGadgets(gadgets, kCliqueSize, &dict);
  size_t core_size = 0;
  for (auto _ : state) {
    Graph core = Core(g);
    core_size = core.size();
    benchmark::DoNotOptimize(core);
  }
  state.counters["components"] = gadgets;
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|core|"] = static_cast<double>(core_size);
}
BENCHMARK(BM_CoreComponentSweep)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_CoreSp2bBlankCorpus(benchmark::State& state) {
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 10'000;
  spec.seed = 1;
  spec.blank_author_fraction = 0.1;
  Sp2bGenerator gen(spec, &dict);
  // Warmed like a published snapshot's closure, so the timed Core sees
  // the same leaf-sharing input the serving nf build does.
  const Graph closure = RdfsClosure(gen.GenerateCorpus());
  closure.WarmIndexes();
  CoreStats stats;
  size_t core_size = 0;
  for (auto _ : state) {
    Result<Graph> core = CoreChecked(closure, MatchOptions(), nullptr, &stats);
    if (!core.ok()) {
      state.SkipWithError("core step budget exhausted");
      return;
    }
    core_size = core->size();
    benchmark::DoNotOptimize(core);
  }
  state.counters["|cl|"] = static_cast<double>(closure.size());
  state.counters["|core|"] = static_cast<double>(core_size);
  state.counters["components"] =
      static_cast<double>(BlankComponents(closure).size());
  state.counters["folds"] = static_cast<double>(stats.folds);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
  state.counters["steps_used"] = static_cast<double>(stats.steps_used);
}
BENCHMARK(BM_CoreSp2bBlankCorpus)->Unit(benchmark::kMillisecond);

void BM_CoreStarComponent(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  const Graph g = BlankAuthorStar(k, &dict);
  g.WarmIndexes();
  CoreStats stats;
  for (auto _ : state) {
    Result<Graph> core = CoreChecked(g, MatchOptions(), nullptr, &stats);
    if (!core.ok()) {
      state.SkipWithError("core step budget exhausted");
      return;
    }
    benchmark::DoNotOptimize(core);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["folds"] = static_cast<double>(stats.folds);
  state.counters["steps_used"] = static_cast<double>(stats.steps_used);
}
BENCHMARK(BM_CoreStarComponent)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
