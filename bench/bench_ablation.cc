// E11 (ablations) — design choices called out in DESIGN.md, measured:
//
//   * ClosureFixpoint/n vs ClosureNaive/n — the semi-naive fixpoint that
//     every closure entry point runs against the rule-enumeration
//     reference implementation.
//   * ClosureFull/n vs ClosurePreMarin/n vs ClosureNoReflexivity/n —
//     rule-subset cost and output-size deltas (|cl| counters), filtered
//     inside the same fixpoint. Without reflexivity, rules (6)/(7) type
//     direct uses only where an explicit (A, sp, A) is present.
//   * SolverDynamic/k vs SolverStatic/k — most-constrained-first
//     ordering against static order on join-heavy chain patterns.
//   * CoreComponentwise/n — blank-component decomposition of the
//     leanness search (the whole-graph alternative is the same search
//     with one artificial component; measured via a star of components).

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "inference/closure.h"
#include "normal/core.h"
#include "rdf/hom.h"
#include "util/rng.h"
#include "util/str.h"

namespace swdb {
namespace {

Graph MakeSchema(uint32_t n, Dictionary* dict, uint64_t seed) {
  Rng rng(seed);
  SchemaWorkloadSpec spec;
  spec.num_classes = n / 5 + 2;
  spec.num_properties = n / 8 + 2;
  spec.num_instances = n;
  spec.num_facts = 2 * n;
  return SchemaWorkload(spec, dict, &rng);
}

void BM_ClosureFixpoint(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Graph g = MakeSchema(n, &dict, 91);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RdfsClosure(g));
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_ClosureFixpoint)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_ClosureNaive(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Graph g = MakeSchema(n, &dict, 91);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RdfsClosureNaive(g));
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_ClosureNaive)->Arg(10)->Arg(20)->Arg(40);

void RunRuleSet(benchmark::State& state, const RuleSet& rules) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Graph g = MakeSchema(n, &dict, 93);
  size_t closure_size = 0;
  for (auto _ : state) {
    Graph cl = RdfsClosureWithRules(g, rules);
    closure_size = cl.size();
    benchmark::DoNotOptimize(cl);
  }
  state.counters["|G|"] = static_cast<double>(g.size());
  state.counters["|cl|"] = static_cast<double>(closure_size);
}

void BM_ClosureFull(benchmark::State& state) {
  RunRuleSet(state, RuleSet::All());
}
BENCHMARK(BM_ClosureFull)->Arg(40)->Arg(80)->Arg(160);

void BM_ClosurePreMarin(benchmark::State& state) {
  RunRuleSet(state, RuleSet::PreMarin());
}
BENCHMARK(BM_ClosurePreMarin)->Arg(40)->Arg(80)->Arg(160);

void BM_ClosureNoReflexivity(benchmark::State& state) {
  RuleSet rules;
  rules.reflexivity = false;
  RunRuleSet(state, rules);
}
BENCHMARK(BM_ClosureNoReflexivity)->Arg(40)->Arg(80)->Arg(160);

void RunSolver(benchmark::State& state, bool static_order) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Rng rng(95);
  RandomGraphSpec spec;
  spec.num_nodes = 40;
  spec.num_triples = 200;
  spec.num_predicates = 2;
  spec.blank_ratio = 0;
  Graph data = RandomSimpleGraph(spec, &dict, &rng);
  // A selective chain anchored on a constant at the END: dynamic
  // ordering starts from the anchor; static order must join front-first.
  Term p = dict.Iri("urn:p0");
  Graph pattern;
  Term anchor = data[0].s;
  std::vector<Term> vars;
  for (uint32_t i = 0; i <= k; ++i) {
    vars.push_back(dict.Var(NumberedName("h", i)));
  }
  for (uint32_t i = 0; i < k; ++i) {
    pattern.Insert(vars[i], p, vars[i + 1]);
  }
  pattern.Insert(vars[k], p, anchor);
  MatchOptions options;
  options.static_order = static_order;
  options.max_steps = 200'000'000;
  for (auto _ : state) {
    PatternMatcher matcher(pattern.triples(), &data, options);
    size_t solutions = 0;
    Status s = matcher.Enumerate([&solutions](const TermMap&) {
      ++solutions;
      return true;
    });
    benchmark::DoNotOptimize(s);
    state.counters["solutions"] = static_cast<double>(solutions);
  }
  state.counters["|q|"] = k;
}

void BM_SolverDynamic(benchmark::State& state) {
  RunSolver(state, /*static_order=*/false);
}
BENCHMARK(BM_SolverDynamic)->Arg(2)->Arg(4)->Arg(6);

void BM_SolverStatic(benchmark::State& state) {
  RunSolver(state, /*static_order=*/true);
}
BENCHMARK(BM_SolverStatic)->Arg(2)->Arg(4)->Arg(6);

void BM_CoreComponentwise(benchmark::State& state) {
  // n independent small blank components: component decomposition makes
  // each probe pattern O(1) instead of O(n).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Dictionary dict;
  Term p = dict.Iri("p");
  Graph g;
  for (uint32_t i = 0; i < n; ++i) {
    Term s = dict.Iri(NumberedName("s", i));
    Term blank = dict.FreshBlank();
    g.Insert(s, p, blank);
    g.Insert(blank, p, dict.Iri(NumberedName("o", i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsLean(g));
  }
  state.counters["|G|"] = static_cast<double>(g.size());
}
BENCHMARK(BM_CoreComponentwise)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
