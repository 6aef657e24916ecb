// E17 — columnar triple storage: the repeated-position residual.
//
// A pattern triple that repeats an open term, (X, p, X), resolves to the
// whole p-run; only its diagonal rows can bind. The matcher keeps those
// rows with one pass over two backing columns (MatchRange::
// FilterPairEqual) instead of materializing and rejecting each triple.
//
// Series, at ~1M triples with a ~65k-row p-run:
//   * PairEqMatchRange    — Graph::Matches + FilterPairEqual on the
//                           p-run, with GraphStats exported as counters.
//   * RepeatedSlotIterate — materialize every candidate of the p-run and
//                           reject the off-diagonal ones one by one.
//   * RepeatedSlotMatcher — PatternMatcher on (X, p, X), which takes the
//                           FilterPairEqual path.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/term.h"

namespace swdb {
namespace {

constexpr size_t kTriples = 1u << 20;  // ~1.05M rows
constexpr uint32_t kPreds = 16;        // p-run ≈ 65k rows
constexpr uint32_t kSubjects = 1u << 16;
constexpr uint32_t kObjects = 1u << 10;

Term Subj(uint32_t i) { return Term::Iri(vocab::kReservedIris + i); }
Term Pred(uint32_t i) { return Term::Iri(1u << 20 | i); }
Term Obj(uint32_t i) { return Term::Iri(2u << 20 | i); }

const Graph& G() {
  static const Graph g = [] {
    std::mt19937 rng(20260808);
    std::vector<Triple> v;
    v.reserve(kTriples);
    for (size_t i = 0; i < kTriples; ++i) {
      const Term s = Subj(rng() % kSubjects);
      const Term p = Pred(rng() % kPreds);
      // ~3% diagonal rows so the pair-equality series has survivors.
      const Term o = (rng() % 32 == 0) ? s : Obj(rng() % kObjects);
      v.push_back(Triple(s, p, o));
    }
    Graph built(std::move(v));
    built.WarmIndexes();
    return built;
  }();
  return g;
}

size_t RunSize() {
  return G().CountMatches(std::nullopt, Pred(0), std::nullopt);
}

void BM_PairEqMatchRange(benchmark::State& state) {
  const Graph& g = G();
  std::vector<uint32_t> out;
  size_t hits = 0;
  for (auto _ : state) {
    const MatchRange range = g.Matches(std::nullopt, Pred(0), std::nullopt);
    out.clear();
    hits = range.FilterPairEqual(0, 2, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * RunSize());
  state.counters["run"] = static_cast<double>(RunSize());
  state.counters["hits"] = static_cast<double>(hits);
  const GraphStats st = g.Stats();
  state.counters["bytes_total"] = static_cast<double>(st.bytes_total());
  state.counters["bytes_cols"] = static_cast<double>(
      st.bytes_pso + st.bytes_pos + st.bytes_osp);
  state.counters["rebuilds"] = static_cast<double>(st.index_rebuilds);
}
BENCHMARK(BM_PairEqMatchRange);

void BM_RepeatedSlotIterate(benchmark::State& state) {
  const Graph& g = G();
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    const MatchRange range = g.Matches(std::nullopt, Pred(0), std::nullopt);
    for (const Triple& t : range) {
      if (t.s == t.o) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * RunSize());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_RepeatedSlotIterate);

void BM_RepeatedSlotMatcher(benchmark::State& state) {
  const Graph& g = G();
  const Term x = Term::Var(0);
  std::vector<Triple> pattern = {Triple(x, Pred(0), x)};
  size_t solutions = 0;
  MatchStats stats;
  for (auto _ : state) {
    MatchOptions options;
    options.stats = &stats;
    PatternMatcher matcher(pattern, &g, options);
    solutions = 0;
    Status s = matcher.Enumerate([&](const TermMap&) {
      ++solutions;
      return true;
    });
    benchmark::DoNotOptimize(s.ok());
    benchmark::DoNotOptimize(solutions);
  }
  state.SetItemsProcessed(state.iterations() * RunSize());
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["scanned"] = static_cast<double>(stats.candidates_scanned);
  state.counters["binds"] = static_cast<double>(stats.binds_attempted);
}
BENCHMARK(BM_RepeatedSlotMatcher);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
