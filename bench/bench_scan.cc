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
//
// And the read path's lookups on a 200k-triple sp2b closure (ground, so
// it is also the nf the serving path answers against):
//   * EqualRangeSp2b/k    — Graph::Matches on random (s,p) [k=0], (p,o)
//                           [k=1] and (o) [k=2] keys drawn from the
//                           closure: the spines' two-level search.
//                           `scanned` is probes per lookup.
//   * PreAnswerSp2bJoin/t — PreAnswerPrenormalized on year_articles [t=0],
//                           venue_papers [t=1] and docs_in_year [t=2]
//                           requests of the serving mix: matching plus
//                           flat answer building.
//                           `allocs_per_answer` is the heap allocations
//                           of the timed calls over the answers they
//                           return, counted by this binary's
//                           operator new.
//   * PathSp2b/k          — EvalPathFrom on the corpus's *data* graph,
//                           as the serving path evaluates paths:
//                           type_of_path from a paper [k=0] and from an
//                           author [k=1], citation_reach from a paper
//                           [k=2]. `rows_per_eval` is the index rows the
//                           evaluation's lookups yield (GraphStats).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gen/sp2b.h"
#include "inference/closure.h"
#include "paths/path.h"
#include "query/answer.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/term.h"
#include "serve/workload.h"
#include "util/rng.h"

// Every operator new of this binary (array and nothrow forms forward
// to it) bumps one counter; deletes go back to free. All stay out of
// line so the compiler never pairs an inlined malloc or free with a
// new or delete expression.
namespace {
std::atomic<uint64_t> heap_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// The 200k sp2b corpus, its closure (both with indexes warm) and the
// serving mix over it, built once.
struct Sp2bClosure {
  Dictionary dict;
  std::unique_ptr<Sp2bGenerator> gen;
  Graph data;
  Graph closure;
  std::unique_ptr<WorkloadMix> mix;
};

Sp2bClosure& Sp2b() {
  static Sp2bClosure* st = [] {
    auto* s = new Sp2bClosure();
    Sp2bSpec spec;
    spec.target_triples = 200000;
    spec.seed = 1;
    s->gen = std::make_unique<Sp2bGenerator>(spec, &s->dict);
    s->data = s->gen->GenerateCorpus();
    s->data.WarmIndexes();
    s->closure = RdfsClosure(s->data);
    s->closure.WarmIndexes();
    s->mix = std::make_unique<WorkloadMix>(*s->gen, &s->dict);
    return s;
  }();
  return *st;
}

void BM_EqualRangeSp2b(benchmark::State& state) {
  const Graph& g = Sp2b().closure;
  const int kind = static_cast<int>(state.range(0));
  constexpr size_t kKeys = 4096;
  std::mt19937 rng(17);
  std::vector<Triple> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) keys.push_back(g[rng() % g.size()]);
  const GraphStats before = g.Stats();
  size_t i = 0;
  size_t rows = 0;
  for (auto _ : state) {
    const Triple& t = keys[i++ % kKeys];
    const MatchRange r =
        kind == 0   ? g.Matches(t.s, t.p, std::nullopt)
        : kind == 1 ? g.Matches(std::nullopt, t.p, t.o)
                    : g.Matches(std::nullopt, std::nullopt, t.o);
    rows += r.size();
    benchmark::DoNotOptimize(rows);
  }
  const GraphStats after = g.Stats();
  const double lookups = static_cast<double>(state.iterations());
  state.SetLabel(kind == 0 ? "(s,p)" : kind == 1 ? "(p,o)" : "(o)");
  state.counters["triples"] = static_cast<double>(g.size());
  state.counters["scanned"] =
      static_cast<double>(after.rows_scanned - before.rows_scanned) / lookups;
  state.counters["rows"] = static_cast<double>(rows) / lookups;
}
BENCHMARK(BM_EqualRangeSp2b)->Arg(0)->Arg(1)->Arg(2);

void BM_PreAnswerSp2bJoin(benchmark::State& state) {
  Sp2bClosure& st = Sp2b();
  const TemplateId id = state.range(0) == 0   ? TemplateId::kYearArticles
                        : state.range(0) == 1 ? TemplateId::kVenuePapers
                                              : TemplateId::kDocsInYear;
  constexpr size_t kRequests = 64;
  Rng rng(5);
  std::vector<Query> queries;
  for (size_t i = 0; i < kRequests; ++i) {
    queries.push_back(st.mix->Build(id, &rng).query);
  }
  QueryEvaluator eval(&st.dict);
  // Matchings and answers per request, counted once outside the timing.
  double matchings = 0;
  double answers = 0;
  std::vector<size_t> answers_of;
  for (const Query& q : queries) {
    PatternMatcher matcher(q.body, &st.closure);
    const Status counted = matcher.Enumerate([&](const TermMap& v) {
      matchings += q.SatisfiesConstraints(v) ? 1 : 0;
      return true;
    });
    Result<std::vector<Graph>> pre = eval.PreAnswerPrenormalized(q, st.closure);
    if (!counted.ok() || !pre.ok()) {
      state.SkipWithError("pre-answer failed");
      return;
    }
    answers += static_cast<double>(pre->size());
    answers_of.push_back(pre->size());
  }
  size_t i = 0;
  const uint64_t allocs_before = heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Result<std::vector<Graph>> pre =
        eval.PreAnswerPrenormalized(queries[i++ % kRequests], st.closure);
    benchmark::DoNotOptimize(pre.ok());
  }
  const uint64_t allocs =
      heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  double answered = 0;
  for (size_t j = 0; j < i; ++j) {
    answered += static_cast<double>(answers_of[j % kRequests]);
  }
  state.SetLabel(std::string(TemplateName(id)));
  state.counters["matchings"] = matchings / kRequests;
  state.counters["answers"] = answers / kRequests;
  state.counters["allocs_per_answer"] =
      static_cast<double>(allocs) / (answered > 0 ? answered : 1);
}
BENCHMARK(BM_PreAnswerSp2bJoin)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_PathSp2b(benchmark::State& state) {
  Sp2bClosure& st = Sp2b();
  const int kind = static_cast<int>(state.range(0));
  constexpr size_t kRequests = 64;
  Rng rng(9);
  const PathExpr path =
      *st.mix
           ->Build(kind == 2 ? TemplateId::kCitationReach
                             : TemplateId::kTypeOfPath,
                   &rng)
           .path;
  const std::vector<Term>& pool =
      kind == 1 ? st.gen->authors() : st.gen->papers();
  std::vector<Term> sources;
  for (size_t i = 0; i < kRequests; ++i) {
    sources.push_back(pool[rng.Below(pool.size())]);
  }
  const GraphStats before = st.data.Stats();
  size_t i = 0;
  double nodes = 0;
  for (auto _ : state) {
    const std::vector<Term> out =
        EvalPathFrom(st.data, path, {sources[i++ % kRequests]});
    nodes += static_cast<double>(out.size());
    benchmark::DoNotOptimize(nodes);
  }
  const GraphStats after = st.data.Stats();
  const double evals = static_cast<double>(state.iterations());
  state.SetLabel(kind == 0   ? "type_of_path(paper)"
                 : kind == 1 ? "type_of_path(author)"
                             : "citation_reach");
  state.counters["nodes"] = nodes / evals;
  state.counters["rows_per_eval"] =
      static_cast<double>(after.rows_yielded - before.rows_yielded) / evals;
}
BENCHMARK(BM_PathSp2b)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
