// E20 — batched multi-query evaluation over one snapshot.
//
// Prices the batch PR on a 64-query overlapping mix at N triples: 8
// families × 8 variants, each family sharing a selective 2-triple join
// prefix over its family predicates, variants differing in a 1-triple
// residual suffix over the bulk predicates, and 2 of the 8 variants
// (25%) exact variable-respellings of earlier ones (ViewKey-isomorphic,
// deduped by the batch path).
//
//   * SequentialReplay/N     — the baseline: 64 independent PreAnswer
//                              calls per iteration.
//   * BatchedSingleThread/N  — PreAnswerBatch: the 16 respellings
//                              replay their group's answers, the other
//                              48 queries evaluate once each, exactly
//                              like SequentialReplay's calls.
//
// The ratio of the two is what ViewKey dedupe alone buys on this mix
// (at most 64/48 in evaluation work, plus the per-call overhead of the
// replayed slots).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "query/batch.h"
#include "query/database.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace swdb {
namespace {

Term Subj(uint32_t i) { return Term::Iri(vocab::kReservedIris + i); }
Term Pred(uint32_t i) { return Term::Iri(1u << 20 | i); }

constexpr uint32_t kBulkPreds = 8;    // suffix predicates, ~N/8 each
constexpr uint32_t kFamilies = 8;     // one selective pred pair each
constexpr uint32_t kVariants = 8;     // per family; 2 are respellings
constexpr uint32_t kPrefixBase = 16;  // prefix preds: Pred(16..31)

// Two node pools shape the workload so the shared prefix join is the
// expensive part of every query and the suffix filters hard:
//
//   * a small pool (n/64 nodes) carries the per-family selective
//     predicate layers Pred(16+2f), Pred(17+2f) — the join over them
//     (~|layer|²/|small|) is what every variant of a family re-derives;
//   * a large pool (2n nodes) receives the join's C-ends and the bulk
//     triples' subjects, so only a small fraction of prefix bindings
//     survive any variant's suffix probe — answers stay cheap relative
//     to prefix enumeration.
//
// Selective counts (~n/33 per layer, vs ~n/8 per bulk predicate) make
// the matcher start every variant's body with the same two prefix
// triples.
std::vector<Triple> MakeTriples(size_t n) {
  std::mt19937 rng(20260808);
  const uint32_t small = static_cast<uint32_t>(n / 64 + 1);
  const uint32_t big = static_cast<uint32_t>(2 * n + 1);
  const uint32_t big_base = small;
  const size_t per_family = n / 33;
  std::vector<Triple> v;
  v.reserve(n + 2 * kFamilies * per_family);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(Triple(Subj(big_base + rng() % big), Pred(rng() % kBulkPreds),
                       Subj(big_base + rng() % big)));
  }
  for (uint32_t f = 0; f < kFamilies; ++f) {
    for (size_t i = 0; i < per_family; ++i) {
      v.push_back(Triple(Subj(rng() % small), Pred(kPrefixBase + 2 * f),
                         Subj(rng() % small)));
      v.push_back(Triple(Subj(rng() % small), Pred(kPrefixBase + 2 * f + 1),
                         Subj(big_base + rng() % big)));
    }
  }
  return v;
}

// Variant v of family f:
//   body: ?A PP(2f) ?B . ?B PP(2f+1) ?C . ?C Pbulk((f+v)%8) ?D .
//   head: ?A r ?D
// with var ids shifted by `shift` (respellings reuse an earlier v with
// a different shift — same shape, different spelling).
Query FamilyQuery(uint32_t f, uint32_t v, uint32_t shift) {
  const Term a = Term::Var(shift), b = Term::Var(shift + 1),
             c = Term::Var(shift + 2), d = Term::Var(shift + 3);
  Query q;
  q.body = Graph({Triple(a, Pred(kPrefixBase + 2 * f), b),
                  Triple(b, Pred(kPrefixBase + 2 * f + 1), c),
                  Triple(c, Pred((f + v) % kBulkPreds), d)});
  q.head = Graph({Triple(a, Pred(kPrefixBase + 2 * kFamilies), d)});
  return q;
}

// The 64-query mix: variants 0..5 fresh, 6 and 7 respellings of 0 and 1.
std::vector<Query> OverlappingMix() {
  std::vector<Query> out;
  out.reserve(kFamilies * kVariants);
  for (uint32_t f = 0; f < kFamilies; ++f) {
    for (uint32_t v = 0; v < kVariants; ++v) {
      const uint32_t base = v < 6 ? v : v - 6;
      const uint32_t shift = v < 6 ? 0 : 100 + 4 * v;
      out.push_back(FamilyQuery(f, base, shift));
    }
  }
  return out;
}

// One prebuilt, nf-warmed Database per (series, n): setup cost is paid
// once, not per iteration. Terms are minted by bits; the dictionary
// only backs fresh-blank minting, which this workload never does.
Database* SetupDb(const std::string& tag, size_t n) {
  static std::map<std::string, std::unique_ptr<Database>>* dbs =
      new std::map<std::string, std::unique_ptr<Database>>();
  static Dictionary* dict = new Dictionary();
  const std::string key = tag + "/" + std::to_string(n);
  auto it = dbs->find(key);
  if (it == dbs->end()) {
    it = dbs->emplace(key, std::make_unique<Database>(dict)).first;
    it->second->InsertGraph(Graph(MakeTriples(n)));
    (void)it->second->Normalized();  // closure + nf built outside timing
  }
  return it->second.get();
}

void SequentialReplay(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database* db = SetupDb("seq", n);
  const std::vector<Query> mix = OverlappingMix();
  size_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const Query& q : mix) {
      Result<std::vector<Graph>> pre = db->PreAnswer(q);
      answers += pre.ok() ? pre->size() : 0;
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["queries"] = static_cast<double>(mix.size());
  state.SetItemsProcessed(state.iterations() * mix.size());
}
BENCHMARK(SequentialReplay)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BatchedSingleThread(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database* db = SetupDb("batch1", n);
  const std::vector<Query> mix = OverlappingMix();
  size_t answers = 0;
  BatchStats stats;
  for (auto _ : state) {
    answers = 0;
    std::vector<Result<std::vector<Graph>>> results =
        db->PreAnswerBatch(mix, &stats);
    for (const auto& r : results) answers += r.ok() ? r->size() : 0;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["deduped"] = static_cast<double>(stats.deduped);
  state.SetItemsProcessed(state.iterations() * mix.size());
}
BENCHMARK(BatchedSingleThread)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
