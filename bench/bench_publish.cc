// E18 — delta-proportional snapshot publication.
//
// Prices the COW spine publication path against an in-file
// reconstruction of the pre-COW layout, where publishing a snapshot
// deep-copied the primary std::vector<Triple> plus the 4 permutation
// indexes' 12 uint32 columns.
//
// Series:
//   * PublishCowCopy/N        — copying a warmed Graph: leaf handles
//                               share their blocks, O(leaf-count) handle
//                               copies.
//   * PublishFullCopyBaseline/N — the pre-COW cost: byte-copy every
//                               row and every index column.
//   * InsertAndPublish/N      — end-to-end Database::Insert: one
//                               triple, closure maintenance,
//                               republication. Exports the
//                               leaves-shared / leaves-copied counters,
//                               the direct measure of
//                               delta-proportionality. Every timed insert
//                               is a fresh triple; a run in which one
//                               published no snapshot reports an error.
//
// The acceptance criterion of the PR is read off the first two series
// at N = 1M: PublishCowCopy must be >= 10x cheaper than
// PublishFullCopyBaseline.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "query/database.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace swdb {
namespace {

Term Subj(uint32_t i) { return Term::Iri(vocab::kReservedIris + i); }
Term Pred(uint32_t i) { return Term::Iri(1u << 20 | i); }
Term Obj(uint32_t i) { return Term::Iri(2u << 20 | i); }

constexpr uint32_t kPreds = 16;

std::vector<Triple> MakeTriples(size_t n) {
  std::mt19937 rng(20260808);
  std::vector<Triple> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Distinct by construction (o carries i), uniformly spread so spine
    // leaves fill evenly in every permutation.
    v.push_back(Triple(Subj(rng() % (n / 8 + 1)), Pred(rng() % kPreds),
                       Obj(static_cast<uint32_t>(i))));
  }
  return v;
}

const Graph& WarmedGraph(size_t n) {
  static std::map<size_t, Graph>* cache = new std::map<size_t, Graph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, Graph(MakeTriples(n))).first;
    it->second.WarmIndexes();
  }
  return it->second;
}

void PublishCowCopy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph& g = WarmedGraph(n);
  for (auto _ : state) {
    auto snap = std::make_shared<Graph>(g);
    snap->WarmIndexes();  // no-op: the copy inherits built indexes
    benchmark::DoNotOptimize(snap->size());
  }
  const GraphStats gs = g.Stats();
  state.counters["leaves"] =
      static_cast<double>(gs.leaves_primary + gs.leaves_index);
  state.counters["bytes_shared"] = static_cast<double>(gs.bytes_total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(PublishCowCopy)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// The pre-COW publication: a primary AoS vector plus 4 sorted
// permutations as 3 uint32 columns each, all deep-copied per snapshot.
void PublishFullCopyBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph& g = WarmedGraph(n);
  std::vector<Triple> rows(g.begin(), g.end());
  std::vector<std::vector<uint32_t>> cols(12);
  for (auto& c : cols) {
    c.reserve(n);
  }
  for (const Triple& t : rows) {
    // The exact column values are irrelevant to copy cost; the layout
    // (12 columns of n uint32s) is what is being priced.
    for (int k = 0; k < 4; ++k) {
      cols[3 * k + 0].push_back(t.s.bits());
      cols[3 * k + 1].push_back(t.p.bits());
      cols[3 * k + 2].push_back(t.o.bits());
    }
  }
  for (auto _ : state) {
    std::vector<Triple> rows_copy = rows;
    benchmark::DoNotOptimize(rows_copy.data());
    for (const auto& c : cols) {
      std::vector<uint32_t> col_copy = c;
      benchmark::DoNotOptimize(col_copy.data());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(n * (sizeof(Triple) + 12 * sizeof(uint32_t))));
}
BENCHMARK(PublishFullCopyBaseline)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// End to end: one writer triple -> maintained closure delta -> snapshot
// republication, with the COW sharing counters exported.
void InsertAndPublish(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // The database outlives one call (the framework calls this several
  // times per size), so the next fresh object id lives with it: every
  // timed insert must be new, or it publishes nothing.
  struct Cached {
    std::unique_ptr<Database> db;
    uint32_t next = 3u << 20;
  };
  static std::map<size_t, Cached>* dbs = new std::map<size_t, Cached>();
  static Dictionary* dict = new Dictionary();
  auto it = dbs->find(n);
  if (it == dbs->end()) {
    it = dbs->emplace(n, Cached{std::make_unique<Database>(dict)}).first;
    it->second.db->InsertGraph(Graph(MakeTriples(n)));
  }
  Database& db = *it->second.db;
  uint32_t& next = it->second.next;
  db.ResetStats();
  for (auto _ : state) {
    db.Insert(Triple(Subj(0), Pred(next % kPreds), Term::Iri(next)));
    ++next;
    benchmark::DoNotOptimize(db.Snapshot());
  }
  const DatabaseStats stats = db.stats();
  const double publishes =
      static_cast<double>(stats.snapshot_publishes.load());
  if (publishes != static_cast<double>(state.iterations())) {
    state.SkipWithError("an insert published no snapshot");
    return;
  }
  state.counters["publishes"] = publishes;
  state.counters["leaves_shared_per_publish"] =
      static_cast<double>(stats.publish_leaves_shared.load()) /
      (publishes > 0 ? publishes : 1);
  state.counters["leaves_copied_per_publish"] =
      static_cast<double>(stats.publish_leaves_copied.load()) /
      (publishes > 0 ? publishes : 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(InsertAndPublish)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace swdb

BENCHMARK_MAIN();
