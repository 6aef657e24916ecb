#ifndef SWDB_NORMAL_CORE_H_
#define SWDB_NORMAL_CORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "util/status.h"

namespace swdb {

/// Groups the non-ground triples of g by blank-connected component: two
/// blanks are connected when they share a triple. A proper endomorphism
/// restricted to one component (identity elsewhere) is still a proper
/// endomorphism, and conversely a proper endomorphism of g restricts to
/// a fold of the component owning a dropped triple, so leanness can be
/// decided one component at a time with component-sized patterns.
/// Components are returned in a pinned deterministic order (first
/// appearance in g's triple order) with each component's triples in g's
/// order — the order every core/leanness search in this file commits to.
std::vector<std::vector<Triple>> BlankComponents(const Graph& g);

/// Counters for one Core/CoreChecked run. Every field is deterministic:
/// it depends only on the input graph and MatchOptions.
struct CoreStats {
  /// Proper endomorphisms found and applied (folding sequence length).
  uint64_t folds = 0;
  /// FindProperEndomorphism rounds: folds + the final lean confirmation
  /// (or the round that exhausted the budget).
  uint64_t iterations = 0;
  /// Component fold searches whose outcome the run consumed (refuted
  /// components up to each round's winner, plus the winner itself).
  uint64_t components_searched = 0;
  /// Component searches skipped because an earlier round already proved
  /// the same component lean (folds only shrink the graph and never
  /// touch other components, so leanness persists).
  uint64_t lean_cache_hits = 0;
  /// Matcher steps consumed by the searches counted in
  /// components_searched.
  uint64_t steps_used = 0;
};

/// Searches for a map μ with μ(g) a *proper* subgraph of g (the witness
/// that g is not lean, Def. 3.7). Since ground triples are fixed by every
/// map, μ(g) ⊊ g forces some non-ground triple out of the image, so the
/// search tries, for each non-ground triple t, to map t's blank component
/// into g \ {t}. Returns std::nullopt if g is lean. Deciding this is
/// coNP-complete (paper Thm 3.12(1)); `options.max_steps` bounds each
/// per-triple probe, exactly as one PatternMatcher::FindAny budget.
///
/// Components are searched lowest index first, one compiled matcher per
/// component; the fold returned is the first one the lowest folding
/// component finds in probe order. `options.stats` is ignored (the
/// search runs many probes; use CoreStats on CoreChecked instead).
Result<std::optional<TermMap>> FindProperEndomorphism(
    const Graph& g, MatchOptions options = MatchOptions());

/// True iff g is lean: no map μ sends g to a proper subgraph of itself
/// (paper Def. 3.7). Asserts the step budget is not exhausted.
bool IsLean(const Graph& g);

/// Computes core(g): the unique (up to isomorphism) lean subgraph of g
/// that is an instance of g (paper Thm 3.10). Every graph is equivalent
/// to its core. If `witness` is non-null it receives the composed map μ
/// with μ(g) = core(g).
Graph Core(const Graph& g, TermMap* witness = nullptr);

/// Budget-aware variant of Core for adversarial inputs (computing cores
/// is DP-hard to even verify, paper Thm 3.12(2)).
///
/// Folds in place: the result starts as a copy of g that shares every
/// spine leaf with it, and each fold μ of a component C erases the
/// triples of C \ μ(C) (μ is the identity elsewhere and μ(C) already
/// lies in the graph). The blank-component partition is computed once
/// and only the folded component's survivors are re-partitioned, so a
/// round costs O(|C| log n) beyond its search instead of a whole-graph
/// copy and index rebuild, and the core shares every untouched leaf
/// with g. g itself is never written.
Result<Graph> CoreChecked(const Graph& g, MatchOptions options,
                          TermMap* witness = nullptr,
                          CoreStats* stats = nullptr);

}  // namespace swdb

#endif  // SWDB_NORMAL_CORE_H_
