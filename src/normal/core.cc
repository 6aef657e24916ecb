#include "normal/core.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace swdb {

namespace {

// BlankComponents over any sequence of triples: components in order of
// first appearance in `triples`, each component's triples in that order.
template <typename Triples>
std::vector<std::vector<Triple>> PartitionByBlanks(const Triples& triples) {
  std::unordered_map<Term, Term> parent;
  // Iterative root walk with full path compression: blank chains grow
  // with the data (a 10k-blank chain is ordinary input, not an
  // adversarial one), and a recursive find would grow the call stack
  // with the chain.
  auto find = [&parent](Term x) -> Term {
    Term root = x;
    for (auto it = parent.find(root);
         it != parent.end() && it->second != root; it = parent.find(root)) {
      root = it->second;
    }
    while (x != root) {
      auto it = parent.find(x);
      Term next = it->second;
      it->second = root;
      x = next;
    }
    return root;
  };
  auto unite = [&](Term a, Term b) {
    Term ra = find(a);
    Term rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };
  for (const Triple& t : triples) {
    if (t.s.IsBlank() && t.o.IsBlank()) unite(t.s, t.o);
  }
  std::unordered_map<Term, size_t> component_index;
  std::vector<std::vector<Triple>> components;
  for (const Triple& t : triples) {
    if (t.IsGround()) continue;
    Term representative = find(t.s.IsBlank() ? t.s : t.o);
    auto [it, inserted] =
        component_index.try_emplace(representative, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(t);
  }
  return components;
}

}  // namespace

std::vector<std::vector<Triple>> BlankComponents(const Graph& g) {
  // Only non-ground triples join components, and each lies in the
  // blank run of the order led by one of its blank positions. Reading
  // those runs and restoring (s,p,o) order yields exactly the subsequence
  // a full walk would keep, so a ground graph costs O(log |g|).
  std::vector<Triple> non_ground;
  for (int pos = 0; pos < 3; ++pos) {
    for (const Triple& t : g.KindRun(pos, TermKind::kBlank)) {
      non_ground.push_back(t);
    }
  }
  std::sort(non_ground.begin(), non_ground.end());
  non_ground.erase(std::unique(non_ground.begin(), non_ground.end()),
                   non_ground.end());
  return PartitionByBlanks(non_ground);
}

namespace {

constexpr size_t kNoWinner = std::numeric_limits<size_t>::max();

// Outcome of the fold search over one blank component: the first fold
// in probe order, or a refutation (possibly budget-limited).
struct ComponentResult {
  std::optional<TermMap> fold;
  bool budget_hit = false;
  uint64_t steps = 0;  // matcher steps across this component's probes
};

// Searches one component for a fold: a map component → g \ {t} for some
// triple t of the component, probing the triples in order and returning
// at the first fold. Each probe carries its own options.max_steps
// budget.
ComponentResult SearchComponent(const std::vector<Triple>& component,
                                const Graph& g, MatchOptions options) {
  ComponentResult out;
  options.stats = nullptr;  // a multi-probe driver; see header
  PatternMatcher matcher(component, &g, options);
  for (const Triple& t : component) {
    matcher.set_exclude_triple(t);
    Result<std::optional<TermMap>> r = matcher.FindAny();
    out.steps += matcher.steps_used();
    if (!r.ok()) {
      out.budget_hit = true;
      continue;
    }
    if (r->has_value()) {
      out.fold = std::move(**r);
      return out;
    }
  }
  return out;
}

// One entry of a pinned-ordered partition of the searched graph into
// blank components, and whether a completed search refuted every fold
// of it. Within one CoreChecked run the flag stays true: a fold is the
// identity outside its own component, so every other component's
// triples survive verbatim, and the graph only ever shrinks — a
// shrinking target can lose homomorphisms but never gain one. (Nor can
// components merge: folds add no triples, so blanks never become newly
// connected.)
struct TrackedComponent {
  std::vector<Triple> triples;
  bool lean = false;
};

std::vector<TrackedComponent> TrackComponents(const Graph& g) {
  std::vector<TrackedComponent> tracked;
  for (std::vector<Triple>& c : BlankComponents(g)) {
    tracked.push_back(TrackedComponent{std::move(c), false});
  }
  return tracked;
}

// One round of the proper-endomorphism search over a partition.
struct SearchOutcome {
  // Index of the lowest component that found a fold, or kNoWinner.
  size_t winner = kNoWinner;
  std::optional<TermMap> fold;  // the winner's fold
  // Some pre-winner probe exhausted its budget (meaningful for the
  // round's return value only when there is no winner).
  bool budget_hit = false;
  uint64_t searched = 0;    // pre-winner components + the winner
  uint64_t steps_used = 0;  // across the searched components
};

// Searches the components not yet proven lean, lowest index first, and
// stops at the first fold. Components below the winner that were
// refuted completely within budget are flagged lean.
SearchOutcome SearchAllComponents(std::vector<TrackedComponent>* components,
                                  const Graph& g,
                                  const MatchOptions& options) {
  SearchOutcome out;
  for (size_t c = 0; c < components->size(); ++c) {
    TrackedComponent& component = (*components)[c];
    if (component.lean) continue;
    ++out.searched;
    ComponentResult r = SearchComponent(component.triples, g, options);
    out.steps_used += r.steps;
    if (r.fold.has_value()) {
      out.winner = c;
      out.fold = std::move(r.fold);
      break;
    }
    if (r.budget_hit) {
      out.budget_hit = true;
    } else {
      component.lean = true;
    }
  }
  return out;
}

// Applies the fold μ found for (*components)[c] to *g in place and
// patches the partition to match. μ is the identity outside C and maps
// C into g \ {t}, so μ(g) = (g \ C) ∪ μ(C) with μ(C) ⊆ g already:
// folding erases the triples of C outside μ(C), kept in g's order, by
// one Apply and adds nothing. Only the survivors C ∩ μ(C) can regroup
// (they may split); they are re-partitioned alone and spliced back in
// by first triple, which keeps the list in BlankComponents(*g)'s
// first-appearance order.
void FoldComponent(const TermMap& fold, size_t c, Graph* g,
                   std::vector<TrackedComponent>* components) {
  std::vector<Triple> folded = std::move((*components)[c].triples);
  components->erase(components->begin() + static_cast<std::ptrdiff_t>(c));
  std::vector<Triple> image;
  image.reserve(folded.size());
  for (const Triple& t : folded) {
    image.push_back(fold.Apply(t));
    assert(g->Contains(image.back()));
  }
  std::sort(image.begin(), image.end());
  std::vector<Triple> survivors;
  std::vector<Triple> erased;
  for (const Triple& t : folded) {
    (std::binary_search(image.begin(), image.end(), t) ? survivors : erased)
        .push_back(t);
  }
  g->Apply(erased, {});
  for (std::vector<Triple>& piece : PartitionByBlanks(survivors)) {
    auto at = std::lower_bound(
        components->begin(), components->end(), piece.front(),
        [](const TrackedComponent& e, const Triple& first) {
          return e.triples.front() < first;
        });
    components->insert(at, TrackedComponent{std::move(piece), false});
  }
}

}  // namespace

Result<std::optional<TermMap>> FindProperEndomorphism(const Graph& g,
                                                      MatchOptions options) {
  std::vector<TrackedComponent> components = TrackComponents(g);
  SearchOutcome out = SearchAllComponents(&components, g, options);
  if (out.fold.has_value()) return std::move(out.fold);
  if (out.budget_hit) {
    return Status::LimitExceeded("proper-endomorphism search budget hit");
  }
  return std::optional<TermMap>(std::nullopt);
}

bool IsLean(const Graph& g) {
  Result<std::optional<TermMap>> r = FindProperEndomorphism(g);
  SWDB_CHECK(r.ok(),
             "leanness step budget exhausted; use FindProperEndomorphism "
             "with explicit MatchOptions for graceful degradation");
  return !r->has_value();
}

Result<Graph> CoreChecked(const Graph& g, MatchOptions options,
                          TermMap* witness, CoreStats* stats) {
  // Shares every leaf (and built permutation spine) with g; each fold
  // erases in place, cloning only the leaves it touches.
  Graph current = g;
  TermMap composed;
  CoreStats local;
  std::vector<TrackedComponent> components = TrackComponents(current);
  for (;;) {
    ++local.iterations;
    for (const TrackedComponent& c : components) {
      if (c.lean) ++local.lean_cache_hits;
    }
    SearchOutcome out = SearchAllComponents(&components, current, options);
    local.steps_used += out.steps_used;
    local.components_searched += out.searched;
    if (!out.fold.has_value()) {
      if (out.budget_hit) {
        if (stats != nullptr) *stats = local;
        return Status::LimitExceeded("proper-endomorphism search budget hit");
      }
      break;  // lean: done
    }
    ++local.folds;
    composed = composed.ComposeWith(*out.fold);
    FoldComponent(*out.fold, out.winner, &current, &components);
  }
  if (witness != nullptr) *witness = composed;
  if (stats != nullptr) *stats = local;
  return current;
}

Graph Core(const Graph& g, TermMap* witness) {
  Result<Graph> r = CoreChecked(g, MatchOptions(), witness, /*stats=*/nullptr);
  SWDB_CHECK(r.ok(),
             "core step budget exhausted; use CoreChecked for graceful "
             "degradation");
  return *std::move(r);
}

}  // namespace swdb
