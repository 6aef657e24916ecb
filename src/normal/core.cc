#include "normal/core.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/check.h"

namespace swdb {

std::vector<std::vector<Triple>> BlankComponents(const Graph& g) {
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
  for (const Triple& t : g) {
    if (t.s.IsBlank() && t.o.IsBlank()) unite(t.s, t.o);
  }
  std::unordered_map<Term, size_t> component_index;
  std::vector<std::vector<Triple>> components;
  for (const Triple& t : g) {
    if (t.IsGround()) continue;
    Term representative = find(t.s.IsBlank() ? t.s : t.o);
    auto [it, inserted] =
        component_index.try_emplace(representative, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(t);
  }
  return components;
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

// One round of the proper-endomorphism search over a pinned-ordered
// list of components.
struct SearchOutcome {
  // Index into `components` of the lowest component that found a fold,
  // or kNoWinner.
  size_t winner = kNoWinner;
  std::optional<TermMap> fold;  // the winner's fold
  // Some pre-winner probe exhausted its budget (meaningful for the
  // round's return value only when there is no winner).
  bool budget_hit = false;
  // Components below the winner refuted completely within budget.
  std::vector<size_t> refuted;
  uint64_t steps_used = 0;  // pre-winner components + the winner
};

// Searches the components lowest index first and stops at the first
// fold.
SearchOutcome SearchAllComponents(
    const std::vector<const std::vector<Triple>*>& components, const Graph& g,
    const MatchOptions& options) {
  SearchOutcome out;
  for (size_t c = 0; c < components.size(); ++c) {
    ComponentResult r = SearchComponent(*components[c], g, options);
    out.steps_used += r.steps;
    if (r.fold.has_value()) {
      out.winner = c;
      out.fold = std::move(r.fold);
      break;
    }
    if (r.budget_hit) {
      out.budget_hit = true;
    } else {
      out.refuted.push_back(c);
    }
  }
  return out;
}

}  // namespace

Result<std::optional<TermMap>> FindProperEndomorphism(const Graph& g,
                                                      MatchOptions options) {
  std::vector<std::vector<Triple>> components = BlankComponents(g);
  std::vector<const std::vector<Triple>*> targets;
  targets.reserve(components.size());
  for (const std::vector<Triple>& c : components) targets.push_back(&c);
  SearchOutcome out = SearchAllComponents(targets, g, options);
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
  Graph current = g;
  TermMap composed;
  CoreStats local;
  // Components proven lean in an earlier round stay lean: a fold is the
  // identity outside its own component, so every other component's
  // triples survive verbatim, and the graph only ever shrinks — a
  // shrinking target can lose homomorphisms but never gain one. (Nor
  // can components merge: folds add no triples, so blanks never become
  // newly connected.)
  std::unordered_set<std::vector<Triple>, TripleVecHash> proven_lean;
  for (;;) {
    ++local.iterations;
    std::vector<std::vector<Triple>> components = BlankComponents(current);
    std::vector<const std::vector<Triple>*> targets;
    targets.reserve(components.size());
    for (const std::vector<Triple>& c : components) {
      if (proven_lean.count(c) != 0) {
        ++local.lean_cache_hits;
        continue;
      }
      targets.push_back(&c);
    }
    SearchOutcome out = SearchAllComponents(targets, current, options);
    local.steps_used += out.steps_used;
    local.components_searched +=
        out.winner == kNoWinner ? targets.size() : out.winner + 1;
    for (size_t idx : out.refuted) proven_lean.insert(*targets[idx]);
    if (!out.fold.has_value()) {
      if (out.budget_hit) {
        if (stats != nullptr) *stats = local;
        return Status::LimitExceeded("proper-endomorphism search budget hit");
      }
      break;  // lean: done
    }
    ++local.folds;
    composed = composed.ComposeWith(*out.fold);
    current = out.fold->Apply(current);
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
