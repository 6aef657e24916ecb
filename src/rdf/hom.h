#ifndef SWDB_RDF_HOM_H_
#define SWDB_RDF_HOM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "rdf/map.h"
#include "util/status.h"

namespace swdb {

/// Counters describing one Enumerate run of the pattern matcher. All
/// counters are cheap increments on the search path; collecting them is
/// always on (there is no instrumentation build flag).
struct MatchStats {
  /// Search nodes that resolved an index range and iterated candidates
  /// (solution leaves and the ground prefilter are not nodes).
  uint64_t nodes_expanded = 0;
  /// Candidate triples pulled out of index ranges across all nodes.
  uint64_t candidates_scanned = 0;
  /// Candidates that survived the exclude filter and entered TryBind.
  uint64_t binds_attempted = 0;
  /// Solutions delivered to the visitor.
  uint64_t solutions_found = 0;
  /// Budget steps consumed (== PatternMatcher::steps_used()).
  uint64_t steps_used = 0;
  /// Selectivity-cache misses: Graph::Matches lookups made by PickNext.
  /// The incremental cache makes this far smaller than nodes × pending.
  uint64_t selectivity_recomputes = 0;
  /// Selectivity-cache misses served by a cursor seek instead (see
  /// PatternMatcher). Seeks resolve no range.
  uint64_t cursor_seeks = 0;
  /// Candidates that bound but ended before their recursion and step
  /// because the pick under them had an empty range.
  uint64_t empty_picks = 0;
  /// Candidate ranges served, bucketed by the index order that served
  /// them (indexed by IndexOrder).
  std::array<uint64_t, kNumIndexOrders> index_hits = {};
};

/// Options for the backtracking pattern matcher.
struct MatchOptions {
  /// Backtracking-step budget; exceeding it yields kLimitExceeded. The
  /// underlying problems are NP-complete (paper Thm 2.9), so a budget
  /// keeps adversarial instances from hanging the caller.
  uint64_t max_steps = 50'000'000;

  /// Restrict the image of open *blank* terms to blank nodes of the
  /// target (used by the isomorphism search).
  bool blanks_to_blanks_only = false;

  /// Require open blank terms to take pairwise-distinct values (used by
  /// the isomorphism search).
  bool injective_blanks = false;

  /// Treat the target graph as if this triple were absent. Lets callers
  /// probe "does the pattern map into target \ {t}" for many t without
  /// copying the target or invalidating its cached indexes (the
  /// leanness/core hot path). When the triple is also a pattern triple,
  /// the search ends each branch that binds that pattern triple to it
  /// (see PatternMatcher::set_exclude_triple).
  std::optional<Triple> exclude_triple;

  /// Disable the most-constrained-first dynamic triple ordering and
  /// process pattern triples in their given order instead. Exists for
  /// ablation benchmarks; expect exponentially worse behaviour on joins.
  bool static_order = false;

  /// When non-null, receives a copy of the run's MatchStats at the end
  /// of every Enumerate call (also on early stop / budget exhaustion).
  MatchStats* stats = nullptr;
};

/// Backtracking solver that enumerates all assignments μ of the *open*
/// terms of a pattern (its blank nodes and variables) such that
/// μ(pattern) ⊆ target.
///
/// This single engine implements the map-existence characterizations of
/// the paper: simple entailment (Thm 2.8(2)), RDFS entailment via the
/// closure (Thm 2.8(1)), leanness (Def. 3.7), query matching (§4.1) and
/// the containment tests (Thm 5.5/5.8).
///
/// The search assigns one pattern triple at a time, always choosing the
/// pending triple with the fewest matching target triples under the
/// current partial assignment (most-constrained-first), and walks its
/// candidates directly through the target graph's index ranges
/// (Graph::Matches) — the candidate loop touches no heap.
///
/// Internally the pattern is compiled once: every distinct open term
/// gets a dense slot id, bindings live in a flat array with an undo
/// trail, and per-triple selectivity counts are cached and recomputed
/// only when a slot of that triple changed (version stamps).
///
/// Cursors (dynamic order only). Each pattern triple's selectivity entry
/// keeps one MatchCursor. When PickNext resolves the triple with
/// Graph::Matches and the range's next key column holds an open slot the
/// triple holds once, the range becomes the entry's cursor, recorded with
/// what the triple's other positions held then. Once that slot is bound
/// and the other positions hold those values again, the triple's range
/// is one seek of the cursor, not a lookup. A pick's candidates come
/// sorted by its leading open slot, so the pending triples that share
/// that slot gallop forward candidate by candidate: the star joins of a
/// query body. The parent makes each candidate's child pick right after
/// the bind, and an empty pick ends the candidate before its step and
/// its node. Validity is judged by values, not version stamps, so a
/// deeper node binding and unbinding the triple's other slot keeps its
/// cursor. Rows and their order are those of a search without cursors.
class PatternMatcher {
 public:
  /// The target graph must outlive the matcher and contain no variables.
  PatternMatcher(std::vector<Triple> pattern, const Graph* target,
                 MatchOptions options = MatchOptions());
  /// Convenience: pattern given as a graph (query bodies, iso search).
  PatternMatcher(const Graph& pattern, const Graph* target,
                 MatchOptions options = MatchOptions());

  /// Enumerates assignments as dense binding rows: the visitor is
  /// called once per solution (distinct solutions, no duplicates) with
  /// row[i] = the value of open term i, numbered as SlotOf numbers
  /// them. The row is only valid during the call. Returning false stops
  /// the enumeration early. Returns kLimitExceeded if the step budget
  /// was exhausted before the search space was covered, OK otherwise
  /// (early stop by the visitor is still OK).
  Status EnumerateRows(const std::function<bool(const Term*)>& visitor);

  /// EnumerateRows with each row turned into a TermMap over the open
  /// terms — for callers at the API edge that want a map (witnesses,
  /// containment, iso); the query read path reads rows.
  Status Enumerate(const std::function<bool(const TermMap&)>& visitor);

  /// The row index of an open term of the pattern (a blank node or
  /// variable), or -1 when the term is not an open term of it. Indices
  /// are dense, 0..num_slots()-1, in first-appearance order.
  int32_t SlotOf(Term t) const;
  size_t num_slots() const { return slots_.size(); }

  /// Convenience: the first solution found, if any.
  Result<std::optional<TermMap>> FindAny();

  /// Re-points the matcher at a different target graph, keeping the
  /// compiled pattern. For callers that match one pattern against many
  /// targets (minimal representations, containment probes).
  void set_target(const Graph* target);

  /// Replaces the exclude_triple option between Enumerate calls. For
  /// callers probing "pattern → target \ {t}" for many t with one
  /// compiled pattern (the leanness/core loop).
  ///
  /// Two things make such a probe loop cheap. When t is itself a
  /// pattern triple, a branch ends as soon as that pattern triple is
  /// fully bound to t: no solution can map it elsewhere below, so the
  /// rows are exactly those an unpruned search gives. And the ranges
  /// PickNext resolves while none of a pattern triple's slots is bound
  /// (its root ranges) depend only on the pattern and the target, so
  /// they are kept from one probe to the next, and so are the triples'
  /// cursors. The contract is that the target does not change between
  /// probes: set_target drops the kept ranges and cursors, and so does
  /// any mutation of the target (its epoch). A matcher that never calls
  /// this keeps neither from one Enumerate call to the next.
  void set_exclude_triple(std::optional<Triple> t);

  /// Number of backtracking steps consumed by the last call.
  uint64_t steps_used() const { return steps_; }

  /// Counters from the last Enumerate/FindAny call.
  const MatchStats& stats() const { return stats_; }

 private:
  static constexpr int32_t kNoSlot = -1;
  static constexpr size_t kNoPick = std::numeric_limits<size_t>::max();
  // What a position holds while its slot is unbound (kind bits 11: no
  // term has them).
  static constexpr uint32_t kUnbound = 0xFFFFFFFFu;

  // A pattern triple with its open positions resolved to slot ids.
  struct CompiledTriple {
    Triple consts;                    // original terms (constants used as-is)
    std::array<int32_t, 3> slot;      // slot id per position, or kNoSlot
  };
  struct SlotInfo {
    Term term;      // the pattern's blank node or variable
    bool is_blank;  // blank nodes are subject to the blank-only options
  };
  // A pattern triple's candidate range resolved with none of its slots
  // bound, kept across the probes of a set_exclude_triple loop.
  struct RootRange {
    MatchRange range;
    bool valid = false;
  };
  // Per-pattern-triple cached candidate range (its size is the count
  // PickNext ranks by) with the slot-version stamps it was resolved
  // under, and the triple's cursor (see the class comment). Search
  // iterates the picked triple's range without resolving it again.
  struct Selectivity {
    MatchRange range;
    std::array<uint32_t, 3> version = {};  // 0 = never computed
    MatchCursor cursor;
    int anchor = -1;  // the position the cursor seeks; -1: no cursor
    // What each position held when the cursor was anchored (raw bits or
    // kUnbound; the anchor's is kUnbound).
    std::array<uint32_t, 3> held = {};
  };

  // Open-addressing set of term bits with backward-shift deletion; holds
  // the current images of bound blank slots for the injectivity check.
  // Sized once per Enumerate (≤ one entry per blank slot), so inserts
  // never rehash and lookups are O(1) without heap traffic.
  class FlatTermSet {
   public:
    void Reset(size_t max_elements);
    bool Contains(uint32_t key) const;
    void Insert(uint32_t key);  // key must be absent
    void Erase(uint32_t key);   // key must be present

   private:
    static constexpr uint32_t kEmpty = 0xFFFFFFFFu;  // kind bits 11: unused
    size_t Home(uint32_t key) const {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
    }
    std::vector<uint32_t> table_;
    size_t mask_ = 0;
  };

  void CompilePattern();
  // Points exclude_pattern_ at a pattern triple equal to the exclusion,
  // or at none.
  void FindExcludedPattern();
  // Invalidates every kept root range and cursor and stamps the
  // target's epoch.
  void DropRootRanges();
  // True when the excluded pattern triple is fully bound to the
  // excluded triple, so the current branch has no solution.
  bool ExcludedPatternHit() const;
  // Records the current versions of pattern triple `idx`'s slots in its
  // selectivity entry (after its range was set).
  void StampVersions(size_t idx);
  // The candidate range of pattern triple `idx` under the current
  // bindings: a seek of its cursor when the held state allows, else from
  // roots_ when they are kept and none of its slots is bound, else one
  // Graph::Matches lookup, which may anchor a new cursor.
  MatchRange ResolveRange(size_t idx);
  // Makes `range`, resolved while the positions of pattern triple `idx`
  // held `held`, the entry's cursor when the range's next key column is
  // an open slot the triple holds once; otherwise keeps the entry's
  // cursor.
  void Anchor(size_t idx, const MatchRange& range,
              const std::array<uint32_t, 3>& held);
  // Resets all per-Enumerate search state (bindings, trail, caches,
  // stats) and rebuilds pending_; returns false if a fully ground
  // pattern triple is absent from the target (no solutions).
  bool ResetSearchState();
  // One backtracking step against the budget. Returns false (and
  // latches budget_exhausted_) on exhaustion.
  bool ConsumeStep();
  // The search node at `depth` over pending_[pick] (PickNext's choice
  // under the dynamic order, made by the parent; `depth` under the
  // static one).
  bool Search(size_t depth, size_t pick,
              const std::function<bool(const Term*)>& visitor, bool* stopped);
  // Returns the index (into pending_) of the cheapest pending triple,
  // re-resolving stale selectivity-cache ranges along the way.
  size_t PickNext(size_t depth);
  // Re-resolves pattern triple `idx`'s cached range if it is stale.
  void Refresh(size_t idx);
  // The pattern triple's position `pos` under the current bindings:
  // its constant, its slot's value, or nullopt if the slot is open.
  std::optional<Term> Resolve(const CompiledTriple& ct, int pos) const;
  // Binds the open slots of `ct` to the corresponding positions of the
  // candidate `tt`; pushes each new binding onto the trail. On mismatch
  // returns false with partial bindings left for UndoTo to unwind.
  bool TryBind(const CompiledTriple& ct, const Triple& tt);
  // Unwinds the trail back to the given mark.
  void UndoTo(size_t mark);

  std::vector<Triple> pattern_;
  const Graph* target_;
  MatchOptions options_;

  // Compiled pattern (built once in the constructor).
  std::vector<CompiledTriple> compiled_;
  std::vector<SlotInfo> slots_;

  // Search state (reset by Enumerate; no allocation inside the search).
  std::vector<size_t> pending_;  // indices of unprocessed pattern triples
  std::vector<Term> binding_;         // value per slot (the solution row)
  std::vector<uint8_t> bound_;        // 1 if the slot is bound
  std::vector<uint32_t> slot_version_;  // bumped on every bind/unbind
  std::vector<uint32_t> trail_;       // bound slot ids, in bind order
  std::vector<Selectivity> sel_;      // per pattern triple
  FlatTermSet used_blank_values_;     // injectivity (iso search) only
  // Index of a pattern triple equal to options_.exclude_triple, or -1.
  int32_t exclude_pattern_ = -1;
  // Root ranges per pattern triple, sized by the first
  // set_exclude_triple (empty otherwise) and valid for the target at
  // root_epoch_.
  std::vector<RootRange> roots_;
  uint64_t root_epoch_ = 0;
  // PickNext's depth-0 pick under the kept root ranges, or kNoPick.
  size_t root_pick_ = kNoPick;
  // The pattern triple PickNext last found with an empty range, or
  // kNoPick.
  size_t empty_hint_ = kNoPick;
  uint64_t steps_ = 0;
  bool budget_exhausted_ = false;
  MatchStats stats_;
};

/// Finds a map μ with μ(from) ⊆ to (a homomorphism between RDF graphs).
Result<std::optional<TermMap>> FindHomomorphism(
    const Graph& from, const Graph& to, MatchOptions options = MatchOptions());

/// True iff a homomorphism from → to exists; kLimitExceeded if the step
/// budget ran out before the search space was covered.
Result<bool> TryHasHomomorphism(const Graph& from, const Graph& to,
                                MatchOptions options = MatchOptions());

/// Budget-aware simple entailment g1 ⊨ g2 for simple graphs,
/// characterized by the existence of a map g2 → g1 (paper Thm 2.8(2)).
/// Returns kLimitExceeded instead of aborting when the step budget is
/// exhausted, so library callers can degrade gracefully.
Result<bool> TrySimpleEntails(const Graph& g1, const Graph& g2,
                              MatchOptions options = MatchOptions());

/// True iff a homomorphism from → to exists. Thin shim over
/// TryHasHomomorphism that asserts the step budget was not exhausted;
/// use the Try variant for budget-aware callers.
bool HasHomomorphism(const Graph& from, const Graph& to);

/// Simple entailment g1 ⊨ g2 (paper Thm 2.8(2)). Thin shim over
/// TrySimpleEntails that asserts the step budget was not exhausted; for
/// graphs with RDFS vocabulary use RdfsEntails (inference/closure.h)
/// which first closes g1.
bool SimpleEntails(const Graph& g1, const Graph& g2);

/// Simple equivalence: maps in both directions (paper §2.3.1).
bool SimpleEquivalent(const Graph& g1, const Graph& g2);

}  // namespace swdb

#endif  // SWDB_RDF_HOM_H_
