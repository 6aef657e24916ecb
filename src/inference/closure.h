#ifndef SWDB_INFERENCE_CLOSURE_H_
#define SWDB_INFERENCE_CLOSURE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inference/rules.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"
#include "rdf/term.h"

namespace swdb {

/// Computes RDFS-cl(G): all triples deducible from G by rules (2)–(13)
/// (paper Def. 2.7), of size Θ(|G|²) in the worst case (Thm 3.6(3)).
/// Every closure entry point here runs one semi-naive fixpoint joined
/// against the graph's own permutation indexes; sp and sc stay
/// transitively closed as their pairs arrive, so rules (2)/(4) never
/// re-join a derived pair.
///
/// If `trace` is non-null, one validating RuleApplication is recorded for
/// every derived triple, each after its premises — the rule-step part of
/// a proof of cl(G) from G (Def. 2.5).
Graph RdfsClosure(const Graph& g,
                  std::vector<RuleApplication>* trace = nullptr);

/// Reference implementation of RDFS-cl by iterating EnumerateApplications
/// to fixpoint. Exponentially slower constants; the independent oracle
/// the tests check every closure entry point against.
Graph RdfsClosureNaive(const Graph& g);

/// A configurable subset of the deductive rules, for ablation studies
/// and for reproducing the incompleteness of the original W3C rule set
/// (Note 2.4). The default is the full system of §2.3.2. Without
/// reflexivity, rules (6)/(7) type direct uses only where an explicit
/// (A, sp, A) is present, as the paper's rules read.
struct RuleSet {
  bool sp_transitivity = true;  ///< rule (2)
  bool sp_inheritance = true;   ///< rule (3)
  bool sc_transitivity = true;  ///< rule (4)
  bool sc_typing = true;        ///< rule (5)
  bool dom_typing = true;       ///< rule (6)
  bool range_typing = true;     ///< rule (7)
  bool reflexivity = true;      ///< rules (8)–(13)
  /// The (C, sp, A) premise Marin added to rules (6)/(7) (Note 2.4): the
  /// instances with C ≠ A. With this off, dom/range typing only fires on
  /// direct uses of the property — the original, incomplete W3C
  /// behaviour.
  bool marin_subproperty_typing = true;

  static RuleSet All() { return RuleSet(); }
  /// The pre-Marin system: dom/range typing without sp-lifting.
  static RuleSet PreMarin() {
    RuleSet r;
    r.marin_subproperty_typing = false;
    return r;
  }
};

/// RDFS-cl computed with a rule subset, by the same fixpoint. Traces are
/// not offered here (ablated closures can have underivable premises);
/// use RdfsClosure for proof-grade traces.
Graph RdfsClosureWithRules(const Graph& g, const RuleSet& rules);

/// Observability counters for one incremental maintenance step.
struct ClosureDeltaStats {
  size_t delta_size = 0;    ///< input triples that were actually new
  size_t derived = 0;       ///< triples the step added to the closure
  size_t overdeleted = 0;   ///< closure triples suspected by a deletion
  size_t rederived = 0;     ///< suspects that survived re-derivation
};

/// DRed-style deletion maintenance: given `closure` = RDFS-cl(G),
/// `deleted` ⊆ G and `base_after` = G \ deleted, returns
/// RDFS-cl(base_after) by (1) over-deleting everything forward-reachable
/// from the deleted triples through a rule application, (2) keeping the
/// untainted remainder P, and (3) re-deriving: suspects still in the
/// base or one-step derivable from P re-enter the fixpoint over P. Cost
/// tracks the suspect set.
Graph RdfsClosureErase(const Graph& closure, const Graph& base_after,
                       const Graph& deleted,
                       ClosureDeltaStats* stats = nullptr);

/// RDFS-cl(G) maintained under updates as a plain Graph. Construction
/// runs RdfsClosure once; inserts run the fixpoint from the delta only
/// and deletions run RdfsClosureErase, both against the closure graph's
/// own indexes, so an update's cost tracks its delta and the triples it
/// touches, not |closure|. Database keeps its closure cache this way.
class IncrementalClosure {
 public:
  /// Full fixpoint over `base`.
  explicit IncrementalClosure(const Graph& base);

  /// The maintained closure. Reference stays valid across updates.
  const Graph& closure() const { return closure_; }

  /// Content version: bumped exactly when closure() changes.
  uint64_t version() const { return version_; }

  /// Extends the closure to RDFS-cl(base ∪ delta). If `derived_out` is
  /// non-null it receives every triple this step added to the closure
  /// (the delta's new triples plus their derivations), i.e.
  /// cl_after \ cl_before.
  void InsertDelta(const Graph& delta, ClosureDeltaStats* stats = nullptr,
                   std::vector<Triple>* derived_out = nullptr);

  /// Removes `deleted` from the base (which is now `base_after`) and
  /// re-establishes closure() = RDFS-cl(base_after) via DRed.
  void EraseDelta(const Graph& base_after, const Graph& deleted,
                  ClosureDeltaStats* stats = nullptr);

 private:
  Graph closure_;
  uint64_t version_ = 0;
};

/// Computes the semantic closure cl(G) of Def. 3.5: for ground graphs
/// the maximal equivalent ground extension, in general H_* where H is a
/// closure of the Skolemization G^*. Theorem 3.6(2) states
/// cl(G) = RDFS-cl(G); this function computes the left-hand side by its
/// definition (Skolemize → close → de-Skolemize) so tests can verify the
/// theorem against RdfsClosure.
Graph SemanticClosure(const Graph& g, Dictionary* dict);

/// Decides t ∈ cl(G) without materializing the closure, per query in
/// O(|G|) after an O(|G|) setup — the shape of paper Thm 3.6(4).
///
/// The direct decision procedure is valid when no URI is an explicit
/// proper sp-ancestor of the reserved vocabulary (e.g. a triple
/// (p, sp, sp) would let rule (3) derive brand-new sp edges). Such
/// pathological graphs are detected at construction and answered from a
/// materialized closure instead (IsDirect() reports which mode is used).
class ClosureMembership {
 public:
  /// Captures g.epoch(); the graph must outlive the index. Any use after
  /// the graph mutates is a detected error (see InSync) — the index never
  /// silently serves stale answers; build a new one instead.
  explicit ClosureMembership(const Graph& g);

  /// True iff t ∈ RDFS-cl(g). Aborts (SWDB_CHECK) if the underlying
  /// graph has mutated since construction.
  bool Contains(const Triple& t) const;

  /// True if the linear-time direct procedure is in use (no materialized
  /// closure).
  bool IsDirect() const { return direct_; }

  /// True iff the underlying graph is still at the epoch this index was
  /// built from.
  bool InSync() const { return g_->epoch() == built_epoch_; }
  /// The graph epoch the index was built at.
  uint64_t built_epoch() const { return built_epoch_; }

 private:
  bool DirectContains(const Triple& t) const;

  const Graph* g_;
  uint64_t built_epoch_ = 0;
  bool direct_ = true;

  // Direct mode state.
  std::unordered_map<Term, std::vector<Term>> sp_fwd_;
  std::unordered_map<Term, std::vector<Term>> sc_fwd_;
  std::unordered_set<Term> props_;    // terms with (t,sp,t) in cl(G)
  std::unordered_set<Term> classes_;  // terms with (t,sc,t) in cl(G)

  // Fallback mode state.
  std::optional<Graph> materialized_;
};

/// Budget-aware RDFS entailment g1 ⊨ g2, characterized by the existence
/// of a map g2 → RDFS-cl(g1) (paper Thm 2.8(1)). Returns kLimitExceeded
/// instead of aborting when the matcher's step budget is exhausted.
Result<bool> TryRdfsEntails(const Graph& g1, const Graph& g2,
                            MatchOptions options = MatchOptions());

/// RDFS entailment g1 ⊨ g2. Thin shim over TryRdfsEntails that asserts
/// the step budget was not exhausted.
bool RdfsEntails(const Graph& g1, const Graph& g2);

/// RDFS equivalence: entailment in both directions (paper §2.3.1).
bool RdfsEquivalent(const Graph& g1, const Graph& g2);

}  // namespace swdb

#endif  // SWDB_INFERENCE_CLOSURE_H_
