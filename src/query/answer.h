#ifndef SWDB_QUERY_ANSWER_H_
#define SWDB_QUERY_ANSWER_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/query.h"
#include "rdf/hom.h"
#include "util/hash.h"
#include "util/status.h"

namespace swdb {

/// Options for query evaluation.
struct EvalOptions {
  /// Budget for the matching search.
  MatchOptions match;
  /// Evaluate against RDFS-cl(D+P) instead of nf(D+P). The paper's
  /// Note 4.4 argues nf is required for answers to be invariant under
  /// database equivalence; this switch exists so benches and tests can
  /// exhibit the difference (closure is cheaper but syntax dependent).
  bool use_closure_only = false;
};

/// Evaluates queries over databases with the semantics of §4.1:
/// matchings are valuations v with v(B) ⊆ nf(D + P) satisfying the
/// constraints; a single answer is v(H) with head blank nodes
/// instantiated by Skolem functions of the body valuation.
///
/// One evaluator instance uses the *same* Skolem functions across every
/// database it is asked about, as required by Prop. 4.5.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(Dictionary* dict, EvalOptions options = {});

  /// nf(D + P) (or RDFS-cl(D + P) under use_closure_only), the graph
  /// matchings are sought in.
  Graph NormalizedDatabase(const Query& q, const Graph& db);

  /// preans(q, D): the set of single answers v(H), deduplicated, in
  /// deterministic (sorted) order.
  Result<std::vector<Graph>> PreAnswer(const Query& q, const Graph& db);

  /// PreAnswer against an already-normalized database: the caller
  /// guarantees `normalized` equals nf(D + P) (or the closure under
  /// use_closure_only). Used by Database to amortize normalization over
  /// many premise-free queries. The head, the constraints and the
  /// Skolem arguments are compiled to reads of the matcher's binding
  /// rows once per call; no valuation map is built per matching.
  Result<std::vector<Graph>> PreAnswerPrenormalized(const Query& q,
                                                    const Graph& normalized);

  /// PreAnswerPrenormalized against the graph `pin()` returns, called
  /// only once q is known valid: an invalid query costs no normalization
  /// and mints nothing. Every PreAnswer entry point validates here, once.
  template <typename Pin>
  Result<std::vector<Graph>> PreAnswerPinned(const Query& q, Pin&& pin) {
    Status valid = q.Validate();
    if (!valid.ok()) return valid;
    return Evaluate(q, pin());
  }

  /// The raw matchings: every constraint-satisfying valuation of the
  /// body variables (Def. 4.3's v), as variable→term maps in
  /// deterministic order. This is the SquishQL-style "table of
  /// bindings" view of an answer (§1's related work); v(H) construction
  /// and Skolemization are skipped.
  Result<std::vector<TermMap>> Matchings(const Query& q, const Graph& db);

  /// ans∪(q, D): the union of all single answers (the paper's preferred
  /// semantics; blank nodes shared between single answers are preserved).
  Result<Graph> AnswerUnion(const Query& q, const Graph& db);

  /// ans+(q, D): the merge of all single answers — blank nodes renamed
  /// apart so no two single answers share any.
  Result<Graph> AnswerMerge(const Query& q, const Graph& db);

  const EvalOptions& options() const { return options_; }

 private:
  // f_N(args) key: the head blank plus the body-valuation tuple, with
  // the hash precomputed once at construction — probes and the final
  // emplace reuse it instead of re-walking the tuple.
  struct SkolemKey {
    Term blank;
    std::vector<Term> args;
    size_t hash;

    SkolemKey(Term b, std::vector<Term> a)
        : blank(b),
          args(std::move(a)),
          hash(HashRange(args.begin(), args.end(),
                         std::hash<Term>()(blank))) {}
    bool operator==(const SkolemKey& o) const {
      return blank == o.blank && args == o.args;
    }
  };
  struct SkolemKeyHash {
    size_t operator()(const SkolemKey& k) const { return k.hash; }
  };

  Term SkolemBlank(Term head_blank, const std::vector<Term>& args);

  // PreAnswerPrenormalized for a query already validated.
  Result<std::vector<Graph>> Evaluate(const Query& q, const Graph& target);

  Dictionary* dict_;
  EvalOptions options_;
  // f_N(args) cache: the same (blank, argument-tuple) always yields the
  // same fresh blank, across databases. The mutex makes SkolemBlank —
  // including its FreshBlank() mint, which the dictionary does not
  // synchronize itself — safe for concurrent readers evaluating
  // premise-free queries through database snapshots.
  std::mutex skolem_mu_;
  std::unordered_map<SkolemKey, Term, SkolemKeyHash> skolem_cache_;
};

/// ans∪ of a pre-answer list: the union of its single answers (blank
/// nodes shared between single answers are preserved). An error passes
/// through.
Result<Graph> UnionOfAnswers(const Result<std::vector<Graph>>& pre);

/// ans+ of a pre-answer list: the merge of its single answers, each
/// renamed apart with fresh blanks from `dict`. An error passes through.
Result<Graph> MergeOfAnswers(const Result<std::vector<Graph>>& pre,
                             Dictionary* dict);

}  // namespace swdb

#endif  // SWDB_QUERY_ANSWER_H_
