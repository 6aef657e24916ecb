#ifndef SWDB_QUERY_UNION_QUERY_H_
#define SWDB_QUERY_UNION_QUERY_H_

#include <vector>

#include "query/answer.h"
#include "query/query.h"
#include "util/status.h"

namespace swdb {

/// A union of queries q1 ∪ ... ∪ qn: its answer on D is the union of the
/// branch answers. Unions arise naturally from premise elimination
/// (Prop. 5.9 turns one premise query into a union of premise-free
/// ones) and obey the containment rule of Prop. 5.11.
struct UnionQuery {
  std::vector<Query> branches;

  /// Validates every branch.
  Status Validate() const;

  /// Wraps a single query.
  static UnionQuery Of(Query q);

  /// The premise-free union Ωq equivalent to q (Prop. 5.9).
  static Result<UnionQuery> FromPremiseQuery(const Query& q,
                                             MatchOptions options = {});
};

/// ans∪ of a union query: the union over branches of their union-
/// semantics answers.
Result<Graph> AnswerUnionQuery(QueryEvaluator* evaluator,
                               const UnionQuery& q, const Graph& db);

/// Pre-answers of a union query: each branch evaluated in order, the
/// premise-free ones against one shared nf(db), combined by
/// CombineBranches.
Result<std::vector<Graph>> PreAnswerUnionQuery(QueryEvaluator* evaluator,
                                               const UnionQuery& q,
                                               const Graph& db);

/// The union of per-branch pre-answers, in branch order: the first
/// branch error wins; otherwise the answers are concatenated, sorted and
/// deduplicated.
Result<std::vector<Graph>> CombineBranches(
    std::vector<Result<std::vector<Graph>>> parts);

/// Prop. 5.11: (q1 ∪ q2) ⊑ q' iff q1 ⊑ q' and q2 ⊑ q' — for both
/// containment notions, over simple queries (premises allowed on q').
Result<bool> UnionContainedStandardSimple(const UnionQuery& q,
                                          const Query& q_prime,
                                          Dictionary* dict,
                                          MatchOptions options = {});
Result<bool> UnionContainedEntailmentSimple(const UnionQuery& q,
                                            const Query& q_prime,
                                            Dictionary* dict,
                                            MatchOptions options = {});

}  // namespace swdb

#endif  // SWDB_QUERY_UNION_QUERY_H_
