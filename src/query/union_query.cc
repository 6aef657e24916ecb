#include "query/union_query.h"

#include <algorithm>
#include <optional>

#include "query/containment.h"
#include "query/premise.h"

namespace swdb {

Status UnionQuery::Validate() const {
  for (const Query& q : branches) {
    Status s = q.Validate();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

UnionQuery UnionQuery::Of(Query q) {
  UnionQuery u;
  u.branches.push_back(std::move(q));
  return u;
}

Result<UnionQuery> UnionQuery::FromPremiseQuery(const Query& q,
                                                MatchOptions options) {
  Result<std::vector<Query>> omega = EliminatePremise(q, options);
  if (!omega.ok()) return omega.status();
  UnionQuery u;
  u.branches = *std::move(omega);
  return u;
}

Result<Graph> AnswerUnionQuery(QueryEvaluator* evaluator,
                               const UnionQuery& q, const Graph& db) {
  // The union over branches of their ans∪ equals the union of all
  // branch pre-answers, so this shares PreAnswerUnionQuery's nf.
  return UnionOfAnswers(PreAnswerUnionQuery(evaluator, q, db));
}

Result<std::vector<Graph>> PreAnswerUnionQuery(QueryEvaluator* evaluator,
                                               const UnionQuery& q,
                                               const Graph& db) {
  // Every valid premise-free branch evaluates against the same nf(db)
  // (an empty premise adds nothing to db), built on first need; the
  // per-query path serves premise branches.
  std::optional<Graph> nf;
  std::vector<Result<std::vector<Graph>>> parts;
  parts.reserve(q.branches.size());
  for (const Query& branch : q.branches) {
    if (!branch.premise.empty()) {
      parts.push_back(evaluator->PreAnswer(branch, db));
      continue;
    }
    parts.push_back(evaluator->PreAnswerPinned(branch, [&]() -> const Graph& {
      if (!nf.has_value()) {
        nf.emplace(evaluator->NormalizedDatabase(Query(), db));
      }
      return *nf;
    }));
  }
  return CombineBranches(std::move(parts));
}

Result<std::vector<Graph>> CombineBranches(
    std::vector<Result<std::vector<Graph>>> parts) {
  std::vector<Graph> all;
  for (auto& part : parts) {
    if (!part.ok()) return part.status();
    all.insert(all.end(), part->begin(), part->end());
  }
  std::sort(all.begin(), all.end(), TriplesLess);
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Result<bool> UnionContainedStandardSimple(const UnionQuery& q,
                                          const Query& q_prime,
                                          Dictionary* dict,
                                          MatchOptions options) {
  for (const Query& branch : q.branches) {
    Result<bool> one =
        ContainedStandardSimple(branch, q_prime, dict, options);
    if (!one.ok()) return one.status();
    if (!*one) return false;
  }
  return true;
}

Result<bool> UnionContainedEntailmentSimple(const UnionQuery& q,
                                            const Query& q_prime,
                                            Dictionary* dict,
                                            MatchOptions options) {
  for (const Query& branch : q.branches) {
    Result<bool> one =
        ContainedEntailmentSimple(branch, q_prime, dict, options);
    if (!one.ok()) return one.status();
    if (!*one) return false;
  }
  return true;
}

}  // namespace swdb
