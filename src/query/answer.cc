#include "query/answer.h"

#include <algorithm>

#include "inference/closure.h"
#include "normal/normal_form.h"

namespace swdb {

QueryEvaluator::QueryEvaluator(Dictionary* dict, EvalOptions options)
    : dict_(dict), options_(options) {}

Graph QueryEvaluator::NormalizedDatabase(const Query& q, const Graph& db) {
  Graph combined = Merge(db, q.premise, dict_);
  // Premise-bearing queries re-normalize D + P per call.
  if (options_.use_closure_only) return RdfsClosure(combined);
  return NormalForm(combined);
}

Term QueryEvaluator::SkolemBlank(Term head_blank,
                                 const std::vector<Term>& args) {
  SkolemKey key(head_blank, args);
  std::lock_guard<std::mutex> lock(skolem_mu_);
  auto it = skolem_cache_.find(key);
  if (it != skolem_cache_.end()) return it->second;
  Term fresh = dict_->FreshBlank();
  skolem_cache_.emplace(std::move(key), fresh);
  return fresh;
}

Result<std::vector<Graph>> QueryEvaluator::PreAnswer(const Query& q,
                                                     const Graph& db) {
  // Reject before normalizing: D + P costs a closure and a core, and the
  // merge mints blanks into the dictionary.
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  return PreAnswerPrenormalized(q, NormalizedDatabase(q, db));
}

Result<std::vector<Graph>> QueryEvaluator::PreAnswerPrenormalized(
    const Query& q, const Graph& target) {
  return PreAnswerPrenormalized(q, target, /*matchings_out=*/nullptr);
}

Result<std::vector<Graph>> QueryEvaluator::PreAnswerPrenormalized(
    const Query& q, const Graph& target,
    std::vector<TermMap>* matchings_out) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;

  std::vector<Term> body_vars = q.body.Variables();

  std::vector<Graph> answers;
  PatternMatcher matcher(q.body, &target, options_.match);
  Status status = matcher.Enumerate([&](const TermMap& v) {
    if (!q.SatisfiesConstraints(v)) return true;
    if (matchings_out != nullptr) matchings_out->push_back(v);
    std::optional<Graph> answer = AnswerFromMatching(q, body_vars, v);
    if (answer.has_value()) answers.push_back(*std::move(answer));
    return true;
  });
  if (!status.ok()) return status;

  if (matchings_out != nullptr) {
    // Distinct matchings have distinct body-variable tuples (a matching
    // is its tuple), so this order is total and reproducible.
    std::sort(matchings_out->begin(), matchings_out->end(),
              [&body_vars](const TermMap& a, const TermMap& b) {
                return ValuationLess(a, b, body_vars);
              });
  }
  std::sort(answers.begin(), answers.end(),
            [](const Graph& a, const Graph& b) {
              return a.triples() < b.triples();
            });
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

std::optional<Graph> QueryEvaluator::AnswerFromMatching(
    const Query& q, const std::vector<Term>& body_vars, const TermMap& v) {
  // Skolem arguments: the valuation of all body variables, in sorted
  // variable order (the tuple (v(?X1), ..., v(?Xk)) of Def. 4.3).
  std::vector<Term> args;
  args.reserve(body_vars.size());
  for (Term var : body_vars) args.push_back(v.Apply(var));

  // Build v(H): substitute variables, Skolemize head blanks.
  std::vector<Triple> triples;
  triples.reserve(q.head.size());
  for (const Triple& t : q.head) {
    auto value = [&](Term x) {
      if (x.IsVar()) return v.Apply(x);
      if (x.IsBlank()) return SkolemBlank(x, args);
      return x;
    };
    Triple image(value(t.s), value(t.p), value(t.o));
    if (!image.IsWellFormedData()) return std::nullopt;
    triples.push_back(image);
  }
  return Graph(std::move(triples));
}

Result<std::vector<TermMap>> QueryEvaluator::Matchings(const Query& q,
                                                       const Graph& db) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  Graph target = NormalizedDatabase(q, db);
  std::vector<Term> body_vars = q.body.Variables();

  std::vector<TermMap> matchings;
  PatternMatcher matcher(q.body, &target, options_.match);
  Status status = matcher.Enumerate([&](const TermMap& v) {
    if (!q.SatisfiesConstraints(v)) return true;
    matchings.push_back(v);
    return true;
  });
  if (!status.ok()) return status;

  std::sort(matchings.begin(), matchings.end(),
            [&body_vars](const TermMap& a, const TermMap& b) {
              return ValuationLess(a, b, body_vars);
            });
  return matchings;
}

bool ValuationLess(const TermMap& a, const TermMap& b,
                   const std::vector<Term>& vars) {
  for (Term var : vars) {
    const Term av = a.Apply(var);
    const Term bv = b.Apply(var);
    if (av != bv) return av < bv;
  }
  return false;
}

Result<Graph> QueryEvaluator::AnswerUnion(const Query& q, const Graph& db) {
  Result<std::vector<Graph>> pre = PreAnswer(q, db);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) {
    out.InsertAll(answer);
  }
  return out;
}

Result<Graph> QueryEvaluator::AnswerMerge(const Query& q, const Graph& db) {
  Result<std::vector<Graph>> pre = PreAnswer(q, db);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) {
    out.InsertAll(FreshBlankCopy(answer, dict_));
  }
  return out;
}

}  // namespace swdb
