#include "query/answer.h"

#include <algorithm>
#include <numeric>

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
  return PreAnswerPrenormalized(q, target, /*capture=*/nullptr);
}

Result<std::vector<Graph>> QueryEvaluator::PreAnswerPrenormalized(
    const Query& q, const Graph& target, Materialization* capture) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;

  const std::vector<Term> body_vars = q.body.Variables();
  const std::vector<Triple> head = q.head.triples();
  const size_t width = body_vars.size();

  // Every single answer v(H) as one sorted, distinct span of `images`:
  // answer i is [bounds[i], bounds[i + 1]).
  std::vector<Triple> images;
  std::vector<size_t> bounds = {0};
  std::vector<Term> values;  // captured rows, in enumeration order
  size_t rows = 0;
  PatternMatcher matcher(q.body, &target, options_.match);
  Status status = matcher.Enumerate([&](const TermMap& v) {
    if (!q.SatisfiesConstraints(v)) return true;
    if (capture != nullptr) {
      for (Term var : body_vars) values.push_back(v.Apply(var));
      ++rows;
    }
    if (AppendAnswer(head, body_vars, v, &images)) {
      bounds.push_back(images.size());
    }
    return true;
  });
  if (!status.ok()) return status;

  if (capture != nullptr) {
    // Distinct matchings have distinct body-variable tuples (a matching
    // is its tuple), so this row order is total and reproducible.
    std::vector<size_t> order(rows);
    std::iota(order.begin(), order.end(), size_t{0});
    const Term* base = values.data();
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(base + a * width,
                                          base + (a + 1) * width,
                                          base + b * width,
                                          base + (b + 1) * width);
    });
    *capture = Materialization{width, rows, {}, {}};
    capture->values.reserve(values.size());
    for (size_t r : order) {
      capture->values.insert(capture->values.end(), base + r * width,
                             base + (r + 1) * width);
    }
  }

  // Sort the spans lexicographically — over sorted triple sequences
  // that is exactly TriplesLess on the graphs they spell — then
  // deduplicate: equal answers are adjacent, and each run's length is
  // the number of valuations deriving that answer.
  const Triple* img = images.data();
  std::vector<size_t> order(bounds.size() - 1);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(img + bounds[a], img + bounds[a + 1],
                                        img + bounds[b], img + bounds[b + 1]);
  });
  std::vector<uint32_t> counts;
  for (size_t i = 0; i < order.size();) {
    const size_t a = order[i];
    size_t j = i + 1;
    while (j < order.size() &&
           std::equal(img + bounds[a], img + bounds[a + 1],
                      img + bounds[order[j]], img + bounds[order[j] + 1])) {
      ++j;
    }
    counts.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
  std::vector<Graph> answers;
  answers.reserve(counts.size());
  for (size_t i = 0, run = 0; run < counts.size(); i += counts[run++]) {
    const size_t a = order[i];
    answers.push_back(
        Graph::FromSorted(img + bounds[a], bounds[a + 1] - bounds[a]));
  }
  if (capture != nullptr) capture->counts = std::move(counts);
  return answers;
}

bool QueryEvaluator::AppendAnswer(const std::vector<Triple>& head,
                                  const std::vector<Term>& body_vars,
                                  const TermMap& v,
                                  std::vector<Triple>* out) {
  // Skolem arguments: the valuation of all body variables, in sorted
  // variable order (the tuple (v(?X1), ..., v(?Xk)) of Def. 4.3),
  // built on the first head blank only.
  std::vector<Term> args;
  auto value = [&](Term x) {
    if (x.IsVar()) return v.Apply(x);
    if (x.IsBlank()) {
      if (args.empty()) {
        for (Term var : body_vars) args.push_back(v.Apply(var));
      }
      return SkolemBlank(x, args);
    }
    return x;
  };

  // Build v(H): substitute variables, Skolemize head blanks.
  const auto begin = static_cast<std::ptrdiff_t>(out->size());
  for (const Triple& t : head) {
    Triple image(value(t.s), value(t.p), value(t.o));
    if (!image.IsWellFormedData()) {
      out->resize(static_cast<size_t>(begin));
      return false;
    }
    out->push_back(image);
  }
  std::sort(out->begin() + begin, out->end());
  out->erase(std::unique(out->begin() + begin, out->end()), out->end());
  return true;
}

std::optional<Graph> QueryEvaluator::AnswerFromMatching(
    const Query& q, const std::vector<Term>& body_vars, const TermMap& v) {
  std::vector<Triple> image;
  if (!AppendAnswer(q.head.triples(), body_vars, v, &image)) {
    return std::nullopt;
  }
  return Graph::FromSorted(image.data(), image.size());
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
