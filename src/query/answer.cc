#include "query/answer.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "inference/closure.h"
#include "normal/normal_form.h"

namespace swdb {

namespace {

// Lexicographic order of two valuations on `vars`: the deterministic
// order Matchings() returns them in.
bool ValuationLess(const TermMap& a, const TermMap& b,
                   const std::vector<Term>& vars) {
  for (Term var : vars) {
    const Term av = a.Apply(var);
    const Term bv = b.Apply(var);
    if (av != bv) return av < bv;
  }
  return false;
}

}  // namespace

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
  return PreAnswerPinned(q, [&] { return NormalizedDatabase(q, db); });
}

Result<std::vector<Graph>> QueryEvaluator::PreAnswerPrenormalized(
    const Query& q, const Graph& target) {
  return PreAnswerPinned(q, [&]() -> const Graph& { return target; });
}

Result<std::vector<Graph>> QueryEvaluator::Evaluate(const Query& q,
                                                    const Graph& target) {
  PatternMatcher matcher(q.body, &target, options_.match);
  // Compile the head, the constraints and the Skolem arguments to row
  // reads. A valid query's head and constraint variables are body
  // variables, so each has a slot; a term without one is read as
  // itself, as TermMap::Apply would.
  struct HeadTerm {
    Term term;     // the constant or head blank when slot < 0
    int32_t slot;  // row index of a variable
  };
  const auto compile = [&](Term t) {
    return HeadTerm{t, t.IsVar() ? matcher.SlotOf(t) : -1};
  };
  std::vector<std::array<HeadTerm, 3>> head;
  for (const Triple& t : q.head) {
    head.push_back({compile(t.s), compile(t.p), compile(t.o)});
  }
  std::vector<int32_t> constrained;
  for (Term c : q.constraints) {
    if (const int32_t slot = matcher.SlotOf(c); slot >= 0) {
      constrained.push_back(slot);
    }
  }
  // Skolem arguments: the valuation of all body variables, in sorted
  // variable order (the tuple (v(?X1), ..., v(?Xk)) of Def. 4.3).
  std::vector<int32_t> arg_slots;
  for (Term var : q.body.Variables()) arg_slots.push_back(matcher.SlotOf(var));

  // Every single answer v(H) as one sorted, distinct span of `images`:
  // answer i is [bounds[i], bounds[i + 1]).
  std::vector<Triple> images;
  std::vector<size_t> bounds = {0};
  std::vector<Term> args;
  Status status = matcher.EnumerateRows([&](const Term* row) {
    for (int32_t c : constrained) {
      if (row[c].IsBlank()) return true;
    }
    // The Skolem tuple is built on the first head blank only.
    args.clear();
    const auto value = [&](const HeadTerm& h) {
      if (h.slot >= 0) return row[h.slot];
      if (!h.term.IsBlank()) return h.term;
      if (args.empty()) {
        for (int32_t s : arg_slots) args.push_back(row[s]);
      }
      return SkolemBlank(h.term, args);
    };
    const size_t begin = images.size();
    for (const std::array<HeadTerm, 3>& h : head) {
      Triple image(value(h[0]), value(h[1]), value(h[2]));
      if (!image.IsWellFormedData()) {
        images.resize(begin);  // not a data graph: no answer
        return true;
      }
      images.push_back(image);
    }
    const auto first = images.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, images.end());
    images.erase(std::unique(first, images.end()), images.end());
    bounds.push_back(images.size());
    return true;
  });
  if (!status.ok()) return status;

  // Sort the spans lexicographically — over sorted triple sequences
  // that is exactly TriplesLess on the graphs they spell — then keep
  // the first of each run of equal answers. Spans often come out in
  // order already (a star join whose rows ascend in the head's terms),
  // and then one pass replaces the sort.
  const Triple* img = images.data();
  std::vector<size_t> order(bounds.size() - 1);
  std::iota(order.begin(), order.end(), size_t{0});
  const auto span_less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(img + bounds[a], img + bounds[a + 1],
                                        img + bounds[b], img + bounds[b + 1]);
  };
  if (!std::is_sorted(order.begin(), order.end(), span_less)) {
    std::sort(order.begin(), order.end(), span_less);
  }
  const auto last = std::unique(order.begin(), order.end(), [&](size_t a,
                                                                size_t b) {
    return std::equal(img + bounds[a], img + bounds[a + 1], img + bounds[b],
                      img + bounds[b + 1]);
  });
  std::vector<Graph> answers;
  answers.reserve(static_cast<size_t>(last - order.begin()));
  for (auto it = order.begin(); it != last; ++it) {
    answers.push_back(
        Graph::FromSorted(img + bounds[*it], bounds[*it + 1] - bounds[*it]));
  }
  return answers;
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

Result<Graph> QueryEvaluator::AnswerUnion(const Query& q, const Graph& db) {
  return UnionOfAnswers(PreAnswer(q, db));
}

Result<Graph> QueryEvaluator::AnswerMerge(const Query& q, const Graph& db) {
  return MergeOfAnswers(PreAnswer(q, db), dict_);
}

Result<Graph> UnionOfAnswers(const Result<std::vector<Graph>>& pre) {
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) out.InsertAll(answer);
  return out;
}

Result<Graph> MergeOfAnswers(const Result<std::vector<Graph>>& pre,
                             Dictionary* dict) {
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) out.InsertAll(FreshBlankCopy(answer, dict));
  return out;
}

}  // namespace swdb
