#include "query/premise.h"

#include <algorithm>

namespace swdb {

Result<std::vector<Query>> EliminatePremise(const Query& q,
                                            MatchOptions options) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;

  if (q.premise.empty()) {
    Query copy = q;
    copy.premise = Graph();
    return std::vector<Query>{std::move(copy)};
  }

  const std::vector<Triple>& body = q.body.triples();
  const size_t n = body.size();
  if (n > 20) {
    return Status::LimitExceeded(
        "premise elimination enumerates 2^|B| subsets; body too large");
  }

  std::vector<Query> out;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<Triple> r_part;
    std::vector<Triple> rest;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        r_part.push_back(body[i]);
      } else {
        rest.push_back(body[i]);
      }
    }
    // Enumerate maps μ : R → P.
    PatternMatcher matcher(r_part, &q.premise, options);
    Status status = matcher.Enumerate([&](const TermMap& mu) {
      Graph new_body = mu.Apply(Graph(rest));
      if (!new_body.BlankNodes().empty()) return true;  // blanks leaked
      Query derived;
      derived.body = std::move(new_body);
      derived.head = mu.Apply(q.head);
      bool constraint_violated = false;
      for (Term c : q.constraints) {
        Term image = mu.Apply(c);
        if (image.IsBlank()) {
          constraint_violated = true;
          break;
        }
        if (image.IsVar()) derived.constraints.push_back(image);
      }
      if (!constraint_violated) out.push_back(std::move(derived));
      return true;
    });
    if (!status.ok()) return status;
  }

  // Deduplicate by (head, body, constraints).
  std::sort(out.begin(), out.end(), [](const Query& a, const Query& b) {
    if (a.head != b.head) return TriplesLess(a.head, b.head);
    if (a.body != b.body) return TriplesLess(a.body, b.body);
    return a.constraints < b.constraints;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Query& a, const Query& b) {
                          return a.head == b.head && a.body == b.body &&
                                 a.constraints == b.constraints;
                        }),
            out.end());
  return out;
}

}  // namespace swdb
