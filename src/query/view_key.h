#ifndef SWDB_QUERY_VIEW_KEY_H_
#define SWDB_QUERY_VIEW_KEY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/query.h"

namespace swdb {

/// A query rewritten into the normal form batch dedupe keys on: the
/// same shape as the input, with variables renamed to canonical ids
/// Var(0..k-1) when the renaming is answer-preserving. Evaluating
/// `query` yields pre-answers bit-identical to evaluating the original
/// (answers never mention variable names), so one evaluation can serve
/// every query of a batch that canonicalizes to the same form.
struct CanonicalQuery {
  Query query;
  /// True when variables were actually canonicalized. False for queries
  /// whose head contains blank nodes: Skolemization keys on the concrete
  /// head-blank term and on the sorted-body-variable argument tuple, so
  /// serving one such query's answers for a merely isomorphic other
  /// would change the minted blank ids. Those queries keep their exact
  /// spelling as the key (repeats of the identical query still share).
  bool renamed = false;
};

/// Content-addressed identity of a query shape: the canonicalized query
/// serialized to packed term bits (body, head, constraints, premise
/// fingerprint) with a precomputed hash. Two queries with equal ViewKeys
/// are isomorphic via a variable bijection (equal keys literally share
/// one canonical spelling), so their pre-answers coincide bit for bit;
/// the converse is best-effort — a WL-refinement tie on pathologically
/// symmetric bodies may give isomorphic queries distinct keys, which
/// costs a second evaluation, never a wrong answer.
struct ViewKey {
  std::vector<uint32_t> words;
  size_t hash = 0;

  bool operator==(const ViewKey& o) const {
    return hash == o.hash && words == o.words;
  }
  bool operator!=(const ViewKey& o) const { return !(*this == o); }
};

struct ViewKeyHash {
  size_t operator()(const ViewKey& k) const { return k.hash; }
};

/// Canonicalizes q (see CanonicalQuery) and serializes it into its
/// ViewKey. The caller must have validated q (Query::Validate): the
/// renaming is answer-preserving only for valid queries, so every read
/// path validates once, up front, and keys only what passed.
/// `canonical_out`, if non-null, receives the canonical query to
/// evaluate in place of q.
ViewKey MakeViewKey(const Query& q, CanonicalQuery* canonical_out = nullptr);

}  // namespace swdb

#endif  // SWDB_QUERY_VIEW_KEY_H_
