#ifndef SWDB_NORMAL_NORMAL_FORM_H_
#define SWDB_NORMAL_NORMAL_FORM_H_

#include "rdf/graph.h"
#include "util/status.h"

namespace swdb {

/// Computes nf(G) = core(cl(G)) (paper Def. 3.18): the core of the RDFS
/// closure. The normal form is unique up to isomorphism and syntax
/// independent: G ≡ H iff nf(G) ≅ nf(H) (paper Thm 3.19).
Graph NormalForm(const Graph& g);

/// Decides whether `candidate` is (isomorphic to) the normal form of g —
/// the DP-complete problem of paper Thm 3.20.
bool IsNormalFormOf(const Graph& candidate, const Graph& g);

}  // namespace swdb

#endif  // SWDB_NORMAL_NORMAL_FORM_H_
