#include "normal/normal_form.h"

#include "inference/closure.h"
#include "normal/core.h"
#include "rdf/iso.h"

namespace swdb {

Graph NormalForm(const Graph& g) { return Core(RdfsClosure(g)); }

bool IsNormalFormOf(const Graph& candidate, const Graph& g) {
  return AreIsomorphic(candidate, NormalForm(g));
}

}  // namespace swdb
