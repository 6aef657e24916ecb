#ifndef SWDB_GEN_GENERATORS_H_
#define SWDB_GEN_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/rng.h"

namespace swdb {

/// Parameters for random simple graphs.
struct RandomGraphSpec {
  uint32_t num_nodes = 20;
  uint32_t num_triples = 40;
  uint32_t num_predicates = 4;
  /// Fraction of nodes that are blank nodes.
  double blank_ratio = 0.3;
};

/// A random simple graph: num_triples edges drawn uniformly over
/// num_nodes nodes (a blank_ratio fraction of them blank) and
/// num_predicates predicates. Deterministic given the Rng state.
Graph RandomSimpleGraph(const RandomGraphSpec& spec, Dictionary* dict,
                        Rng* rng);

/// A chain of n sc triples c_0 sc c_1 sc ... sc c_n. Its RDFS closure
/// has Θ(n²) sc triples — the worst-case shape of Thm 3.6(3).
Graph ScChain(uint32_t n, Dictionary* dict);

/// A chain of n sp triples p_0 sp ... sp p_n plus `uses` triples
/// (x_i, p_0, y_i). Rule (3) propagates every use up the whole chain, so
/// the closure has Θ(n · uses) derived triples.
Graph SpChainWithUses(uint32_t n, uint32_t uses, Dictionary* dict);

/// Parameters for a synthetic RDFS schema-plus-instance workload, shaped
/// like the paper's Fig. 1 art example: a class tree connected by sc, a
/// property tree connected by sp, dom/range assertions tying properties
/// to classes, typed instances, and property assertions between them.
struct SchemaWorkloadSpec {
  uint32_t num_classes = 10;
  uint32_t num_properties = 6;
  uint32_t num_instances = 30;
  uint32_t num_facts = 60;      ///< property assertions between instances
  double typed_fraction = 0.8;  ///< instances with an explicit type triple
  double blank_instance_ratio = 0.1;
};

/// Generates the schema workload described by spec.
Graph SchemaWorkload(const SchemaWorkloadSpec& spec, Dictionary* dict,
                     Rng* rng);

/// A blank-node chain _:b0 -p-> _:b1 -p-> ... of length n (no
/// blank-induced cycles, so entailment from it is polynomial; §2.4).
Graph BlankChain(uint32_t n, Term predicate, Dictionary* dict);

/// A blank-node symmetric cycle of length n over one predicate —
/// the blank-induced-cycle shape that defeats acyclic evaluation.
Graph BlankCycle(uint32_t n, Term predicate, Dictionary* dict);

/// One blank author on `papers` papers: (paper_i, creator, _:a) for
/// each i, plus one ground co-author per paper (one of five, by i mod 5)
/// and a type triple. The blank author's component is exactly the
/// `papers` creator triples, and it is lean once papers ≥ 2 (no
/// co-author is on every paper): the star a prolific blank author of an
/// SP²Bench corpus gives the core search.
Graph BlankAuthorStar(uint32_t papers, Dictionary* dict);

/// Derives a pattern query from a data graph: samples `body_size`
/// triples and replaces each term with a variable with probability
/// var_ratio (consistently per term). The head repeats the body. The
/// query is guaranteed to have at least one matching in `data`.
Query PatternQueryFromGraph(const Graph& data, uint32_t body_size,
                            double var_ratio, Dictionary* dict, Rng* rng);

/// Parameters for an overlapping multi-query workload: num_families
/// shapes, each spawning queries_per_family variants that share the
/// family's prefix_size-triple connected body prefix and differ in a
/// suffix_size-triple residual suffix.
struct QueryMixSpec {
  uint32_t num_families = 8;
  uint32_t queries_per_family = 8;
  uint32_t prefix_size = 2;
  uint32_t suffix_size = 2;
  /// Probability that a non-predicate data term becomes a variable.
  double var_ratio = 0.6;
};

/// Generates spec.num_families × spec.queries_per_family premise-free
/// queries over `data` (head repeats body, so every query is safe and
/// head-blank-free). Variants of one family literally share the family's
/// prefix pattern triples; each query has at least one matching in
/// `data` by construction.
std::vector<Query> OverlappingQueryMix(const Graph& data,
                                       const QueryMixSpec& spec,
                                       Dictionary* dict, Rng* rng);

/// Applies `mutations` random equivalence-preserving rewrites to g:
/// adding a triple derivable from g (rules (2)–(13)) or duplicating a
/// triple with a fresh blank in a blank position (a specialization-adding
/// map image). The result is RDFS-equivalent to g by construction; used
/// by normal-form and answer-invariance property tests.
Graph EquivalentMutation(const Graph& g, uint32_t mutations,
                         Dictionary* dict, Rng* rng);

}  // namespace swdb

#endif  // SWDB_GEN_GENERATORS_H_
