#ifndef SWDB_SERVE_WORKLOAD_H_
#define SWDB_SERVE_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "gen/sp2b.h"
#include "paths/path.h"
#include "query/query.h"
#include "query/union_query.h"
#include "rdf/term.h"
#include "util/rng.h"

namespace swdb {

/// The canonical mixed query suite over the sp2b corpus. The templates
/// deliberately span every feature axis of the paper's query model
/// (Def. 4.1) plus the nSPARQL path extension: premise-free lookups and
/// joins, constraint (non-blank filter) queries, queries that only
/// answer through RDFS closure reasoning (sc / sp / dom / range), union
/// queries, premise queries, and regular path queries.
enum class TemplateId : uint8_t {
  kPaperMeta = 0,     ///< lookup: all (p, o) of one paper
  kAuthorPubs,        ///< lookup: papers by one author (sp-derived too)
  kVenuePapers,       ///< join: papers of one venue with their years
  kCoauthors,         ///< join: coauthor edges of one author
  kYearArticles,      ///< join: articles of a year with their creators
  kCitedBy,           ///< lookup: papers citing one paper
  kCitedAuthors,      ///< join: citations landing on one author's papers
  kNamedAuthorsOf,    ///< constraint: non-blank authors of one paper
  kDocsInYear,        ///< closure: documents (sc-derived) of one year
  kAuthoredOrEdited,  ///< union: papers written or venues edited
  kPremiseCites,      ///< premise: hypothetical citation, cited authors
  kPremiseAuthor,     ///< premise: hypothetical authorship, issue years
  kCitationReach,     ///< path: references+ from one paper
  kTypeOfPath,        ///< path: navigational RDFS type-of of one node
  kTemplateCount,
};

inline constexpr size_t kTemplateCount =
    static_cast<size_t>(TemplateId::kTemplateCount);

/// Short stable name of a template (for reports and JSON counters).
std::string_view TemplateName(TemplateId id);

/// How a sampled request is served and validated.
enum class RequestKind : uint8_t {
  kQuery,    ///< one premise-free Query via PreAnswer / PreAnswerBatch
  kUnion,    ///< a UnionQuery of premise-free branches
  kPremise,  ///< a premise Query served through its Ωq union (Prop. 5.9)
  kPath,     ///< a PathExpr evaluated from source nodes
};

/// One sampled request: the template it came from, the evaluation kind,
/// and the bound artifacts. For kPremise, `query` holds the original
/// premise-bearing query (checked mode and tests validate Prop. 5.9
/// against it) and `union_q` its premise-free elimination — the form
/// the driver actually serves, since direct premise evaluation builds
/// nf(D + P) per call where the branches share the snapshot's nf(D).
struct ServingRequest {
  TemplateId template_id = TemplateId::kPaperMeta;
  RequestKind kind = RequestKind::kQuery;
  Query query;
  UnionQuery union_q;
  std::optional<PathExpr> path;
  std::vector<Term> path_sources;
};

/// Seeded, weighted sampler over the template suite.
///
/// Construction freezes copies of the generator's entity pools (and
/// pre-interns every year term), so Sample() is const, allocates no
/// dictionary entries, and is safe to call from any number of threads
/// (each with its own Rng) while a writer keeps growing the corpus.
class WorkloadMix {
 public:
  using Weights = std::array<uint32_t, kTemplateCount>;

  /// The default template weights (sum 100): lookup/join-heavy with a
  /// steady premise + path minority, roughly the shape of a public
  /// SPARQL endpoint trace.
  static Weights DefaultWeights();

  /// Freezes the generator's current pools. The dictionary is only used
  /// during construction (variable + year interning). A weight of 0
  /// disables a template.
  WorkloadMix(const Sp2bGenerator& gen, Dictionary* dict,
              Weights weights = DefaultWeights());

  /// Draws one template by weight and binds fresh constants for it.
  ServingRequest Sample(Rng* rng) const;

  /// Builds the fully bound request for one specific template —
  /// Sample() without the weighted draw; tests use it to cover every
  /// template deterministically.
  ServingRequest Build(TemplateId id, Rng* rng) const;

  const Sp2bVocab& vocab() const { return vocab_; }

 private:
  Term RandomPaper(Rng* rng) const;
  Term RandomAuthor(Rng* rng) const;
  Term RandomVenue(Rng* rng) const;
  Term RandomYear(Rng* rng) const;

  Sp2bVocab vocab_;
  Weights weights_;
  uint32_t total_weight_ = 0;

  // Frozen pools (see class comment).
  std::vector<Term> authors_;
  std::vector<Term> papers_;
  std::vector<Term> venues_;  // journals then proceedings
  std::vector<Term> years_;

  // Pre-interned query variables.
  Term vd_, va_, vb_, vy_, vz_, vp_, vo_;

  // Pre-built fixed path expressions.
  std::optional<PathExpr> citation_reach_;
  std::optional<PathExpr> type_of_;
};

}  // namespace swdb

#endif  // SWDB_SERVE_WORKLOAD_H_
