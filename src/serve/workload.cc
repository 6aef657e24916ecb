#include "serve/workload.h"

#include <utility>

#include "query/premise.h"
#include "rdf/triple.h"
#include "util/str.h"

namespace swdb {

std::string_view TemplateName(TemplateId id) {
  switch (id) {
    case TemplateId::kPaperMeta: return "paper_meta";
    case TemplateId::kAuthorPubs: return "author_pubs";
    case TemplateId::kVenuePapers: return "venue_papers";
    case TemplateId::kCoauthors: return "coauthors";
    case TemplateId::kYearArticles: return "year_articles";
    case TemplateId::kCitedBy: return "cited_by";
    case TemplateId::kCitedAuthors: return "cited_authors";
    case TemplateId::kNamedAuthorsOf: return "named_authors_of";
    case TemplateId::kDocsInYear: return "docs_in_year";
    case TemplateId::kAuthoredOrEdited: return "authored_or_edited";
    case TemplateId::kPremiseCites: return "premise_cites";
    case TemplateId::kPremiseAuthor: return "premise_author";
    case TemplateId::kCitationReach: return "citation_reach";
    case TemplateId::kTypeOfPath: return "type_of_path";
    case TemplateId::kTemplateCount: break;
  }
  return "unknown";
}

WorkloadMix::Weights WorkloadMix::DefaultWeights() {
  Weights w{};
  w[static_cast<size_t>(TemplateId::kPaperMeta)] = 14;
  w[static_cast<size_t>(TemplateId::kAuthorPubs)] = 14;
  w[static_cast<size_t>(TemplateId::kVenuePapers)] = 8;
  w[static_cast<size_t>(TemplateId::kCoauthors)] = 8;
  w[static_cast<size_t>(TemplateId::kYearArticles)] = 4;
  w[static_cast<size_t>(TemplateId::kCitedBy)] = 12;
  w[static_cast<size_t>(TemplateId::kCitedAuthors)] = 6;
  w[static_cast<size_t>(TemplateId::kNamedAuthorsOf)] = 8;
  w[static_cast<size_t>(TemplateId::kDocsInYear)] = 2;
  w[static_cast<size_t>(TemplateId::kAuthoredOrEdited)] = 8;
  w[static_cast<size_t>(TemplateId::kPremiseCites)] = 4;
  w[static_cast<size_t>(TemplateId::kPremiseAuthor)] = 4;
  w[static_cast<size_t>(TemplateId::kCitationReach)] = 4;
  w[static_cast<size_t>(TemplateId::kTypeOfPath)] = 4;
  return w;
}

WorkloadMix::WorkloadMix(const Sp2bGenerator& gen, Dictionary* dict,
                         Weights weights)
    : vocab_(gen.vocab()),
      weights_(weights),
      papers_(gen.papers()) {
  // Author constants are substituted into query *bodies*, which
  // Def. 4.1 forbids to contain blank nodes — an anonymous author
  // cannot be named in a query. Freeze only the IRI authors.
  for (const Term a : gen.authors()) {
    if (a.IsIri()) authors_.push_back(a);
  }
  if (authors_.empty()) authors_ = gen.papers();  // degenerate spec guard
  venues_ = gen.journals();
  venues_.insert(venues_.end(), gen.proceedings().begin(),
                 gen.proceedings().end());
  // GenerateCorpus leaves current_year() at the year still being
  // filled; every year up to it has publications. Re-interning by name
  // returns the generator's existing year terms.
  for (uint32_t y = gen.spec().start_year; y <= gen.current_year(); ++y) {
    years_.push_back(dict->Iri(NumberedName("sp2b:year", y)));
  }
  for (uint32_t w : weights_) total_weight_ += w;

  vd_ = dict->Var("d");
  va_ = dict->Var("a");
  vb_ = dict->Var("b");
  vy_ = dict->Var("y");
  vz_ = dict->Var("z");
  vp_ = dict->Var("p");
  vo_ = dict->Var("o");

  citation_reach_ = PathExpr::Plus(PathExpr::Predicate(vocab_.references));
  // The navigational RDFS type-of relation (see paths/path.h):
  //   type/(sc)* | edge/(sp)*/dom/(sc)* | ^edge/(sp)*/range/(sc)*
  // — equal, node for node, to the closure's rdf:type facts on this
  // vocabulary. The serving driver uses that equality as a
  // cross-system check (navigation vs. maintained closure).
  const PathExpr sc_star = PathExpr::Star(PathExpr::Predicate(vocab::kSc));
  const PathExpr sp_star = PathExpr::Star(PathExpr::Predicate(vocab::kSp));
  type_of_ = PathExpr::Alternation(
      PathExpr::Sequence(PathExpr::Predicate(vocab::kType), sc_star),
      PathExpr::Alternation(
          PathExpr::Sequence(
              PathExpr::EdgeForward(),
              PathExpr::Sequence(
                  sp_star, PathExpr::Sequence(
                               PathExpr::Predicate(vocab::kDom), sc_star))),
          PathExpr::Sequence(
              PathExpr::EdgeBackward(),
              PathExpr::Sequence(
                  sp_star, PathExpr::Sequence(
                               PathExpr::Predicate(vocab::kRange),
                               sc_star)))));
}

Term WorkloadMix::RandomPaper(Rng* rng) const {
  return papers_[rng->Below(papers_.size())];
}
Term WorkloadMix::RandomAuthor(Rng* rng) const {
  return authors_[rng->Below(authors_.size())];
}
Term WorkloadMix::RandomVenue(Rng* rng) const {
  return venues_[rng->Below(venues_.size())];
}
Term WorkloadMix::RandomYear(Rng* rng) const {
  return years_[rng->Below(years_.size())];
}

ServingRequest WorkloadMix::Sample(Rng* rng) const {
  uint64_t pick = rng->Below(total_weight_);
  size_t id = 0;
  while (id + 1 < kTemplateCount && pick >= weights_[id]) {
    pick -= weights_[id];
    ++id;
  }
  return Build(static_cast<TemplateId>(id), rng);
}

ServingRequest WorkloadMix::Build(TemplateId id, Rng* rng) const {
  const Sp2bVocab& v = vocab_;
  ServingRequest req;
  req.template_id = id;
  req.kind = RequestKind::kQuery;
  switch (id) {
    case TemplateId::kPaperMeta: {
      const Term paper = RandomPaper(rng);
      req.query.body = Graph({Triple(paper, vp_, vo_)});
      req.query.head = req.query.body;
      break;
    }
    case TemplateId::kAuthorPubs: {
      const Term author = RandomAuthor(rng);
      req.query.body = Graph({Triple(vd_, v.creator, author)});
      req.query.head = req.query.body;
      break;
    }
    case TemplateId::kVenuePapers: {
      const Term venue = RandomVenue(rng);
      req.query.body = Graph(
          {Triple(vd_, v.venue, venue), Triple(vd_, v.issued, vy_)});
      req.query.head = Graph({Triple(vd_, v.issued, vy_)});
      break;
    }
    case TemplateId::kCoauthors: {
      const Term author = RandomAuthor(rng);
      req.query.body = Graph(
          {Triple(vd_, v.creator, author), Triple(vd_, v.creator, vb_)});
      req.query.head = Graph({Triple(vd_, v.creator, vb_)});
      break;
    }
    case TemplateId::kYearArticles: {
      const Term year = RandomYear(rng);
      req.query.body =
          Graph({Triple(vd_, vocab::kType, v.article),
                 Triple(vd_, v.issued, year), Triple(vd_, v.creator, va_)});
      req.query.head = Graph({Triple(vd_, v.creator, va_)});
      break;
    }
    case TemplateId::kCitedBy: {
      const Term paper = RandomPaper(rng);
      req.query.body = Graph({Triple(vd_, v.references, paper)});
      req.query.head = req.query.body;
      break;
    }
    case TemplateId::kCitedAuthors: {
      const Term author = RandomAuthor(rng);
      req.query.body = Graph(
          {Triple(vd_, v.references, vz_), Triple(vz_, v.creator, author)});
      req.query.head = Graph({Triple(vd_, v.references, vz_)});
      break;
    }
    case TemplateId::kNamedAuthorsOf: {
      const Term paper = RandomPaper(rng);
      req.query.body = Graph({Triple(paper, v.creator, va_)});
      req.query.head = req.query.body;
      req.query.constraints = {va_};
      break;
    }
    case TemplateId::kDocsInYear: {
      const Term year = RandomYear(rng);
      req.query.body = Graph({Triple(vd_, vocab::kType, v.document),
                              Triple(vd_, v.issued, year)});
      req.query.head = Graph({Triple(vd_, v.issued, year)});
      break;
    }
    case TemplateId::kAuthoredOrEdited: {
      const Term author = RandomAuthor(rng);
      req.kind = RequestKind::kUnion;
      Query wrote;
      wrote.body = Graph({Triple(vd_, v.creator, author)});
      wrote.head = wrote.body;
      Query edited;
      edited.body = Graph({Triple(vd_, v.editor, author)});
      edited.head = edited.body;
      req.union_q.branches = {std::move(wrote), std::move(edited)};
      break;
    }
    case TemplateId::kPremiseCites: {
      // "Assuming X also cited Y, which cited papers and authors does
      // X reach?" — X, Y existing papers, so the premise derives no
      // type facts the closure lacks and Prop. 5.9's Ωq equals direct
      // evaluation on nf(D + P).
      const Term x = RandomPaper(rng);
      const Term y = RandomPaper(rng);
      req.kind = RequestKind::kPremise;
      req.query.premise = Graph({Triple(x, v.references, y)});
      req.query.body = Graph(
          {Triple(x, v.references, vz_), Triple(vz_, v.creator, va_)});
      req.query.head = Graph({Triple(vz_, v.creator, va_)});
      break;
    }
    case TemplateId::kPremiseAuthor: {
      // "Assuming A also wrote P, when were A's papers issued?"
      const Term paper = RandomPaper(rng);
      const Term author = RandomAuthor(rng);
      req.kind = RequestKind::kPremise;
      req.query.premise = Graph({Triple(paper, v.creator, author)});
      req.query.body = Graph(
          {Triple(vd_, v.creator, author), Triple(vd_, v.issued, vy_)});
      req.query.head = Graph({Triple(vd_, v.issued, vy_)});
      break;
    }
    case TemplateId::kCitationReach: {
      req.kind = RequestKind::kPath;
      req.path = citation_reach_;
      req.path_sources = {RandomPaper(rng)};
      break;
    }
    case TemplateId::kTypeOfPath: {
      req.kind = RequestKind::kPath;
      req.path = type_of_;
      // Alternate papers and authors so both the dom and range legs of
      // the navigational type-of fire.
      req.path_sources = {rng->Chance(0.5) ? RandomPaper(rng)
                                           : RandomAuthor(rng)};
      break;
    }
    case TemplateId::kTemplateCount:
      break;
  }
  if (req.kind == RequestKind::kPremise) {
    // Serve the premise query through its premise-free union (Prop.
    // 5.9): the Ωq branches evaluate against the snapshot's shared
    // nf(D), while direct premise evaluation would normalize D + P per
    // call. Bodies here have 2 triples, so the 2^|B| enumeration is 4
    // masks — negligible.
    Result<std::vector<Query>> branches = EliminatePremise(req.query);
    if (branches.ok()) {
      req.union_q.branches = std::move(*branches);
    } else {
      // Unreachable for these fixed shapes; degrade to the premise-free
      // part of the body rather than crash the serving loop.
      req.kind = RequestKind::kQuery;
      req.query.premise = Graph();
    }
  }
  return req;
}

}  // namespace swdb
