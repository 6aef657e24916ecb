#include "query/answer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "inference/closure.h"
#include "query/union_query.h"
#include "rdf/iso.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Data;
using swdb::testing::Q;

TEST(Answer, SimpleJoinQuery) {
  Dictionary dict;
  Graph db = Data(&dict,
                  "picasso paints guernica .\n"
                  "rembrandt paints nightwatch .\n"
                  "guernica exhibited reina .\n");
  Query q = Q(&dict,
              "head: ?A master ?Y .\n"
              "body: ?A paints ?Y .\n"
              "body: ?Y exhibited reina .\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = eval.PreAnswer(q, db);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(pre->size(), 1u);
  EXPECT_TRUE((*pre)[0].Contains(Triple(dict.Iri("picasso"),
                                        dict.Iri("master"),
                                        dict.Iri("guernica"))));
}

TEST(Answer, RdfsInferenceInMatching) {
  // The paper's Fig. 1 flavor: dom/range/sp/sc inference feeds matching.
  Dictionary dict;
  Graph db = Data(&dict,
                  "paints sp creates .\n"
                  "creates dom artist .\n"
                  "artist sc person .\n"
                  "picasso paints guernica .\n");
  Query q = Q(&dict,
              "head: ?X answer yes .\n"
              "body: ?X type person .\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = eval.PreAnswer(q, db);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(pre->size(), 1u);
  EXPECT_TRUE((*pre)[0].Contains(
      Triple(dict.Iri("picasso"), dict.Iri("answer"), dict.Iri("yes"))));
}

TEST(Answer, ConstraintsFilterBlankBindings) {
  Dictionary dict;
  // _:B has its own fact so nf(db) cannot fold it onto c.
  Graph db = Data(&dict,
                  "a knows _:B .\n"
                  "_:B lives paris .\n"
                  "a knows c .\n");
  Query unconstrained = Q(&dict,
                          "head: ?Y known yes .\n"
                          "body: a knows ?Y .\n");
  Query constrained = Q(&dict,
                        "head: ?Y known yes .\n"
                        "body: a knows ?Y .\n"
                        "bind: ?Y\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> all = eval.PreAnswer(unconstrained, db);
  Result<std::vector<Graph>> bound = eval.PreAnswer(constrained, db);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(all->size(), 2u);
  ASSERT_EQ(bound->size(), 1u);
  EXPECT_TRUE((*bound)[0].Contains(
      Triple(dict.Iri("c"), dict.Iri("known"), dict.Iri("yes"))));
}

TEST(Answer, PremiseSuppliesHypotheticalFacts) {
  // §4.2: ask for relatives of Peter knowing son ⊑sp relative.
  Dictionary dict;
  Graph db = Data(&dict, "paul son Peter .");
  Query without = Q(&dict,
                    "head: ?X relative Peter .\n"
                    "body: ?X relative Peter .\n");
  Query with = Q(&dict,
                 "head: ?X relative Peter .\n"
                 "body: ?X relative Peter .\n"
                 "premise: son sp relative .\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> no_premise = eval.PreAnswer(without, db);
  Result<std::vector<Graph>> premise = eval.PreAnswer(with, db);
  ASSERT_TRUE(no_premise.ok());
  ASSERT_TRUE(premise.ok());
  EXPECT_TRUE(no_premise->empty());
  ASSERT_EQ(premise->size(), 1u);
  EXPECT_TRUE((*premise)[0].Contains(Triple(
      dict.Iri("paul"), dict.Iri("relative"), dict.Iri("Peter"))));
}

TEST(Answer, SkolemHeadBlanksArePerValuation) {
  Dictionary dict;
  Graph db = Data(&dict, "a p b .\na p c .");
  // Head blank N: each valuation mints its own blank via f_N(v(?Y)).
  Query q;
  q.head = Graph{Triple(dict.Var("Y"), dict.Iri("tagged"),
                        dict.Blank("N"))};
  q.body = Graph{Triple(dict.Iri("a"), dict.Iri("p"), dict.Var("Y"))};
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = eval.PreAnswer(q, db);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(pre->size(), 2u);
  Term blank_b = (*pre)[0][0].o;
  Term blank_c = (*pre)[1][0].o;
  EXPECT_TRUE(blank_b.IsBlank());
  EXPECT_TRUE(blank_c.IsBlank());
  EXPECT_NE(blank_b, blank_c);
}

TEST(Answer, SkolemIsStableAcrossDatabases) {
  // Prop 4.5 requires the same f_N for every database an evaluator sees.
  Dictionary dict;
  Graph db1 = Data(&dict, "a p b .");
  Graph db2 = Data(&dict, "a p b .\na p c .");
  Query q;
  q.head = Graph{Triple(dict.Var("Y"), dict.Iri("tagged"),
                        dict.Blank("N"))};
  q.body = Graph{Triple(dict.Iri("a"), dict.Iri("p"), dict.Var("Y"))};
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre1 = eval.PreAnswer(q, db1);
  Result<std::vector<Graph>> pre2 = eval.PreAnswer(q, db2);
  ASSERT_TRUE(pre1.ok());
  ASSERT_TRUE(pre2.ok());
  // The v(Y)=b answer is byte-identical across databases.
  ASSERT_EQ(pre1->size(), 1u);
  EXPECT_TRUE(std::find(pre2->begin(), pre2->end(), (*pre1)[0]) !=
              pre2->end());
}

TEST(Answer, IllFormedInstantiationsAreSkipped) {
  // ?P bound to a blank, then used in predicate position of the head:
  // the single answer is not a well-formed graph and is dropped.
  Dictionary dict;
  // _:B carries its own property so the core cannot fold it onto q.
  Graph db = Data(&dict, "a p _:B .\n_:B r s .\na p q .\nx q y .");
  Query q;
  q.head = Graph{Triple(dict.Iri("x"), dict.Var("P"), dict.Iri("y"))};
  q.body = Graph{Triple(dict.Iri("a"), dict.Iri("p"), dict.Var("P"))};
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = eval.PreAnswer(q, db);
  ASSERT_TRUE(pre.ok());
  for (const Graph& answer : *pre) {
    EXPECT_TRUE(answer.IsWellFormedData());
  }
  // The URI binding survives.
  Graph expected{Triple(dict.Iri("x"), dict.Iri("q"), dict.Iri("y"))};
  EXPECT_TRUE(std::find(pre->begin(), pre->end(), expected) != pre->end());
}

TEST(Answer, Note47IdentityQueryUnionVsMerge) {
  Dictionary dict;
  Graph db = Data(&dict, "_:X b c .\n_:X b d .");
  Query identity = Query::Identity(&dict);
  QueryEvaluator eval(&dict);
  Result<Graph> union_ans = eval.AnswerUnion(identity, db);
  Result<Graph> merge_ans = eval.AnswerMerge(identity, db);
  ASSERT_TRUE(union_ans.ok());
  ASSERT_TRUE(merge_ans.ok());
  // Union semantics: the identity query is the identity modulo ≡.
  EXPECT_TRUE(RdfsEquivalent(*union_ans, db));
  // Merge semantics breaks the blank bridge: not equivalent to db.
  EXPECT_FALSE(RdfsEquivalent(*merge_ans, db));
  // But the union always entails the merge (Prop 4.5(2)).
  EXPECT_TRUE(RdfsEntails(*union_ans, *merge_ans));
}

TEST(Answer, UnionEntailsMergeOnRandomWorkloads) {
  // Prop 4.5(2) as a property test.
  Rng rng(55);
  for (int round = 0; round < 5; ++round) {
    Dictionary dict;
    RandomGraphSpec spec;
    spec.num_nodes = 8;
    spec.num_triples = 12;
    spec.num_predicates = 3;
    spec.blank_ratio = 0.4;
    Graph db = RandomSimpleGraph(spec, &dict, &rng);
    Query q = PatternQueryFromGraph(db, 2, 0.6, &dict, &rng);
    if (!q.Validate().ok() || q.body.empty()) continue;
    QueryEvaluator eval(&dict);
    Result<Graph> union_ans = eval.AnswerUnion(q, db);
    Result<Graph> merge_ans = eval.AnswerMerge(q, db);
    ASSERT_TRUE(union_ans.ok());
    ASSERT_TRUE(merge_ans.ok());
    EXPECT_TRUE(RdfsEntails(*union_ans, *merge_ans)) << "round " << round;
  }
}

TEST(Answer, MonotoneUnderEntailment) {
  // Prop 4.5(1): D' ⊨ D implies ans(q, D') ⊨ ans(q, D).
  Dictionary dict;
  Graph db = Data(&dict,
                  "a p b .\n"
                  "b p c .");
  Graph db_stronger = Data(&dict,
                           "a p b .\n"
                           "b p c .\n"
                           "c p d .");
  Query q = Q(&dict,
              "head: ?X r ?Y .\n"
              "body: ?X p ?Y .\n");
  QueryEvaluator eval(&dict);
  Result<Graph> weak = eval.AnswerUnion(q, db);
  Result<Graph> strong = eval.AnswerUnion(q, db_stronger);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  EXPECT_TRUE(RdfsEntails(*strong, *weak));
}

TEST(Answer, Theorem46InvarianceUnderEquivalence) {
  // D ≡ D' gives isomorphic answers.
  Dictionary dict;
  Rng rng(91);
  Graph db = Data(&dict,
                  "a sc b .\n"
                  "x type a .\n"
                  "x p y .");
  Graph equivalent = EquivalentMutation(db, 3, &dict, &rng);
  ASSERT_TRUE(RdfsEquivalent(db, equivalent));
  Query q = Q(&dict,
              "head: ?X r ?C .\n"
              "body: ?X type ?C .\n");
  QueryEvaluator eval(&dict);
  Result<Graph> ans1 = eval.AnswerUnion(q, db);
  Result<Graph> ans2 = eval.AnswerUnion(q, equivalent);
  ASSERT_TRUE(ans1.ok());
  ASSERT_TRUE(ans2.ok());
  EXPECT_TRUE(AreIsomorphic(*ans1, *ans2));
}

TEST(Answer, ClosureOnlyModeBreaksInvariance) {
  // Note 4.4: matching against a closure instead of nf is syntax
  // dependent. Exhibit a pair of equivalent databases with different
  // closure-mode answers but identical nf-mode answers.
  Dictionary dict;
  Graph g = Data(&dict,
                 "a sc b .\n"
                 "b sc c .\n"
                 "a sc _:N .\n"
                 "_:N sc c .\n");
  Graph h = Data(&dict,
                 "a sc b .\n"
                 "b sc c .\n"
                 "a sc c .\n");
  ASSERT_TRUE(RdfsEquivalent(g, h));
  Query q = Q(&dict,
              "head: ?X r ?Y .\n"
              "body: ?X sc ?Y .\n");
  EvalOptions closure_mode;
  closure_mode.use_closure_only = true;
  QueryEvaluator closure_eval(&dict, closure_mode);
  QueryEvaluator nf_eval(&dict);
  Result<Graph> cg = closure_eval.AnswerUnion(q, g);
  Result<Graph> ch = closure_eval.AnswerUnion(q, h);
  Result<Graph> ng = nf_eval.AnswerUnion(q, g);
  Result<Graph> nh = nf_eval.AnswerUnion(q, h);
  ASSERT_TRUE(cg.ok() && ch.ok() && ng.ok() && nh.ok());
  EXPECT_FALSE(AreIsomorphic(*cg, *ch));  // closure mode: syntax leaks
  EXPECT_TRUE(AreIsomorphic(*ng, *nh));   // nf mode: invariant
}

TEST(Answer, EvaluationRejectsInvalidQuery) {
  Dictionary dict;
  Query q;
  q.head = Graph{Triple(dict.Var("X"), dict.Iri("p"), dict.Iri("a"))};
  q.body = Graph();  // head var not in body
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = eval.PreAnswer(q, Graph());
  EXPECT_FALSE(pre.ok());
}

// ---------------------------------------------------------------------------
// Flat answer building against one Graph per matching.

// The pre-answer built the way it was before flat span building: one
// Graph per constraint-satisfying matching, head blanks minted from
// `dict` on the first sight of their (blank, argument tuple), sorted with
// TriplesLess and deduplicated with ==. Heads here hold at most one
// blank per triple, so the mint order is enumeration order on both
// sides.
std::vector<Graph> ReferencePreAnswer(const Query& q, const Graph& target,
                                      Dictionary* dict) {
  const std::vector<Term> vars = q.body.Variables();
  std::map<std::pair<Term, std::vector<Term>>, Term> skolem;
  std::vector<Graph> per_matching;
  PatternMatcher matcher(q.body, &target, MatchOptions());
  const Status status = matcher.Enumerate([&](const TermMap& v) {
    if (!q.SatisfiesConstraints(v)) return true;
    std::vector<Term> args;
    for (Term var : vars) args.push_back(v.Apply(var));
    auto value = [&](Term x) {
      if (x.IsVar()) return v.Apply(x);
      if (!x.IsBlank()) return x;
      auto [it, fresh] = skolem.try_emplace({x, args}, Term());
      if (fresh) it->second = dict->FreshBlank();
      return it->second;
    };
    std::vector<Triple> image;
    for (const Triple& t : q.head) {
      const Triple i(value(t.s), value(t.p), value(t.o));
      if (!i.IsWellFormedData()) return true;
      image.push_back(i);
    }
    per_matching.emplace_back(std::move(image));
    return true;
  });
  EXPECT_TRUE(status.ok());
  std::sort(per_matching.begin(), per_matching.end(), TriplesLess);
  per_matching.erase(std::unique(per_matching.begin(), per_matching.end()),
                     per_matching.end());
  return per_matching;
}

// PreAnswerPrenormalized equals the reference, run on a copy of the
// dictionary so both mint the same Skolem blanks. Returns the answers
// for further checks.
std::vector<Graph> ExpectMatchesReference(const Query& q, const Graph& target,
                                          Dictionary* dict) {
  Dictionary ref_dict(*dict);
  QueryEvaluator eval(dict);
  Result<std::vector<Graph>> got = eval.PreAnswerPrenormalized(q, target);
  EXPECT_TRUE(got.ok());
  if (!got.ok()) return {};
  const std::vector<Graph> want = ReferencePreAnswer(q, target, &ref_dict);
  EXPECT_TRUE(*got == want);
  // Replays against the grown Skolem cache are identical.
  Result<std::vector<Graph>> again = eval.PreAnswerPrenormalized(q, target);
  EXPECT_TRUE(again.ok() && *again == want);
  return *got;
}

TEST(AnswerFlat, MultiTripleHeadsWhoseImagesCollapse) {
  Dictionary dict;
  const Graph target = Data(&dict,
                            "a r a .\n"
                            "a r b .\n"
                            "b r a .\n"
                            "c r c .\n"
                            "c r d .\n");
  // (a,a) and (c,c) collapse to one triple; (a,b) and (b,a) derive the
  // same two-triple answer.
  const Query q = Q(&dict,
                    "head: ?X s ?Y .\n"
                    "head: ?Y s ?X .\n"
                    "body: ?X r ?Y .\n");
  const std::vector<Graph> answers = ExpectMatchesReference(q, target, &dict);
  ASSERT_EQ(answers.size(), 4u);
  size_t singletons = 0;
  for (const Graph& g : answers) singletons += g.size() == 1 ? 1 : 0;
  EXPECT_EQ(singletons, 2u);
  // A constant head: every matching derives the one answer.
  const Query constant = Q(&dict,
                           "head: r used yes .\n"
                           "head: r used yes .\n"
                           "body: ?X r ?Y .\n");
  const std::vector<Graph> one = ExpectMatchesReference(constant, target, &dict);
  ASSERT_EQ(one.size(), 1u);
}

TEST(AnswerFlat, HeadBlanksAreSkolemizedPerMatching) {
  Dictionary dict;
  const Graph target = Data(&dict,
                            "a lives paris .\n"
                            "b lives paris .\n"
                            "a lives rome .\n"
                            "_:P lives rome .\n");
  const Query q = Q(&dict,
                    "head: ?X addr _:A .\n"
                    "head: _:A city ?C .\n"
                    "body: ?X lives ?C .\n");
  const std::vector<Graph> answers = ExpectMatchesReference(q, target, &dict);
  ASSERT_EQ(answers.size(), 4u);
  // Each matching mints its own Skolem blank.
  std::set<Term> skolems;
  for (const Graph& g : answers) {
    ASSERT_EQ(g.size(), 2u);
    for (const Triple& t : g) {
      if (t.p == dict.Iri("addr")) skolems.insert(t.o);
    }
  }
  EXPECT_EQ(skolems.size(), 4u);
  // A head blank next to a variable that only some matchings change.
  const Query tag = Q(&dict,
                      "head: ?C tagged _:N .\n"
                      "body: ?X lives ?C .\n");
  EXPECT_EQ(ExpectMatchesReference(tag, target, &dict).size(), 4u);
}

TEST(AnswerFlat, IllFormedImagesAreDroppedAndConstraintsApply) {
  Dictionary dict;
  const Graph target = Data(&dict,
                            "a p _:B .\n"
                            "_:B r s .\n"
                            "a p q .\n"
                            "a p t .\n"
                            "x q y .\n");
  // ?P bound to a blank lands in predicate position: dropped.
  const Query q = Q(&dict,
                    "head: x ?P y .\n"
                    "head: x seen ?P .\n"
                    "body: a p ?P .\n");
  EXPECT_EQ(ExpectMatchesReference(q, target, &dict).size(), 2u);
  // The same with a head blank minted before the drop.
  const Query blank_first = Q(&dict,
                              "head: _:N ?P y .\n"
                              "body: a p ?P .\n");
  EXPECT_EQ(ExpectMatchesReference(blank_first, target, &dict).size(), 2u);
  // A constraint removes the blank binding before any image is built.
  const Query bound = Q(&dict,
                        "head: ?P known yes .\n"
                        "body: a p ?P .\n"
                        "bind: ?P\n");
  EXPECT_EQ(ExpectMatchesReference(bound, target, &dict).size(), 2u);
}

TEST(AnswerFlat, RandomWorkloadsMatchReference) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    Dictionary dict;
    RandomGraphSpec spec;
    spec.num_nodes = 10;
    spec.num_triples = 30;
    spec.num_predicates = 3;
    spec.blank_ratio = 0.3;
    const Graph db = RandomSimpleGraph(spec, &dict, &rng);
    const Query q = PatternQueryFromGraph(db, 2, 0.6, &dict, &rng);
    if (!q.Validate().ok() || q.body.empty()) continue;
    ExpectMatchesReference(q, db, &dict);
  }
}

// ---------------------------------------------------------------------------
// A referee that shares no code with the matcher.

// (head blank, body-variable tuple) → the blank minted for it.
using MintMap = std::map<std::pair<Term, std::vector<Term>>, Term>;

// Whether pattern term x can take value y under v; binds x when it is an
// unbound variable.
bool Unify(Term x, Term y, TermMap* v) {
  if (!x.IsVar()) return x == y;
  if (v->IsBound(x)) return v->Apply(x) == y;
  v->Bind(x, y);
  return true;
}

// preans(q, target) by brute force, appended to `out` unsorted: the
// body's triples joined left to right over target.triples() with TermMap
// valuations (no PatternMatcher, no Graph::Matches), the constraints
// applied, each head blank minted once per (head blank, body-variable
// tuple) into `minted`, and ill-formed images dropped.
void NaivePreAnswer(const Query& q, const Graph& target, Dictionary* dict,
                    MintMap* minted, std::vector<Graph>* out) {
  const std::vector<Triple> rows = target.triples();
  std::vector<TermMap> valuations = {TermMap()};
  for (const Triple& b : q.body.triples()) {
    std::vector<TermMap> joined;
    for (const TermMap& v : valuations) {
      for (const Triple& t : rows) {
        TermMap w = v;
        if (Unify(b.s, t.s, &w) && Unify(b.p, t.p, &w) && Unify(b.o, t.o, &w)) {
          joined.push_back(std::move(w));
        }
      }
    }
    valuations = std::move(joined);
  }
  const std::vector<Term> vars = q.body.Variables();
  for (const TermMap& v : valuations) {
    if (std::any_of(q.constraints.begin(), q.constraints.end(),
                    [&](Term c) { return v.Apply(c).IsBlank(); })) {
      continue;
    }
    std::vector<Term> args;
    for (Term var : vars) args.push_back(v.Apply(var));
    const auto value = [&](Term x) {
      if (x.IsVar()) return v.Apply(x);
      if (!x.IsBlank()) return x;
      auto [it, fresh] = minted->try_emplace({x, args}, Term());
      if (fresh) it->second = dict->FreshBlank();
      return it->second;
    };
    std::vector<Triple> image;
    bool well_formed = true;
    for (const Triple& h : q.head) {
      image.emplace_back(value(h.s), value(h.p), value(h.o));
      well_formed &= image.back().IsWellFormedData();
    }
    if (well_formed) out->emplace_back(std::move(image));
  }
}

std::vector<Graph> SortedDistinct(std::vector<Graph> answers) {
  std::sort(answers.begin(), answers.end(), TriplesLess);
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

// Expects two answer lists to be equal up to a renaming of the blanks
// they minted (the blanks not in `target`): the same answers once every
// minted blank reads as one placeholder, and isomorphic unions once the
// target's own blanks are frozen to IRIs, so that a minted blank is
// shared between the same answers on both sides.
void ExpectEqualUpToMintedBlanks(const std::vector<Graph>& got,
                                 const std::vector<Graph>& want,
                                 const Graph& target, Dictionary* dict) {
  ASSERT_EQ(got.size(), want.size());
  const std::vector<Term> universe = target.Universe();
  const std::set<Term> own(universe.begin(), universe.end());
  const Term placeholder = dict->Iri("minted");
  const auto freeze = [&](Term t) {
    return t.IsBlank() && own.count(t) > 0
               ? dict->Iri("frozen" + std::to_string(t.bits()))
               : t;
  };
  const auto mask = [&](Term t) { return t.IsBlank() ? placeholder : t; };
  const auto shapes = [&](const std::vector<Graph>& answers, Graph* all) {
    std::vector<std::vector<Triple>> out;
    for (const Graph& answer : answers) {
      std::vector<Triple> shape;
      for (const Triple& t : answer) {
        const Triple f(freeze(t.s), freeze(t.p), freeze(t.o));
        all->Insert(f);
        shape.emplace_back(mask(f.s), mask(f.p), mask(f.o));
      }
      std::sort(shape.begin(), shape.end());
      out.push_back(std::move(shape));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  Graph got_all;
  Graph want_all;
  EXPECT_EQ(shapes(got, &got_all), shapes(want, &want_all));
  EXPECT_TRUE(AreIsomorphic(got_all, want_all));
}

// A random query over `target`'s IRIs: 1–3 body triples over three
// variables (so slots repeat, within a triple and across), a head of
// 1–2 triples with body variables, constants and two head blanks (in
// subject and object position; a variable predicate may still bind a
// blank and drop its image), and each head variable constrained with
// probability 0.3.
Query RandomQuery(const Graph& target, Dictionary* dict, Rng* rng) {
  std::set<Term> node_set;
  std::set<Term> pred_set;
  for (const Triple& t : target) {
    for (Term x : {t.s, t.o}) {
      if (x.IsIri()) node_set.insert(x);
    }
    pred_set.insert(t.p);
  }
  const std::vector<Term> nodes(node_set.begin(), node_set.end());
  const std::vector<Term> preds(pred_set.begin(), pred_set.end());
  const Term vars[3] = {dict->Var("X"), dict->Var("Y"), dict->Var("Z")};
  const Term blanks[2] = {dict->Blank("A"), dict->Blank("B")};
  const auto pick = [&](const std::vector<Term>& pool) {
    return pool[rng->Below(pool.size())];
  };
  const auto var_or = [&](double p, const std::vector<Term>& pool) {
    return rng->Chance(p) || pool.empty() ? vars[rng->Below(3)] : pick(pool);
  };
  Query q;
  std::vector<Triple> body;
  for (uint64_t i = 0, n = rng->Range(1, 3); i < n; ++i) {
    body.emplace_back(var_or(0.8, nodes), var_or(0.3, preds),
                      var_or(0.8, nodes));
  }
  q.body = Graph(std::move(body));
  const std::vector<Term> body_vars = q.body.Variables();
  const auto head_term = [&] {
    if (!body_vars.empty() && rng->Chance(0.6)) {
      return body_vars[rng->Below(body_vars.size())];
    }
    return rng->Chance(0.5) ? blanks[rng->Below(2)] : pick(preds);
  };
  std::vector<Triple> head;
  for (uint64_t i = 0, n = rng->Range(1, 2); i < n; ++i) {
    const Term p = !body_vars.empty() && rng->Chance(0.3)
                       ? body_vars[rng->Below(body_vars.size())]
                       : pick(preds);
    head.emplace_back(head_term(), p, head_term());
  }
  q.head = Graph(std::move(head));
  for (Term v : q.head.Variables()) {
    if (rng->Chance(0.3)) q.constraints.push_back(v);
  }
  return q;
}

// Random small targets with blanks and self loops, so repeated
// variables and constraints have rows to act on.
Graph RandomTarget(Dictionary* dict, Rng* rng) {
  RandomGraphSpec spec;
  spec.num_nodes = 4;
  spec.num_triples = 12;
  spec.num_predicates = 2;
  spec.blank_ratio = 0.3;
  Graph g = RandomSimpleGraph(spec, dict, rng);
  const std::vector<Triple> rows = g.triples();
  for (size_t i = 0; i < rows.size(); i += 4) {
    g.Insert(Triple(rows[i].s, rows[i].p, rows[i].s));
  }
  return g;
}

TEST(AnswerReferee, PreAnswerPrenormalizedMatchesANaiveJoin) {
  Rng rng(31);
  size_t checked = 0;
  size_t minting = 0;
  size_t answered = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    Dictionary dict;
    const Graph target = RandomTarget(&dict, &rng);
    const Query q = RandomQuery(target, &dict, &rng);
    if (!q.Validate().ok()) continue;
    ++checked;
    QueryEvaluator eval(&dict);
    Result<std::vector<Graph>> got = eval.PreAnswerPrenormalized(q, target);
    ASSERT_TRUE(got.ok());
    MintMap minted;
    std::vector<Graph> want;
    NaivePreAnswer(q, target, &dict, &minted, &want);
    ExpectEqualUpToMintedBlanks(*got, SortedDistinct(std::move(want)), target,
                                &dict);
    minting += got->empty() || minted.empty() ? 0 : 1;
    answered += got->empty() ? 0 : 1;
  }
  // The rounds exercise answers and Skolem blanks, not just empty lists.
  EXPECT_GT(checked, 350u);
  EXPECT_GT(answered, 150u);
  EXPECT_GT(minting, 60u);
}

TEST(AnswerReferee, CombineBranchesMatchesTheNaiveUnion) {
  Rng rng(57);
  size_t shared = 0;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    Dictionary dict;
    const Graph target = RandomTarget(&dict, &rng);
    std::vector<Query> branches;
    for (uint64_t i = 0, n = rng.Range(2, 3); i < n; ++i) {
      Query q = RandomQuery(target, &dict, &rng);
      // A branch that repeats one's body repeats its Skolem arguments,
      // and with its head too, its answers.
      if (!branches.empty() && rng.Chance(0.4)) {
        const Query& other = branches[rng.Below(branches.size())];
        q.body = other.body;
        q.constraints.clear();
        if (rng.Chance(0.5) || !q.Validate().ok()) q.head = other.head;
      }
      if (q.Validate().ok()) branches.push_back(std::move(q));
    }
    // One evaluator and one mint map serve every branch, so a branch may
    // repeat another's answers, Skolem blanks included.
    QueryEvaluator eval(&dict);
    std::vector<Result<std::vector<Graph>>> parts;
    MintMap minted;
    std::vector<Graph> want;
    size_t total = 0;
    for (const Query& q : branches) {
      parts.push_back(eval.PreAnswerPrenormalized(q, target));
      ASSERT_TRUE(parts.back().ok());
      total += parts.back()->size();
      NaivePreAnswer(q, target, &dict, &minted, &want);
    }
    Result<std::vector<Graph>> got = CombineBranches(std::move(parts));
    ASSERT_TRUE(got.ok());
    shared += got->size() < total ? 1 : 0;
    ExpectEqualUpToMintedBlanks(*got, SortedDistinct(std::move(want)), target,
                                &dict);
  }
  // Some unions deduplicate answers that two branches share.
  EXPECT_GT(shared, 20u);
}

TEST(Answer, MatchingsExposeBindingsTable) {
  Dictionary dict;
  Graph db = Data(&dict, "a p b .\na p c .\nz q b .");
  Query q = Q(&dict,
              "head: ?X r ?Y .\n"
              "body: ?X p ?Y .\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<TermMap>> rows = eval.Matchings(q, db);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  Term x = dict.Var("X");
  Term y = dict.Var("Y");
  EXPECT_EQ((*rows)[0].Apply(x), dict.Iri("a"));
  EXPECT_EQ((*rows)[0].Apply(y), dict.Iri("b"));
  EXPECT_EQ((*rows)[1].Apply(y), dict.Iri("c"));
}

TEST(Answer, MatchingsRespectConstraints) {
  Dictionary dict;
  Graph db = Data(&dict, "a p _:B .\n_:B r s .\na p c .");
  Query q = Q(&dict,
              "head: ?Y known yes .\n"
              "body: a p ?Y .\n"
              "bind: ?Y\n");
  QueryEvaluator eval(&dict);
  Result<std::vector<TermMap>> rows = eval.Matchings(q, db);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].Apply(dict.Var("Y")), dict.Iri("c"));
}

}  // namespace
}  // namespace swdb
