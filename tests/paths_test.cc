#include "paths/path.h"

#include <gtest/gtest.h>

#include <set>

#include "inference/closure.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/str.h"

namespace swdb {
namespace {

using swdb::testing::Data;

class PathsTest : public ::testing::Test {
 protected:
  Dictionary dict_;
  Graph g_ = Data(&dict_,
                  "a p b .\n"
                  "b p c .\n"
                  "c p d .\n"
                  "a q x .\n"
                  "x r d .\n"
                  "d p a .\n");  // p-cycle a→b→c→d→a

  std::vector<Term> Eval(const std::string& expr, const char* from) {
    Result<PathExpr> path = ParsePathExpr(expr, &dict_);
    EXPECT_TRUE(path.ok()) << path.status().ToString();
    if (!path.ok()) return {};
    return EvalPathFrom(g_, *path, {dict_.Iri(from)});
  }
};

TEST_F(PathsTest, SinglePredicateStep) {
  std::vector<Term> out = Eval("p", "a");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], dict_.Iri("b"));
}

TEST_F(PathsTest, InverseStep) {
  std::vector<Term> out = Eval("^p", "b");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], dict_.Iri("a"));
}

TEST_F(PathsTest, Sequence) {
  std::vector<Term> out = Eval("p/p", "a");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], dict_.Iri("c"));
}

TEST_F(PathsTest, Alternation) {
  std::vector<Term> out = Eval("p|q", "a");
  EXPECT_EQ(out.size(), 2u);  // b and x
}

TEST_F(PathsTest, StarIncludesSource) {
  std::vector<Term> out = Eval("q*", "a");
  EXPECT_EQ(out.size(), 2u);  // a itself and x
}

TEST_F(PathsTest, PlusExcludesSourceUnlessCyclic) {
  std::vector<Term> acyclic = Eval("q+", "a");
  ASSERT_EQ(acyclic.size(), 1u);
  EXPECT_EQ(acyclic[0], dict_.Iri("x"));
  // p is cyclic, so a reaches itself via p+.
  std::vector<Term> cyclic = Eval("p+", "a");
  EXPECT_EQ(cyclic.size(), 4u);  // a, b, c, d
}

TEST_F(PathsTest, OptionalStep) {
  std::vector<Term> out = Eval("q?", "a");
  EXPECT_EQ(out.size(), 2u);  // a and x
}

TEST_F(PathsTest, ComplexExpression) {
  // Either hop twice on p, or take the q/r detour — both reach d from b?
  // From a: (p/p)|(q/r) reaches c and d.
  std::vector<Term> out = Eval("(p/p)|(q/r)", "a");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(PathsTest, PathReachesHelper) {
  Result<PathExpr> path = ParsePathExpr("p+", &dict_);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(PathReaches(g_, *path, dict_.Iri("a"), dict_.Iri("d")));
  EXPECT_FALSE(PathReaches(g_, *path, dict_.Iri("a"), dict_.Iri("x")));
}

TEST_F(PathsTest, PairsEnumerateRelation) {
  Result<PathExpr> path = ParsePathExpr("p", &dict_);
  ASSERT_TRUE(path.ok());
  std::vector<std::pair<Term, Term>> pairs = EvalPathPairs(g_, *path);
  EXPECT_EQ(pairs.size(), 4u);
}

TEST_F(PathsTest, InverseStarWalksBackwards) {
  std::vector<Term> out = Eval("(^p)+", "d");
  EXPECT_EQ(out.size(), 4u);  // cycle backwards
}

TEST_F(PathsTest, RdfsAwarePathOverClosure) {
  // Reachability through the subclass hierarchy: evaluate sc+ over the
  // closure to follow derived edges too.
  Dictionary dict;
  Graph schema = Data(&dict,
                      "cat sc mammal .\n"
                      "mammal sc animal .\n");
  Result<PathExpr> path = ParsePathExpr("sc+", &dict);
  ASSERT_TRUE(path.ok());
  Graph closure = RdfsClosure(schema);
  std::vector<Term> from_cat =
      EvalPathFrom(closure, *path, {dict.Iri("cat")});
  // cat, mammal, animal — reflexive (cat,sc,cat) includes cat itself.
  EXPECT_EQ(from_cat.size(), 3u);
}

TEST_F(PathsTest, ParserRejectsGarbage) {
  Dictionary dict;
  EXPECT_FALSE(ParsePathExpr("", &dict).ok());
  EXPECT_FALSE(ParsePathExpr("(p", &dict).ok());
  EXPECT_FALSE(ParsePathExpr("p//q", &dict).ok());
  EXPECT_FALSE(ParsePathExpr("p | ", &dict).ok());
  EXPECT_FALSE(ParsePathExpr("^", &dict).ok());
  EXPECT_FALSE(ParsePathExpr("p q", &dict).ok());
}

TEST_F(PathsTest, ParserPrecedence) {
  // '/' binds tighter than '|'; postfix binds tightest.
  Dictionary dict;
  Result<PathExpr> path = ParsePathExpr("a/b|c*", &dict);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->kind(), PathExpr::Kind::kAlternation);
  EXPECT_EQ(path->left().kind(), PathExpr::Kind::kSequence);
  EXPECT_EQ(path->right().kind(), PathExpr::Kind::kStar);
}

TEST_F(PathsTest, ToStringRoundTrips) {
  Dictionary dict;
  for (const char* expr : {"p", "^p", "(p/q)", "(p|q)", "(p)*", "((p/q))+",
                           "(sc)*", "(p)?"}) {
    Result<PathExpr> path = ParsePathExpr(expr, &dict);
    ASSERT_TRUE(path.ok()) << expr;
    std::string printed = path->ToString(dict);
    Result<PathExpr> reparsed = ParsePathExpr(printed, &dict);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed->kind(), path->kind()) << printed;
    EXPECT_EQ(reparsed->ToString(dict), printed);
  }
  // The nSPARQL kinds print display notation the grammar does not have:
  // each printed form re-parses, without an error, as a plain IRI step.
  const Term p = dict.Iri("p");
  const struct {
    PathExpr expr;
    PathExpr::Kind reparsed_kind;
  } display_only[] = {
      {PathExpr::EdgeForward(), PathExpr::Kind::kPredicate},
      {PathExpr::EdgeBackward(), PathExpr::Kind::kInverse},
      {PathExpr::AnyForward(), PathExpr::Kind::kPredicate},
      {PathExpr::AnyBackward(), PathExpr::Kind::kInverse},
      {PathExpr::NodeTest(PathExpr::Predicate(p)),
       PathExpr::Kind::kPredicate},
      {PathExpr::SelfIs(dict.Iri("a")), PathExpr::Kind::kPredicate},
  };
  for (const auto& [expr, reparsed_kind] : display_only) {
    std::string printed = expr.ToString(dict);
    Result<PathExpr> reparsed = ParsePathExpr(printed, &dict);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_NE(reparsed->kind(), expr.kind()) << printed;
    EXPECT_EQ(reparsed->kind(), reparsed_kind) << printed;
    EXPECT_EQ(reparsed->predicate(), dict.Iri(printed[0] == '^'
                                                  ? printed.substr(1)
                                                  : printed))
        << printed;
  }
}

TEST_F(PathsTest, EmptySourcesGiveEmptyResult) {
  Result<PathExpr> path = ParsePathExpr("p+", &dict_);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(EvalPathFrom(g_, *path, {}).empty());
}

// ---------------------------------------------------------------------------
// Oracle: EvalPathFrom against a brute-force reference that scans every
// triple of the graph for every step. The reference exists only here;
// the library reads each step from one index range per source.

using Kind = PathExpr::Kind;

std::set<Term> RefStep(const Graph& g, const PathExpr& e,
                       const std::set<Term>& from);

// Least superset of `seed` closed under one step of `inner`.
std::set<Term> RefClosure(const Graph& g, const PathExpr& inner,
                          std::set<Term> seed) {
  for (;;) {
    const size_t before = seed.size();
    std::set<Term> image = RefStep(g, inner, seed);
    seed.insert(image.begin(), image.end());
    if (seed.size() == before) return seed;
  }
}

std::set<Term> RefStep(const Graph& g, const PathExpr& e,
                       const std::set<Term>& from) {
  std::set<Term> out;
  auto in = [&](Term t) { return from.count(t) > 0; };
  switch (e.kind()) {
    case Kind::kPredicate:
      for (const Triple& t : g) {
        if (in(t.s) && t.p == e.predicate()) out.insert(t.o);
      }
      break;
    case Kind::kInverse:
      for (const Triple& t : g) {
        if (in(t.o) && t.p == e.predicate()) out.insert(t.s);
      }
      break;
    case Kind::kSequence:
      out = RefStep(g, e.right(), RefStep(g, e.left(), from));
      break;
    case Kind::kAlternation: {
      out = RefStep(g, e.left(), from);
      std::set<Term> r = RefStep(g, e.right(), from);
      out.insert(r.begin(), r.end());
      break;
    }
    case Kind::kStar:
      out = RefClosure(g, e.left(), from);
      break;
    case Kind::kPlus:
      out = RefClosure(g, e.left(), RefStep(g, e.left(), from));
      break;
    case Kind::kOptional:
      out = RefStep(g, e.left(), from);
      out.insert(from.begin(), from.end());
      break;
    case Kind::kAnyForward:
      for (const Triple& t : g) {
        if (in(t.s)) out.insert(t.o);
      }
      break;
    case Kind::kAnyBackward:
      for (const Triple& t : g) {
        if (in(t.o)) out.insert(t.s);
      }
      break;
    case Kind::kPredTest:
      for (const Triple& t : g) {
        if (in(t.s) && !RefStep(g, e.left(), {t.p}).empty()) out.insert(t.o);
      }
      break;
    case Kind::kNodeTest:
      for (Term s : from) {
        if (!RefStep(g, e.left(), {s}).empty()) out.insert(s);
      }
      break;
    case Kind::kSelfIs:
      if (in(e.predicate())) out.insert(e.predicate());
      break;
    case Kind::kEdgeForward:
      for (const Triple& t : g) {
        if (in(t.s)) out.insert(t.p);
      }
      break;
    case Kind::kEdgeBackward:
      for (const Triple& t : g) {
        if (in(t.o)) out.insert(t.p);
      }
      break;
  }
  return out;
}

// One random graph over a small vocabulary, with the terms the oracle
// evaluates from. Node terms include blanks and two predicates (so
// next::[...] tests have somewhere to go); `pred_only` occurs only as a
// predicate and `absent` not at all.
struct OracleCase {
  Graph g;
  std::vector<Term> nodes;
  std::vector<Term> preds;
  Term pred_only;
  Term absent;

  std::vector<Term> Sources() const {
    std::vector<Term> out = nodes;
    out.insert(out.end(), preds.begin(), preds.end());
    out.push_back(pred_only);
    out.push_back(absent);
    return out;
  }
};

OracleCase RandomCase(Dictionary* dict, Rng* rng) {
  OracleCase c;
  for (int i = 0; i < 5; ++i) {
    c.nodes.push_back(dict->Iri(NumberedName("n", i)));
  }
  for (int i = 0; i < 3; ++i) {
    c.nodes.push_back(dict->Blank(NumberedName("b", i)));
  }
  c.preds = {dict->Iri("p0"), dict->Iri("p1"), vocab::kSp};
  c.nodes.push_back(c.preds[0]);
  c.nodes.push_back(c.preds[1]);
  c.pred_only = dict->Iri("ponly");
  c.absent = dict->Iri("absent");
  auto node = [&] { return c.nodes[rng->Below(c.nodes.size())]; };
  auto pred = [&] { return c.preds[rng->Below(c.preds.size())]; };
  const uint64_t n = rng->Range(0, 24);
  for (uint64_t i = 0; i < n; ++i) {
    const Term s = node();
    c.g.Insert(s, pred(), rng->Chance(0.15) ? s : node());
  }
  // Every graph has a self-loop and the predicate-only term.
  const Term loop = node();
  c.g.Insert(loop, pred(), loop);
  c.g.Insert(node(), c.pred_only, node());
  return c;
}

// Every kind that takes no sub-expression, plus an inverse step over
// the predicate-only term.
std::vector<PathExpr> LeafExprs(const OracleCase& c, Rng* rng) {
  const Term p = c.preds[rng->Below(c.preds.size())];
  return {PathExpr::Predicate(p),
          PathExpr::Inverse(p),
          PathExpr::AnyForward(),
          PathExpr::AnyBackward(),
          PathExpr::EdgeForward(),
          PathExpr::EdgeBackward(),
          PathExpr::SelfIs(c.nodes[rng->Below(c.nodes.size())]),
          PathExpr::Inverse(c.pred_only)};
}

// `e` alone and under each of the seven kinds that take sub-expressions.
std::vector<PathExpr> Nestings(const PathExpr& e, const PathExpr& other) {
  return {e,
          PathExpr::Sequence(e, other),
          PathExpr::Sequence(other, e),
          PathExpr::Alternation(e, other),
          PathExpr::Star(e),
          PathExpr::Plus(e),
          PathExpr::Optional(e),
          PathExpr::PredTest(e),
          PathExpr::NodeTest(e)};
}

PathExpr RandomExpr(const OracleCase& c, Rng* rng, int depth) {
  std::vector<PathExpr> leaves = LeafExprs(c, rng);
  if (depth == 0 || rng->Chance(0.25)) {
    return leaves[rng->Below(leaves.size())];
  }
  const PathExpr inner = RandomExpr(c, rng, depth - 1);
  const PathExpr other = RandomExpr(c, rng, depth - 1);
  std::vector<PathExpr> nested = Nestings(inner, other);
  return nested[1 + rng->Below(nested.size() - 1)];
}

void ExpectMatchesReference(const OracleCase& c, const PathExpr& e,
                            const Dictionary& dict) {
  auto check = [&](const std::vector<Term>& sources) {
    const std::set<Term> ref =
        RefStep(c.g, e, std::set<Term>(sources.begin(), sources.end()));
    EXPECT_EQ(EvalPathFrom(c.g, e, sources),
              std::vector<Term>(ref.begin(), ref.end()))
        << e.ToString(dict) << " from " << sources.size() << " sources";
  };
  const std::vector<Term> sources = c.Sources();
  for (Term s : sources) check({s});
  check(sources);
  check({});
}

TEST(PathOracle, EveryKindAloneAndNested) {
  std::set<Kind> covered;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Dictionary dict;
    Rng rng(seed);
    const OracleCase c = RandomCase(&dict, &rng);
    const std::vector<PathExpr> others = LeafExprs(c, &rng);
    for (const PathExpr& leaf : LeafExprs(c, &rng)) {
      const PathExpr& other = others[rng.Below(others.size())];
      for (const PathExpr& e : Nestings(leaf, other)) {
        covered.insert(e.kind());
        ExpectMatchesReference(c, e, dict);
      }
    }
  }
  EXPECT_EQ(covered.size(), 14u);
}

TEST(PathOracle, RandomNestedExpressions) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Dictionary dict;
    Rng rng(1000 + seed);
    const OracleCase c = RandomCase(&dict, &rng);
    for (int i = 0; i < 12; ++i) {
      ExpectMatchesReference(c, RandomExpr(c, &rng, 3), dict);
    }
  }
}

// The backward axes are one osp range per source: GraphStats counts one
// Matches call per source and yields exactly the sources' in-edges. A
// walk over the whole graph would touch neither counter.
TEST(PathIndex, BackwardAxesReadOneOspRangePerSource) {
  Dictionary dict;
  Rng rng(17);
  std::vector<Term> nodes;
  for (int i = 0; i < 2000; ++i) {
    nodes.push_back(dict.Iri(NumberedName("v", i)));
  }
  const std::vector<Term> preds = {dict.Iri("p0"), dict.Iri("p1"),
                                   dict.Iri("p2"), dict.Iri("p3")};
  Graph g;
  while (g.size() < 12000) {
    g.Insert(nodes[rng.Below(nodes.size())], preds[rng.Below(preds.size())],
             nodes[rng.Below(nodes.size())]);
  }
  const Term x = nodes[7];
  const Term y = nodes[1234];
  for (int i = 0; i < 40; ++i) {
    g.Insert(nodes[rng.Below(nodes.size())], preds[i % preds.size()], x);
  }
  auto in_degree = [&](Term t) {
    uint64_t n = 0;
    for (const Triple& tr : g) n += tr.o == t;
    return n;
  };
  const uint64_t deg_x = in_degree(x);
  const uint64_t deg_y = in_degree(y);
  ASSERT_GE(deg_x, 40u);
  g.WarmIndexes();

  for (const PathExpr& axis :
       {PathExpr::EdgeBackward(), PathExpr::AnyBackward()}) {
    for (const std::vector<Term>& sources :
         {std::vector<Term>{x}, std::vector<Term>{x, y}}) {
      const GraphStats before = g.Stats();
      const std::vector<Term> out = EvalPathFrom(g, axis, sources);
      const GraphStats after = g.Stats();
      EXPECT_EQ(after.matches_calls - before.matches_calls, sources.size())
          << axis.ToString(dict);
      EXPECT_EQ(after.rows_yielded - before.rows_yielded,
                sources.size() == 1 ? deg_x : deg_x + deg_y)
          << axis.ToString(dict);
      const std::set<Term> ref = RefStep(
          g, axis, std::set<Term>(sources.begin(), sources.end()));
      EXPECT_EQ(out, std::vector<Term>(ref.begin(), ref.end()));
    }
  }
}

}  // namespace
}  // namespace swdb
