#include "query/union_query.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/containment.h"
#include "testutil.h"

namespace swdb {
namespace {

using swdb::testing::Data;
using swdb::testing::Q;

TEST(UnionQuery, AnswerIsUnionOfBranchAnswers) {
  Dictionary dict;
  Graph db = Data(&dict, "a p b .\nc q d .");
  UnionQuery u;
  u.branches.push_back(Q(&dict,
                         "head: ?X r1 ?Y .\n"
                         "body: ?X p ?Y .\n"));
  u.branches.push_back(Q(&dict,
                         "head: ?X r2 ?Y .\n"
                         "body: ?X q ?Y .\n"));
  QueryEvaluator eval(&dict);
  Result<Graph> ans = AnswerUnionQuery(&eval, u, db);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->Contains(
      Triple(dict.Iri("a"), dict.Iri("r1"), dict.Iri("b"))));
  EXPECT_TRUE(ans->Contains(
      Triple(dict.Iri("c"), dict.Iri("r2"), dict.Iri("d"))));
}

TEST(UnionQuery, FromPremiseQueryMatchesDirectEvaluation) {
  // A UnionQuery built via Prop 5.9 answers like the original premise
  // query on ground databases.
  Dictionary dict;
  Query q = Q(&dict,
              "head: ?X p ?Y .\n"
              "body: ?X q ?Y .\nbody: ?Y t s .\n"
              "premise: a t s .\n");
  Result<UnionQuery> u = UnionQuery::FromPremiseQuery(q);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->branches.size(), 2u);
  Graph db = Data(&dict, "n1 q a .\nn2 q m .\nm t s .");
  QueryEvaluator eval(&dict);
  Result<Graph> direct = eval.AnswerUnion(q, db);
  Result<Graph> expanded = AnswerUnionQuery(&eval, *u, db);
  ASSERT_TRUE(direct.ok() && expanded.ok());
  EXPECT_EQ(*direct, *expanded);
}

TEST(UnionQuery, PreAnswersAreDeduplicated) {
  Dictionary dict;
  Graph db = Data(&dict, "a p b .");
  Query same = Q(&dict,
                 "head: ?X r ?Y .\n"
                 "body: ?X p ?Y .\n");
  UnionQuery u;
  u.branches.push_back(same);
  u.branches.push_back(same);
  QueryEvaluator eval(&dict);
  Result<std::vector<Graph>> pre = PreAnswerUnionQuery(&eval, u, db);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->size(), 1u);
}

TEST(UnionQuery, Prop511ContainmentNeedsAllBranches) {
  Dictionary dict;
  Query narrow = Q(&dict,
                   "head: ?X sel ?Y .\n"
                   "body: ?X p ?Y .\nbody: ?Y t s .\n");
  Query other = Q(&dict,
                  "head: ?X sel ?Y .\n"
                  "body: ?X q ?Y .\n");
  Query broad = Q(&dict,
                  "head: ?X sel ?Y .\n"
                  "body: ?X p ?Y .\n");
  // narrow ⊑ broad, but (narrow ∪ other) ⋢ broad.
  UnionQuery just_narrow = UnionQuery::Of(narrow);
  UnionQuery both;
  both.branches = {narrow, other};
  Result<bool> one =
      UnionContainedStandardSimple(just_narrow, broad, &dict);
  Result<bool> two = UnionContainedStandardSimple(both, broad, &dict);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_TRUE(*one);
  EXPECT_FALSE(*two);
}

TEST(UnionQuery, EntailmentVariantAgreesOnSimpleBranches) {
  Dictionary dict;
  Query narrow = Q(&dict,
                   "head: ?X sel ?Y .\n"
                   "body: ?X p ?Y .\nbody: ?Y t s .\n");
  Query broad = Q(&dict,
                  "head: ?X sel ?Y .\n"
                  "body: ?X p ?Y .\n");
  UnionQuery u = UnionQuery::Of(narrow);
  Result<bool> m = UnionContainedEntailmentSimple(u, broad, &dict);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(*m);
}

TEST(UnionQuery, ValidateChecksEveryBranch) {
  Dictionary dict;
  UnionQuery u;
  u.branches.push_back(Q(&dict,
                         "head: ?X r ?Y .\n"
                         "body: ?X p ?Y .\n"));
  Query bad;
  bad.head = Graph{Triple(dict.Var("Z"), dict.Iri("r"), dict.Iri("a"))};
  u.branches.push_back(bad);  // head var not in body
  EXPECT_FALSE(u.Validate().ok());
}

TEST(UnionQueryFreeFunction, MatchesBranchByBranchBitForBit) {
  const std::string data_text = "a p b .\nb p c .\na sc b .\nx type a .\n";
  auto build_union = [](Dictionary* d) {
    UnionQuery out;
    out.branches.push_back(Q(d,
                             "head: ?X r ?Y .\n"
                             "body: ?X p ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X anc ?Y .\n"
                             "body: ?X sc ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X has _:thing .\n"
                             "body: ?X type ?Y .\n"));
    out.branches.push_back(Q(d,
                             "head: ?X rel ?Y .\n"
                             "body: ?X kin ?Y .\n"
                             "premise: p sp kin .\n"));
    return out;
  };

  Dictionary dict;
  Graph data = swdb::testing::Data(&dict, data_text);
  QueryEvaluator evaluator(&dict);
  const UnionQuery q = build_union(&dict);
  Result<std::vector<Graph>> batched = PreAnswerUnionQuery(&evaluator, q, data);
  ASSERT_TRUE(batched.ok());

  // Branch by branch, in order, on the same evaluator (whose Skolem
  // cache makes the head-blank mints comparable).
  std::vector<Result<std::vector<Graph>>> parts;
  for (const Query& branch : q.branches) {
    parts.push_back(evaluator.PreAnswer(branch, data));
  }
  Result<std::vector<Graph>> one_by_one = CombineBranches(std::move(parts));
  ASSERT_TRUE(one_by_one.ok());
  EXPECT_EQ(*batched, *one_by_one);

  Result<Graph> union_graph = AnswerUnionQuery(&evaluator, q, data);
  ASSERT_TRUE(union_graph.ok());
  Graph expected;
  for (const Graph& g : *batched) expected.InsertAll(g);
  EXPECT_EQ(*union_graph, expected);
}

TEST(UnionQueryFreeFunction, InvalidBranchFailsTheUnion) {
  Dictionary dict;
  Graph data = swdb::testing::Data(&dict, "a p b .\n");
  QueryEvaluator evaluator(&dict);
  UnionQuery u;
  u.branches.push_back(Q(&dict, "head: ?X r ?Y .\nbody: ?X p ?Y .\n"));
  Query bad;
  bad.head = Graph{Triple(dict.Var("Z"), dict.Iri("r"), dict.Iri("a"))};
  bad.body = Graph{Triple(dict.Var("X"), dict.Iri("p"), dict.Var("Y"))};
  u.branches.push_back(bad);
  EXPECT_EQ(PreAnswerUnionQuery(&evaluator, u, data).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnswerUnionQuery(&evaluator, u, data).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace swdb
