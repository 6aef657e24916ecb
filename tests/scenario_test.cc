// A larger end-to-end scenario: a university knowledge base exercised
// through the Database facade, premises, containment, paths, and the
// SPARQL algebra together — the "downstream user" workflow.

#include <gtest/gtest.h>

#include <optional>

#include "inference/closure.h"
#include "paths/path.h"
#include "query/containment.h"
#include "query/database.h"
#include "sparql/sparql_parser.h"
#include "testutil.h"

namespace swdb {
namespace {

using swdb::testing::Q;

constexpr const char* kUniversity = R"(
# --- Schema ---
professor     sc faculty .
lecturer      sc faculty .
faculty       sc employee .
phdStudent    sc student .
employee      sc person .
student       sc person .
teaches       sp involvedIn .
takes         sp involvedIn .
supervises    sp mentors .
teaches       dom faculty .
teaches       range course .
takes         dom student .
takes         range course .
supervises    dom professor .
supervises    range phdStudent .
prerequisite  dom course .
prerequisite  range course .
# --- Data ---
ada     teaches  logic .
ada     supervises bob .
turing  teaches  computability .
grace   takes    logic .
bob     takes    computability .
logic   prerequisite computability .
computability prerequisite complexity .
_:tutor teaches  complexity .
_:tutor supervises carol .
)";

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(&dict_);
    ASSERT_TRUE(db_->InsertText(kUniversity).ok());
  }

  // The writer's entailment verdict on `goal`; nullopt if the search
  // ran out of budget.
  std::optional<bool> Entailed(const Graph& goal) {
    Result<bool> r = db_->Entails(goal);
    return r.ok() ? std::optional<bool>(*r) : std::nullopt;
  }

  Dictionary dict_;
  std::unique_ptr<Database> db_;
};

TEST_F(ScenarioTest, SchemaInferenceCascades) {
  // ada teaches ⇒ faculty ⇒ employee ⇒ person; supervises ⇒ professor.
  for (const char* fact :
       {"ada type faculty .", "ada type employee .", "ada type person .",
        "ada type professor .", "bob type phdStudent .",
        "bob type student .", "grace type student .",
        "logic type course .", "complexity type course .",
        "ada involvedIn logic .", "grace involvedIn logic .",
        "ada mentors bob ."}) {
    Result<Graph> goal = ParseGraph(fact, &dict_);
    ASSERT_TRUE(goal.ok());
    EXPECT_EQ(Entailed(*goal), true) << fact;
  }
  for (const char* non_fact :
       {"grace type faculty .", "ada takes logic .",
        "bob type professor ."}) {
    Result<Graph> goal = ParseGraph(non_fact, &dict_);
    ASSERT_TRUE(goal.ok());
    EXPECT_EQ(Entailed(*goal), false) << non_fact;
  }
}

TEST_F(ScenarioTest, AnonymousTutorIsAProfessor) {
  // The blank tutor supervises, so dom typing makes it a professor.
  Result<Graph> goal =
      ParseGraph("_:someone type professor .\n_:someone teaches complexity .",
                 &dict_);
  ASSERT_TRUE(goal.ok());
  EXPECT_EQ(Entailed(*goal), true);
}

TEST_F(ScenarioTest, QueryWithConstraintSkipsAnonymousStaff) {
  Query q = Q(&dict_,
              "head: ?T staffOf ?C .\n"
              "body: ?T teaches ?C .\n"
              "bind: ?T\n");
  Result<std::vector<Graph>> pre = db_->PreAnswer(q);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->size(), 2u);  // ada, turing; not the blank tutor
}

TEST_F(ScenarioTest, HypotheticalPremiseQuery) {
  // Hypothesis: teaching assistants count as teachers.
  Query q = Q(&dict_,
              "head: ?X type faculty .\n"
              "body: ?X type faculty .\n"
              "premise: assists sp teaches .\n"
              "premise: dan assists logic .\n");
  Result<std::vector<Graph>> pre = db_->PreAnswer(q);
  ASSERT_TRUE(pre.ok());
  bool dan_found = false;
  for (const Graph& answer : *pre) {
    for (const Triple& t : answer) {
      if (t.s == dict_.Iri("dan")) dan_found = true;
    }
  }
  EXPECT_TRUE(dan_found);
}

TEST_F(ScenarioTest, ContainmentAmongCourseQueries) {
  // Containment quantifies over ALL databases, so the sp schema triple
  // must be part of the query for the subsumption to hold: a teachers
  // query that carries "teaches sp involvedIn" in its body is contained
  // in the plain involvedIn query (nf(B) closes the derived edge).
  Query all_involved = Q(&dict_,
                         "head: ?P inCourse ?C .\n"
                         "body: ?P involvedIn ?C .\n");
  Query schema_aware_teachers = Q(&dict_,
                                  "head: ?P inCourse ?C .\n"
                                  "body: teaches sp involvedIn .\n"
                                  "body: ?P teaches ?C .\n");
  Result<bool> narrower =
      ContainedStandard(schema_aware_teachers, all_involved, &dict_);
  ASSERT_TRUE(narrower.ok());
  EXPECT_TRUE(*narrower);
  // Without the schema triple in the body, no database-independent
  // containment holds in either direction.
  Query bare_teachers = Q(&dict_,
                          "head: ?P inCourse ?C .\n"
                          "body: ?P teaches ?C .\n");
  Result<bool> without = ContainedStandard(bare_teachers, all_involved,
                                           &dict_);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(*without);
  Result<bool> reverse = ContainedStandard(all_involved, bare_teachers,
                                           &dict_);
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(*reverse);
}

TEST_F(ScenarioTest, PrerequisiteChainsViaPaths) {
  Result<PathExpr> path = ParsePathExpr("prerequisite+", &dict_);
  ASSERT_TRUE(path.ok());
  std::vector<Term> downstream =
      EvalPathFrom(db_->graph(), *path, {dict_.Iri("logic")});
  EXPECT_EQ(downstream.size(), 2u);  // computability, complexity
  // Who is qualified to take complexity? Students of any prerequisite.
  Result<PathExpr> qualified =
      ParsePathExpr("^prerequisite+/^takes", &dict_);
  ASSERT_TRUE(qualified.ok());
  std::vector<Term> students =
      EvalPathFrom(db_->graph(), *qualified, {dict_.Iri("complexity")});
  EXPECT_EQ(students.size(), 2u);  // grace (logic), bob (computability)
}

TEST_F(ScenarioTest, SparqlOverTheClosure) {
  Result<SparqlQuery> q = ParseSparql(
      "SELECT ?P ?C WHERE { "
      "  ?P type person . "
      "  OPTIONAL { ?P involvedIn ?C . } "
      "  FILTER ( bound(?C) ) "
      "}",
      &dict_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Result<MappingSet> rows =
      EvalSelect(db_->Normalized(), q->pattern, q->select);
  ASSERT_TRUE(rows.ok());
  // ada/logic, turing/computability, grace/logic, bob/computability —
  // the anonymous tutor is a person too but folds in nf? It has its own
  // distinct facts (supervises carol), so it survives normalization.
  EXPECT_GE(rows->size(), 5u);
}

TEST_F(ScenarioTest, NormalizationIsConsistentUnderMutation) {
  size_t before = db_->Normalized().size();
  db_->Insert(Triple(dict_.Iri("dana"), dict_.Iri("takes"),
                     dict_.Iri("logic")));
  size_t after = db_->Normalized().size();
  EXPECT_GT(after, before);
  Result<Graph> goal = ParseGraph("dana type student .", &dict_);
  ASSERT_TRUE(goal.ok());
  EXPECT_EQ(Entailed(*goal), true);
}

}  // namespace
}  // namespace swdb
