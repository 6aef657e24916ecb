// Nested path expressions (nSPARQL-style, [35] — same authors) and
// their headline property: RDFS inference can be captured by navigating
// the *raw* graph. We verify the navigational translations against this
// library's closure on hand-built and randomized schema workloads.

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gen/sp2b.h"
#include "inference/closure.h"
#include "paths/path.h"
#include "serve/workload.h"
#include "testutil.h"
#include "util/rng.h"

namespace swdb {
namespace {

using swdb::testing::Data;

// The navigational type expression:
//   type/(sc)* | edge/(sp)*/dom/(sc)* | ^edge/(sp)*/range/(sc)*
PathExpr NavigationalType() {
  PathExpr sc_star = PathExpr::Star(PathExpr::Predicate(vocab::kSc));
  PathExpr sp_star = PathExpr::Star(PathExpr::Predicate(vocab::kSp));
  PathExpr by_type = PathExpr::Sequence(PathExpr::Predicate(vocab::kType),
                                        sc_star);
  PathExpr by_dom = PathExpr::Sequence(
      PathExpr::Sequence(
          PathExpr::Sequence(PathExpr::EdgeForward(), sp_star),
          PathExpr::Predicate(vocab::kDom)),
      PathExpr::Star(PathExpr::Predicate(vocab::kSc)));
  PathExpr by_range = PathExpr::Sequence(
      PathExpr::Sequence(
          PathExpr::Sequence(PathExpr::EdgeBackward(),
                             PathExpr::Star(PathExpr::Predicate(vocab::kSp))),
          PathExpr::Predicate(vocab::kRange)),
      PathExpr::Star(PathExpr::Predicate(vocab::kSc)));
  return PathExpr::Alternation(PathExpr::Alternation(by_type, by_dom),
                               by_range);
}

// The navigational edge step for predicate p:
//   next::[ (sp)* / self::p ]
PathExpr NavigationalEdge(Term p) {
  return PathExpr::PredTest(PathExpr::Sequence(
      PathExpr::Star(PathExpr::Predicate(vocab::kSp)), PathExpr::SelfIs(p)));
}

TEST(Nsparql, AnyForwardAndBackward) {
  Dictionary dict;
  Graph g = Data(&dict, "a p b .\na q c .\nd r a .");
  std::vector<Term> fwd =
      EvalPathFrom(g, PathExpr::AnyForward(), {dict.Iri("a")});
  EXPECT_EQ(fwd.size(), 2u);
  std::vector<Term> bwd =
      EvalPathFrom(g, PathExpr::AnyBackward(), {dict.Iri("a")});
  ASSERT_EQ(bwd.size(), 1u);
  EXPECT_EQ(bwd[0], dict.Iri("d"));
}

TEST(Nsparql, EdgeAxes) {
  Dictionary dict;
  Graph g = Data(&dict, "a p b .\na q c .");
  std::vector<Term> preds =
      EvalPathFrom(g, PathExpr::EdgeForward(), {dict.Iri("a")});
  EXPECT_EQ(preds.size(), 2u);
  std::vector<Term> in_preds =
      EvalPathFrom(g, PathExpr::EdgeBackward(), {dict.Iri("b")});
  ASSERT_EQ(in_preds.size(), 1u);
  EXPECT_EQ(in_preds[0], dict.Iri("p"));
}

TEST(Nsparql, SelfIsAndNodeTest) {
  Dictionary dict;
  Graph g = Data(&dict, "a p b .\nc p d .");
  // Keep only nodes with an outgoing p edge ending at b.
  PathExpr test = PathExpr::NodeTest(PathExpr::Sequence(
      PathExpr::Predicate(dict.Iri("p")), PathExpr::SelfIs(dict.Iri("b"))));
  std::vector<Term> kept =
      EvalPathFrom(g, test, {dict.Iri("a"), dict.Iri("c")});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], dict.Iri("a"));
}

TEST(Nsparql, PredTestStepsViaSubproperties) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "son sp child .\n"
                 "child sp relative .\n"
                 "paul son peter .\n"
                 "mary child peter .\n"
                 "john knows peter .\n");
  // Navigational "relative" edge: steps via son and child but not knows.
  PathExpr nav = NavigationalEdge(dict.Iri("relative"));
  std::vector<Term> from_paul = EvalPathFrom(g, nav, {dict.Iri("paul")});
  ASSERT_EQ(from_paul.size(), 1u);
  EXPECT_EQ(from_paul[0], dict.Iri("peter"));
  std::vector<Term> from_john = EvalPathFrom(g, nav, {dict.Iri("john")});
  EXPECT_TRUE(from_john.empty());
}

TEST(Nsparql, NavigationalEdgeMatchesClosureEdge) {
  // The [35] property, edge form: stepping via next::[(sp)*/self::p] on
  // the RAW graph equals stepping via p on the CLOSURE.
  Rng rng(401);
  for (int round = 0; round < 8; ++round) {
    Dictionary dict;
    SchemaWorkloadSpec spec;
    spec.num_classes = 4;
    spec.num_properties = 4;
    spec.num_instances = 6;
    spec.num_facts = 10;
    spec.blank_instance_ratio = 0;
    Graph g = SchemaWorkload(spec, &dict, &rng);
    Graph cl = RdfsClosure(g);
    Term p = dict.Iri("urn:prop0");
    PathExpr nav = NavigationalEdge(p);
    PathExpr plain = PathExpr::Predicate(p);
    for (Term start : g.Universe()) {
      if (!start.IsIri()) continue;
      EXPECT_EQ(EvalPathFrom(g, nav, {start}),
                EvalPathFrom(cl, plain, {start}))
          << "round " << round;
    }
  }
}

TEST(Nsparql, NavigationalTypeMatchesClosureTypeOnInstances) {
  // The [35] property, typing form: the navigational type expression on
  // the RAW graph computes exactly the closure's type edges, for
  // instance nodes (nodes that are not themselves classes/properties).
  Rng rng(403);
  for (int round = 0; round < 8; ++round) {
    Dictionary dict;
    SchemaWorkloadSpec spec;
    spec.num_classes = 4;
    spec.num_properties = 3;
    spec.num_instances = 6;
    spec.num_facts = 10;
    spec.blank_instance_ratio = 0;
    Graph g = SchemaWorkload(spec, &dict, &rng);
    Graph cl = RdfsClosure(g);
    PathExpr nav = NavigationalType();
    PathExpr plain = PathExpr::Predicate(vocab::kType);
    // Instance nodes: subjects of facts/type triples that are not
    // classes or properties (the generator names them urn:inst*).
    for (Term node : g.Universe()) {
      if (!node.IsIri()) continue;
      std::string name = dict.Name(node);
      if (name.rfind("urn:inst", 0) != 0) continue;
      EXPECT_EQ(EvalPathFrom(g, nav, {node}),
                EvalPathFrom(cl, plain, {node}))
          << "round " << round << " node " << name;
    }
  }
}

TEST(Nsparql, HandBuiltTypingExample) {
  Dictionary dict;
  Graph g = Data(&dict,
                 "paints sp creates .\n"
                 "creates dom artist .\n"
                 "creates range artifact .\n"
                 "artist sc person .\n"
                 "picasso paints guernica .\n");
  PathExpr nav = NavigationalType();
  std::vector<Term> types =
      EvalPathFrom(g, nav, {dict.Iri("picasso")});
  // artist (via edge/sp*/dom) and person (sc-lift).
  EXPECT_EQ(types.size(), 2u);
  std::vector<Term> guernica_types =
      EvalPathFrom(g, nav, {dict.Iri("guernica")});
  ASSERT_EQ(guernica_types.size(), 1u);
  EXPECT_EQ(guernica_types[0], dict.Iri("artifact"));
}

TEST(Nsparql, WorkloadTypeOfMatchesClosureTypesOnSp2b) {
  // The served type_of_path request, evaluated on the RAW sp2b corpus,
  // equals the closure's rdf:type facts for every paper and author.
  Dictionary dict;
  Sp2bSpec spec;
  spec.target_triples = 3000;
  spec.seed = 5;
  Sp2bGenerator gen(spec, &dict);
  const Graph data = gen.GenerateCorpus();
  const Graph cl = RdfsClosure(data);
  const WorkloadMix mix(gen, &dict);
  Rng rng(1);
  const ServingRequest req = mix.Build(TemplateId::kTypeOfPath, &rng);
  ASSERT_TRUE(req.path.has_value());
  std::vector<Term> nodes = gen.papers();
  nodes.insert(nodes.end(), gen.authors().begin(), gen.authors().end());
  ASSERT_GT(gen.papers().size(), 50u);
  ASSERT_GT(gen.authors().size(), 50u);
  for (Term node : nodes) {
    std::vector<Term> expected;
    cl.Match(node, vocab::kType, std::nullopt, [&](const Triple& t) {
      expected.push_back(t.o);
      return true;
    });
    ASSERT_FALSE(expected.empty()) << dict.Name(node);
    EXPECT_EQ(EvalPathFrom(data, *req.path, {node}), expected)
        << dict.Name(node);
  }
}

TEST(Nsparql, ToStringCoversNewKinds) {
  Dictionary dict;
  PathExpr nav = NavigationalEdge(dict.Iri("p"));
  std::string printed = nav.ToString(dict);
  EXPECT_NE(printed.find("next::["), std::string::npos);
  EXPECT_NE(printed.find("self::p"), std::string::npos);
  EXPECT_EQ(PathExpr::EdgeForward().ToString(dict), "edge");
  EXPECT_EQ(PathExpr::AnyBackward().ToString(dict), "^next");
}

}  // namespace
}  // namespace swdb
