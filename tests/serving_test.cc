// End-to-end serving harness tests: deterministic replay of the
// single-threaded driver, checked-mode (full cross-validation)
// threaded runs, Prop. 5.9 premise elimination as served vs. direct
// evaluation, and workload template well-formedness.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "gen/sp2b.h"
#include "query/database.h"
#include "serve/driver.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace swdb {
namespace {

struct Rig {
  std::unique_ptr<Dictionary> dict;
  std::unique_ptr<Sp2bGenerator> gen;
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkloadMix> mix;
};

Rig MakeRig(uint64_t triples, uint64_t seed,
            double blank_author_fraction = 0.0) {
  Rig rig;
  rig.dict = std::make_unique<Dictionary>();
  Sp2bSpec spec;
  spec.target_triples = triples;
  spec.seed = seed;
  spec.blank_author_fraction = blank_author_fraction;
  rig.gen = std::make_unique<Sp2bGenerator>(spec, rig.dict.get());
  rig.db = std::make_unique<Database>(rig.dict.get());
  rig.db->InsertGraph(rig.gen->GenerateCorpus());
  rig.mix = std::make_unique<WorkloadMix>(*rig.gen, rig.dict.get());
  return rig;
}

// Satellite 1a: same seed + single-threaded driver, run twice against
// freshly built databases → identical per-op digest streams and
// identical structural stats.
TEST(ServingTest, SingleThreadedReplayIsDeterministic) {
  auto run = [](std::vector<uint64_t>* digests) {
    Rig rig = MakeRig(4000, 7);
    DriverOptions opts;
    opts.ops_per_reader = 300;
    opts.seed = 42;
    opts.check_fraction = 0.15;
    opts.writer = true;
    opts.writer_every = 50;
    opts.writer_batch_triples = 40;
    TrafficDriver driver(rig.db.get(), rig.gen.get(), rig.mix.get(), opts);
    return driver.RunSingleThreaded(digests);
  };
  std::vector<uint64_t> digests1, digests2;
  const DriverReport r1 = run(&digests1);
  const DriverReport r2 = run(&digests2);

  EXPECT_EQ(digests1, digests2);
  EXPECT_EQ(r1.answer_digest, r2.answer_digest);
  EXPECT_EQ(r1.ops, r2.ops);
  EXPECT_EQ(r1.answers, r2.answers);
  EXPECT_EQ(r1.checks, r2.checks);
  EXPECT_EQ(r1.template_ops, r2.template_ops);
  EXPECT_EQ(r1.writer_batches, r2.writer_batches);
  EXPECT_EQ(r1.writer_inserts, r2.writer_inserts);
  EXPECT_EQ(r1.writer_erases, r2.writer_erases);

  EXPECT_EQ(r1.ops, 300u);
  EXPECT_GT(r1.answers, 0u);
  EXPECT_GT(r1.checks, 0u);
  EXPECT_GT(r1.writer_batches, 0u);
  EXPECT_EQ(r1.errors, 0u);
  EXPECT_EQ(r1.mismatches, 0u);
}

// Satellite 1b: 4 readers + 1 writer, cross-validation fraction 1.0 —
// every served answer equals a from-scratch evaluation on the same
// snapshot (queries and unions against its nf, paths against its data
// graph / maintained closure).
TEST(ServingTest, CheckedModeFourReadersOneWriter) {
  Rig rig = MakeRig(6000, 11);
  DriverOptions opts;
  opts.readers = 4;
  opts.ops_per_reader = 120;
  opts.check_fraction = 1.0;
  opts.seed = 3;
  opts.writer = true;
  opts.writer_batch_triples = 48;
  opts.writer_pause_micros = 200;
  TrafficDriver driver(rig.db.get(), rig.gen.get(), rig.mix.get(), opts);
  const DriverReport r = driver.Run();

  EXPECT_EQ(r.ops, 480u);
  EXPECT_EQ(r.checks, r.ops);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GE(r.writer_batches, 1u);
  EXPECT_GT(r.snapshot_publishes, 0u);
}

// Checked mode also holds on a corpus with anonymous (blank-node)
// authors, where nf(D) is a proper core and the constraint template
// actually filters.
TEST(ServingTest, CheckedModeWithBlankAuthors) {
  Rig rig = MakeRig(3000, 17, /*blank_author_fraction=*/0.2);
  DriverOptions opts;
  opts.ops_per_reader = 150;
  opts.check_fraction = 1.0;
  opts.seed = 9;
  opts.writer = true;
  opts.writer_every = 50;
  opts.writer_batch_triples = 24;
  TrafficDriver driver(rig.db.get(), rig.gen.get(), rig.mix.get(), opts);
  const DriverReport r = driver.RunSingleThreaded(nullptr);

  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.errors, 0u);
}

// Prop. 5.9 as a system-level property: the served form of a premise
// template (its premise-free Ωq union, evaluated on a snapshot) has
// exactly the answers of direct premise evaluation (which normalizes
// D + P per call and must run on the writer thread).
TEST(ServingTest, PremiseTemplatesMatchDirectEvaluation) {
  Rig rig = MakeRig(3000, 19);
  Rng rng(23);
  for (int round = 0; round < 12; ++round) {
    for (const TemplateId id :
         {TemplateId::kPremiseCites, TemplateId::kPremiseAuthor}) {
      const ServingRequest req = rig.mix->Build(id, &rng);
      ASSERT_EQ(req.kind, RequestKind::kPremise);
      ASSERT_FALSE(req.union_q.branches.empty());

      const std::shared_ptr<const DatabaseSnapshot> snap = rig.db->Snapshot();
      Graph via_omega;
      for (const Query& branch : req.union_q.branches) {
        const Result<std::vector<Graph>> pre = snap->PreAnswer(branch);
        ASSERT_TRUE(pre.ok());
        for (const Graph& answer : *pre) via_omega.InsertAll(answer);
      }

      const Result<Graph> direct = rig.db->AnswerUnion(req.query);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(via_omega, *direct)
          << "template " << TemplateName(id) << " round " << round;
    }
  }
}

// Every template builds structurally valid artifacts.
TEST(ServingTest, EveryTemplateBuildsValidRequests) {
  Rig rig = MakeRig(2000, 29);
  Rng rng(31);
  for (size_t i = 0; i < kTemplateCount; ++i) {
    const TemplateId id = static_cast<TemplateId>(i);
    for (int round = 0; round < 5; ++round) {
      const ServingRequest req = rig.mix->Build(id, &rng);
      EXPECT_EQ(req.template_id, id);
      switch (req.kind) {
        case RequestKind::kQuery:
          EXPECT_TRUE(req.query.Validate().ok()) << TemplateName(id);
          break;
        case RequestKind::kUnion:
          EXPECT_TRUE(req.union_q.Validate().ok()) << TemplateName(id);
          break;
        case RequestKind::kPremise:
          EXPECT_TRUE(req.query.Validate().ok()) << TemplateName(id);
          EXPECT_TRUE(req.union_q.Validate().ok()) << TemplateName(id);
          break;
        case RequestKind::kPath:
          EXPECT_TRUE(req.path.has_value()) << TemplateName(id);
          EXPECT_FALSE(req.path_sources.empty()) << TemplateName(id);
          break;
      }
    }
  }
}

// The weighted sampler draws every template with nonzero default
// weight over a modest number of samples.
TEST(ServingTest, SamplerCoversAllTemplates) {
  Rig rig = MakeRig(2000, 37);
  Rng rng(41);
  std::vector<int> seen(kTemplateCount, 0);
  for (int i = 0; i < 2000; ++i) {
    seen[static_cast<size_t>(rig.mix->Sample(&rng).template_id)] += 1;
  }
  for (size_t i = 0; i < kTemplateCount; ++i) {
    EXPECT_GT(seen[i], 0) << TemplateName(static_cast<TemplateId>(i));
  }
}

}  // namespace
}  // namespace swdb
