// servebench — deterministic single-client serving benchmark over the
// sp2b corpus.
//
// Every workload replays a fixed operation schedule that is drawn from
// the seed before the clock starts: read requests built from the
// 14-template WorkloadMix (template counts fixed by the weights, bound
// constants drawn), writer commits built from
// Sp2bGenerator::NextPublications plus erases of the writer's own
// earlier inserts, and after each commit a probe read of one subject it
// inserted. One client thread executes the schedule against a Database
// through its public calls only, so two runs with one seed do identical
// work and differ only in time; the schedule's length is set by
// --seconds and a nominal rate, never by the clock. Each run sets up
// several independent corpora (sub-seeds of --seed) and serves an equal
// share of the schedule on each. A seeded sample of reads, and every
// probe, is checked against an independent referee on the same
// snapshot, outside the timed windows.
//
// Usage:
//   servebench --workload <read_mix|hot_batch|ingest|blank_ingest>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   servebench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run (plus one
// untraced replay, for the tracing overhead). The human-readable report
// goes to standard error. --selftest runs every workload at a tiny size
// twice with one seed and once with another, and checks that answer
// digests and work counters repeat exactly and that the seed matters.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gen/sp2b.h"
#include "paths/path.h"
#include "query/database.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace swdb {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Mix64(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// Distinct deterministic Rng streams per (seed, role).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

struct SpanRecord {
  const char* name;  // "<layer>.<call>"
  int32_t parent;    // index of the enclosing span, -1 for a root
  uint32_t request;  // id shared by every span of one request/commit/setup
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t request) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(
        {name, open_.empty() ? -1 : open_.back(), request, NowNs(), 0});
    open_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// Scoped span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint32_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  const char* name;
  uint64_t corpus_triples;
  double blank_author_fraction;
  // Independent corpora per run, each set up from its own sub-seed and
  // serving an equal share of the schedule. setup_s is the median of
  // their set-up times; every other metric pools all of them, so one
  // run averages over several corpus draws.
  int corpora;
  // Nominal read rate: the schedule holds reads_per_second * --seconds
  // sampled read requests (hot_batch: requests, served in groups),
  // split over the corpora. The schedule never looks at the clock.
  double reads_per_second;
  // Interleaved writer: one commit after every this many sampled reads
  // (0: the read phase has no commits).
  uint64_t reads_per_commit;
  // Commits appended after each corpus's read phase (hot_batch, whose
  // view hits interleaved commits would disturb).
  uint64_t tail_commits;
  // hot_batch: Zipf replay of a pre-sampled hot set through
  // PreAnswerBatch.
  bool hot;
  // Reads checked against the referee, on top of every first read
  // after a commit.
  uint64_t checked_reads;
};

constexpr size_t kInsertTriples = 96;
constexpr size_t kEraseTriples = 32;
constexpr size_t kHotSet = 256;
constexpr size_t kHotGroup = 8;
constexpr double kZipfExponent = 0.7;

const WorkloadSpec kWorkloads[] = {
    {"read_mix", 500'000, 0.0, 3, 600, 800, 0, false, 256},
    {"hot_batch", 500'000, 0.0, 3, 16'000, 0, 4, true, 64},
    {"ingest", 200'000, 0.0, 10, 750, 256, 0, false, 128},
    {"blank_ingest", 10'000, 0.1, 12, 1'000, 256, 0, false, 256},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Tiny variants for the determinism self-check.
WorkloadSpec TinySpec(const WorkloadSpec& w) {
  WorkloadSpec t = w;
  t.corpus_triples = w.blank_author_fraction > 0 ? 2'000 : 4'000;
  t.corpora = 2;
  t.reads_per_second = w.hot ? 400 : 120;
  t.reads_per_commit = w.reads_per_commit > 0 ? 24 : 0;
  t.tail_commits = w.tail_commits > 0 ? 1 : 0;
  t.checked_reads = 16;
  return t;
}

// ---------------------------------------------------------------------------
// One database instance: dictionary, generator, database, workload mix.

struct Instance {
  std::unique_ptr<Dictionary> dict;
  std::unique_ptr<Sp2bGenerator> gen;
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkloadMix> mix;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Generation, load, first snapshot (the closure fixpoint) and first nf:
// everything before the first request can be served. Its wall time goes
// to *setup_s; the traced run splits it by span.
std::unique_ptr<Instance> SetUp(const WorkloadSpec& w, uint64_t seed,
                                Tracer* tracer, uint32_t request,
                                double* setup_s) {
  auto inst = std::make_unique<Instance>();
  Sp2bSpec spec;
  spec.target_triples = w.corpus_triples;
  spec.seed = StreamSeed(seed, 1);
  spec.blank_author_fraction = w.blank_author_fraction;

  Span root(tracer, "serve.setup", request);
  const int64_t t0 = NowNs();
  inst->dict = std::make_unique<Dictionary>();
  inst->gen = std::make_unique<Sp2bGenerator>(spec, inst->dict.get());
  Graph corpus;
  {
    Span s(tracer, "gen.corpus", request);
    corpus = inst->gen->GenerateCorpus();
  }
  inst->db = std::make_unique<Database>(inst->dict.get());
  {
    Span s(tracer, "query.load", request);
    inst->db->InsertGraph(corpus);
  }
  std::shared_ptr<const DatabaseSnapshot> snap;
  {
    Span s(tracer, "query.first_snapshot", request);
    snap = inst->db->Snapshot();
  }
  {
    Span s(tracer, "normal.first_nf", request);
    (void)snap->normalized();
  }
  *setup_s = Seconds(NowNs() - t0);
  // The corpus graph is dropped before the mix is built; the mix only
  // freezes the generator's entity pools.
  corpus = Graph();
  inst->mix = std::make_unique<WorkloadMix>(*inst->gen, inst->dict.get());
  return inst;
}

// ---------------------------------------------------------------------------
// The schedule: drawn from the seed before the clock starts.

struct ReadOp {
  std::vector<uint32_t> requests;  // indexes into Schedule::requests
  bool check = false;
  // The visibility probe after a commit: all triples of a subject the
  // commit inserted, which must be non-empty on the new snapshot.
  bool probe = false;
};

struct CommitOp {
  MutationBatch batch;
  size_t inserts = 0;
  size_t erases = 0;
  Term probe_subject;  // an IRI subject among the inserts
};

struct Op {
  bool commit = false;
  uint32_t index = 0;  // into reads or commits
};

struct Schedule {
  std::vector<ServingRequest> requests;
  std::vector<ReadOp> reads;
  std::vector<CommitOp> commits;
  std::vector<Op> ops;
  uint64_t read_requests = 0;
  bool hot = false;
};

CommitOp DrawCommit(Sp2bGenerator* gen, Rng* rng,
                    std::vector<Triple>* own_inserts, Tracer* tracer,
                    uint32_t request) {
  CommitOp c;
  for (size_t i = 0; i < kEraseTriples && !own_inserts->empty(); ++i) {
    const size_t idx = rng->Below(own_inserts->size());
    c.batch.Erase((*own_inserts)[idx]);
    (*own_inserts)[idx] = own_inserts->back();
    own_inserts->pop_back();
    ++c.erases;
  }
  std::vector<Triple> fresh;
  {
    Span s(tracer, "gen.next_publications", request);
    fresh = gen->NextPublications(kInsertTriples);
  }
  for (const Triple& t : fresh) {
    c.batch.Insert(t);
    own_inserts->push_back(t);
    if (c.probe_subject == Term() && t.s.IsIri()) c.probe_subject = t.s;
  }
  c.inserts = fresh.size();
  return c;
}

Schedule DrawSchedule(const WorkloadSpec& w, double seconds, uint64_t seed,
                      Instance* inst, Tracer* tracer, uint32_t request) {
  Span root(tracer, "serve.schedule", request);
  Schedule s;
  s.hot = w.hot;
  Rng read_rng(StreamSeed(seed, 2));
  Rng write_rng(StreamSeed(seed, 3));
  Rng check_rng(StreamSeed(seed, 4));
  std::vector<Triple> own_inserts;
  const uint64_t planned = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(w.reads_per_second * seconds)));

  // Templates are dealt from a shuffled deck holding each template as
  // often as its weight, so every run draws the same template counts
  // and only the bound constants and the order vary with the seed.
  WorkloadMix::Weights weights = WorkloadMix::DefaultWeights();
  if (w.hot) {
    // No path templates in the hot set, and no whole-year scans: their
    // answers grow a hundredfold from early to late years, so one late
    // year at a high rank would decide the run.
    for (const TemplateId id :
         {TemplateId::kCitationReach, TemplateId::kTypeOfPath,
          TemplateId::kYearArticles, TemplateId::kDocsInYear}) {
      weights[static_cast<size_t>(id)] = 0;
    }
  }
  std::vector<TemplateId> deck;
  auto add_request = [&](TemplateId id) {
    Span sp(tracer, "serve.sample", request);
    s.requests.push_back(inst->mix->Build(id, &read_rng));
  };
  auto next_request = [&] {
    if (deck.empty()) {
      for (size_t t = 0; t < kTemplateCount; ++t) {
        deck.insert(deck.end(), weights[t], static_cast<TemplateId>(t));
      }
      read_rng.Shuffle(&deck);
    }
    add_request(deck.back());
    deck.pop_back();
  };

  std::vector<double> zipf_cdf;  // over hot-set ranks
  if (w.hot) {
    // The template at each Zipf rank is fixed (smooth weighted
    // round-robin over the weights, heaviest first), so the hot set's
    // make-up by rank is the same for every seed; only its constants
    // are drawn.
    std::array<int64_t, kTemplateCount> credit{};
    int64_t total = 0;
    for (const uint32_t wt : weights) total += wt;
    for (size_t i = 0; i < kHotSet; ++i) {
      size_t best = 0;
      for (size_t t = 0; t < kTemplateCount; ++t) {
        credit[t] += weights[t];
        if (credit[t] > credit[best]) best = t;
      }
      credit[best] -= total;
      add_request(static_cast<TemplateId>(best));
    }
    double sum = 0;
    for (size_t r = 0; r < kHotSet; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      zipf_cdf.push_back(sum);
    }
    for (double& c : zipf_cdf) c /= sum;
  }

  auto add_read = [&] {
    ReadOp op;
    if (w.hot) {
      for (size_t i = 0; i < kHotGroup; ++i) {
        const double u = static_cast<double>(read_rng.Next() >> 11) *
                         (1.0 / 9007199254740992.0);
        const size_t rank = static_cast<size_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
            zipf_cdf.begin());
        op.requests.push_back(
            static_cast<uint32_t>(std::min(rank, kHotSet - 1)));
      }
    } else {
      op.requests.push_back(static_cast<uint32_t>(s.requests.size()));
      next_request();
    }
    s.read_requests += op.requests.size();
    s.ops.push_back({false, static_cast<uint32_t>(s.reads.size())});
    s.reads.push_back(std::move(op));
  };
  // A commit and its visibility probe, which is the first read on the
  // snapshot the commit publishes.
  const Term vp = inst->dict->Var("p");
  const Term vo = inst->dict->Var("o");
  auto add_commit = [&] {
    s.ops.push_back({true, static_cast<uint32_t>(s.commits.size())});
    s.commits.push_back(DrawCommit(inst->gen.get(), &write_rng, &own_inserts,
                                   tracer, request));
    ServingRequest probe;
    probe.template_id = TemplateId::kPaperMeta;
    probe.query.body =
        Graph({Triple(s.commits.back().probe_subject, vp, vo)});
    probe.query.head = probe.query.body;
    ReadOp op;
    op.requests.push_back(static_cast<uint32_t>(s.requests.size()));
    op.probe = true;
    s.requests.push_back(std::move(probe));
    s.ops.push_back({false, static_cast<uint32_t>(s.reads.size())});
    s.reads.push_back(std::move(op));
  };

  for (uint64_t sampled = 1; s.read_requests < planned; ++sampled) {
    add_read();
    if (w.reads_per_commit > 0 && sampled % w.reads_per_commit == 0 &&
        s.read_requests < planned) {
      add_commit();
    }
  }
  for (uint64_t i = 0; i < w.tail_commits; ++i) add_commit();

  // The checked sample: a seeded choice of reads, plus every probe.
  const size_t n = s.reads.size();
  for (uint64_t i = 0; i < std::min<uint64_t>(w.checked_reads, n); ++i) {
    s.reads[check_rng.Below(n)].check = true;
  }
  for (ReadOp& op : s.reads) op.check = op.check || op.probe;
  return s;
}

// ---------------------------------------------------------------------------
// Serving and the referee.

struct Answer {
  bool path = false;
  Result<std::vector<Graph>> graphs = std::vector<Graph>{};
  std::vector<Term> nodes;
};

// The union post-processing of Database::PreAnswer(UnionQuery): first
// branch error wins, then concat, sort, dedupe.
Result<std::vector<Graph>> CombineBranches(
    const std::vector<Result<std::vector<Graph>>>& parts, size_t begin,
    size_t end) {
  std::vector<Graph> all;
  for (size_t i = begin; i < end; ++i) {
    if (!parts[i].ok()) return parts[i].status();
    all.insert(all.end(), parts[i]->begin(), parts[i]->end());
  }
  std::sort(all.begin(), all.end(), [](const Graph& a, const Graph& b) {
    return a.triples() < b.triples();
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Answer ServeOne(const DatabaseSnapshot& snap, const ServingRequest& req,
                Tracer* tracer, uint32_t request) {
  Answer a;
  switch (req.kind) {
    case RequestKind::kQuery: {
      Span s(tracer, "query.preanswer", request);
      a.graphs = snap.PreAnswer(req.query);
      break;
    }
    case RequestKind::kUnion:
    case RequestKind::kPremise: {
      // Premise requests are served through their premise-free Ωq
      // branches (Prop. 5.9), one batched call on the pinned snapshot.
      std::vector<Result<std::vector<Graph>>> parts;
      {
        Span s(tracer, "query.union", request);
        parts = snap.PreAnswerBatch(req.union_q.branches);
      }
      Span s(tracer, "query.union_combine", request);
      a.graphs = CombineBranches(parts, 0, parts.size());
      parts.clear();  // freed inside the span
      break;
    }
    case RequestKind::kPath: {
      Span s(tracer, "paths.eval", request);
      a.path = true;
      a.nodes = EvalPathFrom(snap.data(), *req.path, req.path_sources);
      break;
    }
  }
  return a;
}

// A hot group: every query of every request in one PreAnswerBatch call,
// then the per-request union combine.
std::vector<Answer> ServeGroup(const DatabaseSnapshot& snap,
                               const std::vector<ServingRequest>& requests,
                               const ReadOp& op, Tracer* tracer,
                               uint32_t request) {
  std::vector<Query> batch;
  std::vector<size_t> begin;
  {
    Span s(tracer, "serve.assemble", request);
    for (const uint32_t r : op.requests) {
      const ServingRequest& req = requests[r];
      begin.push_back(batch.size());
      if (req.kind == RequestKind::kQuery) {
        batch.push_back(req.query);
      } else {
        batch.insert(batch.end(), req.union_q.branches.begin(),
                     req.union_q.branches.end());
      }
    }
    begin.push_back(batch.size());
  }
  std::vector<Result<std::vector<Graph>>> results;
  {
    Span s(tracer, "query.batch", request);
    results = snap.PreAnswerBatch(batch);
  }
  Span s(tracer, "query.union_combine", request);
  std::vector<Answer> out(op.requests.size());
  for (size_t i = 0; i < op.requests.size(); ++i) {
    if (requests[op.requests[i]].kind == RequestKind::kQuery) {
      out[i].graphs = std::move(results[begin[i]]);
    } else {
      out[i].graphs = CombineBranches(results, begin[i], begin[i + 1]);
    }
  }
  results.clear();  // freed inside the span
  batch.clear();
  return out;
}

uint64_t DigestAnswer(uint64_t h, const Answer& a) {
  if (a.path) {
    h = Mix64(h, 0x50415448);
    for (const Term n : a.nodes) h = Mix64(h, n.bits());
    return h;
  }
  if (!a.graphs.ok()) return Mix64(h, 0xE0E0);
  h = Mix64(h, a.graphs->size());
  for (const Graph& g : *a.graphs) {
    for (const Triple& t : g) {
      h = Mix64(h, t.s.bits());
      h = Mix64(h, t.p.bits());
      h = Mix64(h, t.o.bits());
    }
  }
  return h;
}

// Independent BFS over `pred` edges: the referee for citation_reach.
// Citations only point at earlier papers, so the source itself is never
// reachable and Plus(pred) is exactly the strictly-reachable set.
std::vector<Term> BfsReach(const Graph& g, Term pred, Term src) {
  std::vector<Term> frontier{src};
  std::unordered_set<Term> seen{src};
  std::vector<Term> out;
  while (!frontier.empty()) {
    const Term u = frontier.back();
    frontier.pop_back();
    for (const Triple& t : g.Matches(u, pred, std::nullopt)) {
      if (seen.insert(t.o).second) {
        out.push_back(t.o);
        frontier.push_back(t.o);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The referee for type_of_path: the closure's rdf:type facts.
std::vector<Term> ClosureTypes(const Graph& closure, Term node) {
  std::vector<Term> out;
  for (const Triple& t : closure.Matches(node, vocab::kType, std::nullopt)) {
    out.push_back(t.o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// True when the served answer equals the referee's on the same snapshot.
bool RefereeAgrees(Database* db, const DatabaseSnapshot& snap,
                   const WorkloadMix& mix, const ServingRequest& req,
                   const Answer& served) {
  switch (req.kind) {
    case RequestKind::kQuery: {
      const Result<std::vector<Graph>> expected =
          db->evaluator()->PreAnswerPrenormalized(req.query,
                                                  snap.normalized());
      return served.graphs.ok() && expected.ok() &&
             *served.graphs == *expected;
    }
    case RequestKind::kUnion:
    case RequestKind::kPremise: {
      std::vector<Result<std::vector<Graph>>> parts;
      for (const Query& branch : req.union_q.branches) {
        parts.push_back(
            db->evaluator()->PreAnswerPrenormalized(branch,
                                                    snap.normalized()));
      }
      const Result<std::vector<Graph>> expected =
          CombineBranches(parts, 0, parts.size());
      return served.graphs.ok() && expected.ok() &&
             *served.graphs == *expected;
    }
    case RequestKind::kPath: {
      const std::vector<Term> expected =
          req.template_id == TemplateId::kCitationReach
              ? BfsReach(snap.data(), mix.vocab().references,
                         req.path_sources[0])
              : ClosureTypes(snap.closure(), req.path_sources[0]);
      return served.nodes == expected;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Running a schedule.

// Work counters of the Database, as deltas over a stretch of schedule.
// Every field is a count of work done, so one seed repeats it exactly.
struct Counters {
  uint64_t derived = 0, overdeleted = 0, rederived = 0;
  uint64_t publishes = 0, leaves_shared = 0, leaves_copied = 0;
  uint64_t snapshot_nf_builds = 0;
  uint64_t lean_hits = 0, lean_misses = 0;
  uint64_t view_hits = 0, view_misses = 0, view_installs = 0;
  uint64_t view_patches = 0, view_revalidations = 0, view_invalidations = 0;
  uint64_t batch_queries = 0, batch_deduped = 0, batch_prefix_hits = 0;
  uint64_t batch_view_hits = 0, batch_trie_groups = 0;
};

constexpr std::pair<const char*, uint64_t Counters::*> kCounterFields[] = {
    {"derived", &Counters::derived},
    {"overdeleted", &Counters::overdeleted},
    {"rederived", &Counters::rederived},
    {"publishes", &Counters::publishes},
    {"leaves_shared", &Counters::leaves_shared},
    {"leaves_copied", &Counters::leaves_copied},
    {"snapshot_nf_builds", &Counters::snapshot_nf_builds},
    {"lean_hits", &Counters::lean_hits},
    {"lean_misses", &Counters::lean_misses},
    {"view_hits", &Counters::view_hits},
    {"view_misses", &Counters::view_misses},
    {"view_installs", &Counters::view_installs},
    {"view_patches", &Counters::view_patches},
    {"view_revalidations", &Counters::view_revalidations},
    {"view_invalidations", &Counters::view_invalidations},
    {"batch_queries", &Counters::batch_queries},
    {"batch_deduped", &Counters::batch_deduped},
    {"batch_prefix_hits", &Counters::batch_prefix_hits},
    {"batch_view_hits", &Counters::batch_view_hits},
    {"batch_trie_groups", &Counters::batch_trie_groups},
};

uint64_t Load(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

// The cumulative counters of one CollectStats() result.
Counters ReadCounters(const DatabaseStats& s) {
  Counters c;
  c.derived = Load(s.closure_delta_derived);
  c.overdeleted = Load(s.closure_overdeleted);
  c.rederived = Load(s.closure_rederived);
  c.publishes = Load(s.snapshot_publishes);
  c.leaves_shared = Load(s.publish_leaves_shared);
  c.leaves_copied = Load(s.publish_leaves_copied);
  c.snapshot_nf_builds = Load(s.snapshot_nf_builds);
  c.lean_hits = s.lean_cache.cross_hits;
  c.lean_misses = s.lean_cache.misses;
  c.view_hits = s.views.hits;
  c.view_misses = s.views.misses;
  c.view_installs = s.views.installs;
  c.view_patches = s.views.patches;
  c.view_revalidations = s.views.revalidations;
  c.view_invalidations = s.views.invalidations;
  c.batch_queries = Load(s.batch_queries);
  c.batch_deduped = Load(s.batch_deduped);
  c.batch_prefix_hits = Load(s.batch_prefix_hits);
  c.batch_view_hits = Load(s.batch_view_hits);
  c.batch_trie_groups = Load(s.batch_trie_groups);
  return c;
}

Counters operator-(Counters a, const Counters& b) {
  for (const auto& [name, field] : kCounterFields) a.*field -= b.*field;
  return a;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (const auto& [name, field] : kCounterFields) a.*field += b.*field;
  return a;
}

bool operator==(const Counters& a, const Counters& b) {
  for (const auto& [name, field] : kCounterFields) {
    if (a.*field != b.*field) return false;
  }
  return true;
}

struct ScanTotals {
  uint64_t matches_calls = 0, rows_scanned = 0, rows_yielded = 0;
};

void AddScan(const GraphStats& before, const GraphStats& after,
             ScanTotals* out) {
  out->matches_calls += after.matches_calls - before.matches_calls;
  out->rows_scanned += after.rows_scanned - before.rows_scanned;
  out->rows_yielded += after.rows_yielded - before.rows_yielded;
}

// Read labels beside the template ids.
constexpr uint8_t kProbe = 254;         // visibility probe after a commit
constexpr int kHotGroupLabel = 255;     // a hot_batch group

// One read op of a run, for trace attribution.
struct ReadRecord {
  uint32_t request;  // span request id
  int tmpl;          // template id, kProbe or kHotGroupLabel
};

struct RunResult {
  // Per read request (hot groups: every request of the group carries
  // the group's latency).
  std::vector<int64_t> read_ns;
  std::vector<uint8_t> read_template;
  std::vector<int64_t> commit_ns;
  // From the start of a commit's Apply until the first read on the
  // snapshot it published returns (timed windows only).
  std::vector<int64_t> visible_ns;
  int64_t schedule_ns = 0;  // sum of every timed window
  // The sampled reads among them (probes are measured by visible_ns).
  int64_t sampled_read_ns = 0;
  uint64_t sampled_reads = 0;
  uint64_t read_requests = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  uint64_t digest = 0;
  Counters counters;
  // Traced runs only.
  ScanTotals scans;
  std::vector<ReadRecord> read_ops;
  std::vector<uint32_t> commit_requests;
  std::vector<Counters> commit_counters;  // CollectStats deltas per commit
};

RunResult RunSchedule(Instance* inst, const Schedule& sched, Tracer* tracer,
                      uint32_t first_request) {
  Database* db = inst->db.get();
  RunResult r;
  const Counters before = ReadCounters(db->CollectStats());
  Counters at_commit = before;
  uint64_t h = 0x5345525645ULL;
  uint32_t request = first_request;
  // The last commit's window; its probe comes next (visible_ns).
  int64_t last_commit_ns = 0;
  // Traced runs: scan counters of the current snapshot's graphs.
  std::shared_ptr<const DatabaseSnapshot> traced_snap;
  GraphStats nf_base, data_base;
  if (tracer != nullptr) {
    traced_snap = db->Snapshot();
    nf_base = traced_snap->normalized().Stats();
    data_base = traced_snap->data().Stats();
  }

  for (const Op& op : sched.ops) {
    ++request;
    if (op.commit) {
      const CommitOp& c = sched.commits[op.index];
      Database::ApplyResult applied;
      const int64_t t0 = NowNs();
      {
        Span root(tracer, "serve.commit", request);
        Span s(tracer, "query.apply", request);
        applied = db->Apply(c.batch);
      }
      const int64_t t1 = NowNs();
      r.commit_ns.push_back(t1 - t0);
      r.schedule_ns += t1 - t0;
      last_commit_ns = t1 - t0;
      r.attempted += 1;
      // Every erase targets an earlier insert of the writer and every
      // insert is a new publication's triple.
      if (applied.inserted != c.inserts || applied.erased != c.erases) {
        r.mismatches += 1;
      }
      h = Mix64(h, applied.inserted);
      h = Mix64(h, applied.erased);
      if (tracer != nullptr) {
        r.commit_requests.push_back(request);
        Span root(tracer, "serve.stats", request);
        Span s(tracer, "query.collect_stats", request);
        const Counters now = ReadCounters(db->CollectStats());
        r.commit_counters.push_back(now - at_commit);
        at_commit = now;
      }
      continue;
    }

    const ReadOp& read = sched.reads[op.index];
    std::shared_ptr<const DatabaseSnapshot> snap;
    std::vector<Answer> answers;
    const int64_t t0 = NowNs();
    {
      Span root(tracer, "serve.request", request);
      {
        Span s(tracer, "query.pin", request);
        snap = db->Snapshot();
      }
      if (tracer != nullptr && snap != traced_snap) {
        // Traced runs build each new snapshot's nf explicitly, so the
        // build is its own span instead of hiding in the first query.
        {
          Span s(tracer, "normal.nf_build", request);
          (void)snap->normalized();
        }
        Span s(tracer, "trace.stats", request);
        AddScan(nf_base, traced_snap->normalized().Stats(), &r.scans);
        AddScan(data_base, traced_snap->data().Stats(), &r.scans);
        traced_snap = snap;
        nf_base = snap->normalized().Stats();
        data_base = snap->data().Stats();
      }
      if (sched.hot) {
        answers = ServeGroup(*snap, sched.requests, read, tracer, request);
      } else {
        answers.push_back(ServeOne(*snap, sched.requests[read.requests[0]],
                                   tracer, request));
      }
    }
    const int64_t ns = NowNs() - t0;
    r.schedule_ns += ns;
    if (read.probe) {
      r.visible_ns.push_back(last_commit_ns + ns);
    } else {
      r.sampled_read_ns += ns;
      r.sampled_reads += answers.size();
    }
    if (tracer != nullptr) {
      const int tmpl =
          read.probe ? kProbe
          : sched.hot
              ? kHotGroupLabel
              : static_cast<int>(sched.requests[read.requests[0]].template_id);
      r.read_ops.push_back({request, tmpl});
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      const ServingRequest& req = sched.requests[read.requests[i]];
      r.read_ns.push_back(ns);
      r.read_template.push_back(
          read.probe ? kProbe : static_cast<uint8_t>(req.template_id));
      r.read_requests += 1;
      r.attempted += 1;
      if (!answers[i].path && !answers[i].graphs.ok()) r.errors += 1;
      h = DigestAnswer(Mix64(h, static_cast<uint64_t>(req.template_id)),
                       answers[i]);
      // Checked outside the timed window, on the same snapshot. A probe
      // must also see the commit it follows.
      if (read.check) {
        r.checks += 1;
        const bool visible = !read.probe || (answers[i].graphs.ok() &&
                                             !answers[i].graphs->empty());
        if (!visible ||
            !RefereeAgrees(db, *snap, *inst->mix, req, answers[i])) {
          r.mismatches += 1;
        }
      }
    }
  }
  if (tracer != nullptr) {
    AddScan(nf_base, traced_snap->normalized().Stats(), &r.scans);
    AddScan(data_base, traced_snap->data().Stats(), &r.scans);
  }
  r.digest = h;
  r.counters = ReadCounters(db->CollectStats()) - before;
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and reporting.

// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> ToUnit(const std::vector<int64_t>& ns, double per_ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const int64_t v : ns) out.push_back(static_cast<double>(v) * per_ns);
  return out;
}

constexpr double kUs = 1e-3;
constexpr double kMs = 1e-6;

// The highest percentile of the ladder with at least ten samples beyond
// it (50 when even that is unsupported).
double TailPercentile(size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const RunResult& r) {
  const std::vector<double> read_us = ToUnit(r.read_ns, kUs);
  return {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      // Sampled reads per second of their own time: commits and probes
      // are left out, as commit_p50_ms and visible_p50_ms report them.
      {"read_qps",
       Ratio(static_cast<double>(r.sampled_reads), Seconds(r.sampled_read_ns)),
       "1/s"},
      {"read_p50_us", Quantile(read_us, 0.50), "us"},
      {"read_p99_us", Quantile(read_us, 0.99), "us"},
      {"commit_p50_ms", Quantile(ToUnit(r.commit_ns, kMs), 0.5), "ms"},
      {"visible_p50_ms", Quantile(ToUnit(r.visible_ns, kMs), 0.5), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Span durations by name, plus per-root child coverage.
struct SpanSummary {
  std::map<std::string, std::vector<double>> us_by_name;
  std::vector<double> child_us;  // per span: sum of direct children
};

double SpanUs(const SpanRecord& sp) {
  return static_cast<double>(sp.end_ns - sp.start_ns) * kUs;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary s;
  s.child_us.assign(spans.size(), 0);
  for (const SpanRecord& sp : spans) {
    s.us_by_name[sp.name].push_back(SpanUs(sp));
    if (sp.parent >= 0) s.child_us[static_cast<size_t>(sp.parent)] += SpanUs(sp);
  }
  return s;
}

// Request id -> index of its serve.request or serve.commit root span.
std::map<uint32_t, size_t> OpRoots(const std::vector<SpanRecord>& spans) {
  std::map<uint32_t, size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 &&
        (std::strcmp(spans[i].name, "serve.request") == 0 ||
         std::strcmp(spans[i].name, "serve.commit") == 0)) {
      roots[spans[i].request] = i;
    }
  }
  return roots;
}

// Which named spans the slow requests spent their time in: the requests
// at or above the p99 of traced request durations, their self time and
// every direct child's share, and their templates.
struct TailAttribution {
  size_t requests = 0;
  double threshold_us = 0;
  double covered_frac = 0;
  std::map<std::string, double> share;  // child name (or "self") -> share
  std::map<int, size_t> templates;
};

TailAttribution AttributeTail(const std::vector<SpanRecord>& spans,
                              const SpanSummary& sum,
                              const std::vector<ReadRecord>& reads) {
  TailAttribution t;
  std::map<uint32_t, size_t> roots = OpRoots(spans);
  std::vector<double> durations;
  for (const ReadRecord& rd : reads) {
    durations.push_back(SpanUs(spans[roots[rd.request]]));
  }
  t.threshold_us = Quantile(durations, 0.99);
  std::set<int32_t> tail_roots;
  double total = 0, covered = 0;
  for (const ReadRecord& rd : reads) {
    const size_t root = roots[rd.request];
    const double us = SpanUs(spans[root]);
    if (us < t.threshold_us) continue;
    tail_roots.insert(static_cast<int32_t>(root));
    t.requests += 1;
    t.templates[rd.tmpl] += 1;
    total += us;
    covered += sum.child_us[root];
    t.share["self"] += us - sum.child_us[root];
  }
  for (const SpanRecord& sp : spans) {
    if (tail_roots.count(sp.parent) > 0) {
      t.share[sp.name] += SpanUs(sp);
    }
  }
  for (auto& [name, us] : t.share) us = Ratio(us, total);
  t.covered_frac = Ratio(covered, total);
  return t;
}

// The visibility window of each commit (its commit span plus the first
// read after it), split by direct child span.
struct VisibleAttribution {
  size_t commits = 0;
  double covered_frac = 0;
  std::map<std::string, double> share;
};

VisibleAttribution AttributeVisible(const std::vector<SpanRecord>& spans,
                                    const SpanSummary& sum,
                                    const RunResult& r) {
  VisibleAttribution v;
  std::map<uint32_t, size_t> roots = OpRoots(spans);
  std::set<int32_t> in_window;
  double total = 0, covered = 0;
  auto add_root = [&](uint32_t request) {
    const size_t root = roots[request];
    in_window.insert(static_cast<int32_t>(root));
    total += SpanUs(spans[root]);
    covered += sum.child_us[root];
  };
  for (const uint32_t c : r.commit_requests) add_root(c);
  for (const ReadRecord& rd : r.read_ops) {
    if (rd.tmpl == kProbe) add_root(rd.request);
  }
  v.commits = r.commit_requests.size();
  for (const SpanRecord& sp : spans) {
    if (in_window.count(sp.parent) > 0) {
      v.share[sp.name] += SpanUs(sp);
    }
  }
  for (auto& [name, us] : v.share) us = Ratio(us, total);
  v.covered_frac = Ratio(covered, total);
  return v;
}

std::string TemplateLabel(int tmpl) {
  if (tmpl == kProbe) return "visibility_probe";
  if (tmpl == kHotGroupLabel) return "hot_group";
  return std::string(TemplateName(static_cast<TemplateId>(tmpl)));
}

// Per-template latency: p50 and the highest percentile of the ladder
// that the sample count n supports (see TailPercentile), with n.
void AddTemplateMetrics(const RunResult& r, std::vector<Metric>* out) {
  std::array<std::vector<double>, kTemplateCount> us;
  for (size_t i = 0; i < r.read_ns.size(); ++i) {
    if (r.read_template[i] == kProbe) continue;  // measured as visible_*
    us[r.read_template[i]].push_back(static_cast<double>(r.read_ns[i]) * kUs);
  }
  for (size_t t = 0; t < kTemplateCount; ++t) {
    const std::string prefix =
        "serve." + std::string(TemplateName(static_cast<TemplateId>(t)));
    const double pct = TailPercentile(us[t].size());
    out->push_back({prefix + ".n", static_cast<double>(us[t].size()),
                    "count"});
    out->push_back({prefix + ".p50_us", Quantile(us[t], 0.5), "us"});
    out->push_back({prefix + ".ptail_us", Quantile(us[t], pct / 100.0), "us"});
  }
}

std::vector<Metric> PerLayerMetrics(const std::vector<SpanRecord>& spans,
                                    const RunResult& r,
                                    double overhead_frac) {
  const SpanSummary sum = Summarize(spans);
  auto p = [&](const char* name, double q) {
    auto it = sum.us_by_name.find(name);
    return it == sum.us_by_name.end() ? 0.0 : Quantile(it->second, q);
  };
  auto count = [&](const char* name) {
    auto it = sum.us_by_name.find(name);
    return it == sum.us_by_name.end() ? size_t{0} : it->second.size();
  };
  auto first_read_query_ms = [&] {
    // The query spans of each first read after a commit: view Maintain
    // plus the query, on an nf that is already built.
    std::set<uint32_t> probes;
    for (const ReadRecord& rd : r.read_ops) {
      if (rd.tmpl == kProbe) probes.insert(rd.request);
    }
    std::map<uint32_t, double> per_request;
    for (const SpanRecord& sp : spans) {
      if (sp.parent < 0 || probes.count(sp.request) == 0) continue;
      const std::string name = sp.name;
      if (name == "query.preanswer" || name == "query.union" ||
          name == "query.union_combine" || name == "query.batch" ||
          name == "paths.eval") {
        per_request[sp.request] += SpanUs(sp) * 1e-3;
      }
    }
    std::vector<double> v;
    for (const auto& [id, ms] : per_request) v.push_back(ms);
    return Quantile(v, 0.5);
  };
  const Counters& c = r.counters;
  const double commits = static_cast<double>(r.commit_ns.size());
  const double reads = static_cast<double>(r.read_requests);

  std::vector<double> request_cov, commit_cov;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const double cov = Ratio(sum.child_us[i], SpanUs(spans[i]));
    if (std::strcmp(spans[i].name, "serve.request") == 0) {
      request_cov.push_back(cov);
    } else if (std::strcmp(spans[i].name, "serve.commit") == 0) {
      commit_cov.push_back(cov);
    }
  }
  const TailAttribution tail = AttributeTail(spans, sum, r.read_ops);
  const VisibleAttribution vis = AttributeVisible(spans, sum, r);

  std::vector<Metric> m = {
      {"gen.corpus_s", p("gen.corpus", 0.5) * 1e-6, "s"},
      {"query.load_s", p("query.load", 0.5) * 1e-6, "s"},
      {"query.first_snapshot_s", p("query.first_snapshot", 0.5) * 1e-6, "s"},
      {"normal.first_nf_s", p("normal.first_nf", 0.5) * 1e-6, "s"},
      {"inference.derived_per_commit",
       Ratio(static_cast<double>(c.derived), commits), "count"},
      {"inference.overdeleted_per_commit",
       Ratio(static_cast<double>(c.overdeleted), commits), "count"},
      {"inference.rederive_ratio",
       Ratio(static_cast<double>(c.rederived),
             static_cast<double>(c.overdeleted)),
       "ratio"},
      {"rdf.publish_leaves_copied_per_commit",
       Ratio(static_cast<double>(c.leaves_copied), commits), "count"},
      {"rdf.publish_shared_ratio",
       Ratio(static_cast<double>(c.leaves_shared),
             static_cast<double>(c.leaves_shared + c.leaves_copied)),
       "ratio"},
      {"normal.nf_build_ms", p("normal.nf_build", 0.5) * 1e-3, "ms"},
      {"normal.snapshot_nf_builds",
       static_cast<double>(c.snapshot_nf_builds), "count"},
      {"normal.lean_hit_ratio",
       Ratio(static_cast<double>(c.lean_hits),
             static_cast<double>(c.lean_hits + c.lean_misses)),
       "ratio"},
      {"query.first_read_ms", first_read_query_ms(), "ms"},
      {"query.view_patches_per_commit",
       Ratio(static_cast<double>(c.view_patches), commits), "count"},
      {"query.view_revalidations_per_commit",
       Ratio(static_cast<double>(c.view_revalidations), commits), "count"},
      {"query.view_hit_ratio",
       Ratio(static_cast<double>(c.view_hits + c.batch_view_hits),
             static_cast<double>(c.view_hits + c.view_misses +
                                 c.batch_view_hits)),
       "ratio"},
      {"query.batch_dedupe_ratio",
       Ratio(static_cast<double>(c.batch_deduped),
             static_cast<double>(c.batch_queries)),
       "ratio"},
      {"query.batch_prefix_hits", static_cast<double>(c.batch_prefix_hits),
       "count"},
      {"query.batch_p50_us", p("query.batch", 0.5), "us"},
      {"query.pin_p50_us", p("query.pin", 0.5), "us"},
      {"query.preanswer_p50_us", p("query.preanswer", 0.5), "us"},
      {"query.union_p50_us", p("query.union", 0.5), "us"},
      {"rdf.scan_yield_ratio",
       Ratio(static_cast<double>(r.scans.rows_yielded),
             static_cast<double>(r.scans.rows_scanned)),
       "ratio"},
      {"rdf.matches_per_read",
       Ratio(static_cast<double>(r.scans.matches_calls), reads), "count"},
      {"paths.eval_p50_us", p("paths.eval", 0.5), "us"},
      {"paths.eval_ptail_us",
       p("paths.eval", TailPercentile(count("paths.eval")) / 100.0), "us"},
      {"trace.overhead_frac", overhead_frac, "frac"},
      {"trace.request_coverage_p50", Quantile(request_cov, 0.5), "frac"},
      {"trace.request_coverage_p1", Quantile(request_cov, 0.01), "frac"},
      {"trace.commit_coverage_p50", Quantile(commit_cov, 0.5), "frac"},
      {"trace.read_tail_covered_frac", tail.covered_frac, "frac"},
      {"trace.visible_covered_frac", vis.covered_frac, "frac"},
  };
  AddTemplateMetrics(r, &m);
  return m;
}

void PrintAttribution(const std::vector<SpanRecord>& spans,
                      const RunResult& r) {
  const SpanSummary sum = Summarize(spans);
  const TailAttribution tail = AttributeTail(spans, sum, r.read_ops);
  std::fprintf(stderr,
               "read_p99 attribution: %zu traced requests at or above "
               "%.1f us, %.1f%% of their time in child spans\n",
               tail.requests, tail.threshold_us, 100 * tail.covered_frac);
  for (const auto& [tmpl, n] : tail.templates) {
    std::fprintf(stderr, "  template %-20s %zu\n", TemplateLabel(tmpl).c_str(),
                 n);
  }
  for (const auto& [name, share] : tail.share) {
    std::fprintf(stderr, "  span %-24s %5.1f%%\n", name.c_str(), 100 * share);
  }
  if (r.commit_requests.empty()) return;
  const VisibleAttribution vis = AttributeVisible(spans, sum, r);
  std::fprintf(stderr,
               "visible attribution: %zu commits, %.1f%% of the window in "
               "child spans\n",
               vis.commits, 100 * vis.covered_frac);
  for (const auto& [name, share] : vis.share) {
    std::fprintf(stderr, "  span %-24s %5.1f%%\n", name.c_str(), 100 * share);
  }
}

// Spans and per-commit counter deltas, one JSON object per line.
void WriteTrace(const std::string& path, const std::vector<SpanRecord>& spans,
                const RunResult& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"request\":%u,\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 i, s.name, s.parent, s.request, s.start_ns - t0,
                 s.end_ns - t0);
  }
  for (size_t i = 0; i < r.commit_counters.size(); ++i) {
    std::fprintf(f, "{\"commit\":%u", r.commit_requests[i]);
    for (const auto& [name, field] : kCounterFields) {
      std::fprintf(f, ",\"%s\":%" PRIu64, name, r.commit_counters[i].*field);
    }
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

void PrintRunReport(const WorkloadSpec& w, const RunResult& r) {
  std::fprintf(stderr,
               "workload %s: %" PRIu64 " reads, %zu commits, %" PRIu64
               " checks, %" PRIu64 " mismatches, %" PRIu64
               " errors, schedule %.3f s, answer digest %016" PRIx64 "\n",
               w.name, r.read_requests, r.commit_ns.size(), r.checks,
               r.mismatches, r.errors, Seconds(r.schedule_ns), r.digest);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Entry points.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

// Pools one corpus's run into the workload's result.
void Append(RunResult* into, RunResult part) {
  auto extend = [](auto* to, auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  extend(&into->read_ns, part.read_ns);
  extend(&into->read_template, part.read_template);
  extend(&into->commit_ns, part.commit_ns);
  extend(&into->visible_ns, part.visible_ns);
  into->schedule_ns += part.schedule_ns;
  into->sampled_read_ns += part.sampled_read_ns;
  into->sampled_reads += part.sampled_reads;
  into->read_requests += part.read_requests;
  into->attempted += part.attempted;
  into->errors += part.errors;
  into->checks += part.checks;
  into->mismatches += part.mismatches;
  into->digest = Mix64(into->digest, part.digest);
  into->counters += part.counters;
  into->scans.matches_calls += part.scans.matches_calls;
  into->scans.rows_scanned += part.scans.rows_scanned;
  into->scans.rows_yielded += part.scans.rows_yielded;
  extend(&into->read_ops, part.read_ops);
  extend(&into->commit_requests, part.commit_requests);
  extend(&into->commit_counters, part.commit_counters);
}

// Sets up corpus k of a run from its own sub-seed and runs its share of
// the schedule. Span request ids are drawn from *next_request.
RunResult RunCorpus(const WorkloadSpec& w, uint64_t seed, double seconds,
                    int k, Tracer* tracer, uint32_t* next_request,
                    std::vector<double>* setup_s) {
  const uint64_t corpus_seed = StreamSeed(seed, 16 + static_cast<uint64_t>(k));
  double t = 0;
  std::unique_ptr<Instance> inst =
      SetUp(w, corpus_seed, tracer, (*next_request)++, &t);
  setup_s->push_back(t);
  const Schedule sched =
      DrawSchedule(w, seconds / w.corpora, corpus_seed, inst.get(), tracer,
                   (*next_request)++);
  RunResult r = RunSchedule(inst.get(), sched, tracer, *next_request);
  *next_request += static_cast<uint32_t>(sched.ops.size()) + 1;
  return r;
}

int RunWorkload(const WorkloadSpec& w, const Args& args) {
  std::vector<double> setups;
  uint32_t next_request = 0;
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  RunResult pooled;
  RunResult first;  // corpus 0 alone, for the traced run's replay
  for (int k = 0; k < w.corpora; ++k) {
    RunResult part =
        RunCorpus(w, args.seed, args.seconds, k, t, &next_request, &setups);
    std::fprintf(stderr,
                 "corpus %d: setup %.3f s, read p50 %.1f us, read qps %.0f, "
                 "commit p50 %.1f ms, visible p50 %.1f ms\n",
                 k, setups.back(), Quantile(ToUnit(part.read_ns, kUs), 0.5),
                 Ratio(static_cast<double>(part.sampled_reads),
                       Seconds(part.sampled_read_ns)),
                 Quantile(ToUnit(part.commit_ns, kMs), 0.5),
                 Quantile(ToUnit(part.visible_ns, kMs), 0.5));
    if (k == 0) first = part;
    Append(&pooled, std::move(part));
  }
  PrintRunReport(w, pooled);
  bool correct = pooled.mismatches == 0 && pooled.errors == 0;
  uint64_t attempted = pooled.attempted;
  uint64_t failed = pooled.mismatches + pooled.errors;
  if (!args.trace) {
    PrintJson(correct, attempted, failed, EndToEndMetrics(setups, pooled));
    return correct ? 0 : 1;
  }

  // Untraced replay of corpus 0: the tracing overhead, and a check that
  // tracing changed no answer.
  std::vector<double> replay_setups;
  const RunResult replay = RunCorpus(w, args.seed, args.seconds, 0, nullptr,
                                     &next_request, &replay_setups);
  const bool same = replay.digest == first.digest &&
                    replay.mismatches == 0 && replay.errors == 0;
  if (!same) std::fprintf(stderr, "untraced replay disagrees with trace\n");
  correct = correct && same;
  attempted += replay.attempted;
  failed += replay.mismatches + replay.errors + (same ? 0 : 1);
  PrintAttribution(tracer.spans(), pooled);
  if (!args.trace_dir.empty()) {
    WriteTrace(args.trace_dir + "/" + w.name + "-seed" +
                   std::to_string(args.seed) + ".jsonl",
               tracer.spans(), pooled);
  }
  const double traced_qps = Ratio(static_cast<double>(first.sampled_reads),
                                  Seconds(first.sampled_read_ns));
  const double untraced_qps = Ratio(static_cast<double>(replay.sampled_reads),
                                    Seconds(replay.sampled_read_ns));
  PrintJson(correct, attempted, failed,
            PerLayerMetrics(tracer.spans(), pooled,
                            Ratio(untraced_qps - traced_qps, untraced_qps)));
  return correct ? 0 : 1;
}

// Determinism self-check: every workload at a tiny size, twice with one
// seed and once with another.
int SelfTest() {
  int failures = 0;
  for (const WorkloadSpec& full : kWorkloads) {
    const WorkloadSpec w = TinySpec(full);
    RunResult runs[3];
    const uint64_t seeds[3] = {7, 7, 8};
    for (int i = 0; i < 3; ++i) {
      std::vector<double> setups;
      uint32_t next_request = 0;
      for (int k = 0; k < w.corpora; ++k) {
        Append(&runs[i], RunCorpus(w, seeds[i], 1.0, k, nullptr,
                                   &next_request, &setups));
      }
    }
    const bool clean = runs[0].mismatches + runs[0].errors +
                           runs[1].mismatches + runs[1].errors +
                           runs[2].mismatches + runs[2].errors ==
                       0;
    const bool repeat = runs[0].digest == runs[1].digest &&
                        runs[0].counters == runs[1].counters;
    const bool seeded = runs[0].digest != runs[2].digest;
    std::fprintf(stderr,
                 "selftest %-13s reads=%" PRIu64 " commits=%zu checks=%" PRIu64
                 " digest=%016" PRIx64 " clean=%d repeat=%d seed_matters=%d\n",
                 w.name, runs[0].read_requests, runs[0].commit_ns.size(),
                 runs[0].checks, runs[0].digest, clean, repeat, seeded);
    if (!clean || !repeat || !seeded) ++failures;
  }
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace swdb

int main(int argc, char** argv) {
  swdb::Args args;
  if (!swdb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>] | --selftest\n");
    return 2;
  }
  if (args.selftest) return swdb::SelfTest();
  const swdb::WorkloadSpec* w = swdb::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  return swdb::RunWorkload(*w, args);
}
