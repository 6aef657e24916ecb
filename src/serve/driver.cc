#include "serve/driver.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>
#include <unordered_set>
#include <utility>

#include "paths/path.h"
#include "query/union_query.h"
#include "rdf/triple.h"

namespace swdb {

namespace {

constexpr size_t kReservoirCap = 65536;

// Distinct deterministic Rng streams per (seed, role).
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

uint64_t Mix64(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

uint64_t DigestGraph(uint64_t h, const Graph& g) {
  for (const Triple& t : g) {
    h = Mix64(h, t.s.bits());
    h = Mix64(h, t.p.bits());
    h = Mix64(h, t.o.bits());
  }
  return h;
}

bool SameResult(const Result<std::vector<Graph>>& a,
                const Result<std::vector<Graph>>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return true;
  return *a == *b;
}

// Independent hand-rolled BFS over `pred` edges — the checked-mode
// referee for the citation-reach path template. The citation graph is
// acyclic by construction (targets are always earlier papers), so the
// source itself is never reachable and Plus(pred) from src is exactly
// the strictly-reachable set.
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

// The checked-mode referee for the navigational type-of template: the
// maintained closure's rdf:type facts for the node. Navigation over the
// raw data graph and rule-derived closure triples are two independent
// implementations of RDFS typing; the driver asserts they agree.
std::vector<Term> ClosureTypes(const Graph& closure, Term node) {
  std::vector<Term> out;
  for (const Triple& t : closure.Matches(node, vocab::kType, std::nullopt)) {
    out.push_back(t.o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double Percentile(const std::vector<uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[idx < sorted.size() ? idx : sorted.size() - 1];
}

}  // namespace

struct TrafficDriver::ReaderAccum {
  std::vector<uint32_t> latencies;
  uint64_t ops = 0;
  uint64_t answers = 0;
  uint64_t errors = 0;
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  uint64_t digest = 0;
  std::array<uint64_t, kTemplateCount> template_ops{};
  uint64_t lag_sum = 0;
  uint64_t lag_max = 0;
};

TrafficDriver::TrafficDriver(Database* db, Sp2bGenerator* gen,
                             const WorkloadMix* mix, DriverOptions options)
    : db_(db), gen_(gen), mix_(mix), options_(options) {}

TrafficDriver::Served TrafficDriver::Serve(const DatabaseSnapshot& snap,
                                           const ServingRequest& req) const {
  Served served;
  switch (req.kind) {
    case RequestKind::kQuery:
      served.answers = snap.PreAnswer(req.query);
      break;
    case RequestKind::kUnion:
    case RequestKind::kPremise:
      // Premise requests are served through their premise-free Ωq
      // branches (Prop. 5.9): one batched evaluation on the pinned
      // snapshot, then the union combine. Direct premise evaluation
      // would build nf(D + P) per request, so it never runs here — the
      // Prop. 5.9 equivalence itself is asserted in
      // tests/serving_test.cc.
      served.answers =
          CombineBranches(snap.PreAnswerBatch(req.union_q.branches));
      break;
    case RequestKind::kPath:
      served.nodes = EvalPathFrom(snap.data(), *req.path, req.path_sources);
      break;
  }
  return served;
}

TrafficDriver::OpResult TrafficDriver::Judge(const DatabaseSnapshot& snap,
                                             const ServingRequest& req,
                                             const Served& served,
                                             bool check) const {
  OpResult r;
  const uint64_t id = static_cast<uint64_t>(req.template_id);
  if (req.kind == RequestKind::kPath) {
    r.answers = served.nodes.size();
    uint64_t h = Mix64(0x50415448, id);
    for (const Term n : served.nodes) h = Mix64(h, n.bits());
    r.digest = h;
    if (check) {
      const std::vector<Term> expected =
          req.template_id == TemplateId::kCitationReach
              ? BfsReach(snap.data(), mix_->vocab().references,
                         req.path_sources[0])
              : ClosureTypes(snap.closure(), req.path_sources[0]);
      r.mismatch = served.nodes != expected;
    }
    return r;
  }
  uint64_t h =
      Mix64(req.kind == RequestKind::kQuery ? 0x53455256 : 0x554E494F, id);
  if (!served.answers.ok()) {
    r.error = true;
    r.digest = Mix64(h, 0xE0E0);
  } else {
    r.answers = served.answers->size();
    for (const Graph& g : *served.answers) h = DigestGraph(h, g);
    r.digest = h;
  }
  if (check) {
    // Referees: every query or union branch re-evaluated from scratch
    // on the snapshot's own nf.
    Result<std::vector<Graph>> expected = std::vector<Graph>();
    if (req.kind == RequestKind::kQuery) {
      expected = db_->evaluator()->PreAnswerPrenormalized(
          req.query, snap.normalized());
    } else {
      std::vector<Result<std::vector<Graph>>> parts;
      parts.reserve(req.union_q.branches.size());
      for (const Query& branch : req.union_q.branches) {
        parts.push_back(db_->evaluator()->PreAnswerPrenormalized(
            branch, snap.normalized()));
      }
      expected = CombineBranches(std::move(parts));
    }
    r.mismatch = !SameResult(served.answers, expected);
  }
  return r;
}

void TrafficDriver::OneIteration(Rng* rng, ReaderAccum* acc,
                                 std::vector<uint64_t>* op_digests) {
  // Sample the request and its check coin flip before serving, so the
  // rng stream is independent of evaluation internals.
  const ServingRequest req = mix_->Sample(rng);
  const bool check =
      options_.check_fraction > 0 && rng->Chance(options_.check_fraction);

  // The timed window covers pinning the snapshot and serving the
  // request; the checked-mode referee runs after it.
  const auto t0 = std::chrono::steady_clock::now();
  const std::shared_ptr<const DatabaseSnapshot> snap = db_->Snapshot();
  const Served served = Serve(*snap, req);
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  acc->latencies.push_back(
      us > 0xffffffffULL ? 0xffffffffu : static_cast<uint32_t>(us));

  const OpResult r = Judge(*snap, req, served, check);

  const uint64_t published = published_epoch_.load(std::memory_order_acquire);
  // A reader can pin a snapshot the writer published after its last
  // epoch store; clamp instead of wrapping.
  const uint64_t lag =
      published > snap->epoch() ? published - snap->epoch() : 0;
  acc->lag_sum += lag;
  if (lag > acc->lag_max) acc->lag_max = lag;

  acc->ops += 1;
  acc->answers += r.answers;
  acc->errors += r.error ? 1 : 0;
  acc->checks += check ? 1 : 0;
  acc->mismatches += r.mismatch ? 1 : 0;
  acc->digest ^= r.digest;
  acc->template_ops[static_cast<size_t>(req.template_id)] += 1;
  if (op_digests != nullptr) op_digests->push_back(r.digest);
}

void TrafficDriver::ReaderLoop(int tid, ReaderAccum* acc) {
  Rng rng(MixSeed(options_.seed, 1 + static_cast<uint64_t>(tid)));
  if (options_.ops_per_reader > 0) {
    while (acc->ops < options_.ops_per_reader &&
           !stop_.load(std::memory_order_acquire)) {
      OneIteration(&rng, acc, nullptr);
    }
  } else {
    while (!stop_.load(std::memory_order_acquire)) {
      OneIteration(&rng, acc, nullptr);
    }
  }
}

void TrafficDriver::WriterBatch(Rng* rng, DriverReport* report) {
  MutationBatch batch;
  const size_t want_erase = static_cast<size_t>(
      options_.writer_erase_fraction *
      static_cast<double>(options_.writer_batch_triples));
  for (size_t i = 0; i < want_erase && !reservoir_.empty(); ++i) {
    const size_t idx = rng->Below(reservoir_.size());
    batch.Erase(reservoir_[idx]);
    reservoir_[idx] = reservoir_.back();
    reservoir_.pop_back();
  }
  std::vector<Triple> fresh =
      gen_->NextPublications(options_.writer_batch_triples);
  for (const Triple& t : fresh) batch.Insert(t);
  const Database::ApplyResult applied = db_->Apply(batch);
  published_epoch_.store(db_->epoch(), std::memory_order_release);
  report->writer_batches += 1;
  report->writer_inserts += applied.inserted;
  report->writer_erases += applied.erased;
  for (const Triple& t : fresh) {
    if (reservoir_.size() < kReservoirCap) {
      reservoir_.push_back(t);
    } else {
      reservoir_[rng->Below(reservoir_.size())] = t;
    }
  }
}

void TrafficDriver::WriterLoop(DriverReport* writer_side) {
  Rng rng(MixSeed(options_.seed, 0));
  while (!stop_.load(std::memory_order_acquire)) {
    WriterBatch(&rng, writer_side);
    if (options_.writer_pause_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.writer_pause_micros));
    }
  }
}

DriverReport TrafficDriver::Run() {
  const DatabaseStats before = db_->CollectStats();
  // Build the closure and publish the first snapshot (plus its nf)
  // before the clock starts: the steady-state loop should not pay the
  // one-time cold build.
  const std::shared_ptr<const DatabaseSnapshot> warm = db_->Snapshot();
  (void)warm->normalized();
  published_epoch_.store(db_->epoch(), std::memory_order_release);
  stop_.store(false, std::memory_order_release);

  std::vector<ReaderAccum> accums(
      options_.readers > 0 ? static_cast<size_t>(options_.readers) : 1);
  DriverReport writer_side;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread writer;
  if (options_.writer && gen_ != nullptr) {
    writer = std::thread([this, &writer_side] { WriterLoop(&writer_side); });
  }
  std::vector<std::thread> readers;
  readers.reserve(accums.size());
  for (size_t tid = 0; tid < accums.size(); ++tid) {
    readers.emplace_back([this, tid, &accums] {
      ReaderLoop(static_cast<int>(tid), &accums[tid]);
    });
  }
  if (options_.ops_per_reader == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        options_.seconds > 0 ? options_.seconds : 1.0));
    stop_.store(true, std::memory_order_release);
  }
  for (std::thread& t : readers) t.join();
  stop_.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Finish(&accums, elapsed, before, writer_side);
}

DriverReport TrafficDriver::RunSingleThreaded(
    std::vector<uint64_t>* op_digests) {
  const DatabaseStats before = db_->CollectStats();
  const std::shared_ptr<const DatabaseSnapshot> warm = db_->Snapshot();
  (void)warm->normalized();
  published_epoch_.store(db_->epoch(), std::memory_order_release);
  stop_.store(false, std::memory_order_release);

  const uint64_t quota =
      options_.ops_per_reader > 0 ? options_.ops_per_reader : 256;
  Rng rng(MixSeed(options_.seed, 1));
  Rng writer_rng(MixSeed(options_.seed, 0));
  std::vector<ReaderAccum> accums(1);
  DriverReport writer_side;
  uint64_t next_writer_at = options_.writer_every;
  const auto t0 = std::chrono::steady_clock::now();
  while (accums[0].ops < quota) {
    if (options_.writer && gen_ != nullptr && options_.writer_every > 0 &&
        accums[0].ops >= next_writer_at) {
      WriterBatch(&writer_rng, &writer_side);
      next_writer_at += options_.writer_every;
    }
    OneIteration(&rng, &accums[0], op_digests);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Finish(&accums, elapsed, before, writer_side);
}

DriverReport TrafficDriver::Finish(std::vector<ReaderAccum>* accums,
                                   double elapsed,
                                   const DatabaseStats& before,
                                   DriverReport writer_side) {
  DriverReport r = std::move(writer_side);
  std::vector<uint32_t> lat;
  uint64_t lag_sum = 0;
  for (const ReaderAccum& acc : *accums) {
    lat.insert(lat.end(), acc.latencies.begin(), acc.latencies.end());
    r.ops += acc.ops;
    r.answers += acc.answers;
    r.errors += acc.errors;
    r.checks += acc.checks;
    r.mismatches += acc.mismatches;
    r.answer_digest ^= acc.digest;
    for (size_t i = 0; i < kTemplateCount; ++i) {
      r.template_ops[i] += acc.template_ops[i];
    }
    lag_sum += acc.lag_sum;
    if (acc.lag_max > r.max_snapshot_lag) r.max_snapshot_lag = acc.lag_max;
  }
  std::sort(lat.begin(), lat.end());
  double sum = 0;
  for (const uint32_t v : lat) sum += v;
  r.mean_us = lat.empty() ? 0 : sum / static_cast<double>(lat.size());
  r.p50_us = Percentile(lat, 0.50);
  r.p95_us = Percentile(lat, 0.95);
  r.p99_us = Percentile(lat, 0.99);
  r.max_us = lat.empty() ? 0 : lat.back();
  r.elapsed_seconds = elapsed;
  r.qps = elapsed > 0 ? static_cast<double>(r.ops) / elapsed : 0;
  r.mean_snapshot_lag =
      r.ops > 0 ? static_cast<double>(lag_sum) / static_cast<double>(r.ops)
                : 0;

  const DatabaseStats after = db_->CollectStats();
  r.snapshot_nf_builds =
      after.snapshot_nf_builds.load(std::memory_order_relaxed) -
      before.snapshot_nf_builds.load(std::memory_order_relaxed);
  r.snapshot_publishes =
      after.snapshot_publishes.load(std::memory_order_relaxed) -
      before.snapshot_publishes.load(std::memory_order_relaxed);
  r.final_triples = db_->size();
  return r;
}

}  // namespace swdb
