#ifndef SWDB_SERVE_DRIVER_H_
#define SWDB_SERVE_DRIVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "gen/sp2b.h"
#include "query/database.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace swdb {

/// Closed-loop traffic driver configuration.
struct DriverOptions {
  /// Reader threads in Run(); ignored by RunSingleThreaded.
  int readers = 4;
  /// Wall-clock stop for Run(); ignored when ops_per_reader > 0.
  double seconds = 5.0;
  /// When > 0: each reader (or the single-threaded loop) executes
  /// exactly this many operations instead of running on the clock —
  /// the deterministic-replay configuration.
  uint64_t ops_per_reader = 0;
  /// Fraction of operations cross-validated against a from-scratch
  /// evaluation on the same snapshot (checked mode). 0 disables.
  double check_fraction = 0.0;
  uint64_t seed = 1;

  /// Writer stream: appends sp2b "new publications" (and erases a
  /// fraction of its own earlier inserts) in mutation batches.
  bool writer = true;
  size_t writer_batch_triples = 128;
  double writer_erase_fraction = 0.25;
  /// Pause between writer batches in Run() (microseconds).
  uint32_t writer_pause_micros = 500;
  /// RunSingleThreaded: a writer batch is applied every this many
  /// reader operations (0 disables the interleaved writer).
  uint64_t writer_every = 64;
};

/// Everything one driver run measured. The structural fields (ops,
/// answers, per-template counts, checks, mismatches, answer_digest,
/// writer counters) are deterministic for RunSingleThreaded with a
/// fixed seed; the timing fields never are.
struct DriverReport {
  uint64_t ops = 0;       ///< requests served
  uint64_t answers = 0;   ///< single answers (path ops: nodes) returned
  uint64_t errors = 0;    ///< requests whose evaluation returned an error
  uint64_t checks = 0;      ///< cross-validations performed
  uint64_t mismatches = 0;  ///< cross-validations that disagreed
  std::array<uint64_t, kTemplateCount> template_ops{};
  /// XOR of per-operation answer digests — an order-independent
  /// checksum of every served answer stream.
  uint64_t answer_digest = 0;

  double elapsed_seconds = 0;
  double qps = 0;
  double mean_us = 0, p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  /// Snapshot lag: how many mutation epochs the writer had committed
  /// beyond a reader's pinned snapshot by the time its request
  /// finished (mean over ops / max).
  double mean_snapshot_lag = 0;
  uint64_t max_snapshot_lag = 0;

  uint64_t writer_batches = 0;
  uint64_t writer_inserts = 0;
  uint64_t writer_erases = 0;

  /// Deltas of the owning Database's counters across the run.
  uint64_t snapshot_nf_builds = 0;
  uint64_t snapshot_publishes = 0;

  uint64_t final_triples = 0;  ///< data-graph size when the run ended
};

/// Closed-loop serving harness: N reader threads against one writer
/// thread on one Database (the library's intended deployment shape).
/// Each reader loops: sample a request from the mix, pin the latest
/// snapshot and serve it (PreAnswer / PreAnswerBatch / path evaluation),
/// record the latency of pin + serve — and, at check_fraction and
/// outside the timed window, re-derive the answer from scratch on the
/// very same snapshot and count any disagreement. The
/// writer applies generator-driven mutation batches. Doubles as the
/// repo's largest integration test (checked mode) and its headline
/// benchmark (bench/bench_serving.cc).
class TrafficDriver {
 public:
  /// `gen` supplies the writer stream; it may be null when every
  /// writer option is off. All referees must outlive the driver.
  TrafficDriver(Database* db, Sp2bGenerator* gen, const WorkloadMix* mix,
                DriverOptions options);

  /// Threaded closed loop (options.readers readers + optional writer).
  DriverReport Run();

  /// Deterministic single-threaded loop: ops_per_reader operations with
  /// a writer batch interleaved every writer_every ops, all on the
  /// calling thread. Given the same seed and a freshly built
  /// database/dictionary, two runs produce identical structural report
  /// fields and, when `op_digests` is non-null, identical per-op digest
  /// streams.
  DriverReport RunSingleThreaded(std::vector<uint64_t>* op_digests = nullptr);

 private:
  struct ReaderAccum;

  struct OpResult {
    uint64_t digest = 0;
    uint64_t answers = 0;
    bool error = false;
    bool mismatch = false;
  };

  /// What one request served: the answer list (query, union and
  /// premise requests) or the reached nodes (path requests).
  struct Served {
    Result<std::vector<Graph>> answers = std::vector<Graph>();
    std::vector<Term> nodes;
  };

  /// Serves one request against one pinned snapshot (the timed part).
  Served Serve(const DatabaseSnapshot& snap, const ServingRequest& req) const;
  /// Digests one served request and, when `check`, cross-validates it
  /// against from-scratch evaluation on the same snapshot (see driver.cc
  /// per-kind rules). Runs outside the timed window.
  OpResult Judge(const DatabaseSnapshot& snap, const ServingRequest& req,
                 const Served& served, bool check) const;
  /// One reader loop iteration: sample a request, then time pinning a
  /// snapshot and serving it as one latency sample; digest and check it
  /// after the window.
  void OneIteration(Rng* rng, ReaderAccum* acc,
                    std::vector<uint64_t>* op_digests);
  void ReaderLoop(int tid, ReaderAccum* acc);
  void WriterLoop(DriverReport* writer_side);
  /// One writer mutation batch (shared by WriterLoop and the
  /// single-threaded interleave).
  void WriterBatch(Rng* rng, DriverReport* report);
  DriverReport Finish(std::vector<ReaderAccum>* accums, double elapsed,
                      const DatabaseStats& before, DriverReport writer_side);

  Database* db_;
  Sp2bGenerator* gen_;
  const WorkloadMix* mix_;
  DriverOptions options_;

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> published_epoch_{0};
  // Writer-owned reservoir of its own applied inserts, the erase pool.
  std::vector<Triple> reservoir_;
};

}  // namespace swdb

#endif  // SWDB_SERVE_DRIVER_H_
