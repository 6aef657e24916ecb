// E21 — end-to-end serving: closed-loop readers vs. one writer on an
// sp2b corpus, reported as Google-Benchmark-shaped JSON (so
// scripts/bench_context.py can stamp host context the same way it does
// for every other BENCH_*.json).
//
// Unlike the micro-benches this is a scenario harness, not a timing
// loop, so it writes the JSON itself: one "benchmarks" entry per
// reader count at the big corpus, plus one checked entry (sampled
// cross-validation against from-scratch evaluation on the same
// snapshot) at a smaller corpus. Exits nonzero when any served answer
// mismatched its referee or any request errored — that makes the
// binary usable as a CI smoke gate, not just a number source.
//
// Usage:
//   bench_serving [--triples=1000000] [--readers=1,4,8] [--seconds=5]
//                 [--check_fraction=0]
//                 [--checked_triples=100000] [--checked_fraction=0.25]
//                 [--checked_seconds=3] [--seed=1]

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gen/sp2b.h"
#include "query/database.h"
#include "serve/driver.h"
#include "serve/workload.h"

namespace swdb {
namespace {

struct BenchConfig {
  uint64_t triples = 1'000'000;
  std::vector<int> readers = {1, 4, 8};
  double seconds = 5.0;
  double check_fraction = 0.0;
  uint64_t checked_triples = 100'000;
  double checked_fraction = 0.25;
  double checked_seconds = 3.0;
  uint64_t seed = 1;
};

std::vector<int> ParseIntList(const char* s) {
  std::vector<int> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

bool ParseFlags(int argc, char** argv, BenchConfig* cfg) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
      return nullptr;
    };
    if (const char* v = value("--triples")) {
      cfg->triples = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--readers")) {
      cfg->readers = ParseIntList(v);
    } else if (const char* v = value("--seconds")) {
      cfg->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--check_fraction")) {
      cfg->check_fraction = std::strtod(v, nullptr);
    } else if (const char* v = value("--checked_triples")) {
      cfg->checked_triples = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--checked_fraction")) {
      cfg->checked_fraction = std::strtod(v, nullptr);
    } else if (const char* v = value("--checked_seconds")) {
      cfg->checked_seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--seed")) {
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return false;
    }
  }
  return !cfg->readers.empty();
}

// Fresh corpus + database + mix per run: reader counts are compared on
// identical starting states, not on whatever the previous run's writer
// left behind.
struct Rig {
  std::unique_ptr<Dictionary> dict;
  std::unique_ptr<Sp2bGenerator> gen;
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkloadMix> mix;
};

Rig MakeRig(uint64_t triples, uint64_t seed) {
  Rig rig;
  rig.dict = std::make_unique<Dictionary>();
  Sp2bSpec spec;
  spec.target_triples = triples;
  spec.seed = seed;
  rig.gen = std::make_unique<Sp2bGenerator>(spec, rig.dict.get());
  rig.db = std::make_unique<Database>(rig.dict.get());
  rig.db->InsertGraph(rig.gen->GenerateCorpus());
  rig.mix = std::make_unique<WorkloadMix>(*rig.gen, rig.dict.get());
  return rig;
}

void EmitEntry(const char* name, uint64_t triples, int readers,
               const DriverReport& r, bool* first) {
  if (!*first) std::printf(",\n");
  *first = false;
  std::printf(
      "  {\n"
      "   \"name\": \"%s/%" PRIu64 "/readers:%d\",\n"
      "   \"run_type\": \"aggregate\",\n"
      "   \"iterations\": %" PRIu64 ",\n"
      "   \"real_time\": %.1f,\n"
      "   \"time_unit\": \"us\",\n"
      "   \"qps\": %.1f,\n"
      "   \"mean_us\": %.1f,\n"
      "   \"p50_us\": %.1f,\n"
      "   \"p95_us\": %.1f,\n"
      "   \"p99_us\": %.1f,\n"
      "   \"max_us\": %.1f,\n"
      "   \"ops\": %" PRIu64 ",\n"
      "   \"answers\": %" PRIu64 ",\n"
      "   \"errors\": %" PRIu64 ",\n"
      "   \"checks\": %" PRIu64 ",\n"
      "   \"mismatches\": %" PRIu64 ",\n"
      "   \"mean_snapshot_lag\": %.3f,\n"
      "   \"max_snapshot_lag\": %" PRIu64 ",\n"
      "   \"snapshot_nf_builds\": %" PRIu64 ",\n"
      "   \"snapshot_publishes\": %" PRIu64 ",\n"
      "   \"writer_batches\": %" PRIu64 ",\n"
      "   \"writer_inserts\": %" PRIu64 ",\n"
      "   \"writer_erases\": %" PRIu64 ",\n"
      "   \"final_triples\": %" PRIu64 "\n"
      "  }",
      name, triples, readers, r.ops, r.p50_us, r.qps, r.mean_us, r.p50_us,
      r.p95_us, r.p99_us, r.max_us, r.ops, r.answers, r.errors, r.checks,
      r.mismatches, r.mean_snapshot_lag, r.max_snapshot_lag,
      r.snapshot_nf_builds, r.snapshot_publishes, r.writer_batches,
      r.writer_inserts, r.writer_erases, r.final_triples);
}

int Main(int argc, char** argv) {
  BenchConfig cfg;
  if (!ParseFlags(argc, argv, &cfg)) return 2;

  std::printf(
      "{\n"
      " \"context\": {\n"
      "  \"bench\": \"serving\",\n"
      "  \"triples\": %" PRIu64 ",\n"
      "  \"seconds\": %.1f,\n"
      "  \"check_fraction\": %.3f,\n"
      "  \"checked_triples\": %" PRIu64 ",\n"
      "  \"checked_fraction\": %.3f,\n"
      "  \"seed\": %" PRIu64 "\n"
      " },\n"
      " \"benchmarks\": [\n",
      cfg.triples, cfg.seconds, cfg.check_fraction,
      cfg.checked_triples, cfg.checked_fraction, cfg.seed);

  uint64_t mismatches = 0;
  uint64_t errors = 0;
  bool first = true;

  for (const int readers : cfg.readers) {
    Rig rig = MakeRig(cfg.triples, cfg.seed);
    DriverOptions opts;
    opts.readers = readers;
    opts.seconds = cfg.seconds;
    opts.check_fraction = cfg.check_fraction;
    opts.seed = cfg.seed;
    TrafficDriver driver(rig.db.get(), rig.gen.get(), rig.mix.get(), opts);
    const DriverReport r = driver.Run();
    EmitEntry("Serving", cfg.triples, readers, r, &first);
    std::fflush(stdout);
    mismatches += r.mismatches;
    errors += r.errors;
  }

  if (cfg.checked_triples > 0 && cfg.checked_fraction > 0) {
    Rig rig = MakeRig(cfg.checked_triples, cfg.seed);
    DriverOptions opts;
    opts.readers = 4;
    opts.seconds = cfg.checked_seconds;
    opts.check_fraction = cfg.checked_fraction;
    opts.seed = cfg.seed;
    TrafficDriver driver(rig.db.get(), rig.gen.get(), rig.mix.get(), opts);
    const DriverReport r = driver.Run();
    EmitEntry("ServingChecked", cfg.checked_triples, 4, r, &first);
    mismatches += r.mismatches;
    errors += r.errors;
  }

  std::printf("\n ]\n}\n");
  std::fflush(stdout);

  if (mismatches > 0 || errors > 0) {
    std::fprintf(stderr,
                 "bench_serving: %" PRIu64 " mismatches, %" PRIu64
                 " errors — served answers diverged from their referees\n",
                 mismatches, errors);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace swdb

int main(int argc, char** argv) { return swdb::Main(argc, argv); }
