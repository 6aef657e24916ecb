#ifndef SWDB_QUERY_DATABASE_H_
#define SWDB_QUERY_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "inference/closure.h"
#include "query/answer.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/status.h"

namespace swdb {

struct UnionQuery;

/// Cross-build lean-cache counters, always zero: nf(D) is built once per
/// closure version, so no refutation is shared between builds. Kept
/// because servebench still reads them.
struct LeanCacheStats {
  uint64_t cross_hits = 0;
  uint64_t misses = 0;
};

/// Materialized-view counters, always zero: every read is answered by
/// the matcher, and no view layer exists. Kept because servebench still
/// reads them.
struct ViewStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t installs = 0;
  uint64_t patches = 0;
  uint64_t revalidations = 0;
  uint64_t invalidations = 0;
};

/// Observability counters for the incremental maintenance engine. All
/// counters are cumulative since construction (or ResetStats).
///
/// The fields are relaxed atomics so the writer thread can keep counting
/// while reader threads inspect stats() — each counter is individually
/// coherent (copies taken mid-mutation may mix counters from adjacent
/// operations, which is fine for observability data).
struct DatabaseStats {
  std::atomic<uint64_t> inserts{0};  ///< triples actually added
  std::atomic<uint64_t> erases{0};   ///< triples actually removed
  std::atomic<uint64_t> batches{0};  ///< Apply() calls

  /// From-scratch fixpoints: one at construction plus one per bulk load.
  std::atomic<uint64_t> closure_full_builds{0};
  std::atomic<uint64_t> closure_delta_updates{0};  ///< semi-naive inserts
  std::atomic<uint64_t> closure_erase_updates{0};  ///< DRed deletions
  std::atomic<uint64_t> closure_delta_derived{0};  ///< delta-derived triples
  std::atomic<uint64_t> closure_overdeleted{0};  ///< DRed suspects
  std::atomic<uint64_t> closure_rederived{0};    ///< DRed re-derivations

  /// nf(D) builds: how many times some snapshot's lazy call_once slot
  /// actually ran the core computation. Snapshots of one closure version
  /// share one slot, so this rises at most once per closure version no
  /// matter how many readers (the writer included) race normalized().
  std::atomic<uint64_t> snapshot_nf_builds{0};

  /// Snapshot publications and their COW cost: per publish, how many
  /// spine leaves of the published data+closure graphs were shared with
  /// the previously published snapshot vs newly materialized. A
  /// publication after a k-triple delta copies O(k) leaves — these two
  /// counters are the direct measure.
  std::atomic<uint64_t> snapshot_publishes{0};
  std::atomic<uint64_t> publish_leaves_shared{0};
  std::atomic<uint64_t> publish_leaves_copied{0};

  /// Storage/scan counters of the data graph and the maintained closure
  /// graph. Plain snapshots, filled by Database::CollectStats — the live
  /// stats() reference leaves them zeroed.
  GraphStats data_graph;
  GraphStats closure_graph;
  /// Interning observability (shard load, per-kind counts); plain
  /// snapshot filled by CollectStats.
  DictionaryStats dictionary;
  /// Always zero (see LeanCacheStats).
  LeanCacheStats lean_cache;
  /// Always zero (see ViewStats).
  ViewStats views;

  /// Queries served through PreAnswerBatch (writer and snapshots).
  std::atomic<uint64_t> batch_queries{0};
  /// Always zero (a batch evaluates every slot; there is no batch trie
  /// or view cache). Kept because servebench still reads them.
  std::atomic<uint64_t> batch_deduped{0};
  std::atomic<uint64_t> batch_trie_groups{0};
  std::atomic<uint64_t> batch_prefix_hits{0};
  std::atomic<uint64_t> batch_view_hits{0};

  DatabaseStats() = default;
  DatabaseStats(const DatabaseStats& o) { *this = o; }
  DatabaseStats& operator=(const DatabaseStats& o) {
    inserts = o.inserts.load(std::memory_order_relaxed);
    erases = o.erases.load(std::memory_order_relaxed);
    batches = o.batches.load(std::memory_order_relaxed);
    closure_full_builds =
        o.closure_full_builds.load(std::memory_order_relaxed);
    closure_delta_updates =
        o.closure_delta_updates.load(std::memory_order_relaxed);
    closure_erase_updates =
        o.closure_erase_updates.load(std::memory_order_relaxed);
    closure_delta_derived =
        o.closure_delta_derived.load(std::memory_order_relaxed);
    closure_overdeleted =
        o.closure_overdeleted.load(std::memory_order_relaxed);
    closure_rederived = o.closure_rederived.load(std::memory_order_relaxed);
    snapshot_nf_builds =
        o.snapshot_nf_builds.load(std::memory_order_relaxed);
    snapshot_publishes =
        o.snapshot_publishes.load(std::memory_order_relaxed);
    publish_leaves_shared =
        o.publish_leaves_shared.load(std::memory_order_relaxed);
    publish_leaves_copied =
        o.publish_leaves_copied.load(std::memory_order_relaxed);
    batch_queries = o.batch_queries.load(std::memory_order_relaxed);
    data_graph = o.data_graph;
    closure_graph = o.closure_graph;
    dictionary = o.dictionary;
    lean_cache = o.lean_cache;
    views = o.views;
    return *this;
  }
};

/// A group of mutations applied atomically by Database::Apply, so the
/// maintenance engine runs once per batch (one DRed pass for the
/// erases, one semi-naive pass for the inserts) instead of once per
/// triple.
class MutationBatch {
 public:
  MutationBatch& Insert(const Triple& t) {
    inserts_.push_back(t);
    return *this;
  }
  MutationBatch& Erase(const Triple& t) {
    erases_.push_back(t);
    return *this;
  }
  bool empty() const { return inserts_.empty() && erases_.empty(); }
  size_t size() const { return inserts_.size() + erases_.size(); }

 private:
  friend class Database;
  std::vector<Triple> inserts_;
  std::vector<Triple> erases_;
};

/// An immutable, epoch-tagged view of a Database — the one read path:
/// reader threads pin snapshots, and the writer's own reads go through
/// its latest published one. A snapshot owns shared_ptr copies of the
/// data graph and its RDFS closure (published with warmed indexes, so
/// every read is const-clean), plus the lazily built normal form,
/// guarded by std::call_once.
///
/// Threading: all methods are safe to call from any number of threads
/// concurrently, premise-bearing PreAnswer included (the dictionary and
/// the Skolem cache synchronize themselves), and the snapshot stays
/// valid and unchanged while the owning Database keeps mutating —
/// readers never observe a partial mutation. The owning Database (whose
/// evaluator the snapshot borrows) must outlive every snapshot it
/// handed out.
class DatabaseSnapshot {
 public:
  /// The data-graph epoch this snapshot reflects.
  uint64_t epoch() const { return epoch_; }
  /// The data graph D at epoch().
  const Graph& data() const { return *data_; }
  /// RDFS-cl(D), maintained by the writer, frozen here.
  const Graph& closure() const { return *closure_; }
  /// nf(D) = core(cl(D)) (or cl(D) under use_closure_only), built on
  /// first use by exactly one thread (call_once; every concurrent
  /// reader observes the one built graph). Consecutive snapshots of the
  /// same closure version share the slot, so an insert that derives
  /// nothing new costs no rebuild.
  const Graph& normalized() const;

  /// t ∈ RDFS-cl(D): one lookup in the frozen closure.
  bool EntailsTriple(const Triple& t) const { return closure_->Contains(t); }
  /// RDFS entailment D ⊨ q against the frozen closure, under the
  /// database's match options: kLimitExceeded when the step budget runs
  /// out.
  Result<bool> Entails(const Graph& q) const;
  /// Single answers of a query (§4.1). Invalid queries are rejected
  /// before any other work. A premise-free query is matched against
  /// this snapshot's nf (QueryEvaluator::PreAnswerPinned, which pins
  /// normalized() only for a valid query); a premise-bearing one
  /// normalizes this snapshot's D + P.
  Result<std::vector<Graph>> PreAnswer(const Query& q) const;
  /// Single answers for a whole batch of queries against this one
  /// snapshot: PreAnswer on each slot, in slot order (same answers, same
  /// Skolem mints, same step budget per slot as the sequential calls).
  std::vector<Result<std::vector<Graph>>> PreAnswerBatch(
      const std::vector<Query>& queries) const;

 private:
  friend class Database;
  // The lazily built nf(D), shared by every snapshot of one closure
  // version.
  struct NfSlot {
    std::once_flag once;
    std::optional<Graph> graph;
  };

  DatabaseSnapshot(uint64_t epoch, std::shared_ptr<const Graph> data,
                   std::shared_ptr<const Graph> closure,
                   std::shared_ptr<NfSlot> nf, QueryEvaluator* evaluator,
                   EvalOptions options, DatabaseStats* stats)
      : epoch_(epoch),
        data_(std::move(data)),
        closure_(std::move(closure)),
        nf_(std::move(nf)),
        evaluator_(evaluator),
        options_(options),
        stats_(stats) {}

  uint64_t epoch_;
  std::shared_ptr<const Graph> data_;
  std::shared_ptr<const Graph> closure_;
  std::shared_ptr<NfSlot> nf_;
  QueryEvaluator* evaluator_;
  EvalOptions options_;
  DatabaseStats* stats_;   // the owning Database's counters
};

/// A mutable RDF database with a *maintained* RDFS closure — the
/// convenience facade a downstream user works against.
///
/// RDFS-cl(D) is built at construction (over the empty graph) and from
/// then on maintained by every mutation: inserts extend it by
/// semi-naive delta propagation (the monotone-fixpoint reading of
/// Def. 2.7), deletions run a DRed over-delete/re-derive pass. A batch
/// whose new triples outnumber half the closure rebuilds it from the
/// data instead (a batched refixpoint beats replaying a comparable
/// delta). nf(D) = core(cl(D)) (§4.1, Note 4.4) is built lazily per
/// closure version by the snapshots.
///
/// One write path, one read path. Insert, Erase, InsertGraph,
/// InsertText and Apply all run one locked apply step (erases, DRed,
/// inserts, delta pass) that ends by publishing a new snapshot whenever
/// the data changed. Every read — Normalized, Entails, EntailsTriple,
/// PreAnswer, PreAnswerBatch and the answer helpers built on them — goes
/// through the latest published Snapshot(), so the writer and every
/// reader share one read pipeline and one nf build per closure version.
///
/// Threading model (single writer, many readers): mutators serialize on
/// an internal lock, and Snapshot() copies the published pointer under a
/// leaf mutex, so any thread may take snapshots and answer through them
/// while another mutates. The accessors that hand out the writer's own
/// state — graph, size, epoch, Closure, Normalized (its reference lives
/// until the next mutation), CollectStats and ResetStats — must stay on
/// the thread that mutates.
class Database {
 public:
  struct ApplyResult {
    size_t inserted = 0;  ///< batch inserts that were new
    size_t erased = 0;    ///< batch erases that were present
  };

  /// Builds the closure of the empty graph and publishes the first
  /// snapshot. The dictionary must outlive the database.
  explicit Database(Dictionary* dict, EvalOptions options = {});

  Dictionary* dict() { return dict_; }
  const Graph& graph() const { return data_; }
  size_t size() const { return data_.size(); }
  /// The data graph's mutation epoch (see Graph::epoch).
  uint64_t epoch() const { return data_.epoch(); }

  /// Inserts a triple; returns true if new.
  bool Insert(const Triple& t);
  /// Inserts all triples of a graph as one apply step (a bulk load
  /// rebuilds the closure — see class comment).
  void InsertGraph(const Graph& g);
  /// Parses and inserts N-Triples-style text.
  Status InsertText(std::string_view text);
  /// Removes a triple; returns true if it was present.
  bool Erase(const Triple& t);
  /// Applies a batch of erases then inserts as one maintenance step.
  ApplyResult Apply(const MutationBatch& batch);

  /// RDFS-cl(D), maintained. The reference stays valid across updates.
  const Graph& Closure() const { return closure_.closure(); }

  /// nf(D) (or its closure under use_closure_only): the current
  /// snapshot's normalized(), built once per closure version. The
  /// reference stays valid until the next mutation.
  const Graph& Normalized();

  /// RDFS entailment D ⊨ q (Thm 2.8): the current snapshot's Entails.
  Result<bool> Entails(const Graph& q);
  /// t ∈ RDFS-cl(D): the current snapshot's EntailsTriple.
  bool EntailsTriple(const Triple& t);

  /// Single answers of a query (§4.1): the current snapshot's PreAnswer.
  Result<std::vector<Graph>> PreAnswer(const Query& q);
  /// Pre-answers of a union query: one PreAnswerBatch over the branches,
  /// combined by CombineBranches (query/union_query.h) — bit-identical
  /// to evaluating the branches one by one.
  Result<std::vector<Graph>> PreAnswer(const UnionQuery& q);
  /// Single answers for a whole batch of queries: the current
  /// snapshot's PreAnswerBatch.
  std::vector<Result<std::vector<Graph>>> PreAnswerBatch(
      const std::vector<Query>& queries);
  /// ans∪(q, D): the union of PreAnswer(q).
  Result<Graph> AnswerUnion(const Query& q);
  /// ans∪ of a union query.
  Result<Graph> AnswerUnion(const UnionQuery& q);
  /// ans+(q, D): the merge of PreAnswer(q).
  Result<Graph> AnswerMerge(const Query& q);
  /// Parses the query text and evaluates under union semantics.
  Result<Graph> ExecuteQuery(std::string_view query_text);

  /// The latest published immutable snapshot: one shared_ptr copy under
  /// a leaf mutex, so readers never wait behind closure maintenance.
  /// Each mutation publishes before it returns, so a snapshot taken
  /// after a mutation completes reflects at least that mutation.
  std::shared_ptr<const DatabaseSnapshot> Snapshot();

  /// The database's evaluator — the Skolem-function identity every
  /// answer path shares (Prop. 4.5). Tests use it to cross-check
  /// snapshot reads against from-scratch evaluation with bit-identical
  /// minted blanks.
  QueryEvaluator* evaluator() { return &evaluator_; }

  /// Maintenance-engine counters.
  const DatabaseStats& stats() const { return stats_; }
  /// stats() plus per-graph storage/scan snapshots (data_graph and
  /// closure_graph).
  DatabaseStats CollectStats() const;
  void ResetStats() { stats_ = DatabaseStats(); }

 private:
  // The one write path: takes write_mu_, erases then runs DRed, inserts
  // then runs the delta pass (or the bulk rebuild), and republishes if
  // the data changed.
  ApplyResult Commit(MutationBatch batch);
  // Builds a snapshot of the current state and publishes it under
  // snapshot_mu_. Caller holds write_mu_ (or is the constructor).
  void PublishSnapshotLocked();

  Dictionary* dict_;
  Graph data_;
  QueryEvaluator evaluator_;
  EvalOptions options_;

  // RDFS-cl(data_) and the data epoch it reflects, checked at every
  // publication.
  IncrementalClosure closure_;
  uint64_t closure_epoch_ = 0;

  // The nf slot of the latest publication and the closure version it
  // belongs to: the next publication at the same version carries it
  // forward. A bulk rebuild restarts the version counter, so it drops
  // the slot. Guarded by write_mu_.
  std::shared_ptr<DatabaseSnapshot::NfSlot> nf_slot_;
  uint64_t nf_slot_version_ = 0;

  // Mutators hold write_mu_ end to end and republish before releasing
  // it. snapshot_ is guarded by the leaf mutex snapshot_mu_, held only
  // for the pointer copy / swap — readers never wait behind a
  // maintenance pass. (A leaf mutex instead of
  // std::atomic<std::shared_ptr>: libstdc++ 12's _Sp_atomic unlocks its
  // embedded spinlock with a relaxed RMW, which leaves the _M_ptr
  // accesses formally racy — ThreadSanitizer reports it.)
  // Lock order: write_mu_ before snapshot_mu_ — asserted in debug
  // builds via LockRankScope (util/lock_rank.h) at every acquisition.
  std::mutex write_mu_;
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_;

  DatabaseStats stats_;
};

}  // namespace swdb

#endif  // SWDB_QUERY_DATABASE_H_
