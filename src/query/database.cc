#include "query/database.h"

#include "inference/closure.h"
#include "normal/core.h"
#include "parser/text.h"
#include "query/union_query.h"
#include "util/check.h"
#include "util/lock_rank.h"

namespace swdb {

Database::Database(Dictionary* dict, EvalOptions options)
    : dict_(dict),
      evaluator_(dict, options),
      options_(options),
      closure_(data_) {
  ++stats_.closure_full_builds;
  // No other thread can see the database yet.
  PublishSnapshotLocked();
}

bool Database::Insert(const Triple& t) {
  return Commit(MutationBatch().Insert(t)).inserted != 0;
}

void Database::InsertGraph(const Graph& g) {
  MutationBatch batch;
  batch.inserts_ = g.triples();
  Commit(std::move(batch));
}

Status Database::InsertText(std::string_view text) {
  Result<Graph> g = ParseGraph(text, dict_);
  if (!g.ok()) return g.status();
  InsertGraph(*g);
  return Status::OK();
}

bool Database::Erase(const Triple& t) {
  return Commit(MutationBatch().Erase(t)).erased != 0;
}

Database::ApplyResult Database::Apply(const MutationBatch& batch) {
  ++stats_.batches;
  return Commit(batch);
}

Database::ApplyResult Database::Commit(MutationBatch batch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  const uint64_t epoch = data_.epoch();
  // The bulk rule compares against the closure the batch started from.
  const size_t closure_size = closure_.closure().size();
  ApplyResult result;

  // Each side as the sorted set of the triples that change data_.
  auto effective = [this](std::vector<Triple>& ts, bool present) -> auto& {
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    std::erase_if(ts, [&](const Triple& t) {
      return data_.Contains(t) != present;
    });
    return ts;
  };
  const std::vector<Triple>& erased = effective(batch.erases_, true);
  result.erased = erased.size();
  if (!erased.empty()) {
    data_.Apply(erased, {});
    stats_.erases += erased.size();
    ClosureDeltaStats ds;
    closure_.EraseDelta(data_, Graph::FromSorted(erased.data(), erased.size()),
                        &ds);
    closure_epoch_ = data_.epoch();
    ++stats_.closure_erase_updates;
    stats_.closure_overdeleted += ds.overdeleted;
    stats_.closure_rederived += ds.rederived;
  }

  // Only the actually-new part: maintenance propagates from the real
  // delta.
  const std::vector<Triple>& inserted = effective(batch.inserts_, false);
  result.inserted = inserted.size();
  stats_.inserts += inserted.size();
  data_.Apply({}, inserted);
  if (inserted.size() > closure_size / 2) {
    // Bulk load: one batched refixpoint beats replaying a delta
    // comparable to the closure itself. Warm data_ first, so the
    // closure's copy of it shares the built permutations. The rebuilt
    // closure restarts its version counter, so its nf slot is new.
    data_.WarmIndexes();
    closure_ = IncrementalClosure(data_);
    closure_epoch_ = data_.epoch();
    nf_slot_.reset();
    ++stats_.closure_full_builds;
  } else if (!inserted.empty()) {
    ClosureDeltaStats ds;
    closure_.InsertDelta(Graph::FromSorted(inserted.data(), inserted.size()),
                         &ds);
    closure_epoch_ = data_.epoch();
    ++stats_.closure_delta_updates;
    stats_.closure_delta_derived += ds.derived;
  }
  if (data_.epoch() != epoch) PublishSnapshotLocked();
  return result;
}

DatabaseStats Database::CollectStats() const {
  DatabaseStats out = stats_;
  out.data_graph = data_.Stats();
  out.closure_graph = closure_.closure().Stats();
  out.dictionary = dict_->Stats();
  return out;
}

const Graph& Database::Normalized() {
  // snapshot_ keeps the snapshot (and its nf) alive until the next
  // mutation republishes.
  return Snapshot()->normalized();
}

Result<bool> Database::Entails(const Graph& q) {
  return Snapshot()->Entails(q);
}

bool Database::EntailsTriple(const Triple& t) {
  return Snapshot()->EntailsTriple(t);
}

Result<std::vector<Graph>> Database::PreAnswer(const Query& q) {
  return Snapshot()->PreAnswer(q);
}

std::vector<Result<std::vector<Graph>>> Database::PreAnswerBatch(
    const std::vector<Query>& queries) {
  return Snapshot()->PreAnswerBatch(queries);
}

Result<std::vector<Graph>> Database::PreAnswer(const UnionQuery& q) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  return CombineBranches(PreAnswerBatch(q.branches));
}

Result<Graph> Database::AnswerUnion(const Query& q) {
  return UnionOfAnswers(PreAnswer(q));
}

Result<Graph> Database::AnswerUnion(const UnionQuery& q) {
  return UnionOfAnswers(PreAnswer(q));
}

Result<Graph> Database::AnswerMerge(const Query& q) {
  return MergeOfAnswers(PreAnswer(q), dict_);
}

Result<Graph> Database::ExecuteQuery(std::string_view query_text) {
  Result<Query> q = ParseQuery(query_text, dict_);
  if (!q.ok()) return q.status();
  return AnswerUnion(*q);
}

std::shared_ptr<const DatabaseSnapshot> Database::Snapshot() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  LockRankScope rank(kLockRankSnapshot);
  return snapshot_;
}

void Database::PublishSnapshotLocked() {
  SWDB_CHECK(closure_epoch_ == data_.epoch(),
             "maintained closure out of sync with the data graph");
  // All the expensive work — graph copies, the index warm-up — happens
  // before snapshot_mu_ is touched; readers only ever wait for the
  // pointer swap below.
  // Warm the *writer's* graphs first, then copy: a Graph copy shares
  // spine leaf pointers, so the copy inherits already-built indexes and
  // its own WarmIndexes below is a no-op. Warming the copy instead
  // would rebuild the permutations per publication — O(n), not O(k) —
  // and no leaf would ever be shared with the previous snapshot.
  data_.WarmIndexes();
  closure_.closure().WarmIndexes();
  auto data = std::make_shared<Graph>(data_);
  auto cl = std::make_shared<Graph>(closure_.closure());
  // Readers share these const graphs; every access is const-clean.
  data->WarmIndexes();
  cl->WarmIndexes();
  // nf depends on the closure alone: a publication that left the closure
  // unchanged shares the previous snapshot's (possibly built) nf.
  const uint64_t version = closure_.version();
  if (nf_slot_ == nullptr || nf_slot_version_ != version) {
    nf_slot_ = std::make_shared<DatabaseSnapshot::NfSlot>();
    nf_slot_version_ = version;
  }
  std::shared_ptr<const DatabaseSnapshot> snap(new DatabaseSnapshot(
      data_.epoch(), std::move(data), std::move(cl), nf_slot_, &evaluator_,
      options_, &stats_));
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  LockRankScope snap_rank(kLockRankSnapshot);
  // COW observability: compare the outgoing snapshot's leaves against
  // the one it replaces (pointer identity — the delta-proportionality
  // measure the publication path is built around).
  if (snapshot_ != nullptr) {
    SpineSharing s = snap->data().SharedLeaves(snapshot_->data());
    const SpineSharing c = snap->closure().SharedLeaves(snapshot_->closure());
    s.shared += c.shared;
    s.total += c.total;
    stats_.publish_leaves_shared.fetch_add(s.shared,
                                           std::memory_order_relaxed);
    stats_.publish_leaves_copied.fetch_add(s.total - s.shared,
                                           std::memory_order_relaxed);
  }
  stats_.snapshot_publishes.fetch_add(1, std::memory_order_relaxed);
  snapshot_ = std::move(snap);
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot

const Graph& DatabaseSnapshot::normalized() const {
  if (options_.use_closure_only) return *closure_;
  std::call_once(nf_->once, [this] {
    nf_->graph.emplace(Core(*closure_));
    nf_->graph->WarmIndexes();
    ++stats_->snapshot_nf_builds;
  });
  return *nf_->graph;
}

Result<bool> DatabaseSnapshot::Entails(const Graph& q) const {
  return TryHasHomomorphism(q, *closure_, options_.match);
}

Result<std::vector<Graph>> DatabaseSnapshot::PreAnswer(const Query& q) const {
  if (!q.premise.empty()) return evaluator_->PreAnswer(q, *data_);
  // nf is pinned only for a valid query.
  return evaluator_->PreAnswerPinned(
      q, [this]() -> const Graph& { return normalized(); });
}

std::vector<Result<std::vector<Graph>>> DatabaseSnapshot::PreAnswerBatch(
    const std::vector<Query>& queries) const {
  std::vector<Result<std::vector<Graph>>> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(PreAnswer(q));
  stats_->batch_queries.fetch_add(queries.size(), std::memory_order_relaxed);
  return out;
}

}  // namespace swdb
