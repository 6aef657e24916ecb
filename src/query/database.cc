#include "query/database.h"

#include "inference/closure.h"
#include "normal/core.h"
#include "parser/text.h"
#include "query/union_query.h"
#include "rdf/map.h"
#include "util/check.h"
#include "util/lock_rank.h"

namespace swdb {

Database::Database(Dictionary* dict, EvalOptions options)
    : dict_(dict), evaluator_(dict, options), options_(options) {}

bool Database::Insert(const Triple& t) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Copy first: t may alias data_'s own storage (e.g. a reference
  // obtained from graph()), which the mutation below shifts.
  Triple copy = t;
  if (!data_.Insert(copy)) return false;
  ++stats_.inserts;
  MaintainInsert(Graph({copy}));
  if (snapshots_on_) PublishSnapshotLocked();
  return true;
}

void Database::InsertGraph(const Graph& g) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Collect the actually-new part first: maintenance propagates from the
  // real delta, and an all-duplicates insert must not invalidate
  // anything.
  std::vector<Triple> fresh;
  for (const Triple& t : g) {
    if (!data_.Contains(t)) fresh.push_back(t);
  }
  if (fresh.empty()) return;
  stats_.inserts += fresh.size();
  Graph delta(std::move(fresh));
  data_.InsertAll(delta);
  if (closure_.has_value() &&
      delta.size() > closure_->closure().size() / 2) {
    // Bulk load: replaying a delta comparable to the closure itself is
    // slower than one batched refixpoint on next use.
    closure_.reset();
    nf_slot_.reset();
    ++stats_.closure_bulk_resets;
  } else {
    MaintainInsert(delta);
  }
  if (snapshots_on_) PublishSnapshotLocked();
}

Status Database::InsertText(std::string_view text) {
  Result<Graph> g = ParseGraph(text, dict_);
  if (!g.ok()) return g.status();
  InsertGraph(*g);
  return Status::OK();
}

bool Database::Erase(const Triple& t) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  // Copy first: erasing a triple referenced out of graph() is the
  // natural call pattern, and data_.Erase shifts the storage t may
  // alias — the maintenance pass below must see the original value.
  Triple copy = t;
  if (!data_.Erase(copy)) return false;
  ++stats_.erases;
  MaintainErase(Graph({copy}));
  if (snapshots_on_) PublishSnapshotLocked();
  return true;
}

Database::ApplyResult Database::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  ++stats_.batches;
  ApplyResult result;
  std::vector<Triple> erased;
  for (const Triple& t : batch.erases_) {
    if (data_.Erase(t)) erased.push_back(t);
  }
  result.erased = erased.size();
  stats_.erases += erased.size();
  if (!erased.empty()) MaintainErase(Graph(std::move(erased)));

  std::vector<Triple> inserted;
  for (const Triple& t : batch.inserts_) {
    if (data_.Insert(t)) inserted.push_back(t);
  }
  result.inserted = inserted.size();
  stats_.inserts += inserted.size();
  if (!inserted.empty()) MaintainInsert(Graph(std::move(inserted)));
  if (snapshots_on_) PublishSnapshotLocked();
  return result;
}

void Database::MaintainInsert(const Graph& delta) {
  if (!closure_.has_value()) return;  // not materialized yet: stay lazy
  ClosureDeltaStats ds;
  closure_->InsertDelta(delta, &ds);
  closure_epoch_ = data_.epoch();
  ++stats_.closure_delta_updates;
  stats_.closure_delta_derived += ds.derived;
}

void Database::MaintainErase(const Graph& deleted) {
  if (!closure_.has_value()) return;
  ClosureDeltaStats ds;
  closure_->EraseDelta(data_, deleted, &ds);
  closure_epoch_ = data_.epoch();
  ++stats_.closure_erase_updates;
  stats_.closure_overdeleted += ds.overdeleted;
  stats_.closure_rederived += ds.rederived;
}

DatabaseStats Database::CollectStats() const {
  DatabaseStats out = stats_;
  out.data_graph = data_.Stats();
  if (closure_.has_value()) out.closure_graph = closure_->closure().Stats();
  out.dictionary = dict_->Stats();
  return out;
}

const Graph& Database::Closure() {
  if (!closure_.has_value()) {
    closure_.emplace(data_);
    closure_epoch_ = data_.epoch();
    ++stats_.closure_full_builds;
  } else {
    SWDB_CHECK(closure_epoch_ == data_.epoch(),
               "maintained closure out of sync with the data graph");
    ++stats_.closure_cache_hits;
  }
  return closure_->closure();
}

const Graph& Database::Normalized() {
  // snapshot_ keeps the snapshot (and its nf) alive until the next
  // mutation republishes.
  return Snapshot()->normalized();
}

Result<bool> Database::Entails(const Graph& q) {
  return TryHasHomomorphism(q, Closure(), options_.match);
}

bool Database::EntailsTriple(const Triple& t) {
  if (!membership_.has_value() || !membership_->InSync()) {
    if (membership_.has_value()) {
      membership_->Refresh();
    } else {
      membership_.emplace(data_);
    }
    ++stats_.membership_builds;
  }
  ++stats_.membership_queries;
  return membership_->Contains(t);
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

namespace {

// ans∪: the union of a pre-answer list.
Result<Graph> UnionOf(Result<std::vector<Graph>> pre) {
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) out.InsertAll(answer);
  return out;
}

}  // namespace

Result<Graph> Database::AnswerUnion(const Query& q) {
  return UnionOf(PreAnswer(q));
}

Result<Graph> Database::AnswerUnion(const UnionQuery& q) {
  return UnionOf(PreAnswer(q));
}

Result<Graph> Database::AnswerMerge(const Query& q) {
  Result<std::vector<Graph>> pre = PreAnswer(q);
  if (!pre.ok()) return pre.status();
  Graph out;
  for (const Graph& answer : *pre) {
    out.InsertAll(FreshBlankCopy(answer, dict_));
  }
  return out;
}

Result<Graph> Database::ExecuteQuery(std::string_view query_text) {
  Result<Query> q = ParseQuery(query_text, dict_);
  if (!q.ok()) return q.status();
  return AnswerUnion(*q);
}

std::shared_ptr<const DatabaseSnapshot> Database::Snapshot() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    LockRankScope rank(kLockRankSnapshot);
    if (snapshot_ != nullptr) return snapshot_;
  }
  // First call: build and publish under the writer lock. Note this may
  // run the closure fixpoint; if readers start cold, either the writer
  // should take the first snapshot, or this call must not race with
  // writer-thread cache methods (Closure/Normalized/...), which do not
  // take the lock.
  std::lock_guard<std::mutex> lock(write_mu_);
  LockRankScope rank(kLockRankWrite);
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    LockRankScope snap_rank(kLockRankSnapshot);
    if (snapshot_ != nullptr) return snapshot_;
    snapshots_on_ = true;
  }
  PublishSnapshotLocked();
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  LockRankScope snap_rank(kLockRankSnapshot);
  return snapshot_;
}

void Database::PublishSnapshotLocked() {
  // All the expensive work — graph copies, the maintained closure, the
  // index warm-up — happens before snapshot_mu_ is touched; readers
  // only ever wait for the pointer swap below.
  // Warm the *writer's* graphs first, then copy: a Graph copy shares
  // spine leaf pointers, so the copy inherits already-built indexes and
  // its own WarmIndexes below is a no-op. Warming the copy instead
  // would rebuild the permutations per publication — O(n), not O(k) —
  // and no leaf would ever be shared with the previous snapshot.
  data_.WarmIndexes();
  const Graph& closure_ref = Closure();
  closure_ref.WarmIndexes();
  auto data = std::make_shared<Graph>(data_);
  auto cl = std::make_shared<Graph>(closure_ref);
  // Readers share these const graphs; every access is const-clean.
  data->WarmIndexes();
  cl->WarmIndexes();
  // nf depends on the closure alone: a publication that left the closure
  // unchanged shares the previous snapshot's (possibly built) nf.
  const uint64_t version = closure_->version();
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

bool DatabaseSnapshot::EntailsTriple(const Triple& t) const {
  std::call_once(membership_once_, [this] { membership_.emplace(*data_); });
  return membership_->Contains(t);
}

Result<bool> DatabaseSnapshot::Entails(const Graph& q) const {
  return TryHasHomomorphism(q, *closure_, options_.match);
}

Result<std::vector<Graph>> DatabaseSnapshot::PreAnswer(const Query& q) const {
  if (!q.premise.empty()) {
    // Premise-bearing: merges into the dictionary — see the class
    // comment for the synchronization requirement.
    return evaluator_->PreAnswer(q, *data_);
  }
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
