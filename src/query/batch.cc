#include "query/batch.h"

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <utility>

#include "query/view_key.h"

namespace swdb {

namespace {

// One ViewKey equivalence class of the batch: a canonical query, the
// slots that spell it, and everything its evaluation produces.
struct Group {
  ViewKey key;
  CanonicalQuery canon;
  std::vector<size_t> members;  // slot indices, ascending (batch order)
  bool materialize = false;     // advisor promoted the shape
  Materialization materialization;  // filled only when materialize
  std::optional<Result<std::vector<Graph>>> result;
};

// How one slot of the batch resolves.
enum class SlotKind { kError, kPremise, kGroup };
struct Slot {
  SlotKind kind = SlotKind::kError;
  size_t group = 0;  // for kGroup
  Status error = Status::OK();
};

}  // namespace

std::vector<Result<std::vector<Graph>>> PreAnswerBatchImpl(
    const std::vector<Query>& queries, QueryEvaluator* evaluator,
    const std::function<const Graph&()>& normalized,
    const std::function<Result<std::vector<Graph>>(const Query&)>&
        premise_eval,
    const ViewCacheRef& views, const MatchOptions& match,
    BatchStats* stats_out) {
  const size_t n = queries.size();
  BatchStats stats;
  stats.queries = n;

  // Pass 1 — classify slots and group premise-free queries by ViewKey.
  // (Validated bodies contain no blank nodes, so every premise-free
  // valid slot is groupable; head-blank shapes key on their exact
  // spelling and only identical spellings share.)
  std::vector<Slot> slots(n);
  std::vector<Group> groups;
  std::unordered_map<ViewKey, size_t, ViewKeyHash> group_of;
  for (size_t i = 0; i < n; ++i) {
    Status valid = queries[i].Validate();
    if (!valid.ok()) {
      slots[i] = Slot{SlotKind::kError, 0, valid};
      continue;
    }
    if (!queries[i].premise.empty()) {
      slots[i] = Slot{SlotKind::kPremise, 0, Status::OK()};
      ++stats.premise_fallthroughs;
      continue;
    }
    CanonicalQuery canon;
    ViewKey key = MakeViewKey(queries[i], &canon);
    auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      Group grp;
      grp.key = std::move(key);
      grp.canon = std::move(canon);
      groups.push_back(std::move(grp));
    }
    groups[it->second].members.push_back(i);
    slots[i] = Slot{SlotKind::kGroup, it->second, Status::OK()};
  }
  for (const Group& grp : groups) stats.deduped += grp.members.size() - 1;

  // Pass 2 — probe the view cache before touching the normalized graph:
  // a fully-hit batch (the hot-serving case) skips even a snapshot's
  // lazy nf build.
  size_t unresolved = 0;
  if (views.cache != nullptr) {
    for (Group& grp : groups) {
      if (std::optional<std::vector<Graph>> hit =
              views.cache->Lookup(grp.key, views.version, views.erase_stamp)) {
        grp.result = *std::move(hit);
        ++stats.view_hits;
      }
    }
  }
  for (const Group& grp : groups) unresolved += grp.result ? 0 : 1;

  // Pass 3 — on any miss, pin the normalized graph once, bring the
  // cache up to it (no-op when it is already there), and re-probe;
  // survivors consult the promotion advisor per spelling, exactly as
  // many times as the sequential run would.
  const Graph* nf = nullptr;
  if (unresolved > 0) {
    nf = &normalized();
    if (views.cache != nullptr) {
      views.cache->Maintain(*nf, views.version, views.erase_stamp, evaluator,
                            match);
      for (Group& grp : groups) {
        if (grp.result) continue;
        if (std::optional<std::vector<Graph>> hit = views.cache->Lookup(
                grp.key, views.version, views.erase_stamp)) {
          grp.result = *std::move(hit);
          ++stats.view_hits;
          continue;
        }
        for (size_t member = 0; member < grp.members.size(); ++member) {
          grp.materialize |= views.cache->RecordMiss(grp.key);
        }
      }
    }
  }

  // Pass 4 — evaluate in slot order on the calling thread: each premise
  // slot through `premise_eval`, each unresolved group at its first
  // member through the exact call the sequential PreAnswer makes. Slot
  // order reproduces the sequential mint sequence (head-blank groups
  // and premise slots both mint; renamed groups mint nothing).
  std::vector<std::optional<Result<std::vector<Graph>>>> premise_results(n);
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].kind == SlotKind::kPremise) {
      premise_results[i] = premise_eval(queries[i]);
      continue;
    }
    if (slots[i].kind != SlotKind::kGroup) continue;
    Group& grp = groups[slots[i].group];
    if (grp.result || grp.members.front() != i) continue;
    grp.result = evaluator->PreAnswerPrenormalized(
        grp.canon.query, *nf,
        grp.materialize ? &grp.materialization : nullptr);
  }

  // Pass 5 — install promoted materializations (deterministic group
  // order) and count exhausted groups.
  for (Group& grp : groups) {
    if (grp.result && !grp.result->ok()) ++stats.limit_exceeded;
    if (views.cache != nullptr && grp.materialize && grp.result &&
        grp.result->ok()) {
      views.cache->Install(grp.key, grp.canon.query,
                           std::move(grp.materialization), **grp.result,
                           views.version, views.erase_stamp);
    }
  }

  // Pass 6 — replay per slot. Graph copies share spine leaves, so
  // fanning one group's answers into many slots is pointer-cheap.
  std::vector<Result<std::vector<Graph>>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (slots[i].kind) {
      case SlotKind::kError:
        out.emplace_back(slots[i].error);
        break;
      case SlotKind::kPremise:
        out.emplace_back(*std::move(premise_results[i]));
        break;
      case SlotKind::kGroup:
        out.emplace_back(*groups[slots[i].group].result);
        break;
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

}  // namespace swdb
