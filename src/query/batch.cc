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
  CanonicalQuery canon;
  std::vector<size_t> members;  // slot indices, ascending (batch order)
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
    auto [it, inserted] =
        group_of.try_emplace(MakeViewKey(queries[i], &canon), groups.size());
    if (inserted) {
      Group grp;
      grp.canon = std::move(canon);
      groups.push_back(std::move(grp));
    }
    groups[it->second].members.push_back(i);
    slots[i] = Slot{SlotKind::kGroup, it->second, Status::OK()};
  }
  for (const Group& grp : groups) stats.deduped += grp.members.size() - 1;

  // The normalized graph is pinned once, and only when some slot needs
  // it.
  const Graph* nf = groups.empty() ? nullptr : &normalized();

  // Pass 2 — evaluate in slot order on the calling thread: each premise
  // slot through `premise_eval`, each group at its first member through
  // the exact call the sequential PreAnswer makes. Slot order
  // reproduces the sequential mint sequence (head-blank groups and
  // premise slots both mint; renamed groups mint nothing).
  std::vector<std::optional<Result<std::vector<Graph>>>> premise_results(n);
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].kind == SlotKind::kPremise) {
      premise_results[i] = premise_eval(queries[i]);
      continue;
    }
    if (slots[i].kind != SlotKind::kGroup) continue;
    Group& grp = groups[slots[i].group];
    if (grp.members.front() != i) continue;
    grp.result = evaluator->PreAnswerPrenormalized(grp.canon.query, *nf);
    if (!grp.result->ok()) ++stats.limit_exceeded;
  }

  // Pass 3 — replay per slot. Graph copies share spine leaves, so
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
