#ifndef SWDB_QUERY_BATCH_H_
#define SWDB_QUERY_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "query/answer.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "util/status.h"

namespace swdb {

/// Counters of one PreAnswerBatch call. Every field is structural — a
/// function of the batch and the normalized graph — so the same batch
/// yields the same BatchStats on every run (asserted by the parity
/// fuzz).
struct BatchStats {
  /// Slots in the batch (== queries.size()).
  uint64_t queries = 0;
  /// Slots served by another slot's group: every member of a ViewKey
  /// group beyond its first spelling.
  uint64_t deduped = 0;
  /// Premise-bearing slots: the D + P merge mints fresh blanks per
  /// call, so these fall through to per-query evaluation via
  /// `premise_eval`, in batch order.
  uint64_t premise_fallthroughs = 0;
  /// Groups whose step budget ran out (their slots return
  /// kLimitExceeded; the rest of the batch is unaffected).
  uint64_t limit_exceeded = 0;

  bool operator==(const BatchStats&) const = default;
};

/// Evaluates a batch of queries against one pinned normalized graph.
///
/// The shared engine behind DatabaseSnapshot::PreAnswerBatch (which
/// Database::PreAnswerBatch and union queries read through) and
/// PreAnswerUnionQuery:
///   1. slots are validated (invalid slots get their own error Result);
///      premise-bearing slots are set aside for `premise_eval`;
///   2. premise-free slots are grouped by ViewKey — isomorphic shapes
///      share one evaluation, replayed per spelling (bit-identical by
///      the CanonicalQuery contract; head-blank queries key on their
///      exact spelling, so only identical spellings share and the
///      Skolem mints match a sequential run);
///   3. in slot order on the calling thread, premise slots run through
///      `premise_eval` and each group runs once, at its first member,
///      through QueryEvaluator::PreAnswerPrenormalized on its canonical
///      spelling — the sequential call, with the sequential step budget
///      and mint sequence;
///   4. each group's answers are replayed to every member slot.
///
/// `normalized` is called at most once per batch (never when no slot
/// is groupable) and must return the normalized graph the sequential
/// path would evaluate against; `premise_eval` must be the per-query
/// premise path.
std::vector<Result<std::vector<Graph>>> PreAnswerBatchImpl(
    const std::vector<Query>& queries, QueryEvaluator* evaluator,
    const std::function<const Graph&()>& normalized,
    const std::function<Result<std::vector<Graph>>(const Query&)>&
        premise_eval,
    BatchStats* stats_out);

}  // namespace swdb

#endif  // SWDB_QUERY_BATCH_H_
