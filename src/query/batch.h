#ifndef SWDB_QUERY_BATCH_H_
#define SWDB_QUERY_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "query/answer.h"
#include "query/query.h"
#include "query/view_cache.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "util/status.h"

namespace swdb {

class ThreadPool;

/// Counters of one PreAnswerBatch call. Every field is structural — a
/// function of the batch, the normalized graph, and the view-cache
/// state, never of scheduling — so the same batch yields the same
/// BatchStats at any worker count (asserted by the parity fuzz).
struct BatchStats {
  /// Slots in the batch (== queries.size()).
  uint64_t queries = 0;
  /// Slots served by another slot's group: every member of a ViewKey
  /// group beyond its first spelling, regardless of how the group was
  /// resolved (view hit, trie, or sequential bypass).
  uint64_t deduped = 0;
  /// Premise-bearing slots: the D + P merge mints fresh blanks per
  /// call, so these fall through to per-query evaluation, on the
  /// calling thread in batch order (the sequential mint sequence).
  uint64_t premise_fallthroughs = 0;
  /// Head-blank groups: Skolem mint order must match the sequential
  /// run, so they bypass trie sharing and evaluate on the calling
  /// thread in batch order.
  uint64_t minting_fallthroughs = 0;
  /// Groups short-circuited by the view cache before trie construction.
  uint64_t view_hits = 0;
  /// Groups whose ordered body shared a non-empty trie prefix with at
  /// least one other group.
  uint64_t trie_groups = 0;
  /// Groups with no shared prefix (or an empty body): one full matcher
  /// run each, exactly the sequential plan.
  uint64_t solo_groups = 0;
  /// Nodes of the built trie (0 when every group hit or fell through).
  uint64_t trie_nodes = 0;
  /// Prefix bindings enumerated at shared trie nodes — each is a
  /// binding the sequential path would have re-derived once per
  /// sharing query.
  uint64_t prefix_hits = 0;
  /// Work fanned out of a shared binding: suffix-matcher resumes and
  /// terminal emissions seeded by a non-empty prefix.
  uint64_t shared_bindings_reused = 0;
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
///      premise-bearing slots are queued for per-query evaluation via
///      `premise_eval`, on the calling thread in batch order;
///   2. premise-free slots are grouped by ViewKey — isomorphic shapes
///      share one evaluation, replayed per spelling (bit-identical by
///      the CanonicalQuery contract; head-blank queries key on their
///      exact spelling, so only identical spellings share and the
///      Skolem mints match a sequential run);
///   3. groups are probed against `views` first (a fully-hit batch
///      never calls `normalized`); on any miss the normalized graph is
///      obtained once, the cache is brought up to date (Maintain), and
///      the groups are re-probed;
///   4. surviving renamed groups are evaluated through a shared-prefix
///      match trie (see batch.cc): each group's body is put in a
///      deterministic most-constrained-first static order, the ordered
///      bodies are aligned on their common prefixes, shared prefix
///      bindings are enumerated once and fanned into each group's
///      residual suffix matcher (PatternMatcher::EnumerateSeeded).
///      Trie root subtrees fan out over `pool` (nullptr runs inline);
///      every subtree owns its groups exclusively and runs a
///      deterministic sequential walk, so answers and BatchStats are
///      bit-identical at any worker count;
///   5. head-blank group leaders evaluate sequentially on the calling
///      thread, interleaved with premise slots in batch order;
///   6. per-group answers are post-processed exactly like
///      QueryEvaluator::PreAnswerPrenormalized (ValuationLess-sorted
///      matchings, sorted + deduplicated answers), installed into the
///      view cache when the advisor promoted the shape, and replayed
///      to every member slot.
///
/// `normalized` is called at most once per batch and must return the
/// normalized graph the sequential path would evaluate against;
/// `premise_eval` must be the per-query premise path. `views` may hold
/// a null cache (view layer disabled). `match.max_steps` bounds each
/// root subtree's shared prefix walk and, separately, each group's
/// total suffix-matcher spend — one group's budget, like one
/// sequential call's.
std::vector<Result<std::vector<Graph>>> PreAnswerBatchImpl(
    const std::vector<Query>& queries, QueryEvaluator* evaluator,
    const std::function<const Graph&()>& normalized,
    const std::function<Result<std::vector<Graph>>(const Query&)>&
        premise_eval,
    const ViewCacheRef& views, ThreadPool* pool, const MatchOptions& match,
    BatchStats* stats_out);

}  // namespace swdb

#endif  // SWDB_QUERY_BATCH_H_
