#ifndef SWDB_QUERY_VIEW_CACHE_H_
#define SWDB_QUERY_VIEW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "query/view_key.h"
#include "rdf/graph.h"
#include "rdf/hom.h"
#include "rdf/map.h"

namespace swdb {

class QueryEvaluator;
class ViewCache;

/// A view's materialization, as QueryEvaluator::PreAnswerPrenormalized
/// captures it and ViewCache stores and patches it: every
/// constraint-satisfying body valuation as one row-major table of its
/// values on the query's sorted body variables, rows in ValuationLess
/// order, and for each answer of the (sorted, unique) answer vector the
/// number of valuations that derive it.
struct Materialization {
  size_t width = 0;              ///< body variables per row
  size_t rows = 0;               ///< valuations (width may be 0)
  std::vector<Term> values;      ///< rows × width, row-major
  std::vector<uint32_t> counts;  ///< per answer: deriving valuations

  const Term* row(size_t r) const { return values.data() + r * width; }
};

/// Tuning knobs of the materialized pre-answer view layer.
struct ViewCacheOptions {
  /// Master switch; off routes every PreAnswer to the matcher.
  bool enabled = true;
  /// The view advisor materializes a shape once it has been requested
  /// this many times (lookups, hit or miss, across all snapshots). 1
  /// materializes on first sight; 0 behaves like 1.
  uint32_t promote_after = 2;
  /// Hard cap on materialized views; further shapes stay unmaterialized.
  size_t max_entries = 1024;
  /// Shapes tracked by the frequency advisor (beyond the cap, new
  /// shapes are not counted — a bound on adversarial key churn).
  size_t max_shapes = 8192;
  /// Views whose matching set exceeds this are not materialized (the
  /// copy-out and patch costs would dwarf the matcher run they save).
  size_t max_matchings = 1u << 20;
};

/// Observability snapshot (ViewCache::stats; surfaced through
/// DatabaseStats::views by Database::CollectStats).
struct ViewCacheStats {
  uint64_t hits = 0;            ///< lookups served from a view
  uint64_t misses = 0;          ///< lookups that fell through
  uint64_t installs = 0;        ///< views materialized (advisor promotions)
  uint64_t stale_installs = 0;  ///< installs dropped (prover behind)
  uint64_t patches = 0;         ///< views delta-patched to a new nf
  uint64_t revalidations = 0;   ///< views carried over untouched
  uint64_t invalidations = 0;   ///< views dropped (patch budget/clears)
  uint64_t patch_added = 0;     ///< matchings added by delta patches
  uint64_t patch_removed = 0;   ///< matchings removed by delta patches
  uint64_t clears = 0;          ///< full invalidations
  size_t entries = 0;           ///< materialized views right now
  size_t shapes_tracked = 0;    ///< shapes the advisor is counting
  size_t matchings = 0;         ///< stored matchings across all views
  uint64_t version = 0;         ///< nf (closure) version entries reflect
  uint64_t erase_stamp = 0;     ///< current fence stamp
};

/// How a consumer addresses a shared ViewCache: `version` is the closure
/// version of the normalized graph the consumer answers against, and
/// `erase_stamp` the cache's fence stamp, both captured when that graph
/// was (at snapshot publication). A default
/// (null cache) ref disables the view layer for that consumer.
struct ViewCacheRef {
  ViewCache* cache = nullptr;
  uint64_t version = 0;
  uint64_t erase_stamp = 0;
};

/// A cache of materialized pre-answer views, shared by every snapshot a
/// Database publishes. An entry says: evaluating this
/// canonical query over nf(D) at closure version V yields exactly these
/// matchings and these single answers. Because the evaluator is a pure
/// function of (query, normalized-graph content, Skolem cache) and the
/// Skolem cache only grows, replaying a stored answer vector is
/// bit-identical to re-running the matcher — same graphs, same order.
///
/// Maintenance is driven by the *normalized-graph delta*, not the raw
/// closure delta: folds can remove nf triples whose cause is an
/// unrelated insertion, so the closure cone alone under-approximates
/// the set of views whose answers move (see DESIGN.md). The first
/// current snapshot to need its nf calls Maintain with it; the cache
/// diffs it against the nf its entries reflect leaf by leaf (shared
/// spine leaves are skipped unread) and, per view,
///  - revalidates it untouched when no added or removed nf triple
///    unifies with any body triple (no valuation can appear or die);
///  - patches it otherwise: a stored matching dies iff the image of a
///    body triple that unifies with some removed triple is in the
///    removed set; new matchings are found semi-naively by seeding the
///    matcher with each (body triple, added triple) unification and
///    merged into the sorted survivors; and the answers move by their
///    multiplicities (how many stored matchings derive each), so only
///    the dropped and the new matchings derive answers;
///  - invalidates it if the patch exhausts the match budget.
///
/// Fencing: entries record the nf version and the erase stamp they were
/// written under. A consumer accepts an entry only if the entry's
/// version equals the consumer's and its stamp is not newer — so a
/// lagging snapshot can keep hitting views proven against *its* nf, but
/// never consumes entries written after a later erase or a cache clear
/// (clears also fence version-number reuse across closure rebuilds).
/// Installs are accepted only from provers whose (version, stamp) both
/// equal the cache's current state.
///
/// All methods are thread-safe behind one mutex; Maintain holds it for
/// the duration of the patch (concurrent snapshot lookups at the old
/// version would miss anyway). Lookup holds it only to take a reference
/// to the hit's answer vector and copies the answers after releasing it.
class ViewCache {
 public:
  explicit ViewCache(ViewCacheOptions options = {}) : options_(options) {}
  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// The stored answer vector for `key`, if a view exists and is valid
  /// for a consumer at (version, erase_stamp); counts a hit or a miss.
  std::optional<std::vector<Graph>> Lookup(const ViewKey& key,
                                           uint64_t version,
                                           uint64_t erase_stamp) const;

  /// Advisor: records one unmaterialized request for `key`; returns
  /// true when the shape has crossed the promotion threshold and the
  /// caller should capture matchings and Install.
  bool RecordMiss(const ViewKey& key);

  /// Offers a freshly materialized view proven against the normalized
  /// graph at (prover_version, prover_stamp). Dropped silently when the
  /// cache has moved on, the entry already exists, or the view exceeds
  /// the size caps. `materialization` and `answers` must be what
  /// PreAnswerPrenormalized captured and returned for `canonical`.
  void Install(const ViewKey& key, const Query& canonical,
               Materialization materialization, std::vector<Graph> answers,
               uint64_t prover_version, uint64_t prover_stamp);

  /// Maintenance: brings every view from the nf the cache
  /// reflects to `nf` (closure version `version`), patching by the nf
  /// delta. No-op when already in sync or when `stamp` shows the caller
  /// behind a fence. The evaluator re-derives answers (Skolemization);
  /// `match` bounds the patch matchers.
  void Maintain(const Graph& nf, uint64_t version, uint64_t stamp,
                QueryEvaluator* evaluator, const MatchOptions& match);

  /// Erase fence: bumps the stamp so entries written afterwards are
  /// invisible to consumers published before the erase. Entries and
  /// version are untouched — pre-erase consumers keep hitting views
  /// proven against their own nf.
  void OnErase();

  /// Full invalidation (closure dropped or rebuilt): clears entries and
  /// the advisor, forgets the base nf, and bumps the fence stamp so
  /// version-counter reuse by a fresh closure can never revalidate a
  /// stale consumer.
  void Clear();

  /// Current fence stamp (what a snapshot published now captures).
  uint64_t erase_stamp() const;

  /// The stored materialization of the view for `key`, if one exists —
  /// what maintenance patches; parity checks compare it with a
  /// from-scratch capture.
  std::optional<Materialization> StoredMaterialization(
      const ViewKey& key) const;

  ViewCacheStats stats() const;

 private:
  struct Entry {
    Query query;                     // canonical spelling (view_key.h)
    std::vector<Term> body_vars;     // sorted body variables
    Materialization table;           // matchings + answer counts
    // Derived pre-answers, sorted+unique. Shared so that Lookup copies
    // them after releasing mu_; a patch swaps in a new vector.
    std::shared_ptr<const std::vector<Graph>> answers;
    uint64_t version = 0;            // nf version this view reflects
    uint64_t stamp = 0;              // fence stamp at write/last patch
  };

  // Patches one entry across the (added, removed) nf delta; false means
  // the budget ran out and the entry must be invalidated. Caller holds
  // mu_.
  bool PatchEntry(Entry* e, const std::vector<Triple>& added,
                  const std::vector<Triple>& removed, const Graph& nf,
                  QueryEvaluator* evaluator, const MatchOptions& match);

  ViewCacheOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<ViewKey, Entry, ViewKeyHash> entries_;
  std::unordered_map<ViewKey, uint32_t, ViewKeyHash> shape_counts_;
  // The normalized graph the entries reflect (COW copy; absent until
  // the first Maintain adopts one).
  std::optional<Graph> base_nf_;
  uint64_t version_ = 0;
  uint64_t erase_stamp_ = 0;
  mutable ViewCacheStats counters_;
};

}  // namespace swdb

#endif  // SWDB_QUERY_VIEW_CACHE_H_
