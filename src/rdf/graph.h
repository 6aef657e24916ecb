#ifndef SWDB_RDF_GRAPH_H_
#define SWDB_RDF_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "rdf/spine.h"
#include "rdf/triple.h"

namespace swdb {

/// The physical order that served a triple-pattern lookup. The graph
/// keeps the primary (s,p,o) spine plus three lazily built permutation
/// spines so that *every* combination of bound positions resolves to
/// one contiguous slot range (no post-filtering):
///
///   bound positions          order        range key
///   s / s,p / s,p,o          kSpo         prefix of (s,p,o)
///   p                        kPso         prefix of (p,s,o)
///   p,o                      kPos         prefix of (p,o,s)
///   o / o,s                  kOsp         prefix of (o,s,p)
///   (none)                   kFullScan    all triples (primary order)
enum class IndexOrder : uint8_t {
  kSpo = 0,
  kPso = 1,
  kPos = 2,
  kOsp = 3,
  kFullScan = 4,
};
inline constexpr size_t kNumIndexOrders = 5;

/// Short name of an index order ("spo", "pso", "pos", "osp", "scan").
const char* IndexOrderName(IndexOrder order);

/// Column index (0..2) holding triple position `pos` (0=s, 1=p, 2=o) of
/// an order's key sequence. E.g. for kPso the key sequence is (p,s,o):
/// the subject lives in column 1, the predicate in column 0, the object
/// in column 2. kSpo and kFullScan are the identity.
constexpr int ColumnOfPosition(IndexOrder order, int pos) {
  // Key sequences: spo = (s,p,o), pso = (p,s,o), pos = (p,o,s),
  // osp = (o,s,p); kFullScan ranges are served by the primary spine.
  constexpr int kMap[kNumIndexOrders][3] = {
      /* kSpo:      s,p,o -> */ {0, 1, 2},
      /* kPso:      s,p,o -> */ {1, 0, 2},
      /* kPos:      s,p,o -> */ {2, 0, 1},
      /* kOsp:      s,p,o -> */ {1, 2, 0},
      /* kFullScan: s,p,o -> */ {0, 1, 2},
  };
  return kMap[static_cast<size_t>(order)][pos];
}

/// The inverse: the triple position (0=s, 1=p, 2=o) held by key column
/// `column` (0..2) of an order's key sequence.
constexpr int PositionOfColumn(IndexOrder order, int column) {
  int pos = 0;
  while (ColumnOfPosition(order, pos) != column) ++pos;
  return pos;
}

/// The order Graph::Matches serves a pattern from, given which of its
/// positions are bound (the table above); the bound positions are that
/// order's key prefix.
constexpr IndexOrder MatchOrder(bool s, bool p, bool o) {
  if (s) return p || !o ? IndexOrder::kSpo : IndexOrder::kOsp;
  if (p) return o ? IndexOrder::kPos : IndexOrder::kPso;
  return o ? IndexOrder::kOsp : IndexOrder::kFullScan;
}

/// A cumulative counter that tolerates concurrent readers: relaxed
/// atomic load/store (no RMW, so hot-path increments stay cheap), which
/// may drop updates when several threads bump it at once. Exact on the
/// single-threaded paths the tests and benches measure; best-effort
/// observability under the concurrent snapshot read path. Copyable so
/// Graph keeps its value semantics.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  // noexcept so that Graph's implicit moves are too: a std::vector<Graph>
  // then moves its elements on reallocation instead of copying them.
  RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  void Add(uint64_t d) const {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  void Reset() const { v_.store(0, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> v_{0};
};

/// Storage and scan observability for one Graph, snapshotted by
/// Graph::Stats. Counters are cumulative since construction; byte and
/// leaf figures reflect the current footprint.
struct GraphStats {
  uint64_t index_rebuilds = 0;   ///< full permutation-spine (re)builds
  uint64_t index_patches = 0;    ///< changing writes applied to built
                                 ///< permutations (one per Apply call)
  uint64_t matches_calls = 0;    ///< Matches() lookups served
  uint64_t rows_scanned = 0;     ///< probes/rows examined by lookups
                                 ///< and cursor seeks
  uint64_t rows_yielded = 0;     ///< rows in the returned ranges and
                                 ///< runs
  bool indexes_built = false;    ///< permutation spines currently valid
  size_t bytes_primary = 0;      ///< primary (s,p,o) spine
  size_t bytes_pso = 0;          ///< pso spine (0 until built)
  size_t bytes_pos = 0;          ///< pos spine
  size_t bytes_osp = 0;          ///< osp spine
  size_t leaves_primary = 0;     ///< primary spine leaf count
  size_t leaves_index = 0;       ///< permutation spine leaves (all three)
  size_t bytes_total() const {
    return bytes_primary + bytes_pso + bytes_pos + bytes_osp;
  }
};

/// Leaf-sharing between two graphs' spines: of this graph's `total`
/// leaves, `shared` are the same blocks (equal SpineLeaf::id()) as leaves
/// of the other graph. The publication-observability measure of how
/// much of a snapshot is structurally shared with its predecessor.
struct SpineSharing {
  uint64_t shared = 0;
  uint64_t total = 0;
};

/// A resolved, contiguous slot range of one spine holding exactly the
/// matches of a pattern — the equal_range analogue of Graph::Match.
/// Iterating a MatchRange touches no hash table and performs no
/// comparisons: every element is a match, materialized leaf by leaf
/// from the backing spine's three key columns. The range stays valid
/// until the graph is mutated.
class MatchRange {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Triple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Triple*;
    using reference = const Triple&;

    const Triple& operator*() const {
      const size_t i = idx_ - leaf_base_;
      scratch_.s = Term::FromBits(col_s_[i]);
      scratch_.p = Term::FromBits(col_p_[i]);
      scratch_.o = Term::FromBits(col_o_[i]);
      return scratch_;
    }
    const Triple* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++idx_;
      if (idx_ == leaf_end_ && idx_ < limit_) LoadLeaf(leaf_ + 1);
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class MatchRange;
    // Starts at global slot `idx` of leaf `leaf` (read only when
    // idx < limit).
    const_iterator(const Spine* spine, IndexOrder order, size_t idx,
                   size_t limit, size_t leaf);
    void LoadLeaf(size_t li);

    const Spine* spine_ = nullptr;
    IndexOrder order_ = IndexOrder::kFullScan;
    size_t idx_ = 0;        // current global slot
    size_t limit_ = 0;      // range end (no leaf loads at or past it)
    size_t leaf_ = 0;       // index of the cached leaf
    size_t leaf_base_ = 0;  // global slot of the cached leaf's start
    size_t leaf_end_ = 0;   // global slot one past the cached leaf
    const uint32_t* col_s_ = nullptr;  // cached leaf columns by position
    const uint32_t* col_p_ = nullptr;
    const uint32_t* col_o_ = nullptr;
    mutable Triple scratch_;  // materialization target of operator*
  };

  MatchRange() = default;

  /// A run of global slots in `spine`; its `leaf` seeds the iterators.
  static MatchRange Over(const Spine* spine, const SpineRun& run,
                         IndexOrder order) {
    MatchRange r;
    r.spine_ = spine;
    r.run_ = run;
    r.order_ = order;
    return r;
  }

  size_t size() const { return run_.size(); }
  bool empty() const { return run_.empty(); }
  IndexOrder order() const { return order_; }

  /// True when the range is backed by a lazily built permutation spine
  /// (pso/pos/osp) rather than the primary order.
  bool columnar() const {
    return order_ != IndexOrder::kSpo && order_ != IndexOrder::kFullScan;
  }

  /// The triple at global slot `slot` of the backing spine, as emitted
  /// by FilterPairEqual. The reference is to a scratch slot reused
  /// by the next TripleAt call on this range.
  const Triple& TripleAt(uint32_t slot) const;

  /// Repeated-position residual (e.g. pattern (X, p, X)): appends the
  /// backing-spine slots of elements whose positions `pos_a` and
  /// `pos_b` hold equal terms, in range order. Returns the number
  /// appended.
  size_t FilterPairEqual(int pos_a, int pos_b,
                         std::vector<uint32_t>* out) const;

  const_iterator begin() const {
    return const_iterator(spine_, order_, run_.first, run_.last, run_.leaf);
  }
  const_iterator end() const {
    return const_iterator(spine_, order_, run_.last, run_.last, run_.leaf);
  }

 private:
  friend class MatchCursor;

  const Spine* spine_ = nullptr;
  SpineRun run_;
  IndexOrder order_ = IndexOrder::kFullScan;
  mutable Triple scratch_;  // TripleAt materialization target
};

/// A forward cursor over a MatchRange whose rows, past their shared key
/// prefix, are sorted by the key column of one triple position — as
/// every Graph::Matches range is by the column after its bound
/// positions. Seek returns the sub-run of rows whose position holds a
/// value: exactly std::equal_range over that column, in range order.
///
/// Values must be sought in non-decreasing order. Each seek gallops
/// forward from the previous one, first inside the current leaf, then
/// over the spine's cached leaf first keys, so a seek that jumps many
/// leaves reads only the leaf it lands in.
class MatchCursor {
 public:
  MatchCursor() = default;
  /// A cursor at the start of `range`, seeking triple position `pos`.
  MatchCursor(const MatchRange& range, int pos);

  /// The rows whose position holds `key` (raw term bits, >= every key
  /// sought before). `probes` accumulates the column entries and leaf
  /// first keys read.
  MatchRange Seek(uint32_t key, size_t* probes);

 private:
  // Moves (*slot, *leaf) forward to the first row of the range whose
  // column value is >= key, or > key when `past_equal`; *leaf is the
  // leaf holding *slot while *slot is inside the range.
  void Gallop(uint32_t key, bool past_equal, size_t* slot, size_t* leaf,
              size_t* probes) const;

  MatchRange range_;
  int column_ = 0;
  size_t slot_ = 0;  // lower bound of the last key sought
  size_t leaf_ = 0;  // leaf holding slot_
};

/// An RDF graph: a finite set of RDF triples (paper Def. 2.1).
///
/// Triples live in four copy-on-write column spines (see Spine): the
/// primary in (s,p,o) order — Triple::operator< compares packed term
/// bits, so the primary spine *is* the sorted triple set — plus three
/// lazily built permutations in (p,s,o), (p,o,s) and (o,s,p) order
/// serving the pattern-matching queries issued by the homomorphism
/// solver and the closure fixpoint. Each spine stores raw term bits as
/// structure-of-arrays uint32 columns per leaf, so lookups and residual
/// filters sweep contiguous columns.
///
/// Copying a Graph copies leaf handles, not leaf contents: an epoch
/// that changed k triples shares every untouched leaf with its
/// predecessor, which is what makes Database snapshot publication
/// proportional to the delta instead of to |G|. Every write is one
/// Apply of a sorted delta: one Spine::Apply on the primary spine and,
/// once the permutations are built, one on each of them with the delta
/// sorted into its order. Writes of any size keep built permutations
/// built and write only the leaves the delta touches, in place when no
/// copy shares them. Outstanding MatchRanges are invalidated by any
/// mutation.
///
/// Every mutation that changes the triple set bumps an epoch counter,
/// so derived structures (closure caches, membership indexes) can
/// detect — rather than silently serve — staleness.
///
/// Graph is equally used for *pattern* sets (query bodies/heads), in
/// which case triples may contain variables.
class Graph {
 public:
  /// Iterates the primary spine in (s,p,o) order, materializing each
  /// triple from the cached leaf's columns (one leaf lookup per leaf,
  /// not per element). Single-pass semantics (operator* returns a
  /// reference into iterator-owned scratch); operator+ / operator-
  /// support positional slicing.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Triple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Triple*;
    using reference = const Triple&;

    const_iterator() = default;

    const Triple& operator*() const {
      const size_t i = idx_ - leaf_base_;
      scratch_.s = Term::FromBits(col_s_[i]);
      scratch_.p = Term::FromBits(col_p_[i]);
      scratch_.o = Term::FromBits(col_o_[i]);
      return scratch_;
    }
    const Triple* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++idx_;
      if (idx_ == leaf_end_ && idx_ < spine_->size()) LoadLeaf(leaf_ + 1);
      return *this;
    }
    const_iterator operator+(difference_type d) const {
      return const_iterator(spine_, idx_ + static_cast<size_t>(d));
    }
    difference_type operator-(const const_iterator& o) const {
      return static_cast<difference_type>(idx_) -
             static_cast<difference_type>(o.idx_);
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class Graph;
    const_iterator(const Spine* spine, size_t idx)
        : spine_(spine), idx_(idx) {
      if (idx_ < spine_->size()) {
        LoadLeaf(idx_ == 0 ? 0 : spine_->LeafIndexOf(idx_));
      }
    }
    void LoadLeaf(size_t li) {
      const SpineLeaf& leaf = spine_->leaf(li);
      leaf_ = li;
      leaf_base_ = spine_->leaf_start(li);
      leaf_end_ = leaf_base_ + leaf.size();
      col_s_ = leaf.column(0);
      col_p_ = leaf.column(1);
      col_o_ = leaf.column(2);
    }

    const Spine* spine_ = nullptr;
    size_t idx_ = 0;        // current global slot
    size_t leaf_ = 0;       // index of the cached leaf
    size_t leaf_base_ = 0;  // global slot of the cached leaf's start
    size_t leaf_end_ = 0;   // global slot one past the cached leaf
    const uint32_t* col_s_ = nullptr;  // cached leaf columns
    const uint32_t* col_p_ = nullptr;
    const uint32_t* col_o_ = nullptr;
    mutable Triple scratch_;
  };

  Graph() = default;
  Graph(std::initializer_list<Triple> triples);
  explicit Graph(std::vector<Triple> triples);

  /// The graph of `n` triples that are already sorted ascending and
  /// distinct: fills the primary spine's columns straight from them.
  static Graph FromSorted(const Triple* triples, size_t n);

  /// The one write: removes `erases` and adds `inserts`, two sorted,
  /// distinct, disjoint triple spans. Erasing an absent triple or
  /// inserting a present one is a no-op. Returns the number of triples
  /// that changed; bumps the epoch once if that is not 0.
  size_t Apply(std::span<const Triple> erases,
               std::span<const Triple> inserts);
  /// Inserts a triple; returns true if it was not already present.
  bool Insert(const Triple& t) { return Apply({}, {&t, 1}) != 0; }
  void Insert(Term s, Term p, Term o) { Insert(Triple(s, p, o)); }
  /// Inserts all triples of other (one epoch bump if anything changed).
  void InsertAll(const Graph& other) { Apply({}, other.triples()); }
  /// Removes a triple; returns true if it was present.
  bool Erase(const Triple& t) { return Apply({&t, 1}, {}) != 0; }

  bool Contains(const Triple& t) const;

  /// Mutation epoch: starts at 0 and increments on every mutation that
  /// changes the triple set (no-op inserts/erases do not count).
  /// Structures caching derived state off this graph record the epoch
  /// they were built at and compare to detect staleness.
  uint64_t epoch() const { return epoch_; }

  size_t size() const { return spo_.size(); }
  bool empty() const { return spo_.empty(); }
  const_iterator begin() const { return const_iterator(&spo_, 0); }
  const_iterator end() const { return const_iterator(&spo_, spo_.size()); }
  /// The triple set materialized as a sorted (s,p,o) vector. Built per
  /// call (O(n)); bind to a const reference or reuse across loops.
  std::vector<Triple> triples() const;
  /// The i-th triple in (s,p,o) order. O(log leaves).
  Triple operator[](size_t i) const {
    const SpineKey k = spo_.At(i);
    return Triple(Term::FromBits(k[0]), Term::FromBits(k[1]),
                  Term::FromBits(k[2]));
  }

  bool operator==(const Graph& other) const;
  bool operator!=(const Graph& other) const { return !(*this == other); }

  friend bool TriplesLess(const Graph& a, const Graph& b);

  /// True if *this ⊆ other as sets of triples (i.e. *this is a subgraph).
  bool IsSubgraphOf(const Graph& other) const;

  /// The triples whose position `pos` (0=s, 1=p, 2=o) holds a term of
  /// `kind`: one contiguous run of the order led by that position
  /// (spo, pso or osp; kinds occupy disjoint bit ranges). Builds stale
  /// permutation spines for pos 1 and 2, like Matches.
  MatchRange KindRun(int pos, TermKind kind) const;

  /// universe(G): all elements of UB (and variables, for patterns)
  /// occurring in some triple. Sorted ascending.
  std::vector<Term> Universe() const;
  /// voc(G) = universe(G) ∩ U. Sorted ascending.
  std::vector<Term> Vocabulary() const;
  /// The blank nodes occurring in the graph. Sorted ascending.
  std::vector<Term> BlankNodes() const;
  /// The variables occurring in the pattern. Sorted ascending.
  std::vector<Term> Variables() const;

  /// True if the graph has no blank nodes (paper Def. 2.1).
  bool IsGround() const;
  /// True if the graph does not mention the RDFS vocabulary in any
  /// position (paper Def. 2.2).
  bool IsSimple() const;
  /// True if every triple is well-formed data (no variables).
  bool IsWellFormedData() const;

  /// Set-theoretic union G1 ∪ G2 (paper §2.1; blank nodes shared).
  static Graph Union(const Graph& g1, const Graph& g2);

  /// Resolves a pattern (wildcard = std::nullopt) to the contiguous
  /// spine range holding exactly its matches, in O(log |G|). The range
  /// is invalidated by any mutation of the graph.
  MatchRange Matches(std::optional<Term> s, std::optional<Term> p,
                     std::optional<Term> o) const;

  /// MatchCursor::Seek on a cursor over one of this graph's ranges,
  /// counted like a lookup: the seek's probes add to rows_scanned and
  /// its run to rows_yielded. A seek resolves no range, so
  /// matches_calls does not move.
  MatchRange Seek(MatchCursor* cursor, Term value) const;

  /// Matches a pattern triple against the graph. Wildcard = std::nullopt.
  /// Invokes visitor for every matching triple; stops early (returning
  /// false) if the visitor returns false. Returns false iff stopped early.
  template <typename Visitor>
  bool Match(std::optional<Term> s, std::optional<Term> p,
             std::optional<Term> o, Visitor&& visitor) const {
    for (const Triple& t : Matches(s, p, o)) {
      if (!visitor(t)) return false;
    }
    return true;
  }

  /// Number of triples matching the given pattern. O(log |G|): the
  /// size of the resolved spine range, with no scan.
  size_t CountMatches(std::optional<Term> s, std::optional<Term> p,
                      std::optional<Term> o) const {
    return Matches(s, p, o).size();
  }

  /// Builds the lazy permutation spines now if they are stale. The lazy
  /// build mutates `mutable` state, so a const Graph shared across
  /// threads must be warmed once (by one thread) before concurrent
  /// Matches/Contains calls; after that every read path is const-clean.
  void WarmIndexes() const { EnsureIndexes(); }

  /// Storage/scan observability snapshot (see GraphStats). Counter
  /// semantics under concurrent readers follow RelaxedCounter.
  GraphStats Stats() const;

  /// Of this graph's spine leaves (primary + built permutations),
  /// how many are shared (the same blocks) with `other`. Only spines
  /// built on both sides are compared; `total` counts this graph's
  /// leaves of those spines. O(leaves).
  SpineSharing SharedLeaves(const Graph& other) const;

 private:
  void EnsureIndexes() const;

  // Primary storage: (s,p,o)-ordered key spine. Term bits compare like
  // Terms, so this spine is the sorted, deduplicated triple set.
  Spine spo_;

  uint64_t epoch_ = 0;

  // Lazily built permutation spines.
  mutable bool indexes_valid_ = false;
  mutable Spine pso_;  // sorted by (p,s,o)
  mutable Spine pos_;  // sorted by (p,o,s)
  mutable Spine osp_;  // sorted by (o,s,p)

  // Observability (see GraphStats / Stats()).
  RelaxedCounter index_rebuilds_;
  RelaxedCounter index_patches_;
  RelaxedCounter matches_calls_;
  RelaxedCounter rows_scanned_;
  RelaxedCounter rows_yielded_;
};

/// a.triples() < b.triples(), computed by one walk over the two primary
/// spines with no allocation — the order of answer vectors.
bool TriplesLess(const Graph& a, const Graph& b);

static_assert(std::is_nothrow_move_constructible_v<Graph>,
              "vectors of Graph must move, not copy, on reallocation");
static_assert(std::is_nothrow_move_assignable_v<Graph>);

}  // namespace swdb

#endif  // SWDB_RDF_GRAPH_H_
