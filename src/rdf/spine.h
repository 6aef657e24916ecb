#ifndef SWDB_RDF_SPINE_H_
#define SWDB_RDF_SPINE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace swdb {

/// A 3-part lexicographic key: a triple's raw term bits (Term::bits)
/// permuted into one index order's key sequence.
using SpineKey = std::array<uint32_t, 3>;

/// One immutable chunk of a Spine: up to ~kLeafMax entries as three
/// structure-of-arrays uint32 columns, sorted lexicographically by
/// (k0, k1, k2). Leaves are shared across Spine copies by shared_ptr;
/// a leaf reachable from more than one spine is never mutated.
struct SpineLeaf {
  std::vector<uint32_t> k0, k1, k2;

  size_t size() const { return k0.size(); }
  size_t bytes() const {
    return (k0.capacity() + k1.capacity() + k2.capacity()) *
           sizeof(uint32_t);
  }
  const std::vector<uint32_t>& column(int k) const {
    return k == 0 ? k0 : k == 1 ? k1 : k2;
  }
  SpineKey at(size_t i) const { return {k0[i], k1[i], k2[i]}; }
};

/// A sorted set of 3-part keys stored as a sequence of immutable,
/// shared_ptr-shared leaves — the copy-on-write column spine behind
/// Graph's primary order and its three permutations.
///
/// Copying a Spine copies leaf *pointers* (O(n / leaf size)), not leaf
/// contents; a single-key Insert/Erase clones only the one leaf it
/// touches (and only when that leaf is shared), so an epoch that changed
/// k triples shares every untouched leaf with its predecessor and
/// publication cost is proportional to k, not to the graph.
///
/// Concurrency contract (matching Graph's): one writer mutates a spine
/// while readers only access *other* Spine objects that share leaves
/// with it. The use_count()==1 fast path is sound because a leaf
/// reachable from any reader is held by that reader's own spine, so its
/// count is at least 2 and the writer clones instead of mutating.
class Spine {
 public:
  /// Split threshold: a leaf growing past this many entries splits in
  /// half. Bulk builds fill to half of this so freshly built leaves
  /// absorb patches without immediate splits.
  static constexpr size_t kLeafMax = 2048;

  Spine() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t leaf_count() const { return leaves_.size(); }
  size_t bytes() const;

  void Clear();
  /// Rebuilds from entries that are already sorted and deduplicated.
  void BulkBuild(const std::vector<SpineKey>& entries) {
    BulkBuild(entries.size(), [&](size_t i) { return entries[i]; });
  }
  /// Rebuilds from `n` sorted, deduplicated keys produced by
  /// `key_at(i)`, filling the leaf columns directly (no key vector).
  template <typename KeyAt>
  void BulkBuild(size_t n, KeyAt key_at);

  bool Contains(const SpineKey& key) const;
  /// Inserts `key`; returns false if already present.
  bool Insert(const SpineKey& key);
  /// Erases `key`; returns false if absent.
  bool Erase(const SpineKey& key);

  /// The key at global slot `slot` (< size()).
  SpineKey At(size_t slot) const;

  /// All keys in order, materialized (O(n)) — the bulk-merge input.
  std::vector<SpineKey> Keys() const;

  /// First global slot whose key is >= `key` (== size() if none): a
  /// binary search over the leaves' first keys, then one over the
  /// chosen leaf's columns. `scanned` (optional) accumulates the probes
  /// of both searches.
  size_t LowerBound(const SpineKey& key, size_t* scanned = nullptr) const;

  /// LowerBound(key) together with whether that slot holds `key` — one
  /// two-level search for a fully bound lookup.
  std::pair<size_t, bool> Locate(const SpineKey& key) const;

  /// Global slot range of entries with k0 == key0 (and, when key1 is
  /// non-null, k1 == *key1 within that run). Exactly std::equal_range
  /// over the flattened columns. The lower end is a LowerBound of the
  /// prefix padded with zeros; the upper end is found by galloping from
  /// it inside the same leaf when the run ends there (or at the leaf's
  /// end, with the next leaf's first key outside the run), and
  /// otherwise by a LowerBound of the prefix's successor. `scanned`
  /// (optional) accumulates the probes, for scan observability.
  std::pair<size_t, size_t> EqualRange(uint32_t key0, const uint32_t* key1,
                                       size_t* scanned = nullptr) const;

  /// Leaf geometry, for range iteration and per-leaf filter kernels.
  /// LeafIndexOf requires slot < size().
  size_t LeafIndexOf(size_t slot) const;
  const SpineLeaf& leaf(size_t li) const { return *leaves_[li].leaf; }
  size_t leaf_start(size_t li) const { return leaves_[li].start; }
  /// The first key of leaf li, as the per-leaf metadata caches it
  /// (always equal to leaf(li).at(0)).
  const SpineKey& leaf_first(size_t li) const { return leaves_[li].first; }

  /// Number of this spine's leaves that are the *same object* (pointer
  /// equality) as some leaf of `other` — the shared fraction of a
  /// published snapshot. A shared leaf has the same first key on both
  /// sides, so this is one merge walk over the two metadata arrays by
  /// first key. O(leaves), no hashing.
  size_t CountSharedLeavesWith(const Spine& other) const;

  /// Set equality with `other`. Streaming merge-walk over both leaf
  /// sequences (which may chunk the same contents differently);
  /// aligned shared leaves compare by pointer in O(1).
  bool EqualContents(const Spine& other) const;

  /// Lexicographic order of the two key sequences (std::vector-style
  /// `<` over the flattened entries), walked leaf by leaf without
  /// materializing either side.
  bool LexLess(const Spine& other) const;

 private:
  // Index of the leaf a key belongs to (the last leaf whose first key
  // is <= key), or 0 when the key precedes everything. Adds its probes
  // to *probes.
  size_t LeafForKey(const SpineKey& key, size_t* probes) const;
  // A mutable reference to leaf li, cloning it first if shared.
  SpineLeaf* Mutable(size_t li);
  // Splits leaf li in half (after an insert pushed it past kLeafMax).
  void Split(size_t li);

  // One entry per leaf, in key order: the leaf, the global slot of its
  // first entry and a copy of its first key. The first keys sit in one
  // contiguous array, so finding a key's leaf dereferences no leaf.
  // Maintained on every mutation (O(leaves)).
  struct LeafRef {
    std::shared_ptr<SpineLeaf> leaf;
    size_t start = 0;
    SpineKey first{};
  };

  std::vector<LeafRef> leaves_;
  size_t size_ = 0;
};

template <typename KeyAt>
void Spine::BulkBuild(size_t n, KeyAt key_at) {
  Clear();
  const size_t fill = kLeafMax / 2;
  leaves_.reserve((n + fill - 1) / fill);
  for (size_t base = 0; base < n; base += fill) {
    const size_t count = std::min(fill, n - base);
    auto leaf = std::make_shared<SpineLeaf>();
    leaf->k0.resize(count);
    leaf->k1.resize(count);
    leaf->k2.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const SpineKey k = key_at(base + i);
      leaf->k0[i] = k[0];
      leaf->k1[i] = k[1];
      leaf->k2[i] = k[2];
    }
    const SpineKey first = leaf->at(0);
    leaves_.push_back(LeafRef{std::move(leaf), base, first});
  }
  size_ = n;
}

}  // namespace swdb

#endif  // SWDB_RDF_SPINE_H_
