#ifndef SWDB_RDF_SPINE_H_
#define SWDB_RDF_SPINE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace swdb {

/// A 3-part lexicographic key: a triple's raw term bits (Term::bits)
/// permuted into one index order's key sequence.
using SpineKey = std::array<uint32_t, 3>;

/// One chunk of a Spine: up to kLeafMax entries sorted lexicographically
/// by (k0, k1, k2), stored as three structure-of-arrays uint32 columns.
///
/// A SpineLeaf is a handle over ONE heap block
/// (std::make_shared_for_overwrite<uint32_t[]>), laid out in uint32
/// words as
///
///   [size, capacity, k0[capacity], k1[capacity], k2[capacity]]
///
/// so a leaf costs one allocation, control block included. Copying a
/// handle shares the block; id() tells two blocks apart. Only Spine
/// writes a block, and only while its handle is the block's sole owner.
class SpineLeaf {
 public:
  size_t size() const { return block_[0]; }
  size_t capacity() const { return block_[1]; }
  /// Bytes of the leaf's block: BlockBytes(capacity()).
  size_t bytes() const { return BlockBytes(capacity()); }
  static constexpr size_t BlockBytes(size_t capacity) {
    return (kHeaderWords + 3 * capacity) * sizeof(uint32_t);
  }
  /// Column k (0..2): size() sorted-run entries at stride 1.
  const uint32_t* column(int k) const {
    return block_.get() + kHeaderWords + static_cast<size_t>(k) * capacity();
  }
  SpineKey at(size_t i) const {
    const size_t c = capacity();
    const uint32_t* e = block_.get() + kHeaderWords + i;
    return {e[0], e[c], e[2 * c]};
  }
  /// The block's address: equal for two handles iff they share it.
  const void* id() const { return block_.get(); }

 private:
  friend class Spine;
  static constexpr size_t kHeaderWords = 2;

  // A fresh block of `capacity` entries, size 0.
  explicit SpineLeaf(size_t capacity)
      : block_(std::make_shared_for_overwrite<uint32_t[]>(
            kHeaderWords + 3 * capacity)) {
    block_[0] = 0;
    block_[1] = static_cast<uint32_t>(capacity);
  }
  uint32_t* mutable_column(int k) {
    return block_.get() + kHeaderWords + static_cast<size_t>(k) * capacity();
  }
  void set_size(size_t n) { block_[0] = static_cast<uint32_t>(n); }
  void Put(size_t i, const SpineKey& key) {
    const size_t c = capacity();
    uint32_t* e = block_.get() + kHeaderWords + i;
    e[0] = key[0];
    e[c] = key[1];
    e[2 * c] = key[2];
  }
  // True when this handle is the only owner, so the block may be
  // written in place.
  bool unique() const { return block_.use_count() == 1; }

  std::shared_ptr<uint32_t[]> block_;
};

/// A run [first, last) of a spine's global slots, with the index of the
/// leaf that holds slot `first` (meaningful when the run is non-empty),
/// so iterating the run needs no second search for its first leaf.
struct SpineRun {
  size_t first = 0;
  size_t last = 0;
  size_t leaf = 0;

  size_t size() const { return last - first; }
  bool empty() const { return first == last; }
};

/// A sorted set of 3-part keys stored as a sequence of shared leaves
/// (SpineLeaf handles) — the copy-on-write column spine behind Graph's
/// primary order and its three permutations.
///
/// Copying a Spine copies leaf *handles* (O(n / leaf size)), not leaf
/// contents. Apply, the one write, rewrites only the leaves its delta
/// touches, so an epoch that changed k keys shares every other leaf
/// with its predecessor and publication cost is proportional to k, not
/// to the spine.
///
/// Apply walks the touched leaves once and writes each of them once: in
/// place when the handle is unique and the block has room for all the
/// leaf's inserts, otherwise as one fresh block. Capacity rule (fixed):
///   * BulkBuild, and so an Apply to an empty spine, and cut pieces size
///     every block exactly;
///   * a fresh block replacing a shared leaf of n entries gets
///     CloneCapacity(n) = n + 1 + n/8 entries (or the result's size, if
///     larger), so the writer's next inserts into it within the same
///     epoch stay in place;
///   * a unique leaf without room moves to a block of GrowCapacity(c) =
///     2c entries, c its capacity (or the result's size, if larger);
///   * no block holds more than kLeafMax entries: a result larger than
///     that is cut into m / (kLeafMax / 2) equal, exactly sized pieces —
///     two halves for a leaf that overflows by one key;
///   * a leaf left empty is removed.
///
/// Concurrency contract (matching Graph's): one writer mutates a spine
/// while readers only access *other* Spine objects that share leaves
/// with it. The use_count()==1 in-place path is sound because a leaf
/// reachable from any reader is held by that reader's own spine, so its
/// count is at least 2 and the writer writes a fresh block instead.
class Spine {
 public:
  /// Largest leaf. Bulk builds and cuts leave leaves about half this
  /// full, so fresh leaves absorb inserts without being cut again soon.
  static constexpr size_t kLeafMax = 2048;

  /// The capacity rule above.
  static constexpr size_t CloneCapacity(size_t n) {
    return std::min(kLeafMax, n + 1 + n / 8);
  }
  static constexpr size_t GrowCapacity(size_t n) {
    return std::min(kLeafMax, 2 * n);
  }

  Spine() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t leaf_count() const { return leaves_.size(); }
  /// kLeafRefBytes per reserved metadata slot plus every leaf's bytes().
  size_t bytes() const;

  void Clear();
  /// Rebuilds from entries that are already sorted and deduplicated.
  void BulkBuild(const std::vector<SpineKey>& entries) {
    BulkBuild(entries.size(), [&](size_t i) { return entries[i]; });
  }
  /// Rebuilds from `n` sorted, deduplicated keys produced by
  /// `key_at(i)`, filling one exactly sized block per leaf.
  template <typename KeyAt>
  void BulkBuild(size_t n, KeyAt key_at);

  bool Contains(const SpineKey& key) const { return !Locate(key).empty(); }
  /// The one write besides BulkBuild and Clear: erases every key of
  /// `erases` and inserts every key of `inserts`. Both spans are sorted,
  /// distinct and disjoint. Erasing an absent key or inserting a present
  /// one is a no-op. Returns the number of keys that changed.
  /// O(delta · log + touched leaves' sizes + leaves after the first
  /// touched one).
  size_t Apply(std::span<const SpineKey> erases,
               std::span<const SpineKey> inserts);

  /// The key at global slot `slot` (< size()).
  SpineKey At(size_t slot) const;

  /// All keys in order, materialized (O(n)), for checks and tests.
  std::vector<SpineKey> Keys() const;

  /// First global slot whose key is >= `key` (== size() if none): a
  /// binary search over the leaves' first keys, then one over the
  /// chosen leaf's columns. `scanned` (optional) accumulates the probes
  /// of both searches.
  size_t LowerBound(const SpineKey& key, size_t* scanned = nullptr) const;

  /// The run of entries equal to `key`: empty or one entry, starting at
  /// LowerBound(key) — one two-level search for a fully bound lookup.
  SpineRun Locate(const SpineKey& key) const;

  /// The run of entries with k0 == key0 (and, when key1 is non-null,
  /// k1 == *key1 within that run). Exactly std::equal_range over the
  /// flattened columns. The lower end is a LowerBound of the prefix
  /// padded with zeros; the upper end is found by galloping from it
  /// inside the same leaf when the run ends there (or at the leaf's end,
  /// with the next leaf's first key outside the run), and otherwise by a
  /// LowerBound of the prefix's successor. `scanned` (optional)
  /// accumulates the probes, for scan observability.
  SpineRun EqualRange(uint32_t key0, const uint32_t* key1,
                      size_t* scanned = nullptr) const;

  /// Leaf geometry, for range iteration and per-leaf filter kernels.
  /// LeafIndexOf requires slot < size(); it is a binary search over the
  /// leaves' starts, which a SpineRun's `leaf` saves its iterators.
  size_t LeafIndexOf(size_t slot) const;
  /// LeafIndexOf calls made so far on the calling thread: lets tests pin
  /// which paths search for a leaf.
  static uint64_t leaf_index_searches();
  const SpineLeaf& leaf(size_t li) const { return leaves_[li].leaf; }
  size_t leaf_start(size_t li) const { return leaves_[li].start; }
  /// The first key of leaf li, as the per-leaf metadata caches it
  /// (always equal to leaf(li).at(0)).
  const SpineKey& leaf_first(size_t li) const { return leaves_[li].first; }

  /// Number of this spine's leaves that are the *same block* (equal
  /// id()) as some leaf of `other` — the shared fraction of a published
  /// snapshot. A shared leaf has the same first key on both sides, so
  /// this is one merge walk over the two metadata arrays by first key.
  /// O(leaves), no hashing.
  size_t CountSharedLeavesWith(const Spine& other) const;

  /// Set equality with `other`. Streaming merge-walk over both leaf
  /// sequences (which may chunk the same contents differently);
  /// aligned shared leaves compare by block identity in O(1).
  bool EqualContents(const Spine& other) const;

  /// Lexicographic order of the two key sequences (std::vector-style
  /// `<` over the flattened entries), walked leaf by leaf without
  /// materializing either side.
  bool LexLess(const Spine& other) const;

 private:
  // One entry per leaf, in key order: the leaf, the global slot of its
  // first entry and a copy of its first key. The first keys sit in one
  // contiguous array, so finding a key's leaf dereferences no leaf.
  // Apply renumbers the starts once per call.
  struct LeafRef {
    SpineLeaf leaf;
    size_t start = 0;
    SpineKey first{};
  };

 public:
  /// Metadata bytes per leaf slot, as bytes() counts them.
  static constexpr size_t kLeafRefBytes = sizeof(LeafRef);

 private:
  // Index of the leaf a key belongs to (the last leaf whose first key
  // is <= key), or 0 when the key precedes everything. Adds its probes
  // to *probes.
  size_t LeafForKey(const SpineKey& key, size_t* probes) const;
  // Copies entries [from, to) of `src` to slot `at` of `dst`, which may
  // be the same block.
  static void CopyRun(const SpineLeaf& src, size_t from, size_t to,
                      SpineLeaf* dst, size_t at);
  // Writes `src` without the present `erases` and with the absent
  // `inserts` (keys of its range) into `dst`, which has room for the
  // result, by run copies; `dst` may be `src` when `inserts` is empty,
  // and null to only count. Returns the keys erased and added.
  static std::pair<size_t, size_t> MergeInto(const SpineLeaf& src,
                                             std::span<const SpineKey> erases,
                                             std::span<const SpineKey> inserts,
                                             SpineLeaf* dst);
  // The same in a unique `leaf` with room for all of `inserts`: the
  // erases close their gaps front to back, then the inserts open theirs
  // back to front.
  static std::pair<size_t, size_t> MergeInPlace(
      SpineLeaf* leaf, std::span<const SpineKey> erases,
      std::span<const SpineKey> inserts);
  // Appends `whole`, larger than kLeafMax, to `out` cut into exactly
  // sized leaves, the first starting at global slot `start`.
  static void Cut(const SpineLeaf& whole, size_t start,
                  std::vector<LeafRef>* out);

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
    SpineLeaf leaf(count);
    uint32_t* k0 = leaf.mutable_column(0);
    uint32_t* k1 = leaf.mutable_column(1);
    uint32_t* k2 = leaf.mutable_column(2);
    for (size_t i = 0; i < count; ++i) {
      const SpineKey k = key_at(base + i);
      k0[i] = k[0];
      k1[i] = k[1];
      k2[i] = k[2];
    }
    leaf.set_size(count);
    const SpineKey first = leaf.at(0);
    leaves_.push_back(LeafRef{std::move(leaf), base, first});
  }
  size_ = n;
}

}  // namespace swdb

#endif  // SWDB_RDF_SPINE_H_
