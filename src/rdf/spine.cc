#include "rdf/spine.h"

#include <algorithm>

namespace swdb {

namespace {

// Lexicographic lower bound of `key` within one leaf's columns.
size_t LeafLowerBound(const SpineLeaf& leaf, const SpineKey& key,
                      size_t* probes) {
  const uint32_t* k0 = leaf.column(0);
  const uint32_t* k1 = leaf.column(1);
  const uint32_t* k2 = leaf.column(2);
  size_t lo = 0, hi = leaf.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*probes;
    bool less;
    if (k0[mid] != key[0]) {
      less = k0[mid] < key[0];
    } else if (k1[mid] != key[1]) {
      less = k1[mid] < key[1];
    } else {
      less = k2[mid] < key[2];
    }
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

thread_local uint64_t tls_leaf_index_searches = 0;

}  // namespace

size_t Spine::bytes() const {
  size_t total = leaves_.capacity() * kLeafRefBytes;
  for (const LeafRef& ref : leaves_) total += ref.leaf.bytes();
  return total;
}

void Spine::Clear() {
  leaves_.clear();
  size_ = 0;
}

size_t Spine::LeafForKey(const SpineKey& key, size_t* probes) const {
  // Last leaf whose first key is <= key: partition the leaves by
  // "first key > key" and step back one.
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*probes;
    if (leaves_[mid].first <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

SpineRun Spine::Locate(const SpineKey& key) const {
  if (empty()) return {};
  size_t probes = 0;
  const size_t li = LeafForKey(key, &probes);
  const LeafRef& ref = leaves_[li];
  const size_t slot = LeafLowerBound(ref.leaf, key, &probes);
  const bool hit = slot < ref.leaf.size() && ref.leaf.at(slot) == key;
  return {ref.start + slot, ref.start + slot + (hit ? 1 : 0), li};
}

SpineLeaf Spine::CopyInserting(const SpineLeaf& src, size_t slot,
                               const SpineKey& key, size_t from, size_t to,
                               size_t capacity) {
  // Entry e of the post-insert sequence is src[e] below the slot, `key`
  // at it and src[e - 1] above it.
  SpineLeaf out(capacity);
  const size_t above = std::max(from, slot + 1);
  for (int k = 0; k < 3; ++k) {
    const uint32_t* s = src.column(k);
    uint32_t* d = out.mutable_column(k);
    if (from < slot) std::copy(s + from, s + std::min(slot, to), d);
    if (from <= slot && slot < to) d[slot - from] = key[k];
    if (above < to) std::copy(s + above - 1, s + to - 1, d + (above - from));
  }
  out.set_size(to - from);
  return out;
}

SpineLeaf Spine::CopyErasing(const SpineLeaf& src, size_t slot,
                             size_t capacity) {
  SpineLeaf out(capacity);
  const size_t n = src.size();
  for (int k = 0; k < 3; ++k) {
    const uint32_t* s = src.column(k);
    uint32_t* d = out.mutable_column(k);
    std::copy(s, s + slot, d);
    std::copy(s + slot + 1, s + n, d + slot);
  }
  out.set_size(n - 1);
  return out;
}

void Spine::SplitInsert(size_t li, size_t slot, const SpineKey& key) {
  const SpineLeaf& full = leaves_[li].leaf;
  const size_t n = full.size() + 1;  // entries after the insert
  const size_t half = n / 2;
  SpineLeaf right = CopyInserting(full, slot, key, half, n, n - half);
  leaves_[li].leaf = CopyInserting(full, slot, key, 0, half, half);
  const size_t start = leaves_[li].start + half;
  const SpineKey first = right.at(0);
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                 LeafRef{std::move(right), start, first});
}

bool Spine::Insert(const SpineKey& key) {
  if (empty()) {
    SpineLeaf leaf(1);
    leaf.Put(0, key);
    leaf.set_size(1);
    leaves_.push_back(LeafRef{std::move(leaf), 0, key});
    size_ = 1;
    return true;
  }
  size_t probes = 0;
  const size_t li = LeafForKey(key, &probes);
  SpineLeaf& leaf = leaves_[li].leaf;
  const size_t slot = LeafLowerBound(leaf, key, &probes);
  const size_t n = leaf.size();
  if (slot < n && leaf.at(slot) == key) return false;
  // Renumber the tail first: a split computes its right half's start in
  // post-insert numbering already.
  for (size_t j = li + 1; j < leaves_.size(); ++j) ++leaves_[j].start;
  if (n == kLeafMax) {
    SplitInsert(li, slot, key);
  } else if (leaf.unique() && n < leaf.capacity()) {
    for (int k = 0; k < 3; ++k) {
      uint32_t* c = leaf.mutable_column(k);
      std::copy_backward(c + slot, c + n, c + n + 1);
    }
    leaf.Put(slot, key);
    leaf.set_size(n + 1);
  } else {
    const size_t capacity = leaf.unique() ? GrowCapacity(n) : CloneCapacity(n);
    leaf = CopyInserting(leaf, slot, key, 0, n + 1, capacity);
  }
  // Only a key below every other lands at slot 0 (LeafForKey picks leaf
  // 0 for it), so this is the one case that moves a first key.
  if (slot == 0) leaves_[li].first = key;
  ++size_;
  return true;
}

bool Spine::Erase(const SpineKey& key) {
  if (empty()) return false;
  size_t probes = 0;
  const size_t li = LeafForKey(key, &probes);
  SpineLeaf& leaf = leaves_[li].leaf;
  const size_t slot = LeafLowerBound(leaf, key, &probes);
  const size_t n = leaf.size();
  if (slot == n || leaf.at(slot) != key) return false;
  const bool emptied = n == 1;
  if (emptied) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
  } else {
    if (leaf.unique()) {
      for (int k = 0; k < 3; ++k) {
        uint32_t* c = leaf.mutable_column(k);
        std::copy(c + slot + 1, c + n, c + slot);
      }
      leaf.set_size(n - 1);
    } else {
      leaf = CopyErasing(leaf, slot, CloneCapacity(n));
    }
    if (slot == 0) leaves_[li].first = leaf.at(0);
  }
  for (size_t j = li + (emptied ? 0 : 1); j < leaves_.size(); ++j) {
    --leaves_[j].start;
  }
  --size_;
  return true;
}

SpineKey Spine::At(size_t slot) const {
  const LeafRef& ref = leaves_[LeafIndexOf(slot)];
  return ref.leaf.at(slot - ref.start);
}

std::vector<SpineKey> Spine::Keys() const {
  std::vector<SpineKey> out;
  out.reserve(size_);
  for (const LeafRef& ref : leaves_) {
    for (size_t i = 0; i < ref.leaf.size(); ++i) out.push_back(ref.leaf.at(i));
  }
  return out;
}

size_t Spine::LeafIndexOf(size_t slot) const {
  ++tls_leaf_index_searches;
  // Last leaf whose start is <= slot.
  const auto it = std::upper_bound(
      leaves_.begin(), leaves_.end(), slot,
      [](size_t s, const LeafRef& ref) { return s < ref.start; });
  return static_cast<size_t>(it - leaves_.begin()) - 1;
}

uint64_t Spine::leaf_index_searches() { return tls_leaf_index_searches; }
size_t Spine::LowerBound(const SpineKey& key, size_t* scanned) const {
  if (empty()) return 0;
  size_t probes = 0;
  const LeafRef& ref = leaves_[LeafForKey(key, &probes)];
  // A key past the leaf's last entry yields slot == leaf size, which is
  // the next leaf's start: the key lies below that leaf's first key.
  const size_t slot = ref.start + LeafLowerBound(ref.leaf, key, &probes);
  if (scanned != nullptr) *scanned += probes;
  return slot;
}

SpineRun Spine::EqualRange(uint32_t key0, const uint32_t* key1,
                           size_t* scanned) const {
  if (empty()) return {};
  // The run starts at the prefix's lower bound. Every entry from there
  // on is >= the prefix, so the run is the stretch that still matches.
  const auto in_run = [&](const SpineKey& k) {
    return k[0] == key0 && (key1 == nullptr || k[1] == *key1);
  };
  size_t probes = 0;
  const SpineKey from = {key0, key1 != nullptr ? *key1 : 0, 0};
  size_t li = LeafForKey(from, &probes);
  size_t lo = LeafLowerBound(leaves_[li].leaf, from, &probes);
  if (lo == leaves_[li].leaf.size() && li + 1 < leaves_.size()) {
    ++li;  // the prefix lies past this leaf: its run opens the next
    lo = 0;
  }
  const SpineLeaf& leaf = leaves_[li].leaf;
  const size_t start = leaves_[li].start;
  const size_t n = leaf.size();
  size_t hi;  // in-leaf end of the run
  if (lo == n || !in_run(leaf.at(lo))) {
    hi = lo;  // empty run
  } else if (!in_run(leaf.at(n - 1))) {
    // The run ends inside this leaf: gallop from its first entry to
    // bracket the first entry past it, then bisect.
    size_t in = lo;       // in the run
    size_t past = n - 1;  // past the run
    for (size_t step = 1; in + step < past; step <<= 1) {
      ++probes;
      if (!in_run(leaf.at(in + step))) {
        past = in + step;
        break;
      }
      in += step;
    }
    while (past - in > 1) {
      const size_t mid = in + (past - in) / 2;
      ++probes;
      if (in_run(leaf.at(mid))) {
        in = mid;
      } else {
        past = mid;
      }
    }
    hi = past;
  } else if (li + 1 == leaves_.size() || !in_run(leaves_[li + 1].first)) {
    hi = n;  // the run ends with the leaf
  } else {
    // The run continues into later leaves: search for the prefix's
    // successor. A prefix with no successor (every remaining key part
    // is UINT32_MAX) runs to the end.
    constexpr uint32_t kMax = UINT32_MAX;
    size_t end = size_;
    if (key1 != nullptr && *key1 != kMax) {
      end = LowerBound({key0, *key1 + 1, 0}, &probes);
    } else if (key0 != kMax) {
      end = LowerBound({key0 + 1, 0, 0}, &probes);
    }
    if (scanned != nullptr) *scanned += probes;
    return {start + lo, end, li};
  }
  if (scanned != nullptr) *scanned += probes;
  return {start + lo, start + hi, li};
}

bool Spine::EqualContents(const Spine& other) const {
  if (size_ != other.size_) return false;
  size_t ai = 0, ao = 0;  // our leaf index / offset within it
  size_t bi = 0, bo = 0;  // theirs
  for (size_t done = 0; done < size_;) {
    const SpineLeaf& la = leaves_[ai].leaf;
    const SpineLeaf& lb = other.leaves_[bi].leaf;
    if (ao == 0 && bo == 0 && la.id() == lb.id()) {
      done += la.size();
      ++ai;
      ++bi;
      continue;
    }
    const size_t run = std::min(la.size() - ao, lb.size() - bo);
    for (int k = 0; k < 3; ++k) {
      const uint32_t* ca = la.column(k) + ao;
      if (!std::equal(ca, ca + run, lb.column(k) + bo)) return false;
    }
    ao += run;
    bo += run;
    done += run;
    if (ao == la.size()) {
      ++ai;
      ao = 0;
    }
    if (bo == lb.size()) {
      ++bi;
      bo = 0;
    }
  }
  return true;
}

bool Spine::LexLess(const Spine& other) const {
  // Leaves are never empty, so a leaf index past the end means the
  // sequence is exhausted.
  size_t ai = 0, ao = 0;
  size_t bi = 0, bo = 0;
  for (;;) {
    if (bi == other.leaves_.size()) return false;
    if (ai == leaves_.size()) return true;
    const SpineLeaf& la = leaves_[ai].leaf;
    const SpineLeaf& lb = other.leaves_[bi].leaf;
    if (ao == 0 && bo == 0 && la.id() == lb.id()) {
      ++ai;
      ++bi;
      continue;
    }
    const SpineKey ka = la.at(ao);
    const SpineKey kb = lb.at(bo);
    if (ka != kb) return ka < kb;
    if (++ao == la.size()) {
      ++ai;
      ao = 0;
    }
    if (++bo == lb.size()) {
      ++bi;
      bo = 0;
    }
  }
}

size_t Spine::CountSharedLeavesWith(const Spine& other) const {
  // First keys strictly increase along each spine, and a shared leaf
  // holds the same keys on both sides, so every shared pair meets at
  // equal first keys in one merge walk.
  size_t shared = 0;
  size_t i = 0, j = 0;
  while (i < leaves_.size() && j < other.leaves_.size()) {
    const LeafRef& a = leaves_[i];
    const LeafRef& b = other.leaves_[j];
    if (a.first < b.first) {
      ++i;
    } else if (b.first < a.first) {
      ++j;
    } else {
      if (a.leaf.id() == b.leaf.id()) ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace swdb
