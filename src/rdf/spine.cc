#include "rdf/spine.h"

#include <algorithm>

namespace swdb {

namespace {

// Lexicographic lower bound of `key` within one leaf's columns.
size_t LeafLowerBound(const SpineLeaf& leaf, const SpineKey& key,
                      size_t* probes) {
  size_t lo = 0, hi = leaf.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*probes;
    bool less;
    if (leaf.k0[mid] != key[0]) {
      less = leaf.k0[mid] < key[0];
    } else if (leaf.k1[mid] != key[1]) {
      less = leaf.k1[mid] < key[1];
    } else {
      less = leaf.k2[mid] < key[2];
    }
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool LeafKeyEquals(const SpineLeaf& leaf, size_t i, const SpineKey& key) {
  return leaf.k0[i] == key[0] && leaf.k1[i] == key[1] &&
         leaf.k2[i] == key[2];
}

template <typename Col>
void InsertAt(Col& col, size_t slot, uint32_t v) {
  col.insert(col.begin() + static_cast<std::ptrdiff_t>(slot), v);
}
template <typename Col>
void EraseAt(Col& col, size_t slot) {
  col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
}

}  // namespace

size_t Spine::bytes() const {
  size_t total = leaves_.capacity() * sizeof(LeafRef);
  for (const LeafRef& ref : leaves_) total += ref.leaf->bytes();
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

bool Spine::Contains(const SpineKey& key) const { return Locate(key).second; }

std::pair<size_t, bool> Spine::Locate(const SpineKey& key) const {
  if (empty()) return {0, false};
  size_t probes = 0;
  const LeafRef& ref = leaves_[LeafForKey(key, &probes)];
  const size_t slot = LeafLowerBound(*ref.leaf, key, &probes);
  return {ref.start + slot,
          slot < ref.leaf->size() && LeafKeyEquals(*ref.leaf, slot, key)};
}

SpineLeaf* Spine::Mutable(size_t li) {
  std::shared_ptr<SpineLeaf>& leaf = leaves_[li].leaf;
  if (leaf.use_count() != 1) leaf = std::make_shared<SpineLeaf>(*leaf);
  return leaf.get();
}

void Spine::Split(size_t li) {
  SpineLeaf& left = *leaves_[li].leaf;  // caller just made it unshared
  const size_t half = left.size() / 2;
  auto right = std::make_shared<SpineLeaf>();
  right->k0.assign(left.k0.begin() + half, left.k0.end());
  right->k1.assign(left.k1.begin() + half, left.k1.end());
  right->k2.assign(left.k2.begin() + half, left.k2.end());
  left.k0.resize(half);
  left.k1.resize(half);
  left.k2.resize(half);
  left.k0.shrink_to_fit();
  left.k1.shrink_to_fit();
  left.k2.shrink_to_fit();
  const size_t start = leaves_[li].start + half;
  const SpineKey first = right->at(0);
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                 LeafRef{std::move(right), start, first});
}

bool Spine::Insert(const SpineKey& key) {
  if (empty()) {
    auto leaf = std::make_shared<SpineLeaf>();
    leaf->k0.push_back(key[0]);
    leaf->k1.push_back(key[1]);
    leaf->k2.push_back(key[2]);
    leaves_.push_back(LeafRef{std::move(leaf), 0, key});
    size_ = 1;
    return true;
  }
  size_t probes = 0;
  const size_t li = LeafForKey(key, &probes);
  const size_t slot = LeafLowerBound(*leaves_[li].leaf, key, &probes);
  if (slot < leaves_[li].leaf->size() &&
      LeafKeyEquals(*leaves_[li].leaf, slot, key)) {
    return false;
  }
  SpineLeaf* leaf = Mutable(li);
  InsertAt(leaf->k0, slot, key[0]);
  InsertAt(leaf->k1, slot, key[1]);
  InsertAt(leaf->k2, slot, key[2]);
  // Only a key below every other lands at slot 0 (LeafForKey picks leaf
  // 0 for it), so this is the one case that moves a first key.
  if (slot == 0) leaves_[li].first = key;
  // Renumber the tail before any split: Split computes the new leaf's
  // start in post-insert numbering already.
  for (size_t j = li + 1; j < leaves_.size(); ++j) ++leaves_[j].start;
  if (leaf->size() > kLeafMax) Split(li);
  ++size_;
  return true;
}

bool Spine::Erase(const SpineKey& key) {
  if (empty()) return false;
  size_t probes = 0;
  const size_t li = LeafForKey(key, &probes);
  const size_t slot = LeafLowerBound(*leaves_[li].leaf, key, &probes);
  if (slot == leaves_[li].leaf->size() ||
      !LeafKeyEquals(*leaves_[li].leaf, slot, key)) {
    return false;
  }
  SpineLeaf* leaf = Mutable(li);
  EraseAt(leaf->k0, slot);
  EraseAt(leaf->k1, slot);
  EraseAt(leaf->k2, slot);
  const bool emptied = leaf->size() == 0;
  if (emptied) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
  } else if (slot == 0) {
    leaves_[li].first = leaf->at(0);
  }
  for (size_t j = li + (emptied ? 0 : 1); j < leaves_.size(); ++j) {
    --leaves_[j].start;
  }
  --size_;
  return true;
}

SpineKey Spine::At(size_t slot) const {
  const LeafRef& ref = leaves_[LeafIndexOf(slot)];
  return ref.leaf->at(slot - ref.start);
}

std::vector<SpineKey> Spine::Keys() const {
  std::vector<SpineKey> out;
  out.reserve(size_);
  for (const LeafRef& ref : leaves_) {
    const SpineLeaf& leaf = *ref.leaf;
    for (size_t i = 0; i < leaf.size(); ++i) out.push_back(leaf.at(i));
  }
  return out;
}

size_t Spine::LeafIndexOf(size_t slot) const {
  // Last leaf whose start is <= slot.
  const auto it = std::upper_bound(
      leaves_.begin(), leaves_.end(), slot,
      [](size_t s, const LeafRef& ref) { return s < ref.start; });
  return static_cast<size_t>(it - leaves_.begin()) - 1;
}

size_t Spine::LowerBound(const SpineKey& key, size_t* scanned) const {
  if (empty()) return 0;
  size_t probes = 0;
  const LeafRef& ref = leaves_[LeafForKey(key, &probes)];
  // A key past the leaf's last entry yields slot == leaf size, which is
  // the next leaf's start: the key lies below that leaf's first key.
  const size_t slot = ref.start + LeafLowerBound(*ref.leaf, key, &probes);
  if (scanned != nullptr) *scanned += probes;
  return slot;
}

std::pair<size_t, size_t> Spine::EqualRange(uint32_t key0,
                                            const uint32_t* key1,
                                            size_t* scanned) const {
  if (empty()) return {0, 0};
  // The run starts at the prefix's lower bound. Every entry from there
  // on is >= the prefix, so the run is the stretch that still matches.
  const auto in_run = [&](const SpineKey& k) {
    return k[0] == key0 && (key1 == nullptr || k[1] == *key1);
  };
  size_t probes = 0;
  const SpineKey from = {key0, key1 != nullptr ? *key1 : 0, 0};
  size_t li = LeafForKey(from, &probes);
  size_t lo = LeafLowerBound(*leaves_[li].leaf, from, &probes);
  if (lo == leaves_[li].leaf->size() && li + 1 < leaves_.size()) {
    ++li;  // the prefix lies past this leaf: its run opens the next
    lo = 0;
  }
  const SpineLeaf& leaf = *leaves_[li].leaf;
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
    return {start + lo, end};
  }
  if (scanned != nullptr) *scanned += probes;
  return {start + lo, start + hi};
}

bool Spine::EqualContents(const Spine& other) const {
  if (size_ != other.size_) return false;
  size_t ai = 0, ao = 0;  // our leaf index / offset within it
  size_t bi = 0, bo = 0;  // theirs
  for (size_t done = 0; done < size_;) {
    const SpineLeaf& la = *leaves_[ai].leaf;
    const SpineLeaf& lb = *other.leaves_[bi].leaf;
    if (ao == 0 && bo == 0 && &la == &lb) {
      done += la.size();
      ++ai;
      ++bi;
      continue;
    }
    const size_t run = std::min(la.size() - ao, lb.size() - bo);
    const auto d = static_cast<std::ptrdiff_t>(run);
    if (!std::equal(la.k0.begin() + ao, la.k0.begin() + ao + d,
                    lb.k0.begin() + bo) ||
        !std::equal(la.k1.begin() + ao, la.k1.begin() + ao + d,
                    lb.k1.begin() + bo) ||
        !std::equal(la.k2.begin() + ao, la.k2.begin() + ao + d,
                    lb.k2.begin() + bo)) {
      return false;
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
    const SpineLeaf& la = *leaves_[ai].leaf;
    const SpineLeaf& lb = *other.leaves_[bi].leaf;
    if (ao == 0 && bo == 0 && &la == &lb) {
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
      if (a.leaf == b.leaf) ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace swdb
