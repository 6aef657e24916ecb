#include "rdf/spine.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace swdb {

namespace {

// Lexicographic lower bound of `key` within entries [lo, hi) of one
// leaf's columns (hi is capped at the leaf's size).
size_t LeafLowerBound(const SpineLeaf& leaf, const SpineKey& key,
                      size_t* probes, size_t lo = 0, size_t hi = SIZE_MAX) {
  hi = std::min(hi, leaf.size());
  const uint32_t* k0 = leaf.column(0);
  const uint32_t* k1 = leaf.column(1);
  const uint32_t* k2 = leaf.column(2);
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

void Spine::CopyRun(const SpineLeaf& src, size_t from, size_t to,
                    SpineLeaf* dst, size_t at) {
  for (int k = 0; k < 3; ++k) {
    std::memmove(dst->mutable_column(k) + at, src.column(k) + from,
                 (to - from) * sizeof(uint32_t));
  }
}

std::pair<size_t, size_t> Spine::MergeInto(const SpineLeaf& src,
                                           std::span<const SpineKey> erases,
                                           std::span<const SpineKey> inserts,
                                           SpineLeaf* dst) {
  const size_t n = src.size();
  size_t from = 0;  // next entry of src to copy
  size_t out = 0;   // next slot of dst to write
  auto copy_to = [&](size_t to) {
    // In place, the run before the first erased key stays where it is.
    if (dst != nullptr && to != from && (dst != &src || out != from)) {
      CopyRun(src, from, to, dst, out);
    }
    out += to - from;
    from = to;
  };
  size_t probes = 0, e = 0, i = 0, gone = 0, added = 0;
  while (e < erases.size() || i < inserts.size()) {
    const bool erase =
        i == inserts.size() || (e < erases.size() && erases[e] < inserts[i]);
    const SpineKey& key = erase ? erases[e++] : inserts[i++];
    const size_t at = LeafLowerBound(src, key, &probes, from);
    if (erase != (at < n && src.at(at) == key)) continue;  // a no-op
    copy_to(at);
    if (erase) {
      ++from;
      ++gone;
    } else {
      if (dst != nullptr) dst->Put(out, key);
      ++out;
      ++added;
    }
  }
  copy_to(n);
  if (dst != nullptr) dst->set_size(out);
  return {gone, added};
}

std::pair<size_t, size_t> Spine::MergeInPlace(
    SpineLeaf* leaf, std::span<const SpineKey> erases,
    std::span<const SpineKey> inserts) {
  const size_t gone = MergeInto(*leaf, erases, {}, leaf).first;
  // Entries [0, hi) are still in place. The entries above are moved up by
  // `left`, the inserts not placed yet, which counts a slot for each
  // present insert too: the gap they leave above [0, hi) is closed at
  // the end.
  const size_t n = leaf->size();
  size_t hi = n, left = inserts.size(), probes = 0;
  for (size_t j = inserts.size(); j-- > 0;) {
    const SpineKey& key = inserts[j];
    const size_t at = LeafLowerBound(*leaf, key, &probes, 0, hi);
    if (at < hi && leaf->at(at) == key) continue;
    CopyRun(*leaf, at, hi, leaf, at + left);
    leaf->Put(at + --left, key);
    hi = at;
  }
  const size_t m = n + inserts.size() - left;
  if (left != 0) CopyRun(*leaf, hi + left, m + left, leaf, hi);
  leaf->set_size(m);
  return {gone, inserts.size() - left};
}

void Spine::Cut(const SpineLeaf& whole, size_t start,
                std::vector<LeafRef>* out) {
  // Pieces of kLeafMax / 2 to 3/4 kLeafMax entries, the larger ones last
  // (two halves, the right one larger, for one key over kLeafMax).
  const size_t m = whole.size();
  const size_t pieces = m / (kLeafMax / 2);
  for (size_t j = 0, from = 0; j < pieces; ++j) {
    const size_t size = m / pieces + (j >= pieces - m % pieces ? 1 : 0);
    SpineLeaf piece(size);
    CopyRun(whole, from, from + size, &piece, 0);
    piece.set_size(size);
    const SpineKey first = piece.at(0);
    out->push_back(LeafRef{std::move(piece), start + from, first});
    from += size;
  }
}

size_t Spine::Apply(std::span<const SpineKey> erases,
                    std::span<const SpineKey> inserts) {
  if (leaves_.empty()) {
    BulkBuild(inserts.size(), [&](size_t i) { return inserts[i]; });
    return size_;
  }
  size_t changed = 0;
  size_t shift = 0;  // size change so far (mod 2^64): later starts move by it
  size_t next = 0;   // leaves_[next, ...) still carry their old starts
  auto renumber = [&](size_t to) {
    for (; shift != 0 && next < to; ++next) leaves_[next].start += shift;
    next = to;
  };
  for (size_t e = 0, i = 0; e < erases.size() || i < inserts.size();) {
    // The leaf of the least remaining key takes every key below the
    // next leaf's first key.
    size_t probes = 0;
    const size_t li = LeafForKey(
        i == inserts.size() || (e < erases.size() && erases[e] < inserts[i])
            ? erases[e]
            : inserts[i],
        &probes);
    const SpineKey* bound =
        li + 1 < leaves_.size() ? &leaves_[li + 1].first : nullptr;
    auto take = [&](std::span<const SpineKey> keys, size_t* pos) {
      const size_t from = *pos;
      while (*pos < keys.size() && (!bound || keys[*pos] < *bound)) ++*pos;
      return keys.subspan(from, *pos - from);
    };
    const auto leaf_erases = take(erases, &e);
    const auto leaf_inserts = take(inserts, &i);
    SpineLeaf& leaf = leaves_[li].leaf;
    const size_t n = leaf.size();
    // In place when the block has room for every insert; otherwise
    // count first, so a no-op share copies nothing.
    const bool in_place =
        leaf.unique() && n + leaf_inserts.size() <= leaf.capacity();
    const auto [gone, added] =
        in_place ? MergeInPlace(&leaf, leaf_erases, leaf_inserts)
                 : MergeInto(leaf, leaf_erases, leaf_inserts, nullptr);
    if (gone + added == 0) continue;
    changed += gone + added;
    const size_t m = n - gone + added;
    renumber(li);
    leaves_[li].start += shift;
    shift += m - n;
    if (m == 0 || m > kLeafMax) {
      // The leaf is removed, or replaced by the pieces it is cut into.
      std::vector<LeafRef> pieces;
      if (m != 0) {
        SpineLeaf whole(m);
        MergeInto(leaf, leaf_erases, leaf_inserts, &whole);
        Cut(whole, leaves_[li].start, &pieces);
      }
      const auto at =
          leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
      leaves_.insert(at, std::make_move_iterator(pieces.begin()),
                     std::make_move_iterator(pieces.end()));
      next = li + pieces.size();
      continue;
    }
    if (!in_place) {
      SpineLeaf fresh(std::max(m, leaf.unique() ? GrowCapacity(leaf.capacity())
                                                : CloneCapacity(n)));
      MergeInto(leaf, leaf_erases, leaf_inserts, &fresh);
      leaf = std::move(fresh);
    }
    leaves_[li].first = leaf.at(0);
    next = li + 1;
  }
  renumber(leaves_.size());
  size_ += shift;
  return changed;
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
