#include "rdf/graph.h"

#include <algorithm>
#include <array>

namespace swdb {

const char* IndexOrderName(IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return "spo";
    case IndexOrder::kPso:
      return "pso";
    case IndexOrder::kPos:
      return "pos";
    case IndexOrder::kOsp:
      return "osp";
    case IndexOrder::kFullScan:
      return "scan";
  }
  return "?";
}

namespace {

// The raw term bits of a triple permuted into each order's key
// sequence. Term::operator< compares packed bits, so lexicographic
// order over these uint32 keys is exactly the Triple comparators'
// order — the spine refactor cannot change enumeration order.
inline SpineKey KeySpo(const Triple& t) {
  return {t.s.bits(), t.p.bits(), t.o.bits()};
}
inline SpineKey KeyPso(const Triple& t) {
  return {t.p.bits(), t.s.bits(), t.o.bits()};
}
inline SpineKey KeyPos(const Triple& t) {
  return {t.p.bits(), t.o.bits(), t.s.bits()};
}
inline SpineKey KeyOsp(const Triple& t) {
  return {t.o.bits(), t.s.bits(), t.p.bits()};
}

// *out = the keys of `triples` under `key_of`, sorted.
template <typename Triples>
void SortedKeys(const Triples& triples, SpineKey (*key_of)(const Triple&),
                std::vector<SpineKey>* out) {
  out->clear();
  for (const Triple& t : triples) out->push_back(key_of(t));
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
  }
}

}  // namespace

// --- MatchRange ------------------------------------------------------

MatchRange::const_iterator::const_iterator(const Spine* spine,
                                           IndexOrder order, size_t idx,
                                           size_t limit, size_t leaf)
    : spine_(spine), order_(order), idx_(idx), limit_(limit) {
  leaf_base_ = idx;
  leaf_end_ = idx;
  if (idx_ < limit_) LoadLeaf(leaf);
}

void MatchRange::const_iterator::LoadLeaf(size_t li) {
  const SpineLeaf& leaf = spine_->leaf(li);
  leaf_ = li;
  leaf_base_ = spine_->leaf_start(li);
  leaf_end_ = leaf_base_ + leaf.size();
  col_s_ = leaf.column(ColumnOfPosition(order_, 0));
  col_p_ = leaf.column(ColumnOfPosition(order_, 1));
  col_o_ = leaf.column(ColumnOfPosition(order_, 2));
}

// --- MatchCursor -----------------------------------------------------

MatchCursor::MatchCursor(const MatchRange& range, int pos)
    : range_(range),
      column_(ColumnOfPosition(range.order(), pos)),
      slot_(range.run_.first),
      leaf_(range.run_.leaf) {}

MatchRange MatchCursor::Seek(uint32_t key, size_t* probes) {
  if (key < last_) {
    slot_ = range_.run_.first;
    leaf_ = range_.run_.leaf;
  }
  last_ = key;
  Gallop(key, /*past_equal=*/false, &slot_, &leaf_, probes);
  size_t end = slot_;
  size_t end_leaf = leaf_;
  Gallop(key, /*past_equal=*/true, &end, &end_leaf, probes);
  return MatchRange::Over(range_.spine_, SpineRun{slot_, end, leaf_},
                          range_.order_);
}

void MatchCursor::Gallop(uint32_t key, bool past_equal, size_t* slot,
                         size_t* leaf, size_t* probes) const {
  const size_t last = range_.run_.last;
  if (*slot == last) return;
  // Rows "before" the target are the ones to skip.
  const auto before = [&](uint32_t x) {
    ++*probes;
    return past_equal ? x <= key : x < key;
  };
  // With col[in] before and col[past] not, gallop up from `in` to
  // bracket the first row not before, then bisect.
  const auto first_not_before = [&](const uint32_t* col, size_t in,
                                    size_t past) {
    for (size_t step = 1; in + step < past; step <<= 1) {
      if (!before(col[in + step])) {
        past = in + step;
        break;
      }
      in += step;
    }
    while (past - in > 1) {
      const size_t mid = in + (past - in) / 2;
      if (before(col[mid])) {
        in = mid;
      } else {
        past = mid;
      }
    }
    return past;
  };
  const Spine& spine = *range_.spine_;
  size_t li = *leaf;
  size_t base = spine.leaf_start(li);
  const uint32_t* col = spine.leaf(li).column(column_);
  size_t end = std::min(spine.leaf(li).size(), last - base);  // in-leaf end
  const size_t at = *slot - base;
  if (!before(col[at])) return;
  if (!before(col[end - 1])) {
    *slot = base + first_not_before(col, at, end - 1);
    return;
  }
  if (base + end == last) {
    *slot = last;
    return;
  }
  // Every row left in this leaf is before the target. Gallop over the
  // next leaves' cached first keys (each a row of the range while the
  // leaf starts before its end) for the first leaf that does not start
  // before the target; the target is then in the leaf ahead of it.
  const auto leaf_past = [&](size_t j) {
    return spine.leaf_start(j) >= last ||
           !before(spine.leaf_first(j)[static_cast<size_t>(column_)]);
  };
  size_t in = li;
  size_t past = spine.leaf_count();
  for (size_t step = 1; in + step < past; step <<= 1) {
    if (leaf_past(in + step)) {
      past = in + step;
      break;
    }
    in += step;
  }
  while (past - in > 1) {
    const size_t mid = in + (past - in) / 2;
    if (leaf_past(mid)) {
      past = mid;
    } else {
      in = mid;
    }
  }
  if (in != li) {
    // Leaf `in` starts before the target: search its rows after the
    // first.
    li = in;
    base = spine.leaf_start(li);
    col = spine.leaf(li).column(column_);
    end = std::min(spine.leaf(li).size(), last - base);
    if (!before(col[end - 1])) {
      *slot = base + first_not_before(col, 0, end - 1);
      *leaf = li;
      return;
    }
  }
  // The target opens the next leaf, or is the range's end.
  *slot = base + end;
  *leaf = li + 1;
}

// --- Graph -----------------------------------------------------------

Graph::Graph(std::initializer_list<Triple> triples)
    : Graph(std::vector<Triple>(triples)) {}

Graph::Graph(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  *this = FromSorted(triples.data(), triples.size());
}

Graph Graph::FromSorted(const Triple* triples, size_t n) {
  Graph g;
  g.spo_.BulkBuild(n, [triples](size_t i) { return KeySpo(triples[i]); });
  return g;
}

size_t Graph::Apply(std::span<const Triple> erases,
                    std::span<const Triple> inserts) {
  // Each spine takes the delta as keys sorted into its own order, in
  // buffers the writing thread reuses, so a one-triple write allocates
  // nothing.
  thread_local std::vector<SpineKey> erase_keys, insert_keys;
  auto apply = [&](Spine& spine, SpineKey (*key_of)(const Triple&)) {
    SortedKeys(erases, key_of, &erase_keys);
    SortedKeys(inserts, key_of, &insert_keys);
    return spine.Apply(erase_keys, insert_keys);
  };
  const size_t changed = apply(spo_, KeySpo);
  if (changed == 0) return 0;
  ++epoch_;
  if (indexes_valid_) {
    apply(pso_, KeyPso);
    apply(pos_, KeyPos);
    apply(osp_, KeyOsp);
    index_patches_.Add(1);
  }
  return changed;
}

bool Graph::Contains(const Triple& t) const { return spo_.Contains(KeySpo(t)); }

std::vector<Triple> Graph::triples() const {
  std::vector<Triple> out;
  out.reserve(spo_.size());
  for (size_t li = 0; li < spo_.leaf_count(); ++li) {
    const SpineLeaf& leaf = spo_.leaf(li);
    const uint32_t* k0 = leaf.column(0);
    const uint32_t* k1 = leaf.column(1);
    const uint32_t* k2 = leaf.column(2);
    for (size_t i = 0; i < leaf.size(); ++i) {
      out.emplace_back(Term::FromBits(k0[i]), Term::FromBits(k1[i]),
                       Term::FromBits(k2[i]));
    }
  }
  return out;
}

bool Graph::operator==(const Graph& other) const {
  return spo_.EqualContents(other.spo_);
}

bool TriplesLess(const Graph& a, const Graph& b) {
  return a.spo_.LexLess(b.spo_);
}

bool Graph::IsSubgraphOf(const Graph& other) const {
  if (size() > other.size()) return false;
  // Merge-walk of two sorted streams (std::includes over input
  // iterators whose operator* reuses scratch storage).
  const_iterator a = begin();
  const const_iterator ae = end();
  const_iterator b = other.begin();
  const const_iterator be = other.end();
  while (a != ae) {
    if (b == be) return false;
    const Triple ta = *a;
    const Triple tb = *b;
    if (tb < ta) {
      ++b;
    } else if (ta < tb) {
      return false;
    } else {
      ++a;
      ++b;
    }
  }
  return true;
}

MatchRange Graph::KindRun(int pos, TermKind kind) const {
  const uint32_t lo_bits = static_cast<uint32_t>(kind) << 30;
  const uint32_t hi_bits = (static_cast<uint32_t>(kind) + 1) << 30;
  auto run = [&](const Spine& ix, IndexOrder order) {
    SpineRun r;
    r.first = ix.LowerBound({lo_bits, 0, 0});
    r.last = ix.LowerBound({hi_bits, 0, 0});
    if (!r.empty()) r.leaf = ix.LeafIndexOf(r.first);
    return MatchRange::Over(&ix, r, order);
  };
  if (pos == 0) return run(spo_, IndexOrder::kSpo);
  EnsureIndexes();
  return pos == 1 ? run(pso_, IndexOrder::kPso) : run(osp_, IndexOrder::kOsp);
}

std::vector<Term> Graph::Universe() const {
  std::vector<Term> terms;
  terms.reserve(spo_.size() * 3);
  for (const Triple& t : *this) {
    terms.push_back(t.s);
    terms.push_back(t.p);
    terms.push_back(t.o);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

std::vector<Term> Graph::Vocabulary() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsIri(); }),
              terms.end());
  return terms;
}

std::vector<Term> Graph::BlankNodes() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsBlank(); }),
              terms.end());
  return terms;
}

std::vector<Term> Graph::Variables() const {
  std::vector<Term> terms = Universe();
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](Term t) { return !t.IsVar(); }),
              terms.end());
  return terms;
}

bool Graph::IsGround() const {
  for (const Triple& t : *this) {
    if (!t.IsGround()) return false;
  }
  return true;
}

bool Graph::IsSimple() const {
  for (const Triple& t : *this) {
    if (vocab::IsRdfsVocab(t.s) || vocab::IsRdfsVocab(t.p) ||
        vocab::IsRdfsVocab(t.o)) {
      return false;
    }
  }
  return true;
}

bool Graph::IsWellFormedData() const {
  for (const Triple& t : *this) {
    if (!t.IsWellFormedData()) return false;
  }
  return true;
}

Graph Graph::Union(const Graph& g1, const Graph& g2) {
  Graph out = g1;
  out.InsertAll(g2);
  return out;
}

void Graph::EnsureIndexes() const {
  if (indexes_valid_) return;
  std::vector<SpineKey> keys;
  keys.reserve(spo_.size());
  auto build = [&](Spine& ix, SpineKey (*key_of)(const Triple&)) {
    SortedKeys(*this, key_of, &keys);
    ix.BulkBuild(keys);
  };
  build(pso_, KeyPso);
  build(pos_, KeyPos);
  build(osp_, KeyOsp);
  indexes_valid_ = true;
  index_rebuilds_.Add(1);
}

GraphStats Graph::Stats() const {
  GraphStats s;
  s.index_rebuilds = index_rebuilds_.value();
  s.index_patches = index_patches_.value();
  s.matches_calls = matches_calls_.value();
  s.rows_scanned = rows_scanned_.value();
  s.rows_yielded = rows_yielded_.value();
  s.indexes_built = indexes_valid_;
  s.bytes_primary = spo_.bytes();
  s.bytes_pso = pso_.bytes();
  s.bytes_pos = pos_.bytes();
  s.bytes_osp = osp_.bytes();
  s.leaves_primary = spo_.leaf_count();
  s.leaves_index =
      pso_.leaf_count() + pos_.leaf_count() + osp_.leaf_count();
  return s;
}

SpineSharing Graph::SharedLeaves(const Graph& other) const {
  SpineSharing s;
  s.shared += spo_.CountSharedLeavesWith(other.spo_);
  s.total += spo_.leaf_count();
  if (indexes_valid_ && other.indexes_valid_) {
    s.shared += pso_.CountSharedLeavesWith(other.pso_);
    s.shared += pos_.CountSharedLeavesWith(other.pos_);
    s.shared += osp_.CountSharedLeavesWith(other.osp_);
    s.total += pso_.leaf_count() + pos_.leaf_count() + osp_.leaf_count();
  }
  return s;
}

MatchRange Graph::Seek(MatchCursor* cursor, Term value) const {
  size_t probes = 0;
  const MatchRange run = cursor->Seek(value.bits(), &probes);
  rows_scanned_.Add(probes);
  rows_yielded_.Add(run.size());
  return run;
}

MatchRange Graph::Matches(std::optional<Term> s, std::optional<Term> p,
                          std::optional<Term> o) const {
  matches_calls_.Add(1);

  // One- or two-key equal range over a spine's sorted columns: k0 ==
  // key0, then (optionally) k1 == key1 within the k0 run. Each bound is
  // a search over the leaves' first keys plus one in-leaf search.
  auto range_of = [&](const Spine& ix, uint32_t key0, const uint32_t* key1,
                      IndexOrder order) {
    size_t scanned = 0;
    const SpineRun run = ix.EqualRange(key0, key1, &scanned);
    rows_scanned_.Add(scanned);
    rows_yielded_.Add(run.size());
    return MatchRange::Over(&ix, run, order);
  };

  if (s) {
    if (p && o) {
      // Fully bound: a zero- or one-element run in the primary order.
      const SpineRun run = spo_.Locate(KeySpo(Triple(*s, *p, *o)));
      rows_yielded_.Add(run.size());
      return MatchRange::Over(&spo_, run, IndexOrder::kSpo);
    }
    if (o) {
      // (s, *, o): contiguous under (o,s,p).
      EnsureIndexes();
      const uint32_t key1 = s->bits();
      return range_of(osp_, o->bits(), &key1, IndexOrder::kOsp);
    }
    // (s) or (s, p): prefix runs of the primary (s,p,o) order.
    const uint32_t key1 = p ? p->bits() : 0;
    return range_of(spo_, s->bits(), p ? &key1 : nullptr, IndexOrder::kSpo);
  }
  if (p) {
    EnsureIndexes();
    if (o) {
      const uint32_t key1 = o->bits();
      return range_of(pos_, p->bits(), &key1, IndexOrder::kPos);
    }
    return range_of(pso_, p->bits(), nullptr, IndexOrder::kPso);
  }
  if (o) {
    EnsureIndexes();
    return range_of(osp_, o->bits(), nullptr, IndexOrder::kOsp);
  }
  rows_yielded_.Add(spo_.size());
  return MatchRange::Over(&spo_, SpineRun{0, spo_.size(), 0},
                          IndexOrder::kFullScan);
}

}  // namespace swdb
