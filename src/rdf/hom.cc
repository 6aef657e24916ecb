#include "rdf/hom.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "util/check.h"

namespace swdb {

namespace {

// An open term is one the matcher must assign: a blank node or variable.
bool IsOpen(Term t) { return !t.IsIri(); }

}  // namespace

// ---------------------------------------------------------------------------
// FlatTermSet

void PatternMatcher::FlatTermSet::Reset(size_t max_elements) {
  size_t cap = 8;
  while (cap < 4 * max_elements) cap <<= 1;  // load factor ≤ 1/4
  table_.assign(cap, kEmpty);
  mask_ = cap - 1;
}

bool PatternMatcher::FlatTermSet::Contains(uint32_t key) const {
  for (size_t i = Home(key);; i = (i + 1) & mask_) {
    if (table_[i] == key) return true;
    if (table_[i] == kEmpty) return false;
  }
}

void PatternMatcher::FlatTermSet::Insert(uint32_t key) {
  size_t i = Home(key);
  while (table_[i] != kEmpty) i = (i + 1) & mask_;
  table_[i] = key;
}

void PatternMatcher::FlatTermSet::Erase(uint32_t key) {
  size_t i = Home(key);
  while (table_[i] != key) i = (i + 1) & mask_;
  // Backward-shift deletion: pull forward any probe-chain entry whose
  // home slot lies cyclically at or before the hole.
  size_t j = i;
  for (;;) {
    table_[i] = kEmpty;
    for (;;) {
      j = (j + 1) & mask_;
      if (table_[j] == kEmpty) return;
      size_t home = Home(table_[j]);
      if (((j - home) & mask_) >= ((j - i) & mask_)) break;
    }
    table_[i] = table_[j];
    i = j;
  }
}

// ---------------------------------------------------------------------------
// PatternMatcher

PatternMatcher::PatternMatcher(std::vector<Triple> pattern,
                               const Graph* target, MatchOptions options)
    : pattern_(std::move(pattern)), target_(target), options_(options) {
  assert(target_ != nullptr);
  CompilePattern();
  FindExcludedPattern();
}

PatternMatcher::PatternMatcher(const Graph& pattern, const Graph* target,
                               MatchOptions options)
    : PatternMatcher(pattern.triples(), target, options) {}

void PatternMatcher::set_target(const Graph* target) {
  assert(target != nullptr);
  target_ = target;
  if (!roots_.empty()) DropRootRanges();
}

void PatternMatcher::set_exclude_triple(std::optional<Triple> t) {
  options_.exclude_triple = std::move(t);
  FindExcludedPattern();
  if (roots_.empty()) {
    roots_.resize(pattern_.size());
    DropRootRanges();
  }
}

void PatternMatcher::FindExcludedPattern() {
  const std::optional<Triple>& t = options_.exclude_triple;
  const size_t n = pattern_.size();
  // Probe loops exclude the pattern's triples in order, so the scan
  // starts after the previous hit.
  const size_t start =
      exclude_pattern_ < 0 ? 0 : static_cast<size_t>(exclude_pattern_) + 1;
  exclude_pattern_ = -1;
  if (!t.has_value()) return;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    if (pattern_[i] == *t) {
      exclude_pattern_ = static_cast<int32_t>(i);
      return;
    }
  }
}

void PatternMatcher::DropRootRanges() {
  std::fill(roots_.begin(), roots_.end(), RootRange());
  root_epoch_ = target_->epoch();
  root_pick_ = kNoPick;
  for (Selectivity& sel : sel_) sel.anchor = -1;
}

void PatternMatcher::CompilePattern() {
  std::unordered_map<Term, int32_t> slot_of;
  compiled_.reserve(pattern_.size());
  for (const Triple& t : pattern_) {
    CompiledTriple ct;
    ct.consts = t;
    const Term terms[3] = {t.s, t.p, t.o};
    for (int pos = 0; pos < 3; ++pos) {
      if (!IsOpen(terms[pos])) {
        ct.slot[pos] = kNoSlot;
        continue;
      }
      auto [it, inserted] =
          slot_of.try_emplace(terms[pos], static_cast<int32_t>(slots_.size()));
      if (inserted) slots_.push_back({terms[pos], terms[pos].IsBlank()});
      ct.slot[pos] = it->second;
    }
    compiled_.push_back(ct);
  }
  binding_.resize(slots_.size());
  bound_.assign(slots_.size(), 0);
  slot_version_.assign(slots_.size(), 1);
  sel_.assign(pattern_.size(), Selectivity());
  trail_.reserve(slots_.size());
  pending_.reserve(pattern_.size());
}

bool PatternMatcher::ResetSearchState() {
  steps_ = 0;
  budget_exhausted_ = false;
  stats_ = MatchStats();
  trail_.clear();
  std::fill(bound_.begin(), bound_.end(), uint8_t{0});
  std::fill(slot_version_.begin(), slot_version_.end(), 1u);
  // Version 0 marks an entry never computed; its stale range is not read.
  // Cursors, like the kept root ranges, last from one probe of a
  // set_exclude_triple loop to the next; any other run starts without.
  if (!roots_.empty() && root_epoch_ != target_->epoch()) DropRootRanges();
  const bool keep_cursors = !roots_.empty();
  for (Selectivity& sel : sel_) {
    sel.version = {};
    if (!keep_cursors) sel.anchor = -1;
  }
  empty_hint_ = kNoPick;
  pending_.clear();
  size_t blank_slots = 0;
  for (const SlotInfo& s : slots_) blank_slots += s.is_blank ? 1 : 0;
  if (options_.injective_blanks) used_blank_values_.Reset(blank_slots);

  // Fully ground pattern triples are containment checks; fail fast.
  for (size_t i = 0; i < pattern_.size(); ++i) {
    const Triple& t = pattern_[i];
    if (!IsOpen(t.s) && !IsOpen(t.p) && !IsOpen(t.o)) {
      bool excluded = options_.exclude_triple && t == *options_.exclude_triple;
      if (excluded || !target_->Contains(t)) {
        return false;  // no solutions
      }
    } else {
      pending_.push_back(i);
    }
  }
  return true;
}

bool PatternMatcher::ConsumeStep() {
  if (++steps_ > options_.max_steps) {
    budget_exhausted_ = true;
    return false;
  }
  return true;
}

int32_t PatternMatcher::SlotOf(Term t) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].term == t) return static_cast<int32_t>(i);
  }
  return kNoSlot;
}

Status PatternMatcher::Enumerate(
    const std::function<bool(const TermMap&)>& visitor) {
  TermMap solution;
  return EnumerateRows([&](const Term* row) {
    // Bind overwrites in place, so after the first solution this
    // allocates nothing.
    for (size_t i = 0; i < slots_.size(); ++i) {
      solution.Bind(slots_[i].term, row[i]);
    }
    return visitor(solution);
  });
}

Status PatternMatcher::EnumerateRows(
    const std::function<bool(const Term*)>& visitor) {
  if (ResetSearchState()) {
    bool stopped = false;
    const bool pick = !options_.static_order && !pending_.empty();
    Search(0, pick ? PickNext(0) : 0, visitor, &stopped);
  }
  stats_.steps_used = steps_;
  if (options_.stats != nullptr) *options_.stats = stats_;
  if (budget_exhausted_) {
    return Status::LimitExceeded("pattern matcher step budget exhausted");
  }
  return Status::OK();
}

std::optional<Term> PatternMatcher::Resolve(const CompiledTriple& ct,
                                            int pos) const {
  int32_t slot = ct.slot[pos];
  if (slot == kNoSlot) {
    return pos == 0 ? ct.consts.s : pos == 1 ? ct.consts.p : ct.consts.o;
  }
  if (bound_[slot]) return binding_[slot];
  return std::nullopt;
}

size_t PatternMatcher::PickNext(size_t depth) {
  // Nothing is bound at depth 0, so while the root ranges are kept the
  // first pick is the same in every probe.
  if (depth == 0 && root_pick_ != kNoPick) {
    const size_t idx = pending_[root_pick_];
    sel_[idx].range = roots_[idx].range;
    StampVersions(idx);
    return root_pick_;
  }
  // Any empty pick ends its candidate, so the triple found empty last is
  // tried first: in a star join it is the one that refutes.
  for (size_t i = depth; i < pending_.size() && empty_hint_ != kNoPick; ++i) {
    if (pending_[i] != empty_hint_) continue;
    Refresh(empty_hint_);
    if (sel_[empty_hint_].range.empty()) return i;
    break;
  }
  size_t best = depth;
  size_t best_count = std::numeric_limits<size_t>::max();
  for (size_t i = depth; i < pending_.size(); ++i) {
    const size_t idx = pending_[i];
    Refresh(idx);
    if (sel_[idx].range.size() < best_count) {
      best_count = sel_[idx].range.size();
      best = i;
      if (best_count == 0) {
        empty_hint_ = idx;
        break;
      }
    }
  }
  if (depth == 0 && !roots_.empty()) root_pick_ = best;
  return best;
}

void PatternMatcher::Refresh(size_t idx) {
  const CompiledTriple& ct = compiled_[idx];
  Selectivity& sel = sel_[idx];
  // The cached range is valid while none of the triple's slots was
  // bound or unbound since it was resolved.
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    if (slot != kNoSlot && sel.version[pos] != slot_version_[slot]) {
      sel.range = ResolveRange(idx);
      StampVersions(idx);
      return;
    }
  }
}

void PatternMatcher::StampVersions(size_t idx) {
  const CompiledTriple& ct = compiled_[idx];
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    sel_[idx].version[pos] = slot == kNoSlot ? 0 : slot_version_[slot];
  }
}

MatchRange PatternMatcher::ResolveRange(size_t idx) {
  const CompiledTriple& ct = compiled_[idx];
  Selectivity& sel = sel_[idx];
  const Term consts[3] = {ct.consts.s, ct.consts.p, ct.consts.o};
  // What each position holds: raw term bits, or kUnbound.
  std::array<uint32_t, 3> held;
  bool any_bound = false;
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    if (slot == kNoSlot) {
      held[pos] = consts[pos].bits();
    } else if (bound_[slot]) {
      held[pos] = binding_[slot].bits();
      any_bound = true;
    } else {
      held[pos] = kUnbound;
    }
  }
  RootRange* root = roots_.empty() ? nullptr : &roots_[idx];
  if (sel.anchor < 0 && root != nullptr && root->valid) {
    // The kept root range was resolved with every slot unbound.
    std::array<uint32_t, 3> at_root = held;
    for (int pos = 0; pos < 3; ++pos) {
      if (ct.slot[pos] != kNoSlot) at_root[pos] = kUnbound;
    }
    Anchor(idx, root->range, at_root);
  }
  if (sel.anchor >= 0) {
    const int a = sel.anchor;
    bool same = held[a] != kUnbound;
    for (int pos = 0; pos < 3; ++pos) {
      same &= pos == a || held[pos] == sel.held[pos];
    }
    if (same) {
      ++stats_.cursor_seeks;
      return target_->Seek(&sel.cursor, Term::FromBits(held[a]));
    }
  }
  if (root != nullptr && !any_bound && root->valid) return root->range;
  ++stats_.selectivity_recomputes;
  const auto at = [&](int pos) {
    return held[pos] == kUnbound ? std::nullopt
                                 : std::optional<Term>(Term::FromBits(held[pos]));
  };
  const MatchRange range = target_->Matches(at(0), at(1), at(2));
  if (root != nullptr && !any_bound) *root = RootRange{range, true};
  Anchor(idx, range, held);
  return range;
}

void PatternMatcher::Anchor(size_t idx, const MatchRange& range,
                            const std::array<uint32_t, 3>& held) {
  // The held positions are the range's key prefix; its rows are sorted
  // by the column after it.
  const int prefix = static_cast<int>(std::count_if(
      held.begin(), held.end(), [](uint32_t h) { return h != kUnbound; }));
  if (prefix == 3) return;
  const CompiledTriple& ct = compiled_[idx];
  const int pos = PositionOfColumn(range.order(), prefix);
  const int32_t slot = ct.slot[pos];
  // A slot held twice would leave the run's other position unchecked.
  if ((ct.slot[0] == slot) + (ct.slot[1] == slot) + (ct.slot[2] == slot) != 1) {
    return;
  }
  Selectivity& sel = sel_[idx];
  sel.cursor = MatchCursor(range, pos);
  sel.anchor = pos;
  sel.held = held;
}

bool PatternMatcher::ExcludedPatternHit() const {
  const CompiledTriple& ct = compiled_[exclude_pattern_];
  const Term terms[3] = {ct.consts.s, ct.consts.p, ct.consts.o};
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    if (slot == kNoSlot) continue;
    // The pattern triple equals the excluded one, so it is bound to it
    // exactly when each open term is bound to itself.
    if (!bound_[slot] || binding_[slot] != terms[pos]) return false;
  }
  return true;
}

bool PatternMatcher::TryBind(const CompiledTriple& ct, const Triple& tt) {
  const Term target_terms[3] = {tt.s, tt.p, tt.o};
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    if (slot == kNoSlot) continue;  // constant: equal by range construction
    const Term v = target_terms[pos];
    if (bound_[slot]) {
      // Either bound before this node (then the index range already
      // guarantees equality) or bound by an earlier position of this
      // same triple (repeated term, e.g. (X,p,X)) — must agree.
      if (binding_[slot] != v) return false;
      continue;
    }
    const SlotInfo& info = slots_[slot];
    if (info.is_blank) {
      if (options_.blanks_to_blanks_only && !v.IsBlank()) return false;
      if (options_.injective_blanks) {
        if (used_blank_values_.Contains(v.bits())) return false;
        used_blank_values_.Insert(v.bits());
      }
    }
    binding_[slot] = v;
    bound_[slot] = 1;
    ++slot_version_[slot];
    trail_.push_back(static_cast<uint32_t>(slot));
  }
  return true;
}

void PatternMatcher::UndoTo(size_t mark) {
  while (trail_.size() > mark) {
    const uint32_t slot = trail_.back();
    trail_.pop_back();
    bound_[slot] = 0;
    ++slot_version_[slot];
    if (options_.injective_blanks && slots_[slot].is_blank) {
      used_blank_values_.Erase(binding_[slot].bits());
    }
  }
}

bool PatternMatcher::Search(size_t depth, size_t pick,
                            const std::function<bool(const Term*)>& visitor,
                            bool* stopped) {
  if (budget_exhausted_ || *stopped) return false;
  if (!ConsumeStep()) return false;
  if (depth == pending_.size()) {
    // Every slot is bound at a solution leaf: binding_ is the row.
    ++stats_.solutions_found;
    if (!visitor(binding_.data())) *stopped = true;
    return true;
  }

  std::swap(pending_[depth], pending_[pick]);
  const CompiledTriple& ct = compiled_[pending_[depth]];

  // The parent's PickNext just resolved the picked triple's range under
  // the current bindings, so only the static order resolves it here.
  const MatchRange range =
      options_.static_order
          ? target_->Matches(Resolve(ct, 0), Resolve(ct, 1), Resolve(ct, 2))
          : sel_[pending_[depth]].range;
  ++stats_.nodes_expanded;
  ++stats_.index_hits[static_cast<size_t>(range.order())];

  const bool have_exclude = options_.exclude_triple.has_value();
  const Triple exclude =
      have_exclude ? *options_.exclude_triple : Triple();
  // Under the dynamic order each candidate's child pick is made here.
  const bool pick_child = !options_.static_order && depth + 1 < pending_.size();
  for (const Triple& tt : range) {
    ++stats_.candidates_scanned;
    if (have_exclude && tt == exclude) continue;
    ++stats_.binds_attempted;
    const size_t mark = trail_.size();
    // A bind that maps the excluded pattern triple onto the excluded
    // triple ends the branch: that triple has no other image below. So
    // does a child pick with an empty range.
    if (TryBind(ct, tt) && (exclude_pattern_ < 0 || !ExcludedPatternHit())) {
      const size_t next = pick_child ? PickNext(depth + 1) : depth + 1;
      if (pick_child && sel_[pending_[next]].range.empty()) {
        ++stats_.empty_picks;
      } else {
        Search(depth + 1, next, visitor, stopped);
      }
    }
    UndoTo(mark);
    if (budget_exhausted_ || *stopped) break;
  }

  std::swap(pending_[depth], pending_[pick]);
  return true;
}

Result<std::optional<TermMap>> PatternMatcher::FindAny() {
  std::optional<TermMap> found;
  Status s = Enumerate([&found](const TermMap& m) {
    found = m;
    return false;
  });
  if (!s.ok() && !found.has_value()) return s;
  return found;
}

Result<std::optional<TermMap>> FindHomomorphism(const Graph& from,
                                                const Graph& to,
                                                MatchOptions options) {
  PatternMatcher matcher(from, &to, options);
  return matcher.FindAny();
}

Result<bool> TryHasHomomorphism(const Graph& from, const Graph& to,
                                MatchOptions options) {
  Result<std::optional<TermMap>> r = FindHomomorphism(from, to, options);
  if (!r.ok()) return r.status();
  return r->has_value();
}

Result<bool> TrySimpleEntails(const Graph& g1, const Graph& g2,
                              MatchOptions options) {
  return TryHasHomomorphism(g2, g1, options);
}

bool HasHomomorphism(const Graph& from, const Graph& to) {
  Result<bool> r = TryHasHomomorphism(from, to);
  SWDB_CHECK(r.ok(),
             "homomorphism step budget exhausted; use TryHasHomomorphism "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

bool SimpleEntails(const Graph& g1, const Graph& g2) {
  Result<bool> r = TrySimpleEntails(g1, g2);
  SWDB_CHECK(r.ok(),
             "simple-entailment step budget exhausted; use TrySimpleEntails "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

bool SimpleEquivalent(const Graph& g1, const Graph& g2) {
  return SimpleEntails(g1, g2) && SimpleEntails(g2, g1);
}

}  // namespace swdb
