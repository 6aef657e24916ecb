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
    root_epoch_ = target_->epoch();
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
      if (inserted) slots_.push_back({terms[pos], terms[pos].IsBlank(), 0, 0});
      ct.slot[pos] = it->second;
    }
    for (int a = 0; a < 3 && ct.rep_a < 0; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        if (ct.slot[a] != kNoSlot && ct.slot[a] == ct.slot[b]) {
          ct.rep_a = static_cast<int8_t>(a);
          ct.rep_b = static_cast<int8_t>(b);
          break;
        }
      }
    }
    compiled_.push_back(ct);
  }
  // Holders by slot, as a counting sort of the (slot, triple) pairs. A
  // triple that repeats a slot does not hold it once.
  const auto holds_once = [](const CompiledTriple& ct, int pos) {
    const int32_t s = ct.slot[pos];
    return s != kNoSlot &&
           (ct.slot[0] == s) + (ct.slot[1] == s) + (ct.slot[2] == s) == 1;
  };
  for (const CompiledTriple& ct : compiled_) {
    for (int pos = 0; pos < 3; ++pos) {
      if (holds_once(ct, pos)) ++slots_[ct.slot[pos]].holders_end;
    }
  }
  uint32_t total = 0;
  for (SlotInfo& info : slots_) {
    info.holders_begin = total;
    total += info.holders_end;
    info.holders_end = info.holders_begin;
  }
  holders_.resize(total);
  for (size_t i = 0; i < compiled_.size(); ++i) {
    for (int pos = 0; pos < 3; ++pos) {
      if (holds_once(compiled_[i], pos)) {
        holders_[slots_[compiled_[i].slot[pos]].holders_end++] =
            static_cast<uint32_t>(i);
      }
    }
  }
  row_scratch_.resize(pattern_.size());
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
  for (Selectivity& sel : sel_) sel.version = {};
  if (!roots_.empty() && root_epoch_ != target_->epoch()) DropRootRanges();
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
    Search(0, visitor, &stopped);
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
  size_t best = depth;
  size_t best_count = std::numeric_limits<size_t>::max();
  for (size_t i = depth; i < pending_.size(); ++i) {
    const size_t idx = pending_[i];
    const CompiledTriple& ct = compiled_[idx];
    Selectivity& sel = sel_[idx];
    // The cached count is valid while none of the triple's slots was
    // bound or unbound since it was computed.
    bool valid = true;
    for (int pos = 0; pos < 3; ++pos) {
      int32_t slot = ct.slot[pos];
      if (slot != kNoSlot && sel.version[pos] != slot_version_[slot]) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      sel.range = ResolveRange(idx);
      StampVersions(idx);
    }
    if (sel.range.size() < best_count) {
      best_count = sel.range.size();
      best = i;
      if (best_count == 0) break;
    }
  }
  if (depth == 0 && !roots_.empty()) root_pick_ = best;
  return best;
}

void PatternMatcher::StampVersions(size_t idx) {
  const CompiledTriple& ct = compiled_[idx];
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    sel_[idx].version[pos] = slot == kNoSlot ? 0 : slot_version_[slot];
  }
}

MatchRange PatternMatcher::ResolveRange(size_t idx, int32_t open) {
  const CompiledTriple& ct = compiled_[idx];
  RootRange* root = nullptr;
  if (!roots_.empty()) {
    bool any_bound = false;
    for (int pos = 0; pos < 3; ++pos) {
      const int32_t slot = ct.slot[pos];
      any_bound |= slot != kNoSlot && slot != open && bound_[slot] != 0;
    }
    if (!any_bound) {
      root = &roots_[idx];
      if (root->valid) return root->range;
    }
  }
  ++stats_.selectivity_recomputes;
  const auto at = [&](int pos) {
    return ct.slot[pos] == open ? std::nullopt : Resolve(ct, pos);
  };
  const MatchRange range =
      open == kNoSlot
          ? target_->Matches(Resolve(ct, 0), Resolve(ct, 1), Resolve(ct, 2))
          : target_->Matches(at(0), at(1), at(2));
  if (root != nullptr) *root = RootRange{range, true};
  return range;
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

PatternMatcher::SiblingScan PatternMatcher::StartSiblings(
    size_t idx, const MatchRange& range) const {
  SiblingScan scan;
  // The range's bound positions are its key prefix; the candidates are
  // sorted by the column after it.
  const CompiledTriple& ct = compiled_[idx];
  int prefix = 0;
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    prefix += slot == kNoSlot || bound_[slot] ? 1 : 0;
  }
  if (prefix == 3) return scan;
  const int32_t lead = ct.slot[PositionOfColumn(range.order(), prefix)];
  const SlotInfo& info = slots_[lead];
  if (info.holders_end - info.holders_begin < 2) return scan;
  scan.lead = lead;
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = ct.slot[pos];
    if (slot != kNoSlot && !bound_[slot]) scan.binds[pos] = slot;
  }
  scan.pick = static_cast<uint32_t>(idx);
  scan.lead_version = slot_version_[lead];
  scan.next = info.holders_begin;
  scan.end = info.holders_end;
  scan.base = sibling_stack_.size();
  // Start at the first holder that can take a cursor; a node with none
  // has no scan.
  while (scan.next < scan.end && SiblingLeadAt(scan, holders_[scan.next]) < 0) {
    ++scan.next;
  }
  if (scan.next == scan.end) return SiblingScan();
  return scan;
}

int PatternMatcher::SiblingLeadAt(const SiblingScan& scan,
                                  uint32_t idx) const {
  if (idx == scan.pick) return -1;
  // The lead was unbound at the node, so every other holder is still
  // pending. Judged by the bindings at the node: a candidate may have
  // bound scan.binds since.
  const CompiledTriple& t = compiled_[idx];
  int prefix = 0;
  int lead_at = -1;
  std::array<bool, 3> fixed = {};  // bound positions of its range
  for (int pos = 0; pos < 3; ++pos) {
    const int32_t slot = t.slot[pos];
    if (slot == scan.lead) {
      lead_at = pos;
    } else if (slot != kNoSlot &&
               (slot == scan.binds[0] || slot == scan.binds[1] ||
                slot == scan.binds[2])) {
      return -1;  // bound by the candidate
    } else if (slot == kNoSlot || bound_[slot]) {
      fixed[pos] = true;
      ++prefix;
    }
  }
  // Its range must be keyed by the lead right after its prefix.
  const IndexOrder order = MatchOrder(fixed[0], fixed[1], fixed[2]);
  return ColumnOfPosition(order, lead_at) == prefix ? lead_at : -1;
}

bool PatternMatcher::SeekSiblings(SiblingScan* scan) {
  const Term value = binding_[scan->lead];
  const std::optional<Triple>& exclude = options_.exclude_triple;
  const auto seek = [&](Sibling* sib) {
    ++stats_.sibling_seeks;
    sib->run = target_->Seek(&sib->cursor, value);
    // A sole excluded triple is no match either.
    return !sib->run.empty() &&
           !(sib->run.size() == 1 && exclude.has_value() &&
             *sib->run.begin() == *exclude);
  };
  for (size_t i = scan->base; i < sibling_stack_.size(); ++i) {
    if (!seek(&sibling_stack_[i])) {
      ++stats_.sibling_prunes;
      return false;
    }
  }
  // Open the holders not examined yet.
  while (scan->next < scan->end) {
    const uint32_t idx = holders_[scan->next++];
    const int lead_at = SiblingLeadAt(*scan, idx);
    if (lead_at < 0) continue;
    const CompiledTriple& t = compiled_[idx];
    // The node's PickNext left the range in its selectivity entry (no
    // subtree of the node runs before every holder was examined); the
    // stamps tell, the lead's taken as of the node. A probe loop's
    // root node may find it stale and resolve it from the kept roots.
    const Selectivity& sel = sel_[idx];
    bool current = true;
    for (int pos = 0; pos < 3; ++pos) {
      const int32_t slot = t.slot[pos];
      if (slot == kNoSlot) continue;
      current &= sel.version[pos] == (slot == scan->lead
                                          ? scan->lead_version
                                          : slot_version_[slot]);
    }
    const MatchRange range =
        current ? sel.range : ResolveRange(idx, scan->lead);
    if (sibling_stack_.capacity() == 0) {
      sibling_stack_.reserve(3 * pattern_.size());
    }
    sibling_stack_.push_back(Sibling{idx, MatchCursor(range, lead_at), {}});
    if (!seek(&sibling_stack_.back())) {
      ++stats_.sibling_prunes;
      return false;
    }
  }
  for (size_t i = scan->base; i < sibling_stack_.size(); ++i) {
    const Sibling& sib = sibling_stack_[i];
    sel_[sib.idx].range = sib.run;
    StampVersions(sib.idx);
  }
  return true;
}

bool PatternMatcher::Search(size_t depth,
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

  size_t pick = options_.static_order ? depth : PickNext(depth);
  std::swap(pending_[depth], pending_[pick]);
  const CompiledTriple& ct = compiled_[pending_[depth]];

  // PickNext just resolved the picked triple's range under the current
  // bindings (deeper nodes only touch the entries of later pending
  // triples), so only the static order resolves it here.
  const MatchRange range =
      options_.static_order
          ? target_->Matches(Resolve(ct, 0), Resolve(ct, 1), Resolve(ct, 2))
          : sel_[pending_[depth]].range;
  ++stats_.nodes_expanded;
  ++stats_.index_hits[static_cast<size_t>(range.order())];

  const bool have_exclude = options_.exclude_triple.has_value();
  const Triple exclude =
      have_exclude ? *options_.exclude_triple : Triple();
  // The node's sibling cursors, when its pick has two or more
  // candidates (see the class comment).
  SiblingScan scan;

  // Repeated-position residual: while the shared slot is unbound, the
  // index range constrains only the other positions, so every candidate
  // whose repeated positions differ is a guaranteed TryBind reject.
  // Filter them in one pass over the backing column and materialize only
  // the survivors.
  if (ct.rep_a >= 0 && !bound_[ct.slot[ct.rep_a]] && !range.empty()) {
    std::vector<uint32_t>& rows = row_scratch_[depth];
    rows.clear();
    range.FilterPairEqual(ct.rep_a, ct.rep_b, &rows);
    stats_.candidates_scanned += range.size();
    if (!options_.static_order && rows.size() >= 2) {
      scan = StartSiblings(pending_[depth], range);
    }
    for (uint32_t row : rows) {
      const Triple& tt = range.TripleAt(row);
      if (have_exclude && tt == exclude) continue;
      ++stats_.binds_attempted;
      const size_t mark = trail_.size();
      if (TryBind(ct, tt) &&
          (exclude_pattern_ < 0 || !ExcludedPatternHit()) &&
          (scan.lead == kNoSlot || SeekSiblings(&scan))) {
        Search(depth + 1, visitor, stopped);
      }
      UndoTo(mark);
      if (budget_exhausted_ || *stopped) break;
    }
  } else {
    if (!options_.static_order && range.size() >= 2) {
      scan = StartSiblings(pending_[depth], range);
    }
    for (const Triple& tt : range) {
      ++stats_.candidates_scanned;
      if (have_exclude && tt == exclude) continue;
      ++stats_.binds_attempted;
      const size_t mark = trail_.size();
      // A bind that maps the excluded pattern triple onto the excluded
      // triple ends the branch: that triple has no other image below.
      // So does an empty sibling run.
      if (TryBind(ct, tt) &&
          (exclude_pattern_ < 0 || !ExcludedPatternHit()) &&
          (scan.lead == kNoSlot || SeekSiblings(&scan))) {
        Search(depth + 1, visitor, stopped);
      }
      UndoTo(mark);
      if (budget_exhausted_ || *stopped) break;
    }
  }
  if (scan.lead != kNoSlot) {
    sibling_stack_.erase(
        sibling_stack_.begin() + static_cast<std::ptrdiff_t>(scan.base),
        sibling_stack_.end());
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
