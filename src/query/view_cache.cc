#include "query/view_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "query/answer.h"

namespace swdb {
namespace {

// Whether a body pattern triple unifies with a ground delta triple:
// constants coincide and a variable repeated across positions meets
// equal terms. Allocation-free; SeedOf then builds the valuation.
bool Unifies(const Triple& pattern, const Triple& data) {
  const Term ps[3] = {pattern.s, pattern.p, pattern.o};
  const Term ds[3] = {data.s, data.p, data.o};
  for (int i = 0; i < 3; ++i) {
    if (!ps[i].IsVar()) {
      if (ps[i] != ds[i]) return false;
      continue;
    }
    for (int j = 0; j < i; ++j) {
      if (ps[j] == ps[i] && ds[j] != ds[i]) return false;
    }
  }
  return true;
}

// The (partial) valuation sending `pattern` onto `data`; requires
// Unifies(pattern, data).
TermMap SeedOf(const Triple& pattern, const Triple& data) {
  TermMap seed;
  const Term ps[3] = {pattern.s, pattern.p, pattern.o};
  const Term ds[3] = {data.s, data.p, data.o};
  for (int i = 0; i < 3; ++i) {
    if (ps[i].IsVar()) seed.Bind(ps[i], ds[i]);
  }
  return seed;
}

// Whether some delta triple unifies with `pattern` — "can this delta
// create or destroy an image of this body triple". Sound because a
// matching appears (disappears) only when some body triple's image is
// an added (removed) nf triple, and images are unifications.
bool Touches(const Triple& pattern, const std::vector<Triple>& delta) {
  for (const Triple& d : delta) {
    if (Unifies(pattern, d)) return true;
  }
  return false;
}

// Whether every body triple's image under `m` is in `g` — a matching's
// defining property.
bool ImageIn(const TermMap& m, const std::vector<Triple>& body,
             const Graph& g) {
  for (const Triple& b : body) {
    if (!g.Contains(m.Apply(b))) return false;
  }
  return true;
}

// Index of `answer` in the sorted, unique answer vector, or
// answers.size() when it is not there.
size_t AnswerIndex(const std::vector<Graph>& answers, const Graph& answer) {
  const auto it =
      std::lower_bound(answers.begin(), answers.end(), answer, TriplesLess);
  if (it == answers.end() || *it != answer) return answers.size();
  return static_cast<size_t>(it - answers.begin());
}

// A matching as its row of values on the sorted body variables, and
// back. Rows compare lexicographically like ValuationLess on those
// variables; the patch's delta-sized sets hold them as vectors.
using Row = std::vector<Term>;

Row RowOf(const TermMap& v, const std::vector<Term>& vars) {
  Row row;
  row.reserve(vars.size());
  for (Term x : vars) row.push_back(v.Apply(x));
  return row;
}

TermMap MapOf(const Term* row, const std::vector<Term>& vars) {
  TermMap v;
  for (size_t k = 0; k < vars.size(); ++k) v.Bind(vars[k], row[k]);
  return v;
}

// A body triple with each position resolved to its variable's column
// in the row (-1 for a constant), so images of stored rows cost no
// lookups.
struct BodySlot {
  Triple pattern;
  int col[3];

  Triple ImageOf(const Term* row) const {
    auto at = [&](int pos, Term t) {
      return col[pos] < 0 ? t : row[static_cast<size_t>(col[pos])];
    };
    return Triple(at(0, pattern.s), at(1, pattern.p), at(2, pattern.o));
  }
};

std::vector<BodySlot> SlotsOf(const std::vector<Triple>& body,
                              const std::vector<Term>& vars) {
  std::vector<BodySlot> slots;
  for (const Triple& b : body) {
    BodySlot slot{b, {-1, -1, -1}};
    const Term ps[3] = {b.s, b.p, b.o};
    for (int pos = 0; pos < 3; ++pos) {
      if (!ps[pos].IsVar()) continue;
      slot.col[pos] = static_cast<int>(
          std::lower_bound(vars.begin(), vars.end(), ps[pos]) - vars.begin());
    }
    slots.push_back(slot);
  }
  return slots;
}

}  // namespace

std::optional<std::vector<Graph>> ViewCache::Lookup(
    const ViewKey& key, uint64_t version, uint64_t erase_stamp) const {
  std::shared_ptr<const std::vector<Graph>> answers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    // Valid iff proven against the consumer's nf version and not written
    // behind an erase/clear fence the consumer predates.
    if (it == entries_.end() || it->second.version != version ||
        it->second.stamp > erase_stamp) {
      ++counters_.misses;
      return std::nullopt;
    }
    ++counters_.hits;
    answers = it->second.answers;
  }
  // Copy outside the lock: a patch replaces the entry's vector rather
  // than mutating it, so this one stays intact while we hold it.
  return *answers;  // Graph copies share spines (COW)
}

bool ViewCache::RecordMiss(const ViewKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return false;
  // An existing entry means the miss came from a fenced (lagging)
  // consumer; materializing again could only produce a stale install.
  if (entries_.count(key) > 0) return false;
  auto it = shape_counts_.find(key);
  if (it == shape_counts_.end()) {
    if (shape_counts_.size() >= options_.max_shapes) return false;
    it = shape_counts_.emplace(key, 0u).first;
  }
  ++it->second;
  const uint32_t threshold =
      options_.promote_after == 0 ? 1u : options_.promote_after;
  return it->second >= threshold && entries_.size() < options_.max_entries;
}

void ViewCache::Install(const ViewKey& key, const Query& canonical,
                        Materialization materialization,
                        std::vector<Graph> answers, uint64_t prover_version,
                        uint64_t prover_stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return;
  // Write rule: only a prover at the cache's current (version, stamp)
  // with an adopted base nf may install — anything else was proven
  // against a graph future maintenance won't diff from.
  if (!base_nf_.has_value() || prover_version != version_ ||
      prover_stamp != erase_stamp_) {
    ++counters_.stale_installs;
    return;
  }
  if (entries_.size() >= options_.max_entries) return;
  if (materialization.rows > options_.max_matchings) return;
  auto [it, fresh] = entries_.try_emplace(key);
  if (!fresh) return;
  Entry& e = it->second;
  e.query = canonical;
  e.body_vars = canonical.body.Variables();
  e.table = std::move(materialization);
  e.answers =
      std::make_shared<const std::vector<Graph>>(std::move(answers));
  e.version = version_;
  e.stamp = erase_stamp_;
  ++counters_.installs;
}

void ViewCache::Maintain(const Graph& nf, uint64_t version, uint64_t stamp,
                         QueryEvaluator* evaluator,
                         const MatchOptions& match) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return;
  if (stamp != erase_stamp_) return;  // caller behind a fence
  if (!base_nf_.has_value()) {
    // First sight of a normalized graph: adopt it as the diff base.
    // Entries cannot exist yet (installs require a base).
    base_nf_ = nf;
    version_ = version;
    return;
  }
  if (version == version_) return;  // in sync
  if (version < version_) return;   // lagging caller (stale snapshot)
  if (entries_.empty()) {
    base_nf_ = nf;
    version_ = version;
    return;
  }

  std::vector<Triple> added;
  std::vector<Triple> removed;
  base_nf_->DiffTo(nf, &removed, &added);

  // Patch matchers must not share the caller's stats sink.
  MatchOptions patch_match = match;
  patch_match.stats = nullptr;

  for (auto it = entries_.begin(); it != entries_.end();) {
    if (PatchEntry(&it->second, added, removed, nf, evaluator,
                   patch_match)) {
      it->second.version = version;
      it->second.stamp = erase_stamp_;
      ++it;
    } else {
      ++counters_.invalidations;
      it = entries_.erase(it);
    }
  }
  base_nf_ = nf;
  version_ = version;
}

bool ViewCache::PatchEntry(Entry* e, const std::vector<Triple>& added,
                           const std::vector<Triple>& removed,
                           const Graph& nf, QueryEvaluator* evaluator,
                           const MatchOptions& match) {
  const std::vector<Triple> body = e->query.body.triples();
  // Per body triple: can the delta create / destroy one of its images?
  std::vector<char> gains(body.size());
  std::vector<char> loses(body.size());
  bool add_touches = false;
  bool rem_touches = false;
  for (size_t i = 0; i < body.size(); ++i) {
    gains[i] = Touches(body[i], added);
    loses[i] = Touches(body[i], removed);
    add_touches |= gains[i] != 0;
    rem_touches |= loses[i] != 0;
  }
  if (!add_touches && !rem_touches) {
    // No delta triple can be the image of any body triple, so the
    // matching set — and hence the answer set — is unchanged.
    ++counters_.revalidations;
    return true;
  }

  // Drop matchings whose image lost a triple. Every stored image lies
  // in the base nf, so an image left the nf iff one of its triples is
  // in `removed` — and only images of body triples that unify with
  // some removed triple can be. Survivors are compacted in place,
  // keeping their sorted order.
  Materialization& table = e->table;
  const size_t width = table.width;
  std::vector<Row> dropped;
  if (rem_touches) {
    const std::vector<BodySlot> slots = SlotsOf(body, e->body_vars);
    size_t kept = 0;
    for (size_t r = 0; r < table.rows; ++r) {
      const Term* row = table.row(r);
      bool alive = true;
      for (size_t i = 0; i < body.size() && alive; ++i) {
        alive = !loses[i] || !std::binary_search(removed.begin(),
                                                 removed.end(),
                                                 slots[i].ImageOf(row));
      }
      assert(alive == ImageIn(MapOf(row, e->body_vars), body, nf));
      if (!alive) {
        dropped.emplace_back(row, row + width);
        continue;
      }
      if (kept != r) {
        std::copy(row, row + width, table.values.data() + kept * width);
      }
      ++kept;
    }
    table.rows = kept;
    table.values.resize(kept * width);
    counters_.patch_removed += dropped.size();
  }

  // Semi-naive: every genuinely new matching maps at least one body
  // triple onto an added nf triple, so seeding the matcher with each
  // (body[i], added triple) unification enumerates a superset of the
  // new matchings. No candidate can equal a survivor (its image holds
  // an added triple, which the base nf lacked), so deduplication only
  // runs over the candidates, which seeds may find more than once.
  std::vector<Row> fresh;
  for (size_t i = 0; i < body.size(); ++i) {
    if (!gains[i]) continue;
    for (const Triple& a : added) {
      if (!Unifies(body[i], a)) continue;
      const TermMap seed = SeedOf(body[i], a);
      std::vector<Triple> specialized;
      specialized.reserve(body.size());
      for (const Triple& bt : body) specialized.push_back(seed.Apply(bt));
      PatternMatcher matcher(std::move(specialized), &nf, match);
      const Status status = matcher.Enumerate([&](const TermMap& mu) {
        TermMap full;
        for (Term var : e->body_vars) {
          full.Bind(var, seed.IsBound(var) ? seed.Apply(var) : mu.Apply(var));
        }
        // The seed may bind variables to *blank* nf nodes, which the
        // specialized pattern presents to the matcher as open terms
        // (hom.h maps pattern blanks freely). The matcher can then
        // succeed by sending such a blank elsewhere while `full` keeps
        // the seed's literal binding — so re-check the candidate's
        // image triple by triple before admitting it.
        if (!ImageIn(full, body, nf)) return true;
        if (!e->query.SatisfiesConstraints(full)) return true;
        fresh.push_back(RowOf(full, e->body_vars));
        return true;
      });
      // Budget exhausted mid-patch: the matching set is incomplete —
      // never guess, invalidate (next request recomputes).
      if (!status.ok()) return false;
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  counters_.patch_added += fresh.size();

  // Answers by multiplicity. The Skolem cache only grows, so a dropped
  // matching re-derives exactly the answer it was counted for, and new
  // matchings mint in the same (sorted) order a full re-derive would.
  const std::vector<Graph>& resident = *e->answers;
  bool emptied = false;
  for (const Row& m : dropped) {
    if (std::optional<Graph> answer = evaluator->AnswerFromMatching(
            e->query, e->body_vars, MapOf(m.data(), e->body_vars))) {
      const size_t at = AnswerIndex(resident, *answer);
      assert(at < resident.size() && table.counts[at] > 0);
      emptied |= --table.counts[at] == 0;
    }
  }
  std::vector<Graph> novel;
  for (const Row& m : fresh) {
    std::optional<Graph> answer = evaluator->AnswerFromMatching(
        e->query, e->body_vars, MapOf(m.data(), e->body_vars));
    if (!answer.has_value()) continue;
    const size_t at = AnswerIndex(resident, *answer);
    if (at < resident.size()) {
      ++table.counts[at];
    } else {
      novel.push_back(*std::move(answer));
    }
  }
  if (emptied || !novel.empty()) {
    // One merge pass: drop answers no matching derives any more, and
    // fold in the new ones (equal new answers collapse into one count).
    // Readers may still be copying the resident vector, so the merge
    // copies its survivors (leaf pointers only) into a new one.
    std::sort(novel.begin(), novel.end(), TriplesLess);
    std::vector<Graph> answers;
    std::vector<uint32_t> counts;
    answers.reserve(resident.size() + novel.size());
    counts.reserve(answers.capacity());
    // A novel answer equals no resident one, so equal novel answers
    // are the only neighbours to collapse.
    size_t i = 0;
    size_t j = 0;
    while (i < resident.size() || j < novel.size()) {
      if (j < novel.size() && (i == resident.size() ||
                               TriplesLess(novel[j], resident[i]))) {
        if (!answers.empty() && answers.back() == novel[j]) {
          ++counts.back();
        } else {
          answers.push_back(std::move(novel[j]));
          counts.push_back(1);
        }
        ++j;
      } else {
        if (table.counts[i] > 0) {
          answers.push_back(resident[i]);
          counts.push_back(table.counts[i]);
        }
        ++i;
      }
    }
    e->answers =
        std::make_shared<const std::vector<Graph>>(std::move(answers));
    table.counts = std::move(counts);
  }

  // Merge the sorted new rows into the sorted survivors in place, from
  // the back: each step moves the larger tail row to its final slot,
  // never over a survivor still to be read.
  size_t i = table.rows;
  size_t j = fresh.size();
  table.rows += fresh.size();
  table.values.resize(table.rows * width);
  for (size_t k = table.rows; j > 0; --k) {
    const Row& next = fresh[j - 1];
    const Term* survivor = i > 0 ? table.row(i - 1) : nullptr;
    const bool take_survivor =
        i > 0 && std::lexicographical_compare(next.begin(), next.end(),
                                              survivor, survivor + width);
    const Term* from = take_survivor ? survivor : next.data();
    if (take_survivor) {
      --i;
    } else {
      --j;
    }
    std::copy(from, from + width, table.values.data() + (k - 1) * width);
  }
  ++counters_.patches;
  return true;
}

void ViewCache::OnErase() {
  std::lock_guard<std::mutex> lock(mu_);
  ++erase_stamp_;
}

void ViewCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.invalidations += entries_.size();
  ++counters_.clears;
  entries_.clear();
  shape_counts_.clear();
  base_nf_.reset();
  version_ = 0;
  ++erase_stamp_;
}

uint64_t ViewCache::erase_stamp() const {
  std::lock_guard<std::mutex> lock(mu_);
  return erase_stamp_;
}

std::optional<Materialization> ViewCache::StoredMaterialization(
    const ViewKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.table;
}

ViewCacheStats ViewCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ViewCacheStats out = counters_;
  out.entries = entries_.size();
  out.shapes_tracked = shape_counts_.size();
  out.matchings = 0;
  for (const auto& [key, e] : entries_) out.matchings += e.table.rows;
  out.version = version_;
  out.erase_stamp = erase_stamp_;
  return out;
}

}  // namespace swdb
