#include "query/view_cache.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "query/answer.h"
#include "util/hash.h"

namespace swdb {
namespace {

// The (sorted) symmetric difference of two normalized graphs, split into
// what `to` lost and gained relative to `from` — the delta every view is
// patched by. One merge walk; O(|from| + |to|).
void DiffSorted(const Graph& from, const Graph& to,
                std::vector<Triple>* removed, std::vector<Triple>* added) {
  auto i = from.begin();
  const auto ie = from.end();
  auto j = to.begin();
  const auto je = to.end();
  while (i != ie && j != je) {
    const Triple a = *i;
    const Triple b = *j;
    if (a == b) {
      ++i;
      ++j;
    } else if (a < b) {
      removed->push_back(a);
      ++i;
    } else {
      added->push_back(b);
      ++j;
    }
  }
  for (; i != ie; ++i) removed->push_back(*i);
  for (; j != je; ++j) added->push_back(*j);
}

// Matches one body pattern triple against one ground delta triple:
// variables bind consistently, constants must coincide. On success `out`
// holds the (partial) seed valuation; on failure its contents are
// unspecified — callers use a fresh map per attempt.
bool Unify(const Triple& pattern, const Triple& data, TermMap* out) {
  const Term ps[3] = {pattern.s, pattern.p, pattern.o};
  const Term ds[3] = {data.s, data.p, data.o};
  for (int i = 0; i < 3; ++i) {
    if (ps[i].IsVar()) {
      if (out->IsBound(ps[i])) {
        if (out->Apply(ps[i]) != ds[i]) return false;
      } else {
        out->Bind(ps[i], ds[i]);
      }
    } else if (ps[i] != ds[i]) {
      return false;
    }
  }
  return true;
}

// Whether any delta triple unifies with any body triple — the
// "can this delta create or destroy a matching" test. Sound because a
// matching appears (disappears) only when some body triple's image is an
// added (removed) nf triple, and images are unifications.
bool Touches(const std::vector<Triple>& body,
             const std::vector<Triple>& delta) {
  for (const Triple& d : delta) {
    for (const Triple& b : body) {
      TermMap scratch;
      if (Unify(b, d, &scratch)) return true;
    }
  }
  return false;
}

// A matching reduced to its value tuple over the sorted body variables —
// the dedup identity of a valuation (a matching binds exactly these).
std::vector<uint32_t> TupleBits(const TermMap& v,
                                const std::vector<Term>& vars) {
  std::vector<uint32_t> out;
  out.reserve(vars.size());
  for (Term x : vars) out.push_back(v.Apply(x).bits());
  return out;
}

struct TupleHash {
  size_t operator()(const std::vector<uint32_t>& t) const {
    return HashRange(t.begin(), t.end(), size_t{0x7E57BEEF5ull});
  }
};

}  // namespace

std::optional<std::vector<Graph>> ViewCache::Lookup(
    const ViewKey& key, uint64_t version, uint64_t erase_stamp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  // Valid iff proven against the consumer's nf version and not written
  // behind an erase/clear fence the consumer predates.
  if (it != entries_.end() && it->second.version == version &&
      it->second.stamp <= erase_stamp) {
    ++counters_.hits;
    return it->second.answers;  // Graph copies share spines (COW)
  }
  ++counters_.misses;
  return std::nullopt;
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
                        std::vector<TermMap> matchings,
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
  if (matchings.size() > options_.max_matchings) return;
  auto [it, fresh] = entries_.try_emplace(key);
  if (!fresh) return;
  Entry& e = it->second;
  e.query = canonical;
  e.body_vars = canonical.body.Variables();
  e.matchings = std::move(matchings);
  e.answers = std::move(answers);
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
  DiffSorted(*base_nf_, nf, &removed, &added);

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
  const bool add_touches = Touches(body, added);
  const bool rem_touches = Touches(body, removed);
  if (!add_touches && !rem_touches) {
    // No delta triple can be the image of any body triple, so the
    // matching set — and hence the answer set — is unchanged.
    ++counters_.revalidations;
    return true;
  }

  // Drop matchings whose image lost a triple. Checking against the new
  // nf directly (rather than against `removed`) also keeps this correct
  // when one mutation removes several triples of the same image.
  std::vector<TermMap> kept;
  kept.reserve(e->matchings.size());
  if (rem_touches) {
    for (TermMap& m : e->matchings) {
      bool alive = true;
      for (const Triple& b : body) {
        if (!nf.Contains(m.Apply(b))) {
          alive = false;
          break;
        }
      }
      if (alive) {
        kept.push_back(std::move(m));
      } else {
        ++counters_.patch_removed;
      }
    }
  } else {
    kept = std::move(e->matchings);
  }

  if (add_touches) {
    // Semi-naive: every genuinely new matching maps at least one body
    // triple onto an added nf triple, so seeding the matcher with each
    // (body[i], added triple) unification enumerates a superset of the
    // new matchings; the seen-set removes overlap with survivors and
    // across seeds.
    std::unordered_set<std::vector<uint32_t>, TupleHash> seen;
    seen.reserve(kept.size());
    for (const TermMap& m : kept) seen.insert(TupleBits(m, e->body_vars));
    for (const Triple& b : body) {
      for (const Triple& a : added) {
        TermMap seed;
        if (!Unify(b, a, &seed)) continue;
        std::vector<Triple> specialized;
        specialized.reserve(body.size());
        for (const Triple& bt : body) specialized.push_back(seed.Apply(bt));
        PatternMatcher matcher(std::move(specialized), &nf, match);
        const Status status = matcher.Enumerate([&](const TermMap& mu) {
          TermMap full;
          for (Term var : e->body_vars) {
            full.Bind(var, seed.IsBound(var) ? seed.Apply(var)
                                             : mu.Apply(var));
          }
          // The seed may bind variables to *blank* nf nodes, which the
          // specialized pattern presents to the matcher as open terms
          // (hom.h maps pattern blanks freely). The matcher can then
          // succeed by sending such a blank elsewhere while `full` keeps
          // the seed's literal binding — so re-check the candidate's
          // image triple by triple before admitting it.
          for (const Triple& bt : body) {
            if (!nf.Contains(full.Apply(bt))) return true;
          }
          if (!e->query.SatisfiesConstraints(full)) return true;
          std::vector<uint32_t> tuple = TupleBits(full, e->body_vars);
          if (seen.insert(std::move(tuple)).second) {
            kept.push_back(std::move(full));
            ++counters_.patch_added;
          }
          return true;
        });
        // Budget exhausted mid-patch: the matching set is incomplete —
        // never guess, invalidate (next request recomputes).
        if (!status.ok()) return false;
      }
    }
    std::sort(kept.begin(), kept.end(),
              [e](const TermMap& x, const TermMap& y) {
                return ValuationLess(x, y, e->body_vars);
              });
  }

  // Re-derive the answer vector from the patched matching set, exactly
  // the way the from-scratch path does (same Skolem functions, same
  // sort, same dedup) — this is what makes replays bit-identical.
  std::vector<Graph> answers;
  answers.reserve(kept.size());
  for (const TermMap& m : kept) {
    std::optional<Graph> answer =
        evaluator->AnswerFromMatching(e->query, e->body_vars, m);
    if (answer.has_value()) answers.push_back(*std::move(answer));
  }
  std::sort(answers.begin(), answers.end(),
            [](const Graph& a, const Graph& b) {
              return a.triples() < b.triples();
            });
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());

  e->matchings = std::move(kept);
  e->answers = std::move(answers);
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

ViewCacheStats ViewCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ViewCacheStats out = counters_;
  out.entries = entries_.size();
  out.shapes_tracked = shape_counts_.size();
  out.matchings = 0;
  for (const auto& [key, e] : entries_) out.matchings += e.matchings.size();
  out.version = version_;
  out.erase_stamp = erase_stamp_;
  return out;
}

}  // namespace swdb
