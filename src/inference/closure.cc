#include "inference/closure.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <utility>

#include "rdf/hom.h"
#include "util/check.h"

namespace swdb {

using vocab::kDom;
using vocab::kRange;
using vocab::kSc;
using vocab::kSp;
using vocab::kType;

namespace {

// The premises of one rule instance, in RuleApplication order.
using Premises = std::initializer_list<Triple>;

// A non-reflexive sp or sc pair: the only triples transitivity joins.
bool IsHierarchyEdge(const Triple& t) {
  return (t.p == kSp || t.p == kSc) && t.s != t.o;
}

RuleId TransitivityRule(Term p) {
  return p == kSp ? RuleId::kSpTransitivity : RuleId::kScTransitivity;
}

// Whether `rules` keeps one rule instance. Marin's part of rules (6)/(7)
// is the instances whose (C, sp, A) premise — always the second — has
// C ≠ A.
bool Keeps(const RuleSet& rules, RuleId rule, Premises premises) {
  switch (rule) {
    case RuleId::kSpTransitivity:
      return rules.sp_transitivity;
    case RuleId::kSpInheritance:
      return rules.sp_inheritance;
    case RuleId::kScTransitivity:
      return rules.sc_transitivity;
    case RuleId::kScTyping:
      return rules.sc_typing;
    case RuleId::kDomTyping:
    case RuleId::kRangeTyping: {
      const Triple& sub = premises.begin()[1];
      const bool on = rule == RuleId::kDomTyping ? rules.dom_typing
                                                 : rules.range_typing;
      return on && (sub.s == sub.o || rules.marin_subproperty_typing);
    }
    case RuleId::kExistential:
      return false;
    default:
      return rules.reflexivity;  // rules (8)–(13)
  }
}

// Enumerates every instance of rules (3) and (5)–(13) that uses t as a
// premise, drawing the other premises from g's permutation indexes, as
// emit(conclusion, rule, premises) with the premises in RuleApplication
// order. Conclusions may repeat, be ill-formed (blank predicate) or
// already be present — the callback filters; it must not mutate g.
//
// Transitivity (rules (2)/(4)) is not joined here: the fixpoint keeps sp
// and sc transitively closed as pairs arrive (CloseEdge), so no derived
// pair ever re-joins through them, and the DRed over-delete walks them
// itself.
template <typename Emit>
void ForEachConsequence(const Graph& g, const Triple& t, Emit&& emit) {
  emit(Triple(t.p, kSp, t.p), RuleId::kSpReflexFromUse, {t});  // rule (8)
  g.Match(t.p, kSp, std::nullopt, [&](const Triple& e) {
    // Rule (3), t as the use.
    emit(Triple(t.s, e.o, t.o), RuleId::kSpInheritance, {e, t});
    // Rules (6)/(7), t as the use (X, C, Y): the reflexive
    // (t.p, sp, t.p) edge makes the direct C = A case fall out.
    g.Match(e.o, kDom, std::nullopt, [&](const Triple& d) {
      emit(Triple(t.s, kType, d.o), RuleId::kDomTyping, {d, e, t});
      return true;
    });
    g.Match(e.o, kRange, std::nullopt, [&](const Triple& r) {
      emit(Triple(t.o, kType, r.o), RuleId::kRangeTyping, {r, e, t});
      return true;
    });
    return true;
  });
  if (t.p == kSp) {
    // Rule (3), t as the schema premise, and rules (6)/(7) with t as the
    // (C, sp, A) premise (A = t.o, C = t.s) all join against the uses of
    // t.s — resolve that range once and reuse it (emit must not mutate
    // g, so the range stays valid across all three loops).
    MatchRange uses = g.Matches(std::nullopt, t.s, std::nullopt);
    for (const Triple& use : uses) {
      emit(Triple(use.s, t.o, use.o), RuleId::kSpInheritance, {t, use});
    }
    g.Match(t.o, kDom, std::nullopt, [&](const Triple& d) {
      for (const Triple& use : uses) {
        emit(Triple(use.s, kType, d.o), RuleId::kDomTyping, {d, t, use});
      }
      return true;
    });
    g.Match(t.o, kRange, std::nullopt, [&](const Triple& r) {
      for (const Triple& use : uses) {
        emit(Triple(use.o, kType, r.o), RuleId::kRangeTyping, {r, t, use});
      }
      return true;
    });
    emit(Triple(t.s, kSp, t.s), RuleId::kSpReflexPair, {t});  // rule (11)
    emit(Triple(t.o, kSp, t.o), RuleId::kSpReflexPair, {t});
  } else if (t.p == kSc) {
    // Rule (5), t as the sc premise.
    g.Match(std::nullopt, kType, t.s, [&](const Triple& i) {
      emit(Triple(i.s, kType, t.o), RuleId::kScTyping, {t, i});
      return true;
    });
    emit(Triple(t.s, kSc, t.s), RuleId::kScReflexPair, {t});  // rule (13)
    emit(Triple(t.o, kSc, t.o), RuleId::kScReflexPair, {t});
  } else if (t.p == kType) {
    // Rule (5), t as the type premise.
    g.Match(t.o, kSc, std::nullopt, [&](const Triple& e) {
      emit(Triple(t.s, kType, e.o), RuleId::kScTyping, {e, t});
      return true;
    });
    emit(Triple(t.o, kSc, t.o), RuleId::kScReflexFromUse, {t});  // (12)
  } else if (t.p == kDom || t.p == kRange) {
    // Rules (6)/(7), t as the (A, dom/range, B) premise: the reflexive
    // (t.s, sp, t.s) edge covers the direct C = A case.
    const bool dom = t.p == kDom;
    const RuleId typing = dom ? RuleId::kDomTyping : RuleId::kRangeTyping;
    g.Match(std::nullopt, kSp, t.s, [&](const Triple& e) {
      g.Match(std::nullopt, e.s, std::nullopt, [&](const Triple& use) {
        emit(Triple(dom ? use.s : use.o, kType, t.o), typing, {t, e, use});
        return true;
      });
      return true;
    });
    emit(Triple(t.s, kSp, t.s), RuleId::kSpReflexDomRange, {t});  // (10)
    emit(Triple(t.o, kSc, t.o), RuleId::kScReflexFromUse, {t});   // (12)
  }
}

// Rules (2)/(4) with t = (a, p, b) as either premise, emitting each
// conclusion: the DRed over-delete and re-close walk these one step at a
// time, where the fixpoint's CloseEdge cannot assume closed relations.
template <typename Emit>
void ForEachTransitiveStep(const Graph& g, const Triple& t, Emit&& emit) {
  g.Match(std::nullopt, t.p, t.s, [&](const Triple& e) {
    emit(Triple(e.s, t.p, t.o));
    return true;
  });
  g.Match(t.o, t.p, std::nullopt, [&](const Triple& e) {
    emit(Triple(t.s, t.p, e.o));
    return true;
  });
}

// Transitivity at insertion: e = (a, p, b), p ∈ {sp, sc}, a ≠ b, has just
// entered `rel`, whose p-pairs were transitively closed before it did.
// Inserts the pairs e adds to that closure, ({a} ∪ P(a)) × ({b} ∪ S(b))
// with P(a) = {x | (x, p, a)} and S(b) = {y | (b, p, y)}, which keeps the
// relation closed. A row x with (x, p, b) already present, or a column y
// with (a, p, y) already present, is complete by closedness and skipped,
// so the work is the pairs that are new. Calls on_new(pair, premise1,
// premise2) for each inserted pair with its rule-(2)/(4) premises, every
// premise present before the pair: (x, b) precedes (x, y).
template <typename OnNew>
void CloseEdge(Graph& rel, const Triple& e, OnNew&& on_new) {
  const Term a = e.s;
  const Term p = e.p;
  const Term b = e.o;
  std::vector<Term> rows;
  std::vector<Term> cols;
  rel.Match(std::nullopt, p, a, [&](const Triple& t) {
    if (t.s != a && !rel.Contains(Triple(t.s, p, b))) rows.push_back(t.s);
    return true;
  });
  rel.Match(b, p, std::nullopt, [&](const Triple& t) {
    if (t.o != b && !rel.Contains(Triple(a, p, t.o))) cols.push_back(t.o);
    return true;
  });
  auto insert = [&](const Triple& pair, const Triple& left,
                    const Triple& right) {
    if (rel.Insert(pair)) on_new(pair, left, right);
  };
  for (Term y : cols) insert(Triple(a, p, y), e, Triple(b, p, y));
  for (Term x : rows) {
    const Triple xb(x, p, b);
    insert(xb, Triple(x, p, a), e);
    for (Term y : cols) insert(Triple(x, p, y), xb, Triple(b, p, y));
  }
}

// The one RDFS fixpoint, run straight against g's own permutation
// indexes by every closure entry point: from-scratch builds (with traces
// and rule subsets), IncrementalClosure inserts and the DRed re-derive.
//
// Rounds are semi-naive: each round is admitted whole, then every newly
// inserted triple is joined as each premise position
// (ForEachConsequence); the unseen conclusions form the next round. A
// rule instance whose premises land in the same round still fires,
// because the round is admitted before any of it is joined. Every round
// is admitted one way, at any size, traced or not: sorted and
// de-duplicated (a trace keeps each triple's first rule instance),
// stripped of what g already holds, its non-hierarchy triples inserted
// by one Graph::Apply and its sp/sc pairs one at a time, each closing
// its relation as it enters (CloseEdge). So g's sp and sc pairs must be
// transitively closed whenever a round is admitted.
class Fixpoint {
 public:
  /// `rules` null means all rules; `trace` null records nothing.
  explicit Fixpoint(Graph* g, const RuleSet* rules = nullptr,
                    std::vector<RuleApplication>* trace = nullptr)
      : g_(g), rules_(rules), trace_(trace) {}

  /// Admits asserted or rescued triples as one untraced round. Returns
  /// how many of them g lacked.
  size_t Seed(std::vector<Triple> triples) {
    return Admit(std::move(triples), nullptr);
  }

  /// Queues a derived triple with its rule instance for the next round.
  void Derive(const Triple& c, RuleId rule, Premises premises) {
    if (!Enabled(rule, premises)) return;
    frontier_.push_back(c);
    if (trace_ != nullptr) why_.try_emplace(c, rule, premises);
  }

  /// DRed re-entry. The remainder of an over-delete can lack sp/sc pairs
  /// that its surviving pairs still chain to, while CloseEdge needs
  /// closed relations, so the rescued sp/sc pairs first re-close them by
  /// a plain semi-naive join (each new pair meets its neighbours once);
  /// the other rescued triples are then seeded.
  void Rescue(const std::vector<Triple>& rescued) {
    std::vector<Triple> next;
    std::vector<Triple> rest;
    for (const Triple& t : rescued) {
      (IsHierarchyEdge(t) ? next : rest).push_back(t);
    }
    while (!next.empty()) {
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      std::erase_if(next, [&](const Triple& t) { return g_->Contains(t); });
      g_->Apply({}, next);
      const size_t round = added_.size();
      added_.insert(added_.end(), next.begin(), next.end());
      next.clear();
      for (size_t i = round; i < added_.size(); ++i) {
        ForEachTransitiveStep(*g_, added_[i],
                              [&](const Triple& c) { next.push_back(c); });
      }
    }
    Seed(std::move(rest));
  }

  /// Joins t, already in g, into the frontier.
  void Join(const Triple& t) {
    ForEachConsequence(*g_, t, [&](const Triple& c, RuleId rule,
                                   Premises premises) {
      if (c.IsWellFormedData() && !g_->Contains(c)) Derive(c, rule, premises);
    });
  }

  /// Joins every inserted triple, round by round, to fixpoint.
  void Run() {
    for (;;) {
      while (joined_ < added_.size()) Join(added_[joined_++]);
      if (frontier_.empty()) return;
      std::vector<Triple> round = std::move(frontier_);
      std::unordered_map<Triple, Instance> why = std::move(why_);
      frontier_.clear();
      why_.clear();
      Admit(std::move(round), trace_ != nullptr ? &why : nullptr);
    }
  }

  /// Every triple inserted so far, in insertion order.
  std::vector<Triple>& added() { return added_; }

 private:
  // One rule instance, kept for the trace.
  struct Instance {
    Instance(RuleId r, Premises ps)
        : rule(r), arity(static_cast<uint8_t>(ps.size())) {
      std::copy(ps.begin(), ps.end(), premises);
    }
    // The instance concluding c; rules (11)/(13) conclude a pair.
    RuleApplication Apply(const Triple& c) const {
      RuleApplication app{rule, {premises, premises + arity}, {c}};
      if (rule == RuleId::kSpReflexPair || rule == RuleId::kScReflexPair) {
        const Triple& t = premises[0];
        app.conclusions = {Triple(t.s, t.p, t.s), Triple(t.o, t.p, t.o)};
      }
      return app;
    }
    RuleId rule;
    uint8_t arity;
    Triple premises[3];
  };

  bool Enabled(RuleId rule, Premises premises) const {
    return rules_ == nullptr || Keeps(*rules_, rule, premises);
  }

  // Admits one round, each triple with its instance in `why` when
  // traced. Returns how many of its distinct triples g lacked.
  size_t Admit(std::vector<Triple> round,
               const std::unordered_map<Triple, Instance>* why) {
    std::sort(round.begin(), round.end());
    round.erase(std::unique(round.begin(), round.end()), round.end());
    // Compact the triples g lacks in place, setting the sp/sc pairs aside.
    std::vector<std::pair<Triple, const Instance*>> pairs;
    size_t kept = 0;
    for (const Triple& t : round) {
      if (g_->Contains(t)) continue;
      const Instance* instance = why != nullptr ? &why->at(t) : nullptr;
      if (IsHierarchyEdge(t)) {
        pairs.emplace_back(t, instance);
        continue;
      }
      Added(t, instance);
      round[kept++] = t;
    }
    round.resize(kept);
    g_->Apply({}, round);
    for (const auto& [pair, instance] : pairs) AdmitPair(pair, instance);
    return kept + pairs.size();
  }

  // Inserts the sp/sc pair c, unless present, and closes its relation.
  void AdmitPair(const Triple& c, const Instance* why) {
    if (!g_->Insert(c)) return;
    Added(c, why);
    if (!Enabled(TransitivityRule(c.p), {})) return;
    CloseEdge(*g_, c, [&](const Triple& pair, const Triple& left,
                          const Triple& right) {
      const Instance step(TransitivityRule(c.p), {left, right});
      Added(pair, &step);
    });
  }

  // Records c, just inserted, and queues it to be joined.
  void Added(const Triple& c, const Instance* why) {
    if (trace_ != nullptr && why != nullptr) trace_->push_back(why->Apply(c));
    added_.push_back(c);
  }

  Graph* g_;
  const RuleSet* rules_;
  std::vector<RuleApplication>* trace_;
  std::vector<Triple> added_;
  size_t joined_ = 0;
  std::vector<Triple> frontier_;
  // When tracing, the first instance queued for each frontier triple.
  std::unordered_map<Triple, Instance> why_;
};

// RDFS-cl(g) from scratch: a leaf-sharing copy of g without its sp/sc
// pairs, which then re-enter as seeds so that each closes its relation as
// it arrives, the rule-(9) axioms, one join of every other input triple,
// and the fixpoint.
Graph BuildClosure(const Graph& g, const RuleSet* rules,
                   std::vector<RuleApplication>* trace) {
  std::vector<Triple> hierarchy;
  for (const Triple& t : g) {
    if (IsHierarchyEdge(t)) hierarchy.push_back(t);
  }
  Graph out = g;
  out.Apply(hierarchy, {});
  Fixpoint fixpoint(&out, rules, trace);
  fixpoint.Seed(std::move(hierarchy));
  for (Term v : vocab::kAll) {
    fixpoint.Derive(Triple(v, kSp, v), RuleId::kSpReflexVocab, {});
  }
  for (const Triple& t : g) {
    if (!IsHierarchyEdge(t)) fixpoint.Join(t);
  }
  fixpoint.Run();
  return out;
}

/// Sound one-step derivability check used by the DRed re-derive pass:
/// true only if c has a rule-(2)–(13) derivation whose premises all lie
/// in p (possibly via a premise itself one-step derivable from p, which
/// keeps c ∈ RDFS-cl(p) — soundness is what matters here). It is
/// complete for single rule applications over p, which is exactly what
/// DRed requires of the re-derive seed.
bool DerivableOneStep(const Graph& p, const Triple& c) {
  if (!c.IsWellFormedData()) return false;
  // Rule (3), any conclusion predicate (including the reserved ones —
  // pathological graphs can mint sp/sc/type edges through it): some
  // explicit (c.s, p', c.o) with p' = c.p or (p', sp, c.p) ∈ p.
  bool hit = false;
  p.Match(c.s, std::nullopt, c.o, [&](const Triple& use) {
    hit = use.p == c.p || p.Contains(Triple(use.p, kSp, c.p));
    return !hit;
  });
  if (hit) return true;
  auto any = [&](std::optional<Term> s, std::optional<Term> pr,
                 std::optional<Term> o) {
    return p.CountMatches(s, pr, o) > 0;
  };
  if (c.p == kSp && c.s == c.o) {
    const Term a = c.s;
    return vocab::IsRdfsVocab(a) ||                           // rule (9)
           any(std::nullopt, a, std::nullopt) ||              // (8)
           any(a, kDom, std::nullopt) || any(a, kRange, std::nullopt) ||
           any(a, kSp, std::nullopt) || any(std::nullopt, kSp, a);  // (11)
  }
  if (c.p == kSc && c.s == c.o) {
    const Term a = c.s;
    return any(std::nullopt, kType, a) || any(std::nullopt, kDom, a) ||
           any(std::nullopt, kRange, a) ||                    // (12)
           any(a, kSc, std::nullopt) || any(std::nullopt, kSc, a);  // (13)
  }
  if (c.p == kSp || c.p == kSc) {
    // Rules (2)/(4): a two-edge path.
    p.Match(c.s, c.p, std::nullopt, [&](const Triple& e) {
      hit = p.Contains(Triple(e.o, c.p, c.o));
      return !hit;
    });
    return hit;
  }
  if (c.p == kType) {
    // Rule (5): (c.s, type, a) with (a, sc, c.o).
    p.Match(c.s, kType, std::nullopt, [&](const Triple& ty) {
      hit = p.Contains(Triple(ty.o, kSc, c.o));
      return !hit;
    });
    // Rules (6)/(7): (A, dom, c.o) with a use (c.s, p', _), or
    // (A, range, c.o) with a use (_, p', c.s), where p' = A or
    // (p', sp, A) ∈ p. (The direct part's (A, sp, A) premise is itself
    // rule-(10) derivable from the dom/range triple, keeping this sound.)
    // The use range is independent of the outer row: resolve it once
    // outside the join (p is not mutated here, so it stays valid).
    for (Term typing : {kDom, kRange}) {
      if (hit) return true;
      MatchRange uses = typing == kDom
                            ? p.Matches(c.s, std::nullopt, std::nullopt)
                            : p.Matches(std::nullopt, std::nullopt, c.s);
      p.Match(std::nullopt, typing, c.o, [&](const Triple& d) {
        for (const Triple& use : uses) {
          hit = use.p == d.s || p.Contains(Triple(use.p, kSp, d.s));
          if (hit) return false;
        }
        return true;
      });
    }
    return hit;
  }
  // dom/range and ordinary predicates: only rule (3) (checked above)
  // concludes them.
  return false;
}

// Over-delete for the DRed deletion path: collects every closure triple
// forward-reachable from a deleted triple through a rule application,
// joining directly against the closure graph's own permutation indexes
// (the suspect cone is typically tiny, so a pass over |cl| would
// dominate). A triple provably still in the new closure — asserted in
// base_after or one-step derivable from it — is never suspected, which
// stops the reflexivity rules from tainting whole derivation cycles.
// The suspects come back sorted.
std::vector<Triple> CollectSuspects(const Graph& cl, const Graph& deleted,
                                    const Graph& base_after) {
  std::unordered_set<Triple> suspects;
  std::unordered_set<Triple> cleared;  // memoized protection verdicts
  std::vector<Triple> work;
  auto mark = [&](const Triple& c) {
    if (!c.IsWellFormedData() || !cl.Contains(c) || suspects.count(c) ||
        cleared.count(c)) {
      return;
    }
    if (base_after.Contains(c) || DerivableOneStep(base_after, c)) {
      cleared.insert(c);
      return;
    }
    suspects.insert(c);
    work.push_back(c);
  };
  for (const Triple& t : deleted) mark(t);
  while (!work.empty()) {
    const Triple t = work.back();
    work.pop_back();
    ForEachConsequence(cl, t, [&](const Triple& c, RuleId, Premises) {
      mark(c);
    });
    if (t.p == kSp || t.p == kSc) ForEachTransitiveStep(cl, t, mark);
  }
  std::vector<Triple> sorted(suspects.begin(), suspects.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

Graph RdfsClosure(const Graph& g, std::vector<RuleApplication>* trace) {
  return BuildClosure(g, /*rules=*/nullptr, trace);
}

Graph RdfsClosureWithRules(const Graph& g, const RuleSet& rules) {
  return BuildClosure(g, &rules, /*trace=*/nullptr);
}

Graph RdfsClosureErase(const Graph& closure, const Graph& base_after,
                       const Graph& deleted, ClosureDeltaStats* stats) {
  // Fast path: a deleted triple that is still one-step derivable from
  // the remaining base keeps the closure intact; if every deleted
  // triple is, nothing can fall out and the whole pass is skippable.
  if (std::all_of(deleted.begin(), deleted.end(), [&](const Triple& t) {
        return DerivableOneStep(base_after, t);
      })) {
    if (stats != nullptr) *stats = ClosureDeltaStats{deleted.size(), 0, 0, 0};
    return closure;
  }

  // (1) Over-delete: everything forward-reachable from a deleted triple
  // through a rule application becomes suspect.
  const std::vector<Triple> suspects =
      CollectSuspects(closure, deleted, base_after);

  // (2) The untainted remainder survives unconditionally: a triple with
  // no derivation path touching a deleted triple keeps its derivation.
  // One Apply erases the cone from a leaf-sharing copy of the closure,
  // whose built indexes stay built.
  Graph out = closure;
  out.Apply(suspects, {});
  const size_t kept_size = out.size();

  // (3) Re-derive: a suspect re-enters if it is still asserted in the
  // base or one-step derivable from the survivors; the fixpoint then
  // replays everything downstream of the rescued triples.
  std::vector<Triple> rescued;
  for (const Triple& t : suspects) {
    if (base_after.Contains(t) || DerivableOneStep(out, t)) {
      rescued.push_back(t);
    }
  }
  Fixpoint fixpoint(&out);
  fixpoint.Rescue(rescued);
  fixpoint.Run();
  if (stats != nullptr) {
    *stats = ClosureDeltaStats{deleted.size(), 0, suspects.size(),
                               out.size() - kept_size};
  }
  return out;
}

Graph RdfsClosureNaive(const Graph& g) {
  Graph result = g;
  for (;;) {
    std::vector<RuleApplication> apps = EnumerateApplications(result);
    if (apps.empty()) return result;
    for (const RuleApplication& app : apps) {
      for (const Triple& c : app.conclusions) result.Insert(c);
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalClosure

IncrementalClosure::IncrementalClosure(const Graph& base)
    : closure_(RdfsClosure(base)), version_(1) {}

void IncrementalClosure::InsertDelta(const Graph& delta,
                                     ClosureDeltaStats* stats,
                                     std::vector<Triple>* derived_out) {
  Fixpoint fixpoint(&closure_);
  const size_t fresh = fixpoint.Seed(delta.triples());
  fixpoint.Run();
  std::vector<Triple>& added = fixpoint.added();
  if (stats != nullptr) {
    *stats = ClosureDeltaStats{fresh, added.size(), 0, 0};
  }
  if (added.empty()) return;
  if (derived_out != nullptr) *derived_out = std::move(added);
  ++version_;
}

void IncrementalClosure::EraseDelta(const Graph& base_after,
                                    const Graph& deleted,
                                    ClosureDeltaStats* stats) {
  Graph next = RdfsClosureErase(closure_, base_after, deleted, stats);
  // RdfsClosureErase never derives outside the old closure, so a size
  // match means content match.
  if (next.size() != closure_.size()) {
    closure_ = std::move(next);
    ++version_;
  }
}

Graph SemanticClosure(const Graph& g, Dictionary* dict) {
  if (g.IsGround()) {
    // For ground graphs the unique maximal ground equivalent extension is
    // the deductive closure (proof of Thm 3.6(1)).
    return RdfsClosure(g);
  }
  TermMap sk;
  Graph skolemized = Skolemize(g, dict, &sk);
  Graph closed = RdfsClosure(skolemized);
  return DeSkolemize(closed, sk);
}

// ---------------------------------------------------------------------------
// ClosureMembership


ClosureMembership::ClosureMembership(const Graph& g)
    : g_(&g), built_epoch_(g.epoch()) {
  // The direct case analysis below is valid when no reserved keyword
  // occurs in subject or object position — the same restriction the paper
  // places on graphs in Thm 3.16. Outside it, triples like (p, sp, sc) or
  // (type, dom, a) let rules (3), (6) and (7) mint sp/sc/dom/range/type
  // triples through cascades the analysis does not model, so we answer
  // from a materialized closure instead.
  for (const Triple& t : *g_) {
    if (vocab::IsRdfsVocab(t.s) || vocab::IsRdfsVocab(t.o)) {
      direct_ = false;
      break;
    }
  }
  if (!direct_) {
    materialized_ = RdfsClosure(*g_);
    return;
  }

  for (const Triple& t : *g_) {
    props_.insert(t.p);  // rule (8)
    if (t.p == kSp) {
      sp_fwd_[t.s].push_back(t.o);
      props_.insert(t.s);  // rule (11)
      props_.insert(t.o);
    } else if (t.p == kSc) {
      sc_fwd_[t.s].push_back(t.o);
      classes_.insert(t.s);  // rule (13)
      classes_.insert(t.o);
    } else if (t.p == kDom || t.p == kRange) {
      props_.insert(t.s);    // rule (10)
      classes_.insert(t.o);  // rule (12)
    } else if (t.p == kType) {
      classes_.insert(t.o);  // rule (12)
    }
  }
  for (Term v : vocab::kAll) props_.insert(v);  // rule (9)
}

namespace {

using Adjacency = std::unordered_map<Term, std::vector<Term>>;

// Breadth-first over fwd from `starts` (zero steps included): calls
// stop(t) once per reached term and returns true as soon as it does.
template <typename Stop>
bool Reach(const Adjacency& fwd, const std::vector<Term>& starts,
           Stop&& stop) {
  std::unordered_set<Term> seen;
  std::deque<Term> queue;
  auto visit = [&](Term t) {
    if (!seen.insert(t).second) return false;
    queue.push_back(t);
    return stop(t);
  };
  for (Term t : starts) {
    if (visit(t)) return true;
  }
  while (!queue.empty()) {
    auto it = fwd.find(queue.front());
    queue.pop_front();
    if (it == fwd.end()) continue;
    for (Term next : it->second) {
      if (visit(next)) return true;
    }
  }
  return false;
}

// a →* b in fwd.
bool Reaches(const Adjacency& fwd, Term a, Term b) {
  return Reach(fwd, {a}, [b](Term t) { return t == b; });
}

}  // namespace

bool ClosureMembership::Contains(const Triple& t) const {
  SWDB_CHECK(InSync(),
             "ClosureMembership used after the underlying graph mutated "
             "(epoch mismatch); build a new index");
  if (!direct_) return materialized_->Contains(t);
  return DirectContains(t);
}

bool ClosureMembership::DirectContains(const Triple& t) const {
  if (!t.IsWellFormedData()) return false;
  if (t.p == kSp) {
    if (t.s == t.o) return props_.count(t.s) > 0;
    return Reaches(sp_fwd_, t.s, t.o);
  }
  if (t.p == kSc) {
    if (t.s == t.o) return classes_.count(t.s) > 0;
    return Reaches(sc_fwd_, t.s, t.o);
  }
  if (t.p == kDom || t.p == kRange) {
    // No rule derives new dom/range triples outside the pathological case.
    return g_->Contains(t);
  }
  if (t.p == kType) {
    // Classes x is typed with before sc-lifting (rule 5):
    //   - explicit (x, type, c);
    //   - rule (6): (A, dom, c) with some use (x, p', _), p' ⊑sp A;
    //   - rule (7): (A, range, c) with some use (_, p', x), p' ⊑sp A.
    // Then (x, type, b) ∈ cl(G) iff some such c has c = b or c →sc* b.
    std::vector<Term> base;
    g_->Match(t.s, kType, std::nullopt, [&](const Triple& ty) {
      base.push_back(ty.o);
      return true;
    });
    std::vector<Term> subject_preds;
    g_->Match(t.s, std::nullopt, std::nullopt, [&](const Triple& use) {
      subject_preds.push_back(use.p);
      return true;
    });
    std::vector<Term> object_preds;
    for (const Triple& use : *g_) {
      if (use.o == t.s) object_preds.push_back(use.p);
    }
    // The forward sp-closure of the predicates of triples incident to x.
    for (Term typing : {kDom, kRange}) {
      Reach(sp_fwd_, typing == kDom ? subject_preds : object_preds,
            [&](Term a) {
              g_->Match(a, typing, std::nullopt, [&](const Triple& d) {
                base.push_back(d.o);
                return true;
              });
              return false;
            });
    }
    // sc-lift: some base class reaches t.o.
    for (Term c : base) {
      if (Reaches(sc_fwd_, c, t.o)) return true;
    }
    return false;
  }
  // Ordinary predicate q: (x, q, y) ∈ cl(G) iff some explicit
  // (x, p', y) has p' = q or p' →sp* q (rule 3).
  bool found = false;
  g_->Match(t.s, std::nullopt, t.o, [&](const Triple& use) {
    found = Reaches(sp_fwd_, use.p, t.p);
    return !found;
  });
  return found;
}

Result<bool> TryRdfsEntails(const Graph& g1, const Graph& g2,
                            MatchOptions options) {
  Graph closure = RdfsClosure(g1);
  return TryHasHomomorphism(g2, closure, options);
}

bool RdfsEntails(const Graph& g1, const Graph& g2) {
  Result<bool> r = TryRdfsEntails(g1, g2);
  SWDB_CHECK(r.ok(),
             "RDFS-entailment step budget exhausted; use TryRdfsEntails "
             "with explicit MatchOptions for graceful degradation");
  return *r;
}

bool RdfsEquivalent(const Graph& g1, const Graph& g2) {
  return RdfsEntails(g1, g2) && RdfsEntails(g2, g1);
}

}  // namespace swdb
