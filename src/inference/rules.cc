#include "inference/rules.h"

#include <algorithm>

namespace swdb {

using vocab::kDom;
using vocab::kRange;
using vocab::kSc;
using vocab::kSp;
using vocab::kType;

std::string RuleName(RuleId rule) {
  static constexpr const char* kNames[] = {
      "(1) existential",
      "(2) sp-transitivity",
      "(3) sp-inheritance",
      "(4) sc-transitivity",
      "(5) sc-typing",
      "(6) dom-typing",
      "(7) range-typing",
      "(8) sp-reflexivity-from-use",
      "(9) sp-reflexivity-vocab",
      "(10) sp-reflexivity-dom-range",
      "(11) sp-reflexivity-pair",
      "(12) sc-reflexivity-from-use",
      "(13) sc-reflexivity-pair",
  };
  const int i = static_cast<int>(rule);
  return i >= 1 && i <= 13 ? kNames[i - 1] : "(?)";
}

namespace {

Status Bad(const RuleApplication& app, const std::string& why) {
  return Status::InvalidArgument("rule " + RuleName(app.rule) + ": " + why);
}

bool AllWellFormed(const std::vector<Triple>& ts) {
  return std::all_of(ts.begin(), ts.end(),
                     [](const Triple& t) { return t.IsWellFormedData(); });
}

}  // namespace

Status ValidateApplication(const RuleApplication& app) {
  if (!AllWellFormed(app.premises) || !AllWellFormed(app.conclusions)) {
    return Bad(app, "ill-formed triple in instantiation");
  }
  const auto& pr = app.premises;
  const auto& co = app.conclusions;
  auto need = [&](bool cond, const char* why) -> Status {
    return cond ? Status::OK() : Bad(app, why);
  };
  switch (app.rule) {
    case RuleId::kExistential:
      return Bad(app, "rule (1) is a map step, not a triple-adding rule");
    case RuleId::kSpTransitivity:
    case RuleId::kScTransitivity: {
      if (pr.size() != 2 || co.size() != 1) return Bad(app, "arity");
      const bool sp = app.rule == RuleId::kSpTransitivity;
      const Term r = sp ? kSp : kSc;
      const Triple &t1 = pr[0], &t2 = pr[1], &c = co[0];
      return need(t1.p == r && t2.p == r && c.p == r && t1.o == t2.s &&
                      c.s == t1.s && c.o == t2.o,
                  sp ? "(A,sp,B),(B,sp,C) => (A,sp,C) shape mismatch"
                     : "(A,sc,B),(B,sc,C) => (A,sc,C) shape mismatch");
    }
    case RuleId::kSpInheritance: {
      if (pr.size() != 2 || co.size() != 1) return Bad(app, "arity");
      const Triple &t1 = pr[0], &t2 = pr[1], &c = co[0];
      return need(t1.p == kSp && t2.p == t1.s && c.p == t1.o &&
                      c.s == t2.s && c.o == t2.o,
                  "(A,sp,B),(X,A,Y) => (X,B,Y) shape mismatch");
    }
    case RuleId::kScTyping: {
      if (pr.size() != 2 || co.size() != 1) return Bad(app, "arity");
      const Triple &t1 = pr[0], &t2 = pr[1], &c = co[0];
      return need(t1.p == kSc && t2.p == kType && t2.o == t1.s &&
                      c.p == kType && c.s == t2.s && c.o == t1.o,
                  "(A,sc,B),(X,type,A) => (X,type,B) shape mismatch");
    }
    case RuleId::kDomTyping:
    case RuleId::kRangeTyping: {
      if (pr.size() != 3 || co.size() != 1) return Bad(app, "arity");
      const bool dom = app.rule == RuleId::kDomTyping;
      const Triple &t1 = pr[0], &t2 = pr[1], &t3 = pr[2], &c = co[0];
      return need(t1.p == (dom ? kDom : kRange) && t2.p == kSp &&
                      t2.o == t1.s && t3.p == t2.s && c.p == kType &&
                      c.s == (dom ? t3.s : t3.o) && c.o == t1.o,
                  dom ? "(A,dom,B),(C,sp,A),(X,C,Y) => (X,type,B) shape mismatch"
                      : "(A,range,B),(C,sp,A),(X,C,Y) => (Y,type,B) shape "
                        "mismatch");
    }
    case RuleId::kSpReflexFromUse: {
      if (pr.size() != 1 || co.size() != 1) return Bad(app, "arity");
      const Triple &t = pr[0], &c = co[0];
      return need(c.p == kSp && c.s == t.p && c.o == t.p,
                  "(X,A,Y) => (A,sp,A) shape mismatch");
    }
    case RuleId::kSpReflexVocab: {
      if (!pr.empty() || co.size() != 1) return Bad(app, "arity");
      const Triple& c = co[0];
      return need(c.p == kSp && c.s == c.o && vocab::IsRdfsVocab(c.s),
                  "=> (p,sp,p), p in rdfsV shape mismatch");
    }
    case RuleId::kSpReflexDomRange: {
      if (pr.size() != 1 || co.size() != 1) return Bad(app, "arity");
      const Triple &t = pr[0], &c = co[0];
      return need((t.p == kDom || t.p == kRange) && c.p == kSp &&
                      c.s == t.s && c.o == t.s,
                  "(A,p,X) => (A,sp,A), p in {dom,range} shape mismatch");
    }
    case RuleId::kSpReflexPair:
    case RuleId::kScReflexPair: {
      if (pr.size() != 1 || co.size() != 2) return Bad(app, "arity");
      const bool sp = app.rule == RuleId::kSpReflexPair;
      const Term r = sp ? kSp : kSc;
      const Triple &t = pr[0], &c1 = co[0], &c2 = co[1];
      return need(t.p == r && c1.p == r && c2.p == r && c1.s == t.s &&
                      c1.o == t.s && c2.s == t.o && c2.o == t.o,
                  sp ? "(A,sp,B) => (A,sp,A),(B,sp,B) shape mismatch"
                     : "(A,sc,B) => (A,sc,A),(B,sc,B) shape mismatch");
    }
    case RuleId::kScReflexFromUse: {
      if (pr.size() != 1 || co.size() != 1) return Bad(app, "arity");
      const Triple &t = pr[0], &c = co[0];
      return need((t.p == kDom || t.p == kRange || t.p == kType) &&
                      c.p == kSc && c.s == t.o && c.o == t.o,
                  "(X,p,A) => (A,sc,A), p in {dom,range,type} shape mismatch");
    }
  }
  return Bad(app, "unknown rule id");
}

std::vector<RuleApplication> EnumerateApplications(const Graph& g) {
  std::vector<RuleApplication> out;
  auto emit = [&](RuleId rule, std::vector<Triple> premises,
                  std::vector<Triple> conclusions) {
    bool all_known = std::all_of(
        conclusions.begin(), conclusions.end(),
        [&g](const Triple& t) { return g.Contains(t); });
    bool well_formed = AllWellFormed(conclusions);
    if (all_known || !well_formed) return;
    out.push_back(RuleApplication{rule, std::move(premises),
                                  std::move(conclusions)});
  };

  // Rule (9): no premises.
  for (Term v : vocab::kAll) {
    emit(RuleId::kSpReflexVocab, {}, {Triple(v, kSp, v)});
  }

  for (const Triple& t1 : g) {
    // Unary-premise rules.
    emit(RuleId::kSpReflexFromUse, {t1}, {Triple(t1.p, kSp, t1.p)});
    if (t1.p == kDom || t1.p == kRange) {
      emit(RuleId::kSpReflexDomRange, {t1}, {Triple(t1.s, kSp, t1.s)});
    }
    if (t1.p == kDom || t1.p == kRange || t1.p == kType) {
      emit(RuleId::kScReflexFromUse, {t1}, {Triple(t1.o, kSc, t1.o)});
    }
    if (t1.p == kSp || t1.p == kSc) {  // rules (11)/(13)
      emit(t1.p == kSp ? RuleId::kSpReflexPair : RuleId::kScReflexPair, {t1},
           {Triple(t1.s, t1.p, t1.s), Triple(t1.o, t1.p, t1.o)});
    }

    // Binary-premise rules.
    for (const Triple& t2 : g) {
      if ((t1.p == kSp || t1.p == kSc) && t2.p == t1.p && t1.o == t2.s) {
        emit(t1.p == kSp ? RuleId::kSpTransitivity : RuleId::kScTransitivity,
             {t1, t2}, {Triple(t1.s, t1.p, t2.o)});  // rules (2)/(4)
      }
      if (t1.p == kSp && t2.p == t1.s) {
        emit(RuleId::kSpInheritance, {t1, t2}, {Triple(t2.s, t1.o, t2.o)});
      }
      if (t1.p == kSc && t2.p == kType && t2.o == t1.s) {
        emit(RuleId::kScTyping, {t1, t2}, {Triple(t2.s, kType, t1.o)});
      }

      // Ternary-premise rules (6)/(7): t1 = (A,dom/range,B), t2 = (C,sp,A).
      if ((t1.p == kDom || t1.p == kRange) && t2.p == kSp && t2.o == t1.s) {
        const bool dom = t1.p == kDom;
        for (const Triple& t3 : g) {
          if (t3.p != t2.s) continue;
          emit(dom ? RuleId::kDomTyping : RuleId::kRangeTyping, {t1, t2, t3},
               {Triple(dom ? t3.s : t3.o, kType, t1.o)});
        }
      }
    }
  }
  return out;
}

}  // namespace swdb
