#include "query/view_key.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/hash.h"

namespace swdb {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  return h;
}

bool HeadHasBlanks(const Graph& head) {
  for (const Triple& t : head) {
    if (t.s.IsBlank() || t.p.IsBlank() || t.o.IsBlank()) return true;
  }
  return false;
}

// Current variable coloring of the WL-style refinement. Constants encode
// as their term bits under a tag no color hash can collide into by
// construction of the initial colors (colors are full-width mixes).
struct Coloring {
  std::unordered_map<Term, uint64_t> color;

  uint64_t Enc(Term t) const {
    if (!t.IsVar()) return (1ull << 40) | t.bits();
    return color.at(t);
  }
  uint64_t EncTriple(uint64_t section, const Triple& t) const {
    uint64_t h = Mix(0x5851F42D4C957F2Dull, section);
    h = Mix(h, Enc(t.s));
    h = Mix(h, Enc(t.p));
    return Mix(h, Enc(t.o));
  }
};

// One refinement round: a variable's next color hashes its previous
// color with the sorted multiset of its occurrence contexts (section,
// position, whole-triple encoding under the previous coloring).
// Isomorphic queries refine to identical color multisets; variables a
// renaming cannot exchange separate after at most |vars| rounds.
size_t Refine(const Query& q, const std::vector<Term>& vars, Coloring* c) {
  std::unordered_map<Term, std::vector<uint64_t>> occ;
  auto visit = [&](uint64_t section, const Graph& g) {
    for (const Triple& t : g) {
      const uint64_t enc = c->EncTriple(section, t);
      const Term pos[3] = {t.s, t.p, t.o};
      for (uint64_t i = 0; i < 3; ++i) {
        if (pos[i].IsVar()) occ[pos[i]].push_back(Mix(enc, i));
      }
    }
  };
  visit(0, q.body);
  visit(1, q.head);
  for (Term v : q.constraints) occ[v].push_back(0xC0157A11EDull);

  std::unordered_map<Term, uint64_t> next;
  std::unordered_set<uint64_t> distinct;
  for (Term v : vars) {
    std::vector<uint64_t>& o = occ[v];
    std::sort(o.begin(), o.end());
    uint64_t h = Mix(0xA0761D6478BD642Full, c->color.at(v));
    for (uint64_t x : o) h = Mix(h, x);
    next[v] = h;
    distinct.insert(h);
  }
  c->color = std::move(next);
  return distinct.size();
}

// The canonical variable renaming: WL refinement to a stable partition,
// then first-occurrence id assignment scanning the body triples in
// color-encoded order. The scan order depends only on the coloring (an
// isomorphism invariant), so isomorphic queries whose variables the
// refinement separates receive literally identical renamed forms;
// refinement ties on symmetric bodies at worst split one shape across
// two keys (a miss, never a wrong share).
TermMap CanonicalRenaming(const Query& q, const std::vector<Term>& vars) {
  Coloring c;
  for (Term v : vars) c.color[v] = 0x243F6A8885A308D3ull;
  size_t classes = vars.empty() ? 0 : 1;
  for (size_t round = 0; round < vars.size(); ++round) {
    const size_t next = Refine(q, vars, &c);
    if (next == classes) break;  // partition stable
    classes = next;
  }

  std::vector<std::pair<uint64_t, Triple>> order;
  order.reserve(q.body.size());
  for (const Triple& t : q.body) {
    order.emplace_back(c.EncTriple(0, t), t);
  }
  // stable_sort: ties keep the body's deterministic (bit-sorted) order,
  // so the same query always canonicalizes the same way.
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  TermMap rename;
  uint32_t next_id = 0;
  for (const auto& [enc, t] : order) {
    (void)enc;
    for (Term x : {t.s, t.p, t.o}) {
      if (x.IsVar() && !rename.IsBound(x)) {
        rename.Bind(x, Term::Var(next_id++));
      }
    }
  }
  return rename;
}

void AppendGraph(const Graph& g, std::vector<uint32_t>* words) {
  words->push_back(static_cast<uint32_t>(g.size()));
  for (const Triple& t : g) {
    words->push_back(t.s.bits());
    words->push_back(t.p.bits());
    words->push_back(t.o.bits());
  }
}

}  // namespace

ViewKey MakeViewKey(const Query& q, CanonicalQuery* canonical_out) {
  CanonicalQuery canon;
  // Renaming is answer-preserving only for blank-free heads (see
  // CanonicalQuery); head-blank queries key on their exact spelling.
  canon.renamed = !HeadHasBlanks(q.head);
  if (canon.renamed) {
    const std::vector<Term> vars = q.body.Variables();
    const TermMap rename = CanonicalRenaming(q, vars);
    std::vector<Triple> body, head;
    body.reserve(q.body.size());
    for (const Triple& t : q.body) body.push_back(rename.Apply(t));
    head.reserve(q.head.size());
    for (const Triple& t : q.head) head.push_back(rename.Apply(t));
    canon.query.body = Graph(std::move(body));
    canon.query.head = Graph(std::move(head));
    canon.query.premise = q.premise;
    canon.query.constraints.reserve(q.constraints.size());
    for (Term cst : q.constraints) {
      canon.query.constraints.push_back(rename.Apply(cst));
    }
    std::sort(canon.query.constraints.begin(), canon.query.constraints.end());
  } else {
    canon.query = q;
    // Exact spelling: keep the constraint list order-insensitive too.
    std::sort(canon.query.constraints.begin(), canon.query.constraints.end());
  }

  ViewKey key;
  key.words.push_back(canon.renamed ? 1u : 0u);
  AppendGraph(canon.query.body, &key.words);
  AppendGraph(canon.query.head, &key.words);
  key.words.push_back(static_cast<uint32_t>(canon.query.constraints.size()));
  for (Term cst : canon.query.constraints) key.words.push_back(cst.bits());
  AppendGraph(canon.query.premise, &key.words);
  key.hash = HashRange(key.words.begin(), key.words.end(),
                       size_t{0x51ED270B35Aull});

  if (canonical_out != nullptr) *canonical_out = std::move(canon);
  return key;
}

}  // namespace swdb
