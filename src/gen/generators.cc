#include "gen/generators.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "inference/rules.h"
#include "util/str.h"

namespace swdb {

namespace {

std::vector<Term> MakeNodes(uint32_t count, double blank_ratio,
                            const std::string& prefix, Dictionary* dict,
                            Rng* rng) {
  std::vector<Term> nodes;
  nodes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (rng->Chance(blank_ratio)) {
      nodes.push_back(dict->FreshBlank());
    } else {
      nodes.push_back(dict->Iri(prefix + std::to_string(i)));
    }
  }
  return nodes;
}

std::vector<Term> MakePredicates(uint32_t count, const std::string& prefix,
                                 Dictionary* dict) {
  std::vector<Term> preds;
  preds.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    preds.push_back(dict->Iri(prefix + std::to_string(i)));
  }
  return preds;
}

}  // namespace

Graph RandomSimpleGraph(const RandomGraphSpec& spec, Dictionary* dict,
                        Rng* rng) {
  std::vector<Term> nodes =
      MakeNodes(spec.num_nodes, spec.blank_ratio, "urn:n", dict, rng);
  std::vector<Term> preds =
      MakePredicates(spec.num_predicates, "urn:p", dict);
  Graph g;
  for (uint32_t i = 0; i < spec.num_triples; ++i) {
    Term s = nodes[rng->Below(nodes.size())];
    Term p = preds[rng->Below(preds.size())];
    Term o = nodes[rng->Below(nodes.size())];
    g.Insert(s, p, o);
  }
  return g;
}

Graph ScChain(uint32_t n, Dictionary* dict) {
  Graph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.Insert(dict->Iri(NumberedName("urn:c", i)), vocab::kSc,
             dict->Iri(NumberedName("urn:c", i + 1)));
  }
  return g;
}

Graph SpChainWithUses(uint32_t n, uint32_t uses, Dictionary* dict) {
  Graph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.Insert(dict->Iri(NumberedName("urn:sp", i)), vocab::kSp,
             dict->Iri(NumberedName("urn:sp", i + 1)));
  }
  Term base = dict->Iri("urn:sp0");
  for (uint32_t i = 0; i < uses; ++i) {
    g.Insert(dict->Iri(NumberedName("urn:ux", i)), base,
             dict->Iri(NumberedName("urn:uy", i)));
  }
  return g;
}

Graph SchemaWorkload(const SchemaWorkloadSpec& spec, Dictionary* dict,
                     Rng* rng) {
  Graph g;
  std::vector<Term> classes =
      MakePredicates(spec.num_classes, "urn:class", dict);
  std::vector<Term> props =
      MakePredicates(spec.num_properties, "urn:prop", dict);
  std::vector<Term> instances = MakeNodes(
      spec.num_instances, spec.blank_instance_ratio, "urn:inst", dict, rng);

  // Class tree: each class (except the root) subclasses a random earlier
  // one, giving an acyclic sc forest.
  for (uint32_t i = 1; i < classes.size(); ++i) {
    g.Insert(classes[i], vocab::kSc, classes[rng->Below(i)]);
  }
  // Property tree via sp, plus dom/range into random classes.
  for (uint32_t i = 0; i < props.size(); ++i) {
    if (i > 0) g.Insert(props[i], vocab::kSp, props[rng->Below(i)]);
    g.Insert(props[i], vocab::kDom, classes[rng->Below(classes.size())]);
    g.Insert(props[i], vocab::kRange, classes[rng->Below(classes.size())]);
  }
  // Typed instances.
  for (Term instance : instances) {
    if (rng->Chance(spec.typed_fraction)) {
      g.Insert(instance, vocab::kType, classes[rng->Below(classes.size())]);
    }
  }
  // Facts.
  for (uint32_t i = 0; i < spec.num_facts; ++i) {
    g.Insert(instances[rng->Below(instances.size())],
             props[rng->Below(props.size())],
             instances[rng->Below(instances.size())]);
  }
  return g;
}

Graph BlankChain(uint32_t n, Term predicate, Dictionary* dict) {
  Graph g;
  Term prev = dict->FreshBlank();
  for (uint32_t i = 0; i < n; ++i) {
    Term next = dict->FreshBlank();
    g.Insert(prev, predicate, next);
    prev = next;
  }
  return g;
}

Graph BlankCycle(uint32_t n, Term predicate, Dictionary* dict) {
  std::vector<Term> blanks;
  blanks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) blanks.push_back(dict->FreshBlank());
  Graph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.Insert(blanks[i], predicate, blanks[(i + 1) % n]);
  }
  return g;
}

Graph BlankAuthorStar(uint32_t papers, Dictionary* dict) {
  const Term creator = dict->Iri("creator");
  const Term type = dict->Iri("type");
  const Term article = dict->Iri("Article");
  const Term author = dict->FreshBlank();
  Graph g;
  for (uint32_t i = 0; i < papers; ++i) {
    const Term paper = dict->Iri(NumberedName("paper", i));
    g.Insert(paper, creator, author);
    g.Insert(paper, creator, dict->Iri(NumberedName("coauthor", i % 5)));
    g.Insert(paper, type, article);
  }
  return g;
}

Query PatternQueryFromGraph(const Graph& data, uint32_t body_size,
                            double var_ratio, Dictionary* dict, Rng* rng) {
  Query q;
  if (data.empty()) return q;
  std::unordered_map<Term, Term> to_var;
  uint32_t var_counter = 0;
  uint64_t tag = rng->Next() % 1000000;
  auto varify = [&](Term t, bool is_predicate) -> Term {
    auto it = to_var.find(t);
    if (it != to_var.end()) return it->second;
    // Blank nodes cannot appear in bodies; always replace them.
    bool replace = t.IsBlank() || rng->Chance(var_ratio);
    // Keep predicates concrete more often to produce selective queries.
    if (is_predicate && !t.IsBlank() && rng->Chance(0.5)) replace = false;
    if (!replace) return t;
    Term v = dict->Var(NumberedName("q", tag) + "_" +
                       std::to_string(var_counter++));
    to_var.emplace(t, v);
    return v;
  };
  // Sample triples via a random walk biased toward connectivity.
  std::vector<Triple> sampled;
  for (uint32_t i = 0; i < body_size; ++i) {
    sampled.push_back(data[rng->Below(data.size())]);
  }
  for (const Triple& t : sampled) {
    Triple pattern(varify(t.s, false), varify(t.p, true), varify(t.o, false));
    q.body.Insert(pattern);
  }
  q.head = q.body;
  return q;
}

namespace {

// Samples `count` triples from data, biased toward connectivity: after
// the first, each pick retries a few times for a triple sharing a term
// with one already chosen, falling back to a random triple.
std::vector<Triple> SampleConnectedTriples(const Graph& data, uint32_t count,
                                           Rng* rng) {
  std::vector<Triple> chosen;
  std::unordered_set<Term> seen_terms;
  auto note = [&](const Triple& t) {
    chosen.push_back(t);
    seen_terms.insert(t.s);
    seen_terms.insert(t.p);
    seen_terms.insert(t.o);
  };
  note(data[rng->Below(data.size())]);
  while (chosen.size() < count) {
    Triple pick = data[rng->Below(data.size())];
    for (int attempt = 0; attempt < 8; ++attempt) {
      Triple t = data[rng->Below(data.size())];
      if (seen_terms.count(t.s) || seen_terms.count(t.o)) {
        pick = t;
        break;
      }
    }
    note(pick);
  }
  return chosen;
}

}  // namespace

std::vector<Query> OverlappingQueryMix(const Graph& data,
                                       const QueryMixSpec& spec,
                                       Dictionary* dict, Rng* rng) {
  std::vector<Query> out;
  if (data.empty()) return out;
  for (uint32_t f = 0; f < spec.num_families; ++f) {
    // The family fixes its prefix patterns once — variants reuse the
    // exact same Triple values (same Var terms), so their ordered bodies
    // align on this prefix by construction. Each query scopes its own
    // variables, so reusing names across queries is harmless.
    std::unordered_map<Term, Term> to_var;
    uint32_t var_counter = 0;
    auto varify = [&](Term t, bool is_predicate, const std::string& scope) {
      auto it = to_var.find(t);
      if (it != to_var.end()) return it->second;
      // Blank nodes cannot appear in bodies; always replace them.
      bool replace = t.IsBlank() || rng->Chance(spec.var_ratio);
      // Keep predicates concrete to produce selective, alignable prefixes.
      if (is_predicate && !t.IsBlank()) replace = false;
      if (!replace) return t;
      Term v = dict->Var(scope + "_" + std::to_string(var_counter++));
      to_var.emplace(t, v);
      return v;
    };
    std::vector<Triple> prefix_data =
        SampleConnectedTriples(data, spec.prefix_size, rng);
    std::string family_scope = NumberedName("f", f);
    std::vector<Triple> prefix_patterns;
    std::unordered_set<Term> prefix_terms;
    for (const Triple& t : prefix_data) {
      prefix_patterns.emplace_back(varify(t.s, false, family_scope),
                                   varify(t.p, true, family_scope),
                                   varify(t.o, false, family_scope));
      prefix_terms.insert(t.s);
      prefix_terms.insert(t.o);
    }
    for (uint32_t v = 0; v < spec.queries_per_family; ++v) {
      // Variant-specific suffix: sampled connected to the prefix terms
      // and varified through the family map (shared data terms join the
      // suffix to the prefix variables), with fresh terms scoped to the
      // variant. Restore the family map afterwards so variants stay
      // independent.
      std::unordered_map<Term, Term> family_map = to_var;
      uint32_t family_counter = var_counter;
      Query q;
      for (const Triple& t : prefix_patterns) q.body.Insert(t);
      std::string variant_scope = family_scope + NumberedName("v", v);
      for (uint32_t s = 0; s < spec.suffix_size; ++s) {
        Triple pick = data[rng->Below(data.size())];
        for (int attempt = 0; attempt < 8; ++attempt) {
          Triple t = data[rng->Below(data.size())];
          if (prefix_terms.count(t.s) || prefix_terms.count(t.o)) {
            pick = t;
            break;
          }
        }
        q.body.Insert(varify(pick.s, false, variant_scope),
                      varify(pick.p, true, variant_scope),
                      varify(pick.o, false, variant_scope));
      }
      to_var = std::move(family_map);
      var_counter = family_counter;
      q.head = q.body;
      out.push_back(std::move(q));
    }
  }
  return out;
}

Graph EquivalentMutation(const Graph& g, uint32_t mutations,
                         Dictionary* dict, Rng* rng) {
  Graph out = g;
  for (uint32_t i = 0; i < mutations; ++i) {
    if (rng->Chance(0.5)) {
      // Add one triple derivable by a single rule application.
      std::vector<RuleApplication> apps = EnumerateApplications(out);
      if (!apps.empty()) {
        const RuleApplication& app = apps[rng->Below(apps.size())];
        for (const Triple& c : app.conclusions) out.Insert(c);
        continue;
      }
    }
    // Add a redundant specialization: copy a triple, replacing one
    // blank-eligible position with a fresh blank. The fresh-blank copy
    // maps back onto the original, so equivalence is preserved.
    if (out.empty()) continue;
    Triple t = out[rng->Below(out.size())];
    Term fresh = dict->FreshBlank();
    if (rng->Chance(0.5)) {
      out.Insert(Triple(fresh, t.p, t.o));
    } else {
      out.Insert(Triple(t.s, t.p, fresh));
    }
  }
  return out;
}

}  // namespace swdb
