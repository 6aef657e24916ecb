#include "query/batch.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "query/view_key.h"
#include "rdf/map.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "util/thread_pool.h"

namespace swdb {

namespace {

// ---------------------------------------------------------------------------
// Pipeline bookkeeping

// One ViewKey equivalence class of the batch: a canonical query, the
// slots that spell it, and everything its evaluation produces. Each
// group is owned by exactly one trie root subtree (or by the sequential
// bypass), so trie tasks write here without synchronization.
struct Group {
  ViewKey key;
  CanonicalQuery canon;
  std::vector<size_t> members;  // slot indices, ascending (batch order)
  bool materialize = false;     // advisor promoted the shape
  std::optional<Result<std::vector<Graph>>> result;

  // Trie-evaluation state (renamed groups with non-empty bodies only).
  std::vector<Term> body_vars;          // sorted body variables
  std::vector<size_t> order;            // body triple indices, static order
  std::vector<Term> path_vars;          // path index → this group's var
  std::vector<TermMap> matchings;       // constraint-passing valuations
  Status trie_status = Status::OK();
  uint64_t steps_used = 0;              // suffix-matcher spend so far
  bool dead = false;                    // budget exhausted: stop feeding
  std::unique_ptr<PatternMatcher> matcher;       // compiled full body
  std::vector<std::pair<Term, Term>> seed;       // scratch per handoff
};

// How one slot of the batch resolves.
enum class SlotKind { kError, kPremise, kGroup };
struct Slot {
  SlotKind kind = SlotKind::kError;
  size_t group = 0;  // for kGroup
  Status error = Status::OK();
};

// ---------------------------------------------------------------------------
// Static body ordering
//
// The trie can only share what different groups spell in the same
// relative order, so each body is put into a deterministic
// most-constrained-first *static* order before insertion: repeatedly
// pick, among the triples connected to the variables already chosen
// (any triple while none is), the one with the smallest candidate
// count by its constant positions (variables wildcarded — the count is
// renaming-invariant, so isomorphic prefixes across groups align).
// Ties break on the triple spelling, then the body index. The dynamic
// most-constrained ordering still runs *inside* each group's residual
// suffix matcher; only the shared prefix walk is static.

std::optional<Term> ConstOrOpen(Term t) {
  if (t.IsVar()) return std::nullopt;
  return t;
}

std::vector<size_t> OrderBody(const Graph& nf,
                              const std::vector<Triple>& body) {
  const size_t n = body.size();
  std::vector<size_t> counts(n);
  for (size_t i = 0; i < n; ++i) {
    counts[i] = nf.CountMatches(ConstOrOpen(body[i].s), ConstOrOpen(body[i].p),
                                ConstOrOpen(body[i].o));
  }
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::unordered_map<uint32_t, bool> chosen_vars;
  auto connected = [&](const Triple& t) {
    const Term terms[3] = {t.s, t.p, t.o};
    for (Term x : terms) {
      if (x.IsVar() && chosen_vars.count(x.bits())) return true;
    }
    return false;
  };
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool conn = order.empty() || connected(body[i]);
      if (best == n || std::make_tuple(!conn, counts[i], body[i], i) <
                           std::make_tuple(!best_connected, counts[best],
                                           body[best], best)) {
        best = i;
        best_connected = conn;
      }
    }
    used[best] = true;
    order.push_back(best);
    const Term terms[3] = {body[best].s, body[best].p, body[best].o};
    for (Term x : terms) {
      if (x.IsVar()) chosen_vars[x.bits()] = true;
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// The shared-prefix trie
//
// Nodes are keyed on the *path-relative* encoding of a triple:
// constants by their term bits, variables by first-occurrence index
// along the path. Two groups whose ordered bodies start with the same
// structure therefore share nodes even when their canonical variable
// ids differ — each group records its own path-index → variable
// bijection for translating prefix bindings into matcher seeds.

struct TriePos {
  bool is_var = false;
  Term konst;        // when !is_var
  uint32_t idx = 0;  // path-var index when is_var
};

struct TrieNode {
  TriePos pos[3];
  uint32_t new_vars = 0;  // path vars first bound by this edge
  uint32_t subtree = 0;   // groups terminating in or below this node
  int32_t solo = -1;      // the unique group id when subtree == 1
  std::vector<uint32_t> terminal;  // groups whose ordered body ends here
  std::vector<std::unique_ptr<TrieNode>> children;
};

constexpr uint64_t kConstTag = uint64_t{1} << 40;

uint64_t EncodePos(const TriePos& p) {
  return p.is_var ? p.idx : kConstTag | p.konst.bits();
}

class BatchTrie {
 public:
  // Inserts group g (its ordered body) into the trie, filling
  // g.path_vars as a side effect.
  void Insert(uint32_t g, Group* grp, const std::vector<Triple>& body) {
    TrieNode* node = &root_;
    std::unordered_map<uint32_t, uint32_t> path_idx;  // var bits → index
    for (size_t k = 0; k < grp->order.size(); ++k) {
      const Triple& t = body[grp->order[k]];
      const Term terms[3] = {t.s, t.p, t.o};
      uint64_t enc[3];
      // Fresh path vars get consecutive indices in s,p,o first-occurrence
      // order — the encoding is therefore determined by structure alone.
      std::vector<std::pair<uint32_t, uint32_t>> fresh;  // bits → index
      uint32_t next = static_cast<uint32_t>(grp->path_vars.size());
      for (int i = 0; i < 3; ++i) {
        if (!terms[i].IsVar()) {
          enc[i] = kConstTag | terms[i].bits();
          continue;
        }
        auto it = path_idx.find(terms[i].bits());
        if (it != path_idx.end()) {
          enc[i] = it->second;
          continue;
        }
        uint32_t idx = next;
        bool seen = false;
        for (const auto& [bits, j] : fresh) {
          if (bits == terms[i].bits()) {
            idx = j;
            seen = true;
            break;
          }
        }
        if (!seen) {
          fresh.emplace_back(terms[i].bits(), next);
          ++next;
        }
        enc[i] = idx;
      }
      TrieNode* child = nullptr;
      for (auto& c : node->children) {
        if (EncodePos(c->pos[0]) == enc[0] && EncodePos(c->pos[1]) == enc[1] &&
            EncodePos(c->pos[2]) == enc[2]) {
          child = c.get();
          break;
        }
      }
      if (child == nullptr) {
        auto fresh_node = std::make_unique<TrieNode>();
        for (int i = 0; i < 3; ++i) {
          if (enc[i] & kConstTag) {
            fresh_node->pos[i] =
                TriePos{false, terms[i], 0};
          } else {
            fresh_node->pos[i] =
                TriePos{true, Term(), static_cast<uint32_t>(enc[i])};
          }
        }
        fresh_node->new_vars = static_cast<uint32_t>(fresh.size());
        child = fresh_node.get();
        node->children.push_back(std::move(fresh_node));
        ++node_count_;
      }
      for (const auto& [bits, j] : fresh) {
        path_idx.emplace(bits, j);
        assert(j == grp->path_vars.size());
        grp->path_vars.push_back(Term::FromBits(bits));
      }
      node = child;
    }
    node->terminal.push_back(g);
  }

  // Computes subtree counts and solo ids; returns the trie node count.
  uint64_t Finalize() {
    FinalizeNode(&root_);
    return node_count_;
  }

  TrieNode* root() { return &root_; }

 private:
  // Returns (subtree count, some group id in the subtree).
  std::pair<uint32_t, int32_t> FinalizeNode(TrieNode* n) {
    uint32_t total = static_cast<uint32_t>(n->terminal.size());
    int32_t any = n->terminal.empty()
                      ? -1
                      : static_cast<int32_t>(n->terminal.front());
    for (auto& c : n->children) {
      auto [sub, g] = FinalizeNode(c.get());
      total += sub;
      if (any < 0) any = g;
    }
    n->subtree = total;
    n->solo = total == 1 ? any : -1;
    return {total, any};
  }

  TrieNode root_;
  uint64_t node_count_ = 0;
};

// Collects every group id terminating in or below n (budget poisoning).
void GatherGroups(const TrieNode* n, std::vector<uint32_t>* out) {
  out->insert(out->end(), n->terminal.begin(), n->terminal.end());
  for (const auto& c : n->children) GatherGroups(c.get(), out);
}

// One root subtree's deterministic sequential walk. Owns a local
// BatchStats (merged in root order by the caller) and the subtree's
// shared-prefix step pot; each group additionally carries its own
// suffix-matcher budget, so one group's total spend is bounded exactly
// like one sequential call's.
struct SubtreeWalker {
  const Graph& nf;
  const MatchOptions& match;
  std::vector<Group>* groups;
  std::vector<Term> values;  // path index → bound value
  uint64_t prefix_steps = 0;
  bool exhausted = false;
  BatchStats stats;

  void EmitTerminal(uint32_t g, uint32_t bound) {
    Group& grp = (*groups)[g];
    if (grp.dead) return;
    TermMap v;
    for (uint32_t j = 0; j < bound; ++j) v.Bind(grp.path_vars[j], values[j]);
    if (bound > 0) ++stats.shared_bindings_reused;
    if (!grp.canon.query.SatisfiesConstraints(v)) return;
    grp.matchings.push_back(std::move(v));
  }

  // Hands the current prefix binding to g's full-body matcher: prefix
  // triples become ground (Contains-verified by EnumerateSeeded), the
  // residual suffix runs under the usual dynamic ordering.
  void Handoff(uint32_t g, uint32_t bound) {
    Group& grp = (*groups)[g];
    if (grp.dead) return;
    if (grp.matcher == nullptr) {
      MatchOptions mo = match;
      mo.pool = nullptr;  // parallelism is across root subtrees
      mo.stats = nullptr;
      grp.matcher = std::make_unique<PatternMatcher>(grp.canon.query.body,
                                                     &nf, mo);
    }
    grp.seed.clear();
    for (uint32_t j = 0; j < bound; ++j) {
      grp.seed.emplace_back(grp.path_vars[j], values[j]);
    }
    grp.matcher->set_max_steps(
        match.max_steps > grp.steps_used ? match.max_steps - grp.steps_used
                                         : 0);
    Status s = grp.matcher->EnumerateSeeded(
        grp.seed, [&grp](const TermMap& v) {
          if (!grp.canon.query.SatisfiesConstraints(v)) return true;
          grp.matchings.push_back(v);
          return true;
        });
    grp.steps_used += grp.matcher->steps_used();
    if (bound > 0) ++stats.shared_bindings_reused;
    if (!s.ok()) {
      grp.trie_status = s;
      grp.dead = true;
    }
  }

  // n's edge vars are bound (`bound` path values live); emit its
  // terminals and descend: shared children are extended here, solo
  // subtrees hand off to their group's own matcher.
  void Walk(const TrieNode* n, uint32_t bound) {
    for (uint32_t g : n->terminal) EmitTerminal(g, bound);
    for (const auto& c : n->children) {
      if (c->subtree == 1) {
        Handoff(static_cast<uint32_t>(c->solo), bound);
      } else {
        Extend(c.get(), bound);
      }
      if (exhausted) return;
    }
  }

  // Enumerates candidates of child's edge triple under the current
  // prefix binding and recurses per extension — the "enumerate once,
  // fan into every sharer" step.
  void Extend(const TrieNode* child, uint32_t bound) {
    std::optional<Term> want[3];
    for (int i = 0; i < 3; ++i) {
      const TriePos& p = child->pos[i];
      if (!p.is_var) {
        want[i] = p.konst;
      } else if (p.idx < bound) {
        want[i] = values[p.idx];
      }
    }
    if (values.size() < bound + child->new_vars) {
      values.resize(bound + child->new_vars);
    }
    MatchRange range = nf.Matches(want[0], want[1], want[2]);
    for (const Triple& tt : range) {
      if (++prefix_steps > match.max_steps) {
        exhausted = true;
        return;
      }
      const Term cand[3] = {tt.s, tt.p, tt.o};
      uint32_t assigned = bound;
      bool ok = true;
      for (int i = 0; i < 3; ++i) {
        const TriePos& p = child->pos[i];
        if (!p.is_var || p.idx < bound) continue;
        if (p.idx == assigned) {
          values[assigned++] = cand[i];
        } else if (values[p.idx] != cand[i]) {
          ok = false;  // repeated fresh var within the triple: must agree
          break;
        }
      }
      if (!ok) continue;
      ++stats.prefix_hits;
      Walk(child, bound + child->new_vars);
      if (exhausted) return;
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// The pipeline

std::vector<Result<std::vector<Graph>>> PreAnswerBatchImpl(
    const std::vector<Query>& queries, QueryEvaluator* evaluator,
    const std::function<const Graph&()>& normalized,
    const std::function<Result<std::vector<Graph>>(const Query&)>&
        premise_eval,
    const ViewCacheRef& views, ThreadPool* pool, const MatchOptions& match,
    BatchStats* stats_out) {
  const size_t n = queries.size();
  BatchStats stats;
  stats.queries = n;

  // Pass 1 — classify slots and group premise-free queries by ViewKey.
  // (Validated bodies contain no blank nodes, so every premise-free
  // valid slot is groupable; head-blank shapes key on their exact
  // spelling and only identical spellings share.)
  std::vector<Slot> slots(n);
  std::vector<Group> groups;
  std::unordered_map<ViewKey, size_t, ViewKeyHash> group_of;
  for (size_t i = 0; i < n; ++i) {
    Status valid = queries[i].Validate();
    if (!valid.ok()) {
      slots[i] = Slot{SlotKind::kError, 0, valid};
      continue;
    }
    if (!queries[i].premise.empty()) {
      slots[i] = Slot{SlotKind::kPremise, 0, Status::OK()};
      ++stats.premise_fallthroughs;
      continue;
    }
    CanonicalQuery canon;
    ViewKey key = MakeViewKey(queries[i], &canon);
    auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      Group grp;
      grp.key = std::move(key);
      grp.canon = std::move(canon);
      groups.push_back(std::move(grp));
    }
    groups[it->second].members.push_back(i);
    slots[i] = Slot{SlotKind::kGroup, it->second, Status::OK()};
  }
  for (const Group& grp : groups) stats.deduped += grp.members.size() - 1;

  // Pass 2 — probe the view cache before touching the normalized graph:
  // a fully-hit batch (the hot-serving case) skips even a snapshot's
  // lazy nf build.
  size_t unresolved = 0;
  if (views.cache != nullptr) {
    for (Group& grp : groups) {
      if (std::optional<std::vector<Graph>> hit =
              views.cache->Lookup(grp.key, views.version, views.erase_stamp)) {
        grp.result = *std::move(hit);
        ++stats.view_hits;
      }
    }
  }
  for (const Group& grp : groups) unresolved += grp.result ? 0 : 1;

  // Pass 3 — on any miss, pin the normalized graph once, bring the
  // cache up to it (no-op when it is already there), and re-probe; survivors consult the promotion advisor per spelling,
  // exactly as many times as the sequential run would.
  const Graph* nf = nullptr;
  if (unresolved > 0) {
    nf = &normalized();
    nf->WarmIndexes();  // trie tasks share nf read-only
    if (views.cache != nullptr) {
      views.cache->Maintain(*nf, views.version, views.erase_stamp, evaluator,
                            match);
      for (Group& grp : groups) {
        if (grp.result) continue;
        if (std::optional<std::vector<Graph>> hit = views.cache->Lookup(
                grp.key, views.version, views.erase_stamp)) {
          grp.result = *std::move(hit);
          ++stats.view_hits;
          --unresolved;
          continue;
        }
        for (size_t member = 0; member < grp.members.size(); ++member) {
          grp.materialize |= views.cache->RecordMiss(grp.key);
        }
      }
    }
  }

  // Pass 4 — plan the survivors. Renamed groups with non-empty bodies
  // enter the trie; head-blank groups (Skolem mints) and empty-body
  // groups take the sequential bypass on the calling thread.
  BatchTrie trie;
  std::vector<uint32_t> trie_group_ids;
  std::vector<size_t> bypass_leaders;  // group ids, evaluated in slot order
  for (size_t g = 0; g < groups.size(); ++g) {
    Group& grp = groups[g];
    if (grp.result) continue;
    grp.body_vars = grp.canon.query.body.Variables();
    if (!grp.canon.renamed || grp.canon.query.body.size() == 0) {
      bypass_leaders.push_back(g);
      if (!grp.canon.renamed) {
        ++stats.minting_fallthroughs;
      } else {
        ++stats.solo_groups;
      }
      continue;
    }
    const std::vector<Triple> body = grp.canon.query.body.triples();
    grp.order = OrderBody(*nf, body);
    trie.Insert(static_cast<uint32_t>(g), &grp, body);
    trie_group_ids.push_back(static_cast<uint32_t>(g));
  }
  if (!trie_group_ids.empty()) {
    stats.trie_nodes = trie.Finalize();
    for (const auto& c : trie.root()->children) {
      if (c->subtree == 1) {
        ++stats.solo_groups;
      } else {
        stats.trie_groups += c->subtree;
      }
    }
  }

  // Pass 5 — evaluate. Trie root subtrees fan out over the pool (each
  // owns its groups exclusively; stats merge in root order below, so
  // results are bit-identical at any worker count). The calling thread
  // meanwhile runs every minting job in batch order — premise slots and
  // head-blank leaders interleaved by slot index — reproducing the
  // sequential mint sequence exactly.
  const auto& root_children = trie.root()->children;
  std::vector<BatchStats> subtree_stats(root_children.size());
  auto run_subtree = [&](size_t c) {
    SubtreeWalker walker{*nf, match, &groups};
    const TrieNode* child = root_children[c].get();
    if (child->subtree == 1) {
      walker.Handoff(static_cast<uint32_t>(child->solo), 0);
    } else {
      walker.Extend(child, 0);
    }
    if (walker.exhausted) {
      // The pot poisons the whole subtree: any group here could still
      // have gained matchings, and partial matching sets must never be
      // installed or replayed.
      std::vector<uint32_t> poisoned;
      GatherGroups(child, &poisoned);
      for (uint32_t g : poisoned) {
        groups[g].trie_status =
            Status::LimitExceeded("batch shared-prefix step budget exhausted");
        groups[g].dead = true;
      }
    }
    subtree_stats[c] = walker.stats;
  };

  std::vector<std::optional<Result<std::vector<Graph>>>> premise_results(n);
  auto run_sequential_jobs = [&] {
    std::vector<std::pair<size_t, size_t>> jobs;  // (slot, group or npos)
    for (size_t g : bypass_leaders) {
      jobs.emplace_back(groups[g].members.front(), g);
    }
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].kind == SlotKind::kPremise) {
        jobs.emplace_back(i, static_cast<size_t>(-1));
      }
    }
    std::sort(jobs.begin(), jobs.end());
    for (const auto& [slot, g] : jobs) {
      if (g == static_cast<size_t>(-1)) {
        premise_results[slot] = premise_eval(queries[slot]);
        continue;
      }
      Group& grp = groups[g];
      grp.result = evaluator->PreAnswerPrenormalized(
          grp.canon.query, *nf, grp.materialize ? &grp.matchings : nullptr);
    }
  };

  if (pool != nullptr && !root_children.empty()) {
    TaskGroup group(pool);
    for (size_t c = 0; c < root_children.size(); ++c) {
      group.Run([&run_subtree, c] { run_subtree(c); });
    }
    run_sequential_jobs();
    group.Wait();
  } else {
    for (size_t c = 0; c < root_children.size(); ++c) run_subtree(c);
    run_sequential_jobs();
  }
  for (const BatchStats& s : subtree_stats) {
    stats.prefix_hits += s.prefix_hits;
    stats.shared_bindings_reused += s.shared_bindings_reused;
  }

  // Pass 6 — post-process trie groups exactly like
  // PreAnswerPrenormalized: matchings in ValuationLess order, answers
  // derived per matching (pure — renamed groups have blank-free heads),
  // sorted and deduplicated.
  for (uint32_t g : trie_group_ids) {
    Group& grp = groups[g];
    if (!grp.trie_status.ok()) {
      grp.result = grp.trie_status;
      continue;
    }
    std::sort(grp.matchings.begin(), grp.matchings.end(),
              [&grp](const TermMap& a, const TermMap& b) {
                return ValuationLess(a, b, grp.body_vars);
              });
    std::vector<Graph> answers;
    answers.reserve(grp.matchings.size());
    for (const TermMap& v : grp.matchings) {
      std::optional<Graph> answer =
          evaluator->AnswerFromMatching(grp.canon.query, grp.body_vars, v);
      if (answer.has_value()) answers.push_back(*std::move(answer));
    }
    std::sort(answers.begin(), answers.end(),
              [](const Graph& a, const Graph& b) {
                return a.triples() < b.triples();
              });
    answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
    grp.result = std::move(answers);
  }

  // Pass 7 — install promoted materializations (deterministic group
  // order) and count exhausted groups.
  for (Group& grp : groups) {
    if (grp.result && !grp.result->ok()) ++stats.limit_exceeded;
    if (views.cache != nullptr && grp.materialize && grp.result &&
        grp.result->ok()) {
      views.cache->Install(grp.key, grp.canon.query, std::move(grp.matchings),
                           **grp.result, views.version, views.erase_stamp);
    }
  }

  // Pass 8 — replay per slot. Graph copies share spine leaves, so
  // fanning one group's answers into many slots is pointer-cheap.
  std::vector<Result<std::vector<Graph>>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (slots[i].kind) {
      case SlotKind::kError:
        out.emplace_back(slots[i].error);
        break;
      case SlotKind::kPremise:
        out.emplace_back(*std::move(premise_results[i]));
        break;
      case SlotKind::kGroup:
        out.emplace_back(*groups[slots[i].group].result);
        break;
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

}  // namespace swdb
