#ifndef SWDB_PATHS_PATH_H_
#define SWDB_PATHS_PATH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/status.h"

namespace swdb {

/// Regular path expressions over RDF graphs — the "reachability, paths"
/// extension the paper's conclusions (§7) list as future work, in the
/// style later standardized by nSPARQL / SPARQL 1.1 property paths.
///
/// Grammar (ParsePathExpr):
///   path  := alt
///   alt   := seq ('|' seq)*
///   seq   := unary ('/' unary)*
///   unary := atom ('*' | '+' | '?')*
///   atom  := predicate | '^' predicate | '(' path ')'
///
/// A predicate token follows the graph parser's term syntax (bare IRI,
/// <IRI>, or a reserved keyword sp/sc/type/dom/range).
class PathExpr {
 public:
  enum class Kind {
    kPredicate,   ///< one forward edge via `predicate`
    kInverse,     ///< one backward edge via `predicate`
    kSequence,    ///< left then right
    kAlternation, ///< left or right
    kStar,        ///< zero or more repetitions of left
    kPlus,        ///< one or more repetitions of left
    kOptional,    ///< zero or one repetition of left
    // --- nSPARQL-style nested expressions ([35], same authors): ---
    kAnyForward,  ///< one forward edge via any predicate ("next")
    kAnyBackward, ///< one backward edge via any predicate
    kPredTest,    ///< forward edge whose *predicate node* satisfies left
    kNodeTest,    ///< keep nodes from which left reaches something
    kSelfIs,      ///< keep only the node equal to `predicate`
    kEdgeForward, ///< subject → predicate of any outgoing triple ("edge")
    kEdgeBackward,///< object → predicate of any incoming triple
  };

  static PathExpr Predicate(Term p);
  static PathExpr Inverse(Term p);
  static PathExpr Sequence(PathExpr left, PathExpr right);
  static PathExpr Alternation(PathExpr left, PathExpr right);
  static PathExpr Star(PathExpr inner);
  static PathExpr Plus(PathExpr inner);
  static PathExpr Optional(PathExpr inner);

  /// One forward edge regardless of predicate (nSPARQL's next axis
  /// with a wildcard test).
  static PathExpr AnyForward();
  static PathExpr AnyBackward();
  /// One forward edge (s,p,o) ↦ s→o such that the nested expression,
  /// evaluated *from the predicate p as a node*, reaches something —
  /// nSPARQL's next::[expr]. This is the construct that lets RDFS
  /// subproperty reasoning be expressed navigationally: the edge step
  /// "via any q with q sp* p" is PredTest(Seq(Star(Predicate(sp)),
  /// SelfIs(p))).
  static PathExpr PredTest(PathExpr inner);
  /// Keeps the nodes from which the nested expression reaches at least
  /// one node (nSPARQL's self::[expr] node test); the position does not
  /// advance.
  static PathExpr NodeTest(PathExpr inner);
  /// Keeps only the node equal to `term` (nSPARQL's self::a).
  static PathExpr SelfIs(Term term);
  /// Moves from a subject to the predicate of one of its outgoing
  /// triples (nSPARQL's edge axis). With EdgeBackward (object → its
  /// predicate) and the sp/dom/range keywords this makes the RDFS
  /// typing rules expressible as navigation:
  ///   type-of = type/(sc)* | edge/(sp)*/dom/(sc)* | ^edge/(sp)*/range/(sc)*
  static PathExpr EdgeForward();
  static PathExpr EdgeBackward();

  Kind kind() const { return kind_; }
  Term predicate() const { return predicate_; }
  const PathExpr& left() const { return *children_[0]; }
  const PathExpr& right() const { return *children_[1]; }

  /// Prints the expression. The regular fragment (kPredicate through
  /// kOptional) prints in the ParsePathExpr grammar and round-trips.
  /// The nSPARQL kinds print nSPARQL notation for display only (`edge`,
  /// `^edge`, `next`, `^next`, `next::[e]`, `self::[e]`, `self::a`);
  /// the grammar has no such forms, and most of them re-parse, without
  /// an error, as a plain IRI step.
  std::string ToString(const Dictionary& dict) const;

 private:
  PathExpr() = default;

  Kind kind_ = Kind::kPredicate;
  Term predicate_;
  std::vector<std::shared_ptr<const PathExpr>> children_;
};

/// Parses a path expression (grammar above).
Result<PathExpr> ParsePathExpr(std::string_view text, Dictionary* dict);

/// All nodes reachable from any source via the path, computed by BFS
/// over the expression structure. Each single step is one index range
/// per source: forward axes read the primary (s,p,o) order, `^p` reads
/// (p,o,s) and the backward axes `^next`/`^edge` read (o,s,p); no step
/// walks the whole graph. Result is sorted and deduplicated.
/// Polynomial: O(|expr| · |sources| · |g|) worst case.
std::vector<Term> EvalPathFrom(const Graph& g, const PathExpr& path,
                               const std::vector<Term>& sources);

/// True iff `target` is reachable from `source` via the path.
bool PathReaches(const Graph& g, const PathExpr& path, Term source,
                 Term target);

/// All (s, o) pairs in the path's relation over universe(g). Quadratic
/// output in the worst case; intended for small graphs and tests.
std::vector<std::pair<Term, Term>> EvalPathPairs(const Graph& g,
                                                 const PathExpr& path);

}  // namespace swdb

#endif  // SWDB_PATHS_PATH_H_
