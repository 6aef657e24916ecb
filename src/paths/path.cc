#include "paths/path.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "parser/text.h"

namespace swdb {

PathExpr PathExpr::Predicate(Term p) {
  PathExpr e;
  e.kind_ = Kind::kPredicate;
  e.predicate_ = p;
  return e;
}

PathExpr PathExpr::Inverse(Term p) {
  PathExpr e;
  e.kind_ = Kind::kInverse;
  e.predicate_ = p;
  return e;
}

PathExpr PathExpr::Sequence(PathExpr left, PathExpr right) {
  PathExpr e;
  e.kind_ = Kind::kSequence;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(left)));
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(right)));
  return e;
}

PathExpr PathExpr::Alternation(PathExpr left, PathExpr right) {
  PathExpr e;
  e.kind_ = Kind::kAlternation;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(left)));
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(right)));
  return e;
}

PathExpr PathExpr::Star(PathExpr inner) {
  PathExpr e;
  e.kind_ = Kind::kStar;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(inner)));
  return e;
}

PathExpr PathExpr::Plus(PathExpr inner) {
  PathExpr e;
  e.kind_ = Kind::kPlus;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(inner)));
  return e;
}

PathExpr PathExpr::Optional(PathExpr inner) {
  PathExpr e;
  e.kind_ = Kind::kOptional;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(inner)));
  return e;
}

PathExpr PathExpr::AnyForward() {
  PathExpr e;
  e.kind_ = Kind::kAnyForward;
  return e;
}

PathExpr PathExpr::AnyBackward() {
  PathExpr e;
  e.kind_ = Kind::kAnyBackward;
  return e;
}

PathExpr PathExpr::PredTest(PathExpr inner) {
  PathExpr e;
  e.kind_ = Kind::kPredTest;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(inner)));
  return e;
}

PathExpr PathExpr::NodeTest(PathExpr inner) {
  PathExpr e;
  e.kind_ = Kind::kNodeTest;
  e.children_.push_back(std::make_shared<const PathExpr>(std::move(inner)));
  return e;
}

PathExpr PathExpr::SelfIs(Term term) {
  PathExpr e;
  e.kind_ = Kind::kSelfIs;
  e.predicate_ = term;
  return e;
}

PathExpr PathExpr::EdgeForward() {
  PathExpr e;
  e.kind_ = Kind::kEdgeForward;
  return e;
}

PathExpr PathExpr::EdgeBackward() {
  PathExpr e;
  e.kind_ = Kind::kEdgeBackward;
  return e;
}

std::string PathExpr::ToString(const Dictionary& dict) const {
  // Append-based construction (instead of `"lit" + str`) sidesteps the
  // GCC 12 -Wrestrict false positive PR105651.
  auto wrap = [](std::string prefix, std::string body, const char* suffix) {
    prefix += body;
    prefix += suffix;
    return prefix;
  };
  switch (kind_) {
    case Kind::kPredicate:
      return FormatTerm(predicate_, dict);
    case Kind::kInverse:
      return wrap("^", FormatTerm(predicate_, dict), "");
    case Kind::kSequence:
      return wrap("(", wrap(left().ToString(dict), "/", "") +
                           right().ToString(dict),
                  ")");
    case Kind::kAlternation:
      return wrap("(", wrap(left().ToString(dict), "|", "") +
                           right().ToString(dict),
                  ")");
    case Kind::kStar:
      return wrap("(", left().ToString(dict), ")*");
    case Kind::kPlus:
      return wrap("(", left().ToString(dict), ")+");
    case Kind::kOptional:
      return wrap("(", left().ToString(dict), ")?");
    case Kind::kAnyForward:
      return "next";
    case Kind::kAnyBackward:
      return "^next";
    case Kind::kPredTest:
      return wrap("next::[", left().ToString(dict), "]");
    case Kind::kNodeTest:
      return wrap("self::[", left().ToString(dict), "]");
    case Kind::kSelfIs:
      return wrap("self::", FormatTerm(predicate_, dict), "");
    case Kind::kEdgeForward:
      return "edge";
    case Kind::kEdgeBackward:
      return "^edge";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Parsing: recursive descent over a token stream.

namespace {

struct PathTokenizer {
  std::string_view text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
  }

  // Peeks the next operator character, or '\0' for a term/end.
  char PeekOp() {
    SkipSpace();
    if (pos >= text.size()) return '\0';
    char c = text[pos];
    if (c == '(' || c == ')' || c == '/' || c == '|' || c == '*' ||
        c == '+' || c == '?' || c == '^') {
      return c;
    }
    return '\0';
  }

  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }

  void Consume() { ++pos; }

  // Reads a predicate token (until an operator or whitespace).
  std::string_view ReadTermToken() {
    SkipSpace();
    size_t start = pos;
    if (pos < text.size() && text[pos] == '<') {
      // Angle-bracketed IRI: read through '>'.
      while (pos < text.size() && text[pos] != '>') ++pos;
      if (pos < text.size()) ++pos;
      return text.substr(start, pos - start);
    }
    while (pos < text.size()) {
      char c = text[pos];
      if (c == ' ' || c == '\t' || c == '(' || c == ')' || c == '/' ||
          c == '|' || c == '*' || c == '+' || c == '?' || c == '^') {
        break;
      }
      ++pos;
    }
    return text.substr(start, pos - start);
  }
};

class PathParser {
 public:
  PathParser(std::string_view text, Dictionary* dict)
      : tokenizer_{text}, dict_(dict) {}

  Result<PathExpr> Parse() {
    Result<PathExpr> e = ParseAlt();
    if (!e.ok()) return e;
    if (!tokenizer_.AtEnd()) {
      return Status::ParseError("trailing input in path expression");
    }
    return e;
  }

 private:
  Result<PathExpr> ParseAlt() {
    Result<PathExpr> left = ParseSeq();
    if (!left.ok()) return left;
    PathExpr expr = *std::move(left);
    while (tokenizer_.PeekOp() == '|') {
      tokenizer_.Consume();
      Result<PathExpr> right = ParseSeq();
      if (!right.ok()) return right;
      expr = PathExpr::Alternation(std::move(expr), *std::move(right));
    }
    return expr;
  }

  Result<PathExpr> ParseSeq() {
    Result<PathExpr> left = ParseUnary();
    if (!left.ok()) return left;
    PathExpr expr = *std::move(left);
    while (tokenizer_.PeekOp() == '/') {
      tokenizer_.Consume();
      Result<PathExpr> right = ParseUnary();
      if (!right.ok()) return right;
      expr = PathExpr::Sequence(std::move(expr), *std::move(right));
    }
    return expr;
  }

  Result<PathExpr> ParseUnary() {
    Result<PathExpr> atom = ParseAtom();
    if (!atom.ok()) return atom;
    PathExpr expr = *std::move(atom);
    for (;;) {
      char op = tokenizer_.PeekOp();
      if (op == '*') {
        tokenizer_.Consume();
        expr = PathExpr::Star(std::move(expr));
      } else if (op == '+') {
        tokenizer_.Consume();
        expr = PathExpr::Plus(std::move(expr));
      } else if (op == '?') {
        tokenizer_.Consume();
        expr = PathExpr::Optional(std::move(expr));
      } else {
        return expr;
      }
    }
  }

  Result<PathExpr> ParseAtom() {
    char op = tokenizer_.PeekOp();
    if (op == '(') {
      tokenizer_.Consume();
      Result<PathExpr> inner = ParseAlt();
      if (!inner.ok()) return inner;
      if (tokenizer_.PeekOp() != ')') {
        return Status::ParseError("expected ')' in path expression");
      }
      tokenizer_.Consume();
      return inner;
    }
    bool inverse = false;
    if (op == '^') {
      tokenizer_.Consume();
      inverse = true;
    }
    std::string_view token = tokenizer_.ReadTermToken();
    if (token.empty()) {
      return Status::ParseError("expected predicate in path expression");
    }
    Result<Term> term = ParseTerm(token, dict_);
    if (!term.ok()) return term.status();
    if (!term->IsIri()) {
      return Status::ParseError("path predicates must be IRIs");
    }
    return inverse ? PathExpr::Inverse(*term) : PathExpr::Predicate(*term);
  }

  PathTokenizer tokenizer_;
  Dictionary* dict_;
};

}  // namespace

Result<PathExpr> ParsePathExpr(std::string_view text, Dictionary* dict) {
  PathParser parser(text, dict);
  return parser.Parse();
}

// ---------------------------------------------------------------------------
// Evaluation.

namespace {

// One evaluation step: the image of `sources` under the path relation.
std::vector<Term> Step(const Graph& g, const PathExpr& path,
                       const std::vector<Term>& sources) {
  std::unordered_set<Term> out;
  switch (path.kind()) {
    case PathExpr::Kind::kPredicate:
      for (Term s : sources) {
        g.Match(s, path.predicate(), std::nullopt, [&](const Triple& t) {
          out.insert(t.o);
          return true;
        });
      }
      break;
    case PathExpr::Kind::kInverse:
      for (Term s : sources) {
        g.Match(std::nullopt, path.predicate(), s, [&](const Triple& t) {
          out.insert(t.s);
          return true;
        });
      }
      break;
    case PathExpr::Kind::kSequence: {
      std::vector<Term> mid = Step(g, path.left(), sources);
      std::vector<Term> end = Step(g, path.right(), mid);
      out.insert(end.begin(), end.end());
      break;
    }
    case PathExpr::Kind::kAlternation: {
      std::vector<Term> l = Step(g, path.left(), sources);
      std::vector<Term> r = Step(g, path.right(), sources);
      out.insert(l.begin(), l.end());
      out.insert(r.begin(), r.end());
      break;
    }
    case PathExpr::Kind::kStar:
    case PathExpr::Kind::kPlus: {
      // BFS over the inner relation.
      std::unordered_set<Term> seen(sources.begin(), sources.end());
      std::vector<Term> frontier = sources;
      if (path.kind() == PathExpr::Kind::kStar) {
        out.insert(sources.begin(), sources.end());
      }
      while (!frontier.empty()) {
        std::vector<Term> next_frontier;
        std::vector<Term> image = Step(g, path.left(), frontier);
        for (Term t : image) {
          out.insert(t);
          if (seen.insert(t).second) next_frontier.push_back(t);
        }
        frontier = std::move(next_frontier);
      }
      break;
    }
    case PathExpr::Kind::kOptional: {
      out.insert(sources.begin(), sources.end());
      std::vector<Term> image = Step(g, path.left(), sources);
      out.insert(image.begin(), image.end());
      break;
    }
    case PathExpr::Kind::kAnyForward:
      for (Term s : sources) {
        g.Match(s, std::nullopt, std::nullopt, [&](const Triple& t) {
          out.insert(t.o);
          return true;
        });
      }
      break;
    case PathExpr::Kind::kAnyBackward:
      for (Term s : sources) {
        g.Match(std::nullopt, std::nullopt, s, [&](const Triple& t) {
          out.insert(t.s);
          return true;
        });
      }
      break;
    case PathExpr::Kind::kPredTest: {
      // Evaluate the nested test once per distinct predicate, then step
      // along the edges whose predicate passes.
      std::unordered_map<Term, bool> predicate_passes;
      for (Term s : sources) {
        g.Match(s, std::nullopt, std::nullopt, [&](const Triple& t) {
          auto it = predicate_passes.find(t.p);
          if (it == predicate_passes.end()) {
            bool pass = !Step(g, path.left(), {t.p}).empty();
            it = predicate_passes.emplace(t.p, pass).first;
          }
          if (it->second) out.insert(t.o);
          return true;
        });
      }
      break;
    }
    case PathExpr::Kind::kNodeTest:
      for (Term s : sources) {
        if (!Step(g, path.left(), {s}).empty()) out.insert(s);
      }
      break;
    case PathExpr::Kind::kSelfIs:
      for (Term s : sources) {
        if (s == path.predicate()) out.insert(s);
      }
      break;
    case PathExpr::Kind::kEdgeForward:
      for (Term s : sources) {
        g.Match(s, std::nullopt, std::nullopt, [&](const Triple& t) {
          out.insert(t.p);
          return true;
        });
      }
      break;
    case PathExpr::Kind::kEdgeBackward:
      for (Term s : sources) {
        g.Match(std::nullopt, std::nullopt, s, [&](const Triple& t) {
          out.insert(t.p);
          return true;
        });
      }
      break;
  }
  return std::vector<Term>(out.begin(), out.end());
}

}  // namespace

std::vector<Term> EvalPathFrom(const Graph& g, const PathExpr& path,
                               const std::vector<Term>& sources) {
  std::vector<Term> result = Step(g, path, sources);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

bool PathReaches(const Graph& g, const PathExpr& path, Term source,
                 Term target) {
  std::vector<Term> reached = EvalPathFrom(g, path, {source});
  return std::binary_search(reached.begin(), reached.end(), target);
}

std::vector<std::pair<Term, Term>> EvalPathPairs(const Graph& g,
                                                 const PathExpr& path) {
  std::vector<std::pair<Term, Term>> pairs;
  for (Term s : g.Universe()) {
    for (Term o : EvalPathFrom(g, path, {s})) {
      pairs.emplace_back(s, o);
    }
  }
  return pairs;
}

}  // namespace swdb
