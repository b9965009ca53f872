#ifndef MULTILOG_DATALOG_UNIFY_H_
#define MULTILOG_DATALOG_UNIFY_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datalog/atom.h"
#include "datalog/term.h"

namespace multilog::datalog {

/// A substitution: a finite map from variables (interned symbols) to
/// terms. Bindings may chain (X -> Y, Y -> a); Resolve/Apply follow
/// chains. Stored as a flat vector with linear lookup - clause-level
/// binding sets are tiny, so the scan beats hashing and makes the
/// per-candidate copies in UnifyAtoms cheap.
class Substitution {
 public:
  Substitution() = default;

  bool Contains(Symbol var) const { return Find(var) != nullptr; }
  bool Contains(const std::string& var) const {
    return Contains(Symbol::Intern(var));
  }

  /// Adds var -> term. Precondition: var is unbound.
  void Bind(Symbol var, Term term);
  void Bind(const std::string& var, Term term) {
    Bind(Symbol::Intern(var), std::move(term));
  }

  /// Follows variable chains from `t` until a non-variable or unbound
  /// variable is reached. Does not descend into compound args.
  Term Walk(const Term& t) const;

  /// Fully applies the substitution, descending into compound terms.
  Term Apply(const Term& t) const;
  Atom Apply(const Atom& a) const;
  Literal Apply(const Literal& l) const;

  size_t size() const { return bindings_.size(); }
  bool empty() const { return bindings_.empty(); }
  const std::vector<std::pair<Symbol, Term>>& bindings() const {
    return bindings_;
  }

  /// "{X=a, Y=f(b)}" with keys sorted by name; "{}" when empty.
  std::string ToString() const;

 private:
  const Term* Find(Symbol var) const {
    for (const auto& [v, t] : bindings_) {
      if (v == var) return &t;
    }
    return nullptr;
  }

  std::vector<std::pair<Symbol, Term>> bindings_;
};

/// An answer list under the answer-order contract every engine keeps:
/// answers are deduplicated and ordered by their canonical text
/// (Substitution::ToString), the first of equal answers winning. The
/// caller renders each candidate's text once and inserts it; the text is
/// the key, so no comparator ever re-renders an answer.
template <typename T>
class OrderedAnswers {
 public:
  /// The slot for a new answer rendered as `text`, or nullptr when an
  /// answer with that text is already held.
  T* Insert(std::string text) {
    auto [it, inserted] = by_text_.try_emplace(std::move(text));
    return inserted ? &it->second : nullptr;
  }

  /// Moves the answers out in text order, leaving the list empty.
  std::vector<T> Take() {
    std::vector<T> out;
    out.reserve(by_text_.size());
    for (auto& [text, answer] : by_text_) out.push_back(std::move(answer));
    by_text_.clear();
    return out;
  }

 private:
  std::map<std::string, T> by_text_;
};

/// Unifies `a` and `b` under `subst`, extending it in place on success.
/// Performs the occurs check (needed because compound terms are allowed).
/// On failure `subst` may hold partial bindings; callers that need
/// backtracking should copy first (see UnifyAtoms).
bool UnifyTerms(const Term& a, const Term& b, Substitution* subst);

/// Unifies two atoms (same predicate and arity, then argument-wise).
/// Returns the extended substitution, or nullopt. `base` is not modified.
std::optional<Substitution> UnifyAtoms(const Atom& a, const Atom& b,
                                       const Substitution& base);

/// Returns a copy of the clause with every variable X renamed to
/// "X#<suffix>", making it variable-disjoint from any other renaming.
class Clause;
Atom RenameAtom(const Atom& a, int64_t suffix);
Term RenameTerm(const Term& t, int64_t suffix);
Literal RenameLiteral(const Literal& l, int64_t suffix);

}  // namespace multilog::datalog

#endif  // MULTILOG_DATALOG_UNIFY_H_
