#ifndef MULTILOG_DATALOG_TERM_H_
#define MULTILOG_DATALOG_TERM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/symbol.h"

namespace multilog::datalog {

/// First-order terms over the signature F ∪ V of the paper's language L:
/// variables, symbolic constants, integer constants, and compound
/// (function) terms. Terms are immutable values; compound arguments are
/// shared via copy-on-write vectors.
///
/// Names (variable names, symbolic constants, functors) are interned:
/// a Term is a small tagged value holding a kind, a 32-bit Symbol id or
/// an inline int64, and (for compounds only) a shared argument vector.
/// Equality and hashing are integer operations; `operator<` resolves
/// symbols so ordering stays lexicographic (deterministic output
/// ordering everywhere depends on this). Strings appear only at the
/// parser/printer boundary.
class Term {
 public:
  enum class Kind { kVariable, kSymbol, kInt, kCompound };

  /// Named variable, e.g. Var("X").
  static Term Var(std::string_view name);
  static Term Var(Symbol name);
  /// Symbolic constant, e.g. Sym("avenger").
  static Term Sym(std::string_view name);
  static Term Sym(Symbol name);
  /// Integer constant.
  static Term Int(int64_t value);
  /// Function term f(t1,...,tn); n may be 0 (then prefer Sym).
  static Term Fn(std::string_view functor, std::vector<Term> args);
  static Term Fn(Symbol functor, std::vector<Term> args);

  Kind kind() const { return kind_; }
  bool IsVariable() const { return kind_ == Kind::kVariable; }
  bool IsSymbol() const { return kind_ == Kind::kSymbol; }
  bool IsInt() const { return kind_ == Kind::kInt; }
  bool IsCompound() const { return kind_ == Kind::kCompound; }
  bool IsConstant() const {
    return kind_ == Kind::kSymbol || kind_ == Kind::kInt;
  }

  /// Variable name, symbol text, or functor, depending on kind
  /// (resolved from the symbol table; the reference is stable).
  const std::string& name() const { return sym_.str(); }
  /// The interned name; meaningless for kInt.
  Symbol symbol() const { return sym_; }
  int64_t int_value() const { return int_value_; }
  const std::vector<Term>& args() const;

  /// True when no variable occurs anywhere in the term.
  bool IsGround() const;

  /// Appends the names of all variables, in first-occurrence order,
  /// possibly with duplicates.
  void CollectVariables(std::vector<Symbol>* out) const;

  /// Prolog-ish rendering: X, avenger, 42, f(a, X).
  std::string ToString() const;
  /// Appends ToString()'s text to `out` without temporaries.
  void AppendTo(std::string* out) const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Total order over terms (kind, then content); symbol content
  /// compares lexicographically, giving deterministic output ordering
  /// everywhere.
  bool operator<(const Term& other) const;

  size_t Hash() const;

 private:
  Term(Kind kind, Symbol sym, int64_t int_value)
      : kind_(kind), sym_(sym), int_value_(int_value) {}

  Kind kind_ = Kind::kSymbol;
  Symbol sym_;
  int64_t int_value_ = 0;
  std::shared_ptr<const std::vector<Term>> args_;  // only for kCompound
};

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace multilog::datalog

#endif  // MULTILOG_DATALOG_TERM_H_
