#include "datalog/unify.h"

#include <algorithm>
#include <cassert>

namespace multilog::datalog {

void Substitution::Bind(Symbol var, Term term) {
  assert(!Contains(var));
  bindings_.emplace_back(var, std::move(term));
}

Term Substitution::Walk(const Term& t) const {
  Term cur = t;
  while (cur.IsVariable()) {
    const Term* bound = Find(cur.symbol());
    if (bound == nullptr) return cur;
    cur = *bound;
  }
  return cur;
}

Term Substitution::Apply(const Term& t) const {
  Term walked = Walk(t);
  if (walked.IsCompound()) {
    std::vector<Term> args;
    args.reserve(walked.args().size());
    for (const Term& a : walked.args()) args.push_back(Apply(a));
    return Term::Fn(walked.symbol(), std::move(args));
  }
  return walked;
}

Atom Substitution::Apply(const Atom& a) const {
  std::vector<Term> args;
  args.reserve(a.args().size());
  for (const Term& t : a.args()) args.push_back(Apply(t));
  return Atom(a.predicate_symbol(), std::move(args));
}

Literal Substitution::Apply(const Literal& l) const {
  if (l.is_builtin()) {
    return Literal::Builtin(l.comparison(), Apply(l.lhs()), Apply(l.rhs()));
  }
  if (l.negated()) return Literal::Negative(Apply(l.atom()));
  return Literal::Positive(Apply(l.atom()));
}

std::string Substitution::ToString() const {
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  // QueryModel and the interpreters bind answers in name order, so only
  // an out-of-order binding list pays for a sorted copy.
  std::vector<std::pair<Symbol, Term>> sorted;
  const std::vector<std::pair<Symbol, Term>>* in_order = &bindings_;
  if (!std::is_sorted(bindings_.begin(), bindings_.end(), by_name)) {
    sorted = bindings_;
    std::sort(sorted.begin(), sorted.end(), by_name);
    in_order = &sorted;
  }
  std::string out;
  out.reserve(2 + 16 * in_order->size());
  out += '{';
  for (const auto& [var, term] : *in_order) {
    if (out.size() > 1) out += ", ";
    out += var.str();
    out += '=';
    if (term.IsGround()) {
      term.AppendTo(&out);
    } else {
      Apply(term).AppendTo(&out);
    }
  }
  out += '}';
  return out;
}

namespace {

bool OccursIn(Symbol var, const Term& t, const Substitution& subst) {
  Term walked = subst.Walk(t);
  if (walked.IsVariable()) return walked.symbol() == var;
  if (walked.IsCompound()) {
    for (const Term& a : walked.args()) {
      if (OccursIn(var, a, subst)) return true;
    }
  }
  return false;
}

}  // namespace

bool UnifyTerms(const Term& a, const Term& b, Substitution* subst) {
  Term x = subst->Walk(a);
  Term y = subst->Walk(b);

  if (x.IsVariable()) {
    if (y.IsVariable() && y.symbol() == x.symbol()) return true;
    if (OccursIn(x.symbol(), y, *subst)) return false;
    subst->Bind(x.symbol(), y);
    return true;
  }
  if (y.IsVariable()) {
    if (OccursIn(y.symbol(), x, *subst)) return false;
    subst->Bind(y.symbol(), x);
    return true;
  }
  if (x.kind() != y.kind()) return false;
  switch (x.kind()) {
    case Term::Kind::kSymbol:
      return x.symbol() == y.symbol();
    case Term::Kind::kInt:
      return x.int_value() == y.int_value();
    case Term::Kind::kCompound: {
      if (x.symbol() != y.symbol() || x.args().size() != y.args().size()) {
        return false;
      }
      for (size_t i = 0; i < x.args().size(); ++i) {
        if (!UnifyTerms(x.args()[i], y.args()[i], subst)) return false;
      }
      return true;
    }
    case Term::Kind::kVariable:
      break;  // unreachable: handled above
  }
  return false;
}

std::optional<Substitution> UnifyAtoms(const Atom& a, const Atom& b,
                                       const Substitution& base) {
  if (a.predicate_symbol() != b.predicate_symbol() ||
      a.arity() != b.arity()) {
    return std::nullopt;
  }
  Substitution subst = base;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (!UnifyTerms(a.args()[i], b.args()[i], &subst)) return std::nullopt;
  }
  return subst;
}

Term RenameTerm(const Term& t, int64_t suffix) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return Term::Var(t.name() + "#" + std::to_string(suffix));
    case Term::Kind::kSymbol:
    case Term::Kind::kInt:
      return t;
    case Term::Kind::kCompound: {
      std::vector<Term> args;
      args.reserve(t.args().size());
      for (const Term& a : t.args()) args.push_back(RenameTerm(a, suffix));
      return Term::Fn(t.symbol(), std::move(args));
    }
  }
  return t;
}

Atom RenameAtom(const Atom& a, int64_t suffix) {
  std::vector<Term> args;
  args.reserve(a.args().size());
  for (const Term& t : a.args()) args.push_back(RenameTerm(t, suffix));
  return Atom(a.predicate_symbol(), std::move(args));
}

Literal RenameLiteral(const Literal& l, int64_t suffix) {
  if (l.is_builtin()) {
    return Literal::Builtin(l.comparison(), RenameTerm(l.lhs(), suffix),
                            RenameTerm(l.rhs(), suffix));
  }
  if (l.negated()) return Literal::Negative(RenameAtom(l.atom(), suffix));
  return Literal::Positive(RenameAtom(l.atom(), suffix));
}

}  // namespace multilog::datalog
