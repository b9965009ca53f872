#include "datalog/term.h"

#include <charconv>
#include <functional>

namespace multilog::datalog {

namespace {
const std::vector<Term> kNoArgs;

size_t CombineHash(size_t seed, size_t value) {
  // Boost-style mix.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}
}  // namespace

Term Term::Var(std::string_view name) { return Var(Symbol::Intern(name)); }

Term Term::Var(Symbol name) { return Term(Kind::kVariable, name, 0); }

Term Term::Sym(std::string_view name) { return Sym(Symbol::Intern(name)); }

Term Term::Sym(Symbol name) { return Term(Kind::kSymbol, name, 0); }

Term Term::Int(int64_t value) { return Term(Kind::kInt, Symbol(), value); }

Term Term::Fn(std::string_view functor, std::vector<Term> args) {
  return Fn(Symbol::Intern(functor), std::move(args));
}

Term Term::Fn(Symbol functor, std::vector<Term> args) {
  Term t(Kind::kCompound, functor, 0);
  t.args_ = std::make_shared<const std::vector<Term>>(std::move(args));
  return t;
}

const std::vector<Term>& Term::args() const {
  if (args_) return *args_;
  return kNoArgs;
}

bool Term::IsGround() const {
  switch (kind_) {
    case Kind::kVariable:
      return false;
    case Kind::kSymbol:
    case Kind::kInt:
      return true;
    case Kind::kCompound:
      for (const Term& a : args()) {
        if (!a.IsGround()) return false;
      }
      return true;
  }
  return false;
}

void Term::CollectVariables(std::vector<Symbol>* out) const {
  switch (kind_) {
    case Kind::kVariable:
      out->push_back(sym_);
      return;
    case Kind::kSymbol:
    case Kind::kInt:
      return;
    case Kind::kCompound:
      for (const Term& a : args()) a.CollectVariables(out);
      return;
  }
}

std::string Term::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Term::AppendTo(std::string* out) const {
  switch (kind_) {
    case Kind::kVariable:
    case Kind::kSymbol:
      *out += name();
      return;
    case Kind::kInt: {
      char buf[24];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), int_value_);
      out->append(buf, r.ptr);
      return;
    }
    case Kind::kCompound: {
      *out += name();
      *out += '(';
      const auto& as = args();
      for (size_t i = 0; i < as.size(); ++i) {
        if (i > 0) *out += ", ";
        as[i].AppendTo(out);
      }
      *out += ')';
      return;
    }
  }
  *out += '?';
}

bool Term::operator==(const Term& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kVariable:
    case Kind::kSymbol:
      return sym_ == other.sym_;
    case Kind::kInt:
      return int_value_ == other.int_value_;
    case Kind::kCompound:
      return sym_ == other.sym_ && args() == other.args();
  }
  return false;
}

bool Term::operator<(const Term& other) const {
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_);
  }
  switch (kind_) {
    case Kind::kVariable:
    case Kind::kSymbol:
      return sym_ < other.sym_;  // lexicographic via resolution
    case Kind::kInt:
      return int_value_ < other.int_value_;
    case Kind::kCompound: {
      if (sym_ != other.sym_) return sym_ < other.sym_;
      const auto& a = args();
      const auto& b = other.args();
      if (a.size() != b.size()) return a.size() < b.size();
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return false;
    }
  }
  return false;
}

size_t Term::Hash() const {
  size_t h = static_cast<size_t>(kind_);
  switch (kind_) {
    case Kind::kVariable:
    case Kind::kSymbol:
      return CombineHash(h, sym_.Hash());
    case Kind::kInt:
      return CombineHash(h, std::hash<int64_t>()(int_value_));
    case Kind::kCompound: {
      h = CombineHash(h, sym_.Hash());
      for (const Term& a : args()) h = CombineHash(h, a.Hash());
      return h;
    }
  }
  return h;
}

}  // namespace multilog::datalog
