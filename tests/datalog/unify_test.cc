#include "datalog/unify.h"

#include <gtest/gtest.h>

namespace multilog::datalog {
namespace {

TEST(UnifyTest, ConstantsUnifyWithThemselves) {
  Substitution s;
  EXPECT_TRUE(UnifyTerms(Term::Sym("a"), Term::Sym("a"), &s));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(UnifyTerms(Term::Sym("a"), Term::Sym("b"), &s));
  EXPECT_TRUE(UnifyTerms(Term::Int(3), Term::Int(3), &s));
  EXPECT_FALSE(UnifyTerms(Term::Int(3), Term::Int(4), &s));
  EXPECT_FALSE(UnifyTerms(Term::Int(3), Term::Sym("3"), &s));
}

TEST(UnifyTest, VariableBinding) {
  Substitution s;
  EXPECT_TRUE(UnifyTerms(Term::Var("X"), Term::Sym("a"), &s));
  EXPECT_EQ(s.Apply(Term::Var("X")), Term::Sym("a"));
}

TEST(UnifyTest, VariableChains) {
  Substitution s;
  EXPECT_TRUE(UnifyTerms(Term::Var("X"), Term::Var("Y"), &s));
  EXPECT_TRUE(UnifyTerms(Term::Var("Y"), Term::Sym("a"), &s));
  EXPECT_EQ(s.Apply(Term::Var("X")), Term::Sym("a"));
}

TEST(UnifyTest, CompoundTerms) {
  Substitution s;
  Term lhs = Term::Fn("f", {Term::Var("X"), Term::Sym("b")});
  Term rhs = Term::Fn("f", {Term::Sym("a"), Term::Var("Y")});
  EXPECT_TRUE(UnifyTerms(lhs, rhs, &s));
  EXPECT_EQ(s.Apply(lhs).ToString(), "f(a, b)");
  EXPECT_EQ(s.Apply(rhs).ToString(), "f(a, b)");
}

TEST(UnifyTest, CompoundMismatch) {
  Substitution s;
  EXPECT_FALSE(UnifyTerms(Term::Fn("f", {Term::Sym("a")}),
                          Term::Fn("g", {Term::Sym("a")}), &s));
  Substitution s2;
  EXPECT_FALSE(UnifyTerms(Term::Fn("f", {Term::Sym("a")}),
                          Term::Fn("f", {Term::Sym("a"), Term::Sym("b")}),
                          &s2));
}

TEST(UnifyTest, OccursCheck) {
  Substitution s;
  EXPECT_FALSE(
      UnifyTerms(Term::Var("X"), Term::Fn("f", {Term::Var("X")}), &s));
}

TEST(UnifyTest, SameVariableUnifiesTrivially) {
  Substitution s;
  EXPECT_TRUE(UnifyTerms(Term::Var("X"), Term::Var("X"), &s));
  EXPECT_TRUE(s.empty());
}

TEST(UnifyTest, AtomUnification) {
  Atom a("p", {Term::Var("X"), Term::Sym("b")});
  Atom b("p", {Term::Sym("a"), Term::Var("Y")});
  std::optional<Substitution> s = UnifyAtoms(a, b, Substitution());
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->Apply(a).ToString(), "p(a, b)");
}

TEST(UnifyTest, AtomPredicateMismatch) {
  EXPECT_FALSE(UnifyAtoms(Atom("p", {Term::Sym("a")}),
                          Atom("q", {Term::Sym("a")}), Substitution())
                   .has_value());
  EXPECT_FALSE(UnifyAtoms(Atom("p", {Term::Sym("a")}),
                          Atom("p", {Term::Sym("a"), Term::Sym("b")}),
                          Substitution())
                   .has_value());
}

TEST(UnifyTest, BaseSubstitutionNotModifiedOnFailure) {
  Substitution base;
  base.Bind("X", Term::Sym("a"));
  std::optional<Substitution> s =
      UnifyAtoms(Atom("p", {Term::Var("X")}), Atom("p", {Term::Sym("b")}),
                 base);
  EXPECT_FALSE(s.has_value());
  EXPECT_EQ(base.Apply(Term::Var("X")), Term::Sym("a"));
}

TEST(UnifyTest, RenameApart) {
  Atom a("p", {Term::Var("X"), Term::Fn("f", {Term::Var("Y")})});
  Atom renamed = RenameAtom(a, 7);
  EXPECT_EQ(renamed.ToString(), "p(X#7, f(Y#7))");
  // Renaming leaves constants alone.
  Atom b("p", {Term::Sym("a"), Term::Int(3)});
  EXPECT_EQ(RenameAtom(b, 7).ToString(), "p(a, 3)");
  // A long-lived interpreter's rename counter passes 2^31.
  EXPECT_EQ(RenameAtom(a, int64_t{1} << 40).ToString(),
            "p(X#1099511627776, f(Y#1099511627776))");
}

TEST(UnifyTest, SubstitutionToStringSorted) {
  Substitution s;
  s.Bind("Z", Term::Sym("c"));
  s.Bind("A", Term::Sym("a"));
  EXPECT_EQ(s.ToString(), "{A=a, Z=c}");
  EXPECT_EQ(Substitution().ToString(), "{}");
}

TEST(UnifyTest, ApplyDescendsIntoCompounds) {
  Substitution s;
  s.Bind("X", Term::Sym("a"));
  Term t = Term::Fn("f", {Term::Fn("g", {Term::Var("X")})});
  EXPECT_EQ(s.Apply(t).ToString(), "f(g(a))");
}

}  // namespace
}  // namespace multilog::datalog
