#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/topdown.h"

namespace multilog::datalog {
namespace {

// The answer lists of QueryModel and TopDownEngine::Solve against a
// test-local oracle: a nested-loop join with no argument index and no
// clash pre-check, whose answers are deduplicated by text (first wins)
// and then sorted with a comparator that re-renders both sides - the
// pipeline the engines ran before OrderedAnswers. The oracle renders
// with its own copy of the original Substitution::ToString, so the text
// itself is pinned too.

std::string OracleTermText(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
    case Term::Kind::kSymbol:
      return t.name();
    case Term::Kind::kInt:
      return std::to_string(t.int_value());
    case Term::Kind::kCompound: {
      std::string out = t.name() + "(";
      for (size_t i = 0; i < t.args().size(); ++i) {
        if (i > 0) out += ", ";
        out += OracleTermText(t.args()[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

std::string OracleText(const Substitution& s) {
  std::vector<std::pair<Symbol, Term>> sorted = s.bindings();
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ", ";
    out += sorted[i].first.str() + "=" +
           OracleTermText(s.Apply(sorted[i].second));
  }
  return out + "}";
}

void NaiveJoin(const Model& model, const std::vector<Literal>& goal,
               size_t index, const Substitution& subst,
               std::vector<Substitution>* out) {
  if (index == goal.size()) {
    out->push_back(subst);
    return;
  }
  const Literal& lit = goal[index];
  if (lit.is_builtin()) {
    Result<bool> holds = EvalBuiltin(lit.comparison(), subst.Apply(lit.lhs()),
                                     subst.Apply(lit.rhs()));
    ASSERT_TRUE(holds.ok()) << holds.status();
    if (*holds) NaiveJoin(model, goal, index + 1, subst, out);
    return;
  }
  if (lit.negated()) {
    if (!model.Contains(subst.Apply(lit.atom()))) {
      NaiveJoin(model, goal, index + 1, subst, out);
    }
    return;
  }
  for (const Atom& fact : model.FactsFor(lit.atom().PredicateId())) {
    std::optional<Substitution> extended =
        UnifyAtoms(subst.Apply(lit.atom()), fact, subst);
    if (extended.has_value()) {
      NaiveJoin(model, goal, index + 1, *extended, out);
    }
  }
}

/// Restricts, deduplicates and orders `raw` the way the engines did.
std::vector<std::string> OracleOrder(const std::vector<Literal>& goal,
                                     const std::vector<Substitution>& raw) {
  std::vector<Symbol> goal_vars;
  for (const Literal& l : goal) l.CollectVariables(&goal_vars);
  std::set<Symbol> vars(goal_vars.begin(), goal_vars.end());
  std::set<std::string> seen;
  std::vector<Substitution> answers;
  for (const Substitution& s : raw) {
    Substitution restricted;
    for (Symbol v : vars) {
      Term value = s.Apply(Term::Var(v));
      if (!value.IsVariable()) restricted.Bind(v, value);
    }
    if (seen.insert(OracleText(restricted)).second) {
      answers.push_back(std::move(restricted));
    }
  }
  std::sort(answers.begin(), answers.end(),
            [](const Substitution& a, const Substitution& b) {
              return OracleText(a) < OracleText(b);
            });
  std::vector<std::string> texts;
  for (const Substitution& s : answers) texts.push_back(OracleText(s));
  return texts;
}

std::vector<std::string> Texts(const std::vector<Substitution>& answers) {
  std::vector<std::string> texts;
  for (const Substitution& s : answers) texts.push_back(s.ToString());
  return texts;
}

std::string GoalText(const std::vector<Literal>& goal) {
  std::string out;
  for (const Literal& l : goal) out += l.ToString() + ", ";
  return out;
}

/// Random ground terms and goal patterns over a vocabulary whose texts
/// order differently from their kinds and values: symbols that prefix
/// each other, ints whose text order is not numeric ("10" < "9", "-3"),
/// and compound terms.
class Vocabulary {
 public:
  explicit Vocabulary(unsigned seed) : rng_(seed) {}

  int Pick(size_t n) { return static_cast<int>(rng_() % n); }

  Term Ground() {
    switch (Pick(6)) {
      case 0:
      case 1:
      case 2: {
        static const char* const kSymbols[] = {"a", "ab", "b", "b_", "a1"};
        return Term::Sym(kSymbols[Pick(5)]);
      }
      case 3:
      case 4: {
        static const int64_t kInts[] = {-3, 0, 7, 9, 10, 123};
        return Term::Int(kInts[Pick(6)]);
      }
      default:
        return Pick(2) == 0 ? Term::Fn("f", {Ground(), Ground()})
                            : Term::Fn("g", {Ground()});
    }
  }

  Term Variable() {
    // Names whose text order differs from their first use.
    static const char* const kVars[] = {"Y", "X", "X1", "Ab", "Z", "A"};
    return Term::Var(kVars[Pick(6)]);
  }

  /// A goal argument: mostly a variable or a ground term, sometimes a
  /// compound term with a variable inside.
  Term Pattern() {
    const int roll = Pick(10);
    if (roll < 5) return Variable();
    if (roll < 8) return Ground();
    return Term::Fn("f", {Variable(), Ground()});
  }

 private:
  std::mt19937 rng_;
};

constexpr const char* kPredicates[] = {"p", "q", "r"};
constexpr size_t kArity[] = {2, 3, 1};

Model RandomModel(Vocabulary* v) {
  Model model;
  const int facts = 20 + v->Pick(40);
  std::vector<Atom> inserted;
  for (int i = 0; i < facts; ++i) {
    const int pred = v->Pick(3);
    std::vector<Term> args;
    for (size_t a = 0; a < kArity[pred]; ++a) args.push_back(v->Ground());
    inserted.emplace_back(kPredicates[pred], std::move(args));
    model.Insert(inserted.back());
    // Re-insert an earlier fact now and then: the model must stay a set.
    if (v->Pick(4) == 0) model.Insert(inserted[v->Pick(i + 1)]);
  }
  return model;
}

/// One to three positive literals (possibly repeating one), then maybe
/// a negation or a `!=` over variables the positives bind.
std::vector<Literal> RandomGoal(Vocabulary* v) {
  std::vector<Literal> goal;
  const int positives = 1 + v->Pick(3);
  for (int i = 0; i < positives; ++i) {
    if (i > 0 && v->Pick(5) == 0) {
      const Literal repeat = goal[v->Pick(i)];
      goal.push_back(repeat);
      continue;
    }
    const int pred = v->Pick(3);
    std::vector<Term> args;
    for (size_t a = 0; a < kArity[pred]; ++a) args.push_back(v->Pattern());
    goal.push_back(
        Literal::Positive(Atom(kPredicates[pred], std::move(args))));
  }
  std::vector<Symbol> bound;
  for (const Literal& l : goal) l.CollectVariables(&bound);
  if (bound.empty()) return goal;
  auto bound_var = [&] { return Term::Var(bound[v->Pick(bound.size())]); };
  switch (v->Pick(3)) {
    case 0:
      goal.push_back(Literal::Builtin(Comparison::kNe, bound_var(),
                                      v->Pick(2) == 0 ? bound_var()
                                                      : v->Ground()));
      break;
    case 1: {
      const int pred = v->Pick(3);
      std::vector<Term> args;
      for (size_t a = 0; a < kArity[pred]; ++a) {
        args.push_back(v->Pick(2) == 0 ? bound_var() : v->Ground());
      }
      goal.push_back(
          Literal::Negative(Atom(kPredicates[pred], std::move(args))));
      break;
    }
    default:
      break;
  }
  return goal;
}

class QueryModelPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QueryModelPropertyTest, QueryModelEqualsOracle) {
  Vocabulary v(GetParam());
  const Model model = RandomModel(&v);
  for (int g = 0; g < 12; ++g) {
    const std::vector<Literal> goal = RandomGoal(&v);
    std::vector<Substitution> raw;
    NaiveJoin(model, goal, 0, Substitution(), &raw);
    Result<std::vector<Substitution>> answers = QueryModel(model, goal);
    ASSERT_TRUE(answers.ok()) << answers.status() << "\n" << GoalText(goal);
    EXPECT_EQ(Texts(*answers), OracleOrder(goal, raw))
        << "goal " << GoalText(goal) << "\nmodel\n"
        << model.ToString();
  }
}

TEST_P(QueryModelPropertyTest, TopDownEqualsOracle) {
  // Reachability over a random graph: the top-down engine's raw answer
  // list repeats answers derivable along several paths, so its
  // deduplication is exercised, not just its ordering.
  Vocabulary v(GetParam());
  std::string src;
  const int edges = 4 + v.Pick(10);
  for (int i = 0; i < edges; ++i) {
    src += "edge(n" + std::to_string(v.Pick(5)) + ", " +
           (v.Pick(3) == 0 ? std::to_string(v.Pick(12))
                           : "n" + std::to_string(v.Pick(5))) +
           ").\n";
  }
  src +=
      "reach(X, Y) :- edge(X, Y).\n"
      "reach(X, Y) :- edge(X, Z), reach(Z, Y).\n";
  Result<ParsedProgram> parsed = ParseDatalog(src);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << src;
  Result<Model> model = Evaluate(parsed->program);
  ASSERT_TRUE(model.ok()) << model.status();

  for (const char* goal_text :
       {"reach(X, Y)", "reach(n0, Y)", "reach(X, Y), reach(Y, X)",
        "reach(Y, X), edge(X, Z)", "reach(X, X)"}) {
    Result<std::vector<Literal>> goal = ParseGoal(goal_text);
    ASSERT_TRUE(goal.ok());
    TopDownEngine engine(parsed->program);
    Result<std::vector<Substitution>> td = engine.Solve(*goal);
    ASSERT_TRUE(td.ok()) << td.status();
    std::vector<Substitution> raw;
    NaiveJoin(*model, *goal, 0, Substitution(), &raw);
    EXPECT_EQ(Texts(*td), OracleOrder(*goal, raw))
        << "goal " << goal_text << "\n"
        << src;
  }
}

TEST_P(QueryModelPropertyTest, OrderedAnswersKeepsFirstAndOrdersByText) {
  Vocabulary v(GetParam());
  std::vector<Substitution> raw;
  for (int i = 0; i < 40; ++i) {
    if (!raw.empty() && v.Pick(3) == 0) {
      const Substitution repeat = raw[v.Pick(raw.size())];
      raw.push_back(repeat);
      continue;
    }
    Substitution s;
    for (int b = 0; b < 3; ++b) {
      const Term var = v.Variable();
      if (!s.Contains(var.symbol())) s.Bind(var.symbol(), v.Ground());
    }
    raw.push_back(std::move(s));
  }
  OrderedAnswers<int> ordered;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (int* slot = ordered.Insert(raw[i].ToString())) {
      *slot = static_cast<int>(i);
    }
  }
  // The oracle over the same list: each answer's first index, in the
  // order of the answers' texts.
  std::vector<std::pair<std::string, int>> firsts;
  std::set<std::string> seen;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (seen.insert(OracleText(raw[i])).second) {
      firsts.emplace_back(OracleText(raw[i]), static_cast<int>(i));
    }
  }
  std::sort(firsts.begin(), firsts.end());
  std::vector<int> expected;
  for (const auto& [text, index] : firsts) expected.push_back(index);
  EXPECT_EQ(ordered.Take(), expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, QueryModelPropertyTest,
                         ::testing::Range(0u, 60u));

}  // namespace
}  // namespace multilog::datalog
