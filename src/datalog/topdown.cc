#include "datalog/topdown.h"

#include <algorithm>
#include <functional>

#include "datalog/eval.h"

namespace multilog::datalog {

TopDownEngine::TopDownEngine(Program program) : program_(std::move(program)) {
  status_ = program_.CheckSafety();
  if (status_.ok()) {
    status_ = Stratify(program_).status();
  }
  if (status_.ok()) {
    for (const Clause& c : program_.clauses()) {
      if (c.is_aggregate()) {
        status_ = Status::InvalidProgram(
            "the top-down engine does not support aggregate clauses; use "
            "bottom-up evaluation");
        break;
      }
    }
  }
  for (const Clause& c : program_.clauses()) {
    clauses_by_pred_[c.head().PredicateId()].push_back(&c);
  }
}

size_t TopDownEngine::TotalTableSize() const {
  size_t total = 0;
  for (const auto& [key, table] : tables_) total += table.answers.size();
  return total;
}

Status TopDownEngine::SolveAtomOnce(const Atom& pattern, size_t depth,
                                    const TopDownOptions& options) {
  const CallKey key = MakeCallKey(pattern);
  if (active_.count(key)) {
    // Already on the resolution path: consume tabled answers only; the
    // outer fixpoint will bring late answers around.
    return Status::OK();
  }
  active_.insert(key);
  ++stats_.calls;

  auto it = clauses_by_pred_.find(pattern.PredicateId());
  if (it != clauses_by_pred_.end()) {
    for (const Clause* clause : it->second) {
      ++rename_counter_;
      Atom head = RenameAtom(clause->head(), rename_counter_);
      std::optional<Substitution> unified =
          UnifyAtoms(pattern, head, Substitution());
      if (!unified.has_value()) continue;

      std::vector<Literal> body;
      body.reserve(clause->body().size());
      for (const Literal& l : clause->body()) {
        body.push_back(RenameLiteral(l, rename_counter_));
      }

      std::vector<Substitution> matches;
      MULTILOG_RETURN_IF_ERROR(
          SolveBody(body, 0, *unified, depth + 1, options, &matches));
      for (const Substitution& m : matches) {
        Atom answer = m.Apply(head);
        if (!answer.IsGround()) {
          return Status::InvalidProgram("derived non-ground answer: " +
                                        answer.ToString());
        }
        AnswerTable& table = tables_[key];
        if (table.set.insert(answer).second) {
          table.answers.push_back(answer);
          ++stats_.tabled_answers;
          if (stats_.tabled_answers > options.max_answers) {
            return Status::ResourceExhausted(
                "top-down evaluation exceeded max_answers");
          }
        }
      }
    }
  }

  active_.erase(key);
  return Status::OK();
}

Status TopDownEngine::SolveBody(const std::vector<Literal>& body, size_t index,
                                const Substitution& subst, size_t depth,
                                const TopDownOptions& options,
                                std::vector<Substitution>* out) {
  if (index == body.size()) {
    out->push_back(subst);
    return Status::OK();
  }
  const Literal& lit = body[index];

  if (lit.is_builtin()) {
    MULTILOG_ASSIGN_OR_RETURN(Term lhs,
                              EvalArithmetic(subst.Apply(lit.lhs())));
    MULTILOG_ASSIGN_OR_RETURN(Term rhs,
                              EvalArithmetic(subst.Apply(lit.rhs())));
    if (lit.comparison() == Comparison::kEq &&
        (!lhs.IsGround() || !rhs.IsGround())) {
      Substitution extended = subst;
      if (!UnifyTerms(lhs, rhs, &extended)) return Status::OK();
      return SolveBody(body, index + 1, extended, depth, options, out);
    }
    MULTILOG_ASSIGN_OR_RETURN(bool holds,
                              EvalBuiltin(lit.comparison(), lhs, rhs));
    if (!holds) return Status::OK();
    return SolveBody(body, index + 1, subst, depth, options, out);
  }

  if (lit.negated()) {
    Atom grounded = subst.Apply(lit.atom());
    if (!grounded.IsGround()) {
      return Status::InvalidProgram(
          "negative literal not ground at evaluation time: not " +
          grounded.ToString());
    }
    // Complete evaluation of the (lower-stratum) subgoal: iterate its
    // table to a local fixpoint, then test membership.
    const CallKey key = MakeCallKey(grounded);
    size_t before;
    do {
      before = TotalTableSize();
      MULTILOG_RETURN_IF_ERROR(SolveAtomOnce(grounded, depth, options));
    } while (TotalTableSize() != before);
    auto it = tables_.find(key);
    if (it != tables_.end() && it->second.set.count(grounded)) {
      return Status::OK();  // negation fails
    }
    return SolveBody(body, index + 1, subst, depth, options, out);
  }

  const Atom pattern = subst.Apply(lit.atom());
  MULTILOG_RETURN_IF_ERROR(SolveAtomOnce(pattern, depth, options));
  const CallKey key = MakeCallKey(pattern);
  auto it = tables_.find(key);
  if (it == tables_.end()) return Status::OK();
  // Iterate over a copy: recursive calls may grow the table.
  const std::vector<Atom> answers = it->second.answers;
  for (const Atom& answer : answers) {
    std::optional<Substitution> extended = UnifyAtoms(pattern, answer, subst);
    if (!extended.has_value()) continue;
    MULTILOG_RETURN_IF_ERROR(
        SolveBody(body, index + 1, *extended, depth, options, out));
  }
  return Status::OK();
}

Result<std::vector<Substitution>> TopDownEngine::Solve(
    const std::vector<Literal>& goal, const TopDownOptions& options) {
  MULTILOG_RETURN_IF_ERROR(status_);

  std::vector<Symbol> goal_vars;
  for (const Literal& l : goal) l.CollectVariables(&goal_vars);
  std::sort(goal_vars.begin(), goal_vars.end());
  goal_vars.erase(std::unique(goal_vars.begin(), goal_vars.end()),
                  goal_vars.end());

  std::vector<Substitution> raw;
  for (size_t pass = 0; pass < options.max_passes; ++pass) {
    ++stats_.passes;
    active_.clear();
    size_t before = TotalTableSize();
    raw.clear();
    MULTILOG_RETURN_IF_ERROR(
        SolveBody(goal, 0, Substitution(), 0, options, &raw));
    if (TotalTableSize() == before) break;
    if (pass + 1 == options.max_passes) {
      return Status::ResourceExhausted(
          "top-down evaluation did not converge within max_passes");
    }
  }

  OrderedAnswers<Substitution> answers;
  for (const Substitution& s : raw) {
    Substitution restricted;
    for (Symbol v : goal_vars) {
      Term value = s.Apply(Term::Var(v));
      if (!value.IsVariable()) restricted.Bind(v, value);
    }
    if (Substitution* slot = answers.Insert(restricted.ToString())) {
      *slot = std::move(restricted);
    }
  }
  return answers.Take();
}

}  // namespace multilog::datalog
