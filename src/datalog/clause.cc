#include "datalog/clause.h"

#include <algorithm>
#include <unordered_set>

namespace multilog::datalog {

const char* AggregateOpToString(AggregateOp op) {
  switch (op) {
    case AggregateOp::kCount:
      return "count";
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
  }
  return "?";
}

Clause Clause::MakeAggregate(Atom head, std::vector<Literal> body,
                             size_t position, AggregateOp op, Term term) {
  Clause c(std::move(head), std::move(body));
  c.is_aggregate_ = true;
  c.aggregate_position_ = position;
  c.aggregate_op_ = op;
  c.aggregate_term_ = std::move(term);
  return c;
}

Status Clause::CheckSafety() const {
  std::unordered_set<Symbol> bound;
  for (const Literal& lit : body_) {
    if (!lit.is_builtin() && !lit.negated()) {
      std::vector<Symbol> vars;
      lit.CollectVariables(&vars);
      bound.insert(vars.begin(), vars.end());
    }
  }

  // `=` binds: a variable equated (possibly transitively) with a bound
  // term is itself bound. Iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : body_) {
      if (!lit.is_builtin() || lit.comparison() != Comparison::kEq) continue;
      std::vector<Symbol> lhs_vars, rhs_vars;
      lit.lhs().CollectVariables(&lhs_vars);
      lit.rhs().CollectVariables(&rhs_vars);
      auto all_bound = [&bound](const std::vector<Symbol>& vars) {
        return std::all_of(vars.begin(), vars.end(), [&bound](Symbol v) {
          return bound.count(v) > 0;
        });
      };
      if (all_bound(lhs_vars) && !all_bound(rhs_vars)) {
        for (Symbol v : rhs_vars) changed |= bound.insert(v).second;
      } else if (all_bound(rhs_vars) && !all_bound(lhs_vars)) {
        for (Symbol v : lhs_vars) changed |= bound.insert(v).second;
      }
    }
  }

  // `where` renders the offending head or literal; it runs only on
  // failure, so a safe clause renders nothing.
  auto check = [&bound](const std::vector<Symbol>& vars,
                        const auto& where) -> Status {
    for (Symbol v : vars) {
      if (!bound.count(v)) {
        return Status::InvalidProgram("unsafe clause: variable '" + v.str() +
                                      "' in " + where() +
                                      " does not occur in any positive "
                                      "body literal");
      }
    }
    return Status::OK();
  };

  std::vector<Symbol> head_vars;
  if (is_aggregate_) {
    // The aggregate-position placeholder is produced by grouping, not by
    // the body; the aggregated term itself must be body-bound.
    for (size_t i = 0; i < head_.args().size(); ++i) {
      if (i == aggregate_position_) continue;
      head_.args()[i].CollectVariables(&head_vars);
    }
    aggregate_term_.CollectVariables(&head_vars);
  } else {
    head_.CollectVariables(&head_vars);
  }
  MULTILOG_RETURN_IF_ERROR(
      check(head_vars, [this] { return "head " + head_.ToString(); }));

  for (const Literal& lit : body_) {
    if (lit.is_builtin() || lit.negated()) {
      std::vector<Symbol> vars;
      lit.CollectVariables(&vars);
      MULTILOG_RETURN_IF_ERROR(
          check(vars, [&lit] { return "literal " + lit.ToString(); }));
    }
  }
  return Status::OK();
}

std::string Clause::ToString() const {
  std::string out;
  if (is_aggregate_) {
    out = head_.predicate() + "(";
    for (size_t i = 0; i < head_.args().size(); ++i) {
      if (i > 0) out += ", ";
      if (i == aggregate_position_) {
        out += std::string(AggregateOpToString(aggregate_op_)) + "(" +
               aggregate_term_.ToString() + ")";
      } else {
        out += head_.args()[i].ToString();
      }
    }
    out += ")";
  } else {
    out = head_.ToString();
  }
  if (!body_.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body_.size(); ++i) {
      if (i > 0) out += ", ";
      out += body_[i].ToString();
    }
  }
  out += ".";
  return out;
}

}  // namespace multilog::datalog
