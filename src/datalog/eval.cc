#include "datalog/eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "datalog/stratify.h"

namespace multilog::datalog {

Result<Term> EvalArithmetic(const Term& term) {
  if (!term.IsCompound() || term.args().size() != 2) return term;
  const std::string& f = term.name();
  if (f != "plus" && f != "minus" && f != "times" && f != "div" &&
      f != "mod") {
    return term;
  }
  if (!term.IsGround()) return term;  // structural use stays possible

  MULTILOG_ASSIGN_OR_RETURN(Term a, EvalArithmetic(term.args()[0]));
  MULTILOG_ASSIGN_OR_RETURN(Term b, EvalArithmetic(term.args()[1]));
  if (!a.IsInt() || !b.IsInt()) {
    return Status::InvalidProgram("arithmetic over non-integers: " +
                                  term.ToString());
  }
  const int64_t x = a.int_value();
  const int64_t y = b.int_value();
  auto overflow = [&term](const char* op) {
    return Status::InvalidProgram(std::string("integer overflow in ") + op +
                                  ": " + term.ToString());
  };
  int64_t r = 0;
  if (f == "plus") {
    if (__builtin_add_overflow(x, y, &r)) return overflow("plus");
    return Term::Int(r);
  }
  if (f == "minus") {
    if (__builtin_sub_overflow(x, y, &r)) return overflow("minus");
    return Term::Int(r);
  }
  if (f == "times") {
    if (__builtin_mul_overflow(x, y, &r)) return overflow("times");
    return Term::Int(r);
  }
  if (y == 0) {
    return Status::InvalidProgram("division by zero in " + term.ToString());
  }
  // INT64_MIN / -1 (and the corresponding mod) overflow int64_t even
  // though the divisor is non-zero.
  if (x == INT64_MIN && y == -1) {
    return overflow(f == "div" ? "div" : "mod");
  }
  if (f == "div") return Term::Int(x / y);
  return Term::Int(x % y);
}

Result<bool> EvalBuiltin(Comparison op, const Term& raw_lhs,
                         const Term& raw_rhs) {
  MULTILOG_ASSIGN_OR_RETURN(Term lhs, EvalArithmetic(raw_lhs));
  MULTILOG_ASSIGN_OR_RETURN(Term rhs, EvalArithmetic(raw_rhs));
  if (!lhs.IsGround() || !rhs.IsGround()) {
    return Status::InvalidProgram(
        "builtin comparison on non-ground terms: " + lhs.ToString() + " " +
        ComparisonToString(op) + " " + rhs.ToString());
  }
  if (op == Comparison::kEq) return lhs == rhs;
  if (op == Comparison::kNe) return lhs != rhs;

  // Ordering comparisons need both sides of the same primitive kind.
  int cmp = 0;
  if (lhs.IsInt() && rhs.IsInt()) {
    cmp = lhs.int_value() < rhs.int_value()   ? -1
          : lhs.int_value() > rhs.int_value() ? 1
                                              : 0;
  } else if (lhs.IsSymbol() && rhs.IsSymbol()) {
    cmp = lhs.name().compare(rhs.name());
    cmp = cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
  } else {
    return Status::InvalidProgram(
        "ordering comparison between incomparable terms: " + lhs.ToString() +
        " " + ComparisonToString(op) + " " + rhs.ToString());
  }
  switch (op) {
    case Comparison::kLt:
      return cmp < 0;
    case Comparison::kLe:
      return cmp <= 0;
    case Comparison::kGt:
      return cmp > 0;
    case Comparison::kGe:
      return cmp >= 0;
    default:
      return Status::Internal("unreachable comparison");
  }
}

Clause ReorderBody(const Clause& clause) {
  const std::vector<Literal>& body = clause.body();
  if (body.size() < 2) return clause;

  std::unordered_set<Symbol> bound;
  std::vector<bool> used(body.size(), false);
  std::vector<Literal> ordered;
  ordered.reserve(body.size());

  auto vars_of = [](const Literal& lit) {
    std::vector<Symbol> vars;
    lit.CollectVariables(&vars);
    return vars;
  };
  auto all_bound = [&bound](const std::vector<Symbol>& vars) {
    return std::all_of(vars.begin(), vars.end(), [&bound](Symbol v) {
      return bound.count(v) > 0;
    });
  };

  while (ordered.size() < body.size()) {
    int pick = -1;

    // 1. A negation or non-eq builtin whose variables are all bound, or
    //    an eq with one bound side, runs immediately (cheap filter).
    for (size_t i = 0; i < body.size() && pick < 0; ++i) {
      if (used[i]) continue;
      const Literal& lit = body[i];
      if (lit.negated() ||
          (lit.is_builtin() && lit.comparison() != Comparison::kEq)) {
        if (all_bound(vars_of(lit))) pick = static_cast<int>(i);
      } else if (lit.is_builtin()) {  // kEq
        std::vector<Symbol> lhs_vars, rhs_vars;
        lit.lhs().CollectVariables(&lhs_vars);
        lit.rhs().CollectVariables(&rhs_vars);
        if (all_bound(lhs_vars) || all_bound(rhs_vars)) {
          pick = static_cast<int>(i);
        }
      }
    }

    // 2. Otherwise the positive literal with the most bound/constant
    //    argument positions (ties keep source order).
    if (pick < 0) {
      int best_score = -1;
      for (size_t i = 0; i < body.size(); ++i) {
        if (used[i]) continue;
        const Literal& lit = body[i];
        if (lit.is_builtin() || lit.negated()) continue;
        int score = 0;
        for (const Term& arg : lit.atom().args()) {
          std::vector<Symbol> vars;
          arg.CollectVariables(&vars);
          if (vars.empty() || all_bound(vars)) ++score;
        }
        if (score > best_score) {
          best_score = score;
          pick = static_cast<int>(i);
        }
      }
    }

    // 3. Fallback (unsafe or stalled-eq clauses): first unused literal
    //    in source order, preserving the original semantics checkpoints.
    if (pick < 0) {
      for (size_t i = 0; i < body.size(); ++i) {
        if (!used[i]) {
          pick = static_cast<int>(i);
          break;
        }
      }
    }

    used[static_cast<size_t>(pick)] = true;
    const Literal& chosen = body[static_cast<size_t>(pick)];
    ordered.push_back(chosen);
    if (!chosen.negated()) {
      std::vector<Symbol> vars = vars_of(chosen);
      bound.insert(vars.begin(), vars.end());
    }
  }

  if (clause.is_aggregate()) {
    return Clause::MakeAggregate(clause.head(), std::move(ordered),
                                 clause.aggregate_position(),
                                 clause.aggregate_op(),
                                 clause.aggregate_term());
  }
  return Clause(clause.head(), std::move(ordered));
}

namespace {

/// One round's shared emission budget: `base` is the model size at the
/// start of the round, `emitted` counts the round's emissions of heads
/// not already in the model (re-derivations of known facts never grow
/// the model, so they are free; a genuinely new fact derived twice in
/// one round is charged twice, a bounded overcount). Checking on the
/// emit path bounds how far a single explosive round can run past
/// `max_facts` instead of letting the round finish unboundedly.
struct EmitBudget {
  size_t max_facts = 0;
  size_t base = 0;
  /// Cooperative cancellation rides the same checkpoint as the fact
  /// budget: every charged emission also polls the caller's token, so a
  /// cancelled query unwinds with kDeadlineExceeded at derivation rate.
  const CancelToken* cancel = nullptr;
  std::atomic<size_t> emitted{0};

  Status Charge() {
    if (cancel != nullptr && cancel->Cancelled()) {
      return Status::DeadlineExceeded(
          "evaluation cancelled (deadline exceeded)");
    }
    const size_t count = emitted.fetch_add(1, std::memory_order_relaxed) + 1;
    if (base + count > max_facts) {
      return Status::ResourceExhausted("evaluation exceeded max_facts = " +
                                       std::to_string(max_facts));
    }
    return Status::OK();
  }
};

/// The round-boundary / rule-application cancellation poll. Kept
/// separate from EmitBudget so paths that never charge the budget
/// (rounds deriving nothing new, long all-duplicate joins) still
/// observe cancellation between rule applications.
Status CheckCancelled(const CancelToken* cancel) {
  if (cancel != nullptr && cancel->Cancelled()) {
    return Status::DeadlineExceeded(
        "evaluation cancelled (deadline exceeded)");
  }
  return Status::OK();
}

using AtomSet = std::unordered_set<Atom, AtomHash>;

/// Enumerates all substitutions satisfying `body` starting at literal
/// `index` under `subst`, against `model`. When `delta_index >= 0`, the
/// literal at that index ranges over the [delta_begin, delta_end) fact
/// range instead of the model (the semi-naive restriction; parallel
/// rounds pass one chunk of the delta per work item). When
/// `neg_absent` is non-null, atoms in it are treated as absent by
/// negated literals even though the model contains them - the delta
/// path uses this to evaluate negation against the pre-mutation state
/// while the model holds a superset (see ApplyDelta). Invokes `emit`
/// for each complete match. Returns an error only for ill-formed
/// builtins / non-ground negation.
Status JoinBody(const std::vector<Literal>& body, size_t index,
                const Model& model, const Atom* delta_begin,
                const Atom* delta_end, int delta_index,
                const AtomSet* neg_absent, Substitution subst,
                const std::function<Status(const Substitution&)>& emit) {
  if (index == body.size()) return emit(subst);
  const Literal& lit = body[index];

  if (lit.is_builtin()) {
    MULTILOG_ASSIGN_OR_RETURN(Term lhs,
                              EvalArithmetic(subst.Apply(lit.lhs())));
    MULTILOG_ASSIGN_OR_RETURN(Term rhs,
                              EvalArithmetic(subst.Apply(lit.rhs())));
    if (lit.comparison() == Comparison::kEq &&
        (!lhs.IsGround() || !rhs.IsGround())) {
      // Allow `=` to act as unification when a side is still free.
      Substitution extended = subst;
      if (!UnifyTerms(lhs, rhs, &extended)) return Status::OK();
      return JoinBody(body, index + 1, model, delta_begin, delta_end,
                      delta_index, neg_absent, std::move(extended), emit);
    }
    MULTILOG_ASSIGN_OR_RETURN(bool holds,
                              EvalBuiltin(lit.comparison(), lhs, rhs));
    if (!holds) return Status::OK();
    return JoinBody(body, index + 1, model, delta_begin, delta_end,
                    delta_index, neg_absent, std::move(subst), emit);
  }

  if (lit.negated()) {
    Atom grounded = subst.Apply(lit.atom());
    if (!grounded.IsGround()) {
      return Status::InvalidProgram(
          "negative literal not ground at evaluation time: not " +
          grounded.ToString());
    }
    const bool present =
        model.Contains(grounded) &&
        (neg_absent == nullptr || neg_absent->count(grounded) == 0);
    if (present) return Status::OK();
    return JoinBody(body, index + 1, model, delta_begin, delta_end,
                    delta_index, neg_absent, std::move(subst), emit);
  }

  const Atom pattern = subst.Apply(lit.atom());
  const PredicateId pred = pattern.PredicateId();
  // Bit i set: argument i is ground, so a fact unifies only if it holds
  // an equal term there (positions past 63 are left to UnifyAtoms).
  uint64_t ground_args = 0;
  for (size_t pos = 0; pos < pattern.arity() && pos < 64; ++pos) {
    if (pattern.args()[pos].IsGround()) ground_args |= uint64_t{1} << pos;
  }

  // Candidate facts: the delta chunk when this is the designated delta
  // literal, otherwise an indexed selection from the model when some
  // argument is already ground, otherwise a full predicate scan. A
  // candidate that clashes on a ground argument is rejected before
  // UnifyAtoms copies the substitution.
  auto try_fact = [&](const Atom& fact) -> Status {
    if (fact.PredicateId() != pred) return Status::OK();
    for (uint64_t bits = ground_args; bits != 0; bits &= bits - 1) {
      const size_t pos = static_cast<size_t>(std::countr_zero(bits));
      if (fact.args()[pos] != pattern.args()[pos]) return Status::OK();
    }
    std::optional<Substitution> extended = UnifyAtoms(pattern, fact, subst);
    if (!extended.has_value()) return Status::OK();
    return JoinBody(body, index + 1, model, delta_begin, delta_end,
                    delta_index, neg_absent, std::move(*extended), emit);
  };

  if (delta_begin != nullptr && static_cast<int>(index) == delta_index) {
    for (const Atom* fact = delta_begin; fact != delta_end; ++fact) {
      MULTILOG_RETURN_IF_ERROR(try_fact(*fact));
    }
    return Status::OK();
  }

  // Among the ground argument positions, use the most selective index
  // (fewest candidates); fall back to a full predicate scan when no
  // argument is bound.
  bool have_index = false;
  FactSlice best;
  for (size_t pos = 0; pos < pattern.arity(); ++pos) {
    if (!pattern.args()[pos].IsConstant()) continue;
    FactSlice candidates =
        model.FactsMatching(pred, pos, pattern.args()[pos]);
    if (!have_index || candidates.size() < best.size()) {
      best = candidates;
      have_index = true;
      if (best.empty()) break;
    }
  }
  if (have_index) {
    for (const Atom& fact : best) {
      MULTILOG_RETURN_IF_ERROR(try_fact(fact));
    }
    return Status::OK();
  }
  for (const Atom& fact : model.FactsFor(pred)) {
    MULTILOG_RETURN_IF_ERROR(try_fact(fact));
  }
  return Status::OK();
}

/// Applies one (non-aggregate) clause, appending newly derivable head
/// atoms (possibly already known) to `derived`. Reads only `model` and
/// the delta range; writes only the caller-private `stats`/`derived`
/// (and the shared atomic budget), so concurrent calls on distinct
/// outputs are safe.
Status ApplyClause(const Clause& clause, const Model& model,
                   const Atom* delta_begin, const Atom* delta_end,
                   int delta_index, EmitBudget* budget, EvalStats* stats,
                   std::vector<Atom>* derived,
                   const AtomSet* neg_absent = nullptr) {
  if (budget != nullptr) {
    MULTILOG_RETURN_IF_ERROR(CheckCancelled(budget->cancel));
  }
  if (stats != nullptr) ++stats->rule_applications;
  return JoinBody(
      clause.body(), 0, model, delta_begin, delta_end, delta_index,
      neg_absent, Substitution(),
      [&](const Substitution& subst) -> Status {
        Atom head = subst.Apply(clause.head());
        if (!head.IsGround()) {
          return Status::InvalidProgram("derived non-ground head: " +
                                        head.ToString());
        }
        if (budget != nullptr && !model.Contains(head)) {
          MULTILOG_RETURN_IF_ERROR(budget->Charge());
        }
        if (stats != nullptr) ++stats->facts_derived;
        derived->push_back(std::move(head));
        return Status::OK();
      });
}

/// Applies an aggregate clause: groups the body's solutions by the
/// non-aggregate head arguments and collapses the *set* of distinct
/// bindings of the aggregated term per group (set semantics, matching
/// the model's set-based storage).
Status ApplyAggregateClause(const Clause& clause, const Model& model,
                            EmitBudget* budget, EvalStats* stats,
                            std::vector<Atom>* derived) {
  if (stats != nullptr) ++stats->rule_applications;

  // Group key (ground head args minus the aggregate slot) -> value set.
  std::map<std::vector<Term>, std::set<Term>> groups;
  MULTILOG_RETURN_IF_ERROR(JoinBody(
      clause.body(), 0, model, nullptr, nullptr, -1, nullptr, Substitution(),
      [&](const Substitution& subst) -> Status {
        std::vector<Term> key;
        for (size_t i = 0; i < clause.head().args().size(); ++i) {
          if (i == clause.aggregate_position()) continue;
          Term t = subst.Apply(clause.head().args()[i]);
          if (!t.IsGround()) {
            return Status::InvalidProgram(
                "non-ground group-by argument in " + clause.ToString());
          }
          key.push_back(std::move(t));
        }
        Term value = subst.Apply(clause.aggregate_term());
        if (!value.IsGround()) {
          return Status::InvalidProgram("non-ground aggregated term in " +
                                        clause.ToString());
        }
        groups[std::move(key)].insert(std::move(value));
        return Status::OK();
      }));

  for (const auto& [key, values] : groups) {
    Term result = Term::Int(0);
    switch (clause.aggregate_op()) {
      case AggregateOp::kCount:
        result = Term::Int(static_cast<int64_t>(values.size()));
        break;
      case AggregateOp::kSum: {
        int64_t total = 0;
        for (const Term& v : values) {
          if (!v.IsInt()) {
            return Status::InvalidProgram(
                "sum over a non-integer value " + v.ToString() + " in " +
                clause.ToString());
          }
          if (__builtin_add_overflow(total, v.int_value(), &total)) {
            return Status::InvalidProgram("integer overflow in sum: " +
                                          clause.ToString());
          }
        }
        result = Term::Int(total);
        break;
      }
      case AggregateOp::kMin:
        result = *values.begin();
        break;
      case AggregateOp::kMax:
        result = *values.rbegin();
        break;
    }

    std::vector<Term> args;
    size_t key_index = 0;
    for (size_t i = 0; i < clause.head().args().size(); ++i) {
      if (i == clause.aggregate_position()) {
        args.push_back(result);
      } else {
        args.push_back(key[key_index++]);
      }
    }
    if (budget != nullptr) MULTILOG_RETURN_IF_ERROR(budget->Charge());
    if (stats != nullptr) ++stats->facts_derived;
    derived->push_back(
        Atom(clause.head().predicate_symbol(), std::move(args)));
  }
  return Status::OK();
}

/// Runs `n` independent work items, each writing into a private
/// stats/derived pair, and merges the results in work-item order.
/// Sequential when `pool == nullptr` (exactly today's single-threaded
/// behavior, including early exit on the first error). In parallel
/// mode every item runs even if an earlier one failed; the first
/// error *in item order* is returned (schedule-independent). The
/// derivations are concatenated in item order, which is already
/// schedule-independent: items are ordered (clause x delta-chunk)
/// pieces, and within an item the join order is fixed, so the merged
/// sequence matches a sequential run over the same items regardless of
/// which worker ran what.
Status RunRound(ThreadPool* pool, size_t n,
                const std::function<Status(size_t, EvalStats*,
                                           std::vector<Atom>*)>& item,
                EvalStats* stats, std::vector<Atom>* derived) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      MULTILOG_RETURN_IF_ERROR(item(i, stats, derived));
    }
    return Status::OK();
  }

  std::vector<Status> statuses(n);
  std::vector<EvalStats> item_stats(n);
  std::vector<std::vector<Atom>> outs(n);
  pool->ParallelFor(n, [&](size_t i) {
    statuses[i] = item(i, &item_stats[i], &outs[i]);
  });
  if (stats != nullptr) {
    for (const EvalStats& s : item_stats) {
      stats->rule_applications += s.rule_applications;
      stats->facts_derived += s.facts_derived;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    MULTILOG_RETURN_IF_ERROR(statuses[i]);
  }
  size_t total = derived->size();
  for (const std::vector<Atom>& out : outs) total += out.size();
  derived->reserve(total);
  for (std::vector<Atom>& out : outs) {
    for (Atom& a : out) derived->push_back(std::move(a));
  }
  return Status::OK();
}

using PredicateIdSet = std::unordered_set<PredicateId, PredicateIdHash>;

/// The recursive rounds of semi-naive evaluation: repeatedly fires the
/// stratum's clauses on the facts derived last round (delta literal
/// rotated to the front, delta chunked across workers) until no new
/// fact appears. `delta` is the seed (facts just inserted into the
/// model). When `inserted_log` is non-null every fact the loop inserts
/// is appended to it, in deterministic merge order - the delta path
/// uses this to compute net changes.
Status SeminaiveRounds(const std::vector<const Clause*>& clauses,
                       const PredicateIdSet& stratum_preds,
                       const EvalOptions& options, ThreadPool* pool,
                       Model* model, EvalStats* stats, std::vector<Atom> delta,
                       std::vector<Atom>* inserted_log) {
  while (!delta.empty()) {
    trace::Span round_span(trace::Stage::kEvalRound);
    MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
    if (model->size() > options.max_facts) {
      return Status::ResourceExhausted(
          "evaluation exceeded max_facts = " +
          std::to_string(options.max_facts));
    }
    EmitBudget budget{options.max_facts, model->size(), options.cancel};

    // Delta chunk size: one chunk in sequential mode (today's exact
    // behavior); ~4 chunks per thread in parallel mode so index-stealing
    // can balance skewed clauses.
    const size_t threads = pool == nullptr ? 1 : pool->num_workers() + 1;
    size_t chunk = delta.size();
    if (threads > 1) {
      chunk = std::max<size_t>(1, delta.size() / (threads * 4));
    }

    std::deque<Clause> rotations;  // stable addresses for the items
    struct Item {
      const Clause* clause;
      size_t begin, end;  // delta range
    };
    std::vector<Item> items;
    for (const Clause* c : clauses) {
      for (size_t i = 0; i < c->body().size(); ++i) {
        const Literal& lit = c->body()[i];
        if (lit.is_builtin() || lit.negated()) continue;
        if (!stratum_preds.count(lit.atom().PredicateId())) continue;
        // Rotate the delta literal to the front: it is scanned linearly
        // (the delta has no index), so binding its variables first lets
        // every remaining positive literal use the model's argument
        // indexes. Safe for negation/builtins - they only ever see more
        // bindings than before.
        std::vector<Literal> body;
        body.reserve(c->body().size());
        body.push_back(lit);
        for (size_t j = 0; j < c->body().size(); ++j) {
          if (j != i) body.push_back(c->body()[j]);
        }
        rotations.emplace_back(c->head(), std::move(body));
        const Clause* rotated = &rotations.back();
        for (size_t b = 0; b < delta.size(); b += chunk) {
          items.push_back({rotated, b, std::min(b + chunk, delta.size())});
        }
      }
    }

    std::vector<Atom> derived;
    {
      trace::Span join_span(trace::Stage::kEvalJoin);
      MULTILOG_RETURN_IF_ERROR(RunRound(
          pool, items.size(),
          [&](size_t i, EvalStats* s, std::vector<Atom>* out) {
            const Item& it = items[i];
            return ApplyClause(*it.clause, *model, delta.data() + it.begin,
                               delta.data() + it.end, 0, &budget, s, out);
          },
          stats, &derived));
    }

    trace::Span merge_span(trace::Stage::kEvalMerge);
    std::vector<Atom> next_delta;
    for (Atom& a : derived) {
      if (model->Insert(a)) {
        if (inserted_log != nullptr) inserted_log->push_back(a);
        next_delta.push_back(std::move(a));
      }
    }
    delta = std::move(next_delta);
    if (stats != nullptr) ++stats->iterations;
  }
  return Status::OK();
}

Status EvaluateStratumSeminaive(const std::vector<const Clause*>& clauses,
                                const PredicateIdSet& stratum_preds,
                                const EvalOptions& options, ThreadPool* pool,
                                Model* model, EvalStats* stats) {
  // Round 0: apply every clause against the current model. Aggregate
  // clauses always run on the calling thread (each folds one global
  // group map); plain clauses are one work item each.
  std::vector<Atom> delta;
  {
    trace::Span round_span(trace::Stage::kEvalRound);
    MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
    EmitBudget budget{options.max_facts, model->size(), options.cancel};
    std::vector<Atom> derived;
    {
      trace::Span join_span(trace::Stage::kEvalJoin);
      if (pool == nullptr) {
        for (const Clause* c : clauses) {
          if (c->is_aggregate()) {
            MULTILOG_RETURN_IF_ERROR(
                ApplyAggregateClause(*c, *model, &budget, stats, &derived));
          } else {
            MULTILOG_RETURN_IF_ERROR(ApplyClause(
                *c, *model, nullptr, nullptr, -1, &budget, stats, &derived));
          }
        }
      } else {
        std::vector<const Clause*> plain;
        for (const Clause* c : clauses) {
          if (c->is_aggregate()) {
            MULTILOG_RETURN_IF_ERROR(
                ApplyAggregateClause(*c, *model, &budget, stats, &derived));
          } else {
            plain.push_back(c);
          }
        }
        MULTILOG_RETURN_IF_ERROR(RunRound(
            pool, plain.size(),
            [&](size_t i, EvalStats* s, std::vector<Atom>* out) {
              return ApplyClause(*plain[i], *model, nullptr, nullptr, -1,
                                 &budget, s, out);
            },
            stats, &derived));
      }
    }
    trace::Span merge_span(trace::Stage::kEvalMerge);
    for (Atom& a : derived) {
      if (model->Insert(a)) delta.push_back(std::move(a));
    }
    if (stats != nullptr) ++stats->iterations;
  }

  // Recursive rounds: only clauses with a positive literal on a predicate
  // of this stratum can fire on new facts. Work items are (rotated
  // clause x delta chunk); every worker reads the same frozen model and
  // delta, so the round is embarrassingly parallel.
  return SeminaiveRounds(clauses, stratum_preds, options, pool, model, stats,
                         std::move(delta), nullptr);
}

Status EvaluateStratumNaive(const std::vector<const Clause*>& clauses,
                            const EvalOptions& options, ThreadPool* pool,
                            Model* model, EvalStats* stats) {
  bool changed = true;
  while (changed) {
    MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
    if (model->size() > options.max_facts) {
      return Status::ResourceExhausted(
          "evaluation exceeded max_facts = " +
          std::to_string(options.max_facts));
    }
    changed = false;
    EmitBudget budget{options.max_facts, model->size(), options.cancel};
    std::vector<Atom> derived;
    if (pool == nullptr) {
      for (const Clause* c : clauses) {
        if (c->is_aggregate()) {
          MULTILOG_RETURN_IF_ERROR(
              ApplyAggregateClause(*c, *model, &budget, stats, &derived));
        } else {
          MULTILOG_RETURN_IF_ERROR(ApplyClause(*c, *model, nullptr, nullptr,
                                               -1, &budget, stats, &derived));
        }
      }
    } else {
      std::vector<const Clause*> plain;
      for (const Clause* c : clauses) {
        if (c->is_aggregate()) {
          MULTILOG_RETURN_IF_ERROR(
              ApplyAggregateClause(*c, *model, &budget, stats, &derived));
        } else {
          plain.push_back(c);
        }
      }
      MULTILOG_RETURN_IF_ERROR(RunRound(
          pool, plain.size(),
          [&](size_t i, EvalStats* s, std::vector<Atom>* out) {
            return ApplyClause(*plain[i], *model, nullptr, nullptr, -1,
                               &budget, s, out);
          },
          stats, &derived));
    }
    for (const Atom& a : derived) {
      if (model->Insert(a)) changed = true;
    }
    if (stats != nullptr) ++stats->iterations;
  }
  return Status::OK();
}

/// A ground bodyless fact clause - what PreparedProgram::edb holds.
bool IsEdbFact(const Clause& c) { return c.IsFact() && !c.is_aggregate(); }

/// The clauses of stratum `s` of `prepared`, in program order.
std::vector<const Clause*> StratumRules(const PreparedProgram& prepared,
                                        size_t s) {
  std::vector<const Clause*> clauses;
  if (s >= prepared.stratum_rules.size()) return clauses;
  clauses.reserve(prepared.stratum_rules[s].size());
  for (size_t i : prepared.stratum_rules[s]) {
    clauses.push_back(&prepared.rules.clauses()[i]);
  }
  return clauses;
}

PredicateIdSet StratumPredicates(const Stratification& strat, size_t s) {
  if (s >= strat.num_strata()) return {};
  return PredicateIdSet(strat.strata[s].begin(), strat.strata[s].end());
}

}  // namespace

Result<PreparedProgram> PrepareProgram(const Program& program,
                                       const EvalOptions& options) {
  // Safety and stratification are checked on the original program so
  // diagnostics point at the source clauses, not their reordered forms
  // (the reordering is semantics-preserving either way).
  MULTILOG_RETURN_IF_ERROR(program.CheckSafety());
  PreparedProgram prepared;
  MULTILOG_ASSIGN_OR_RETURN(prepared.strat, Stratify(program));
  prepared.stratum_rules.resize(prepared.strat.num_strata());
  for (const Clause& c : program.clauses()) {
    if (IsEdbFact(c)) {
      ++prepared.edb[c.head()];
      continue;
    }
    const size_t index = prepared.rules.size();
    prepared.rules.AddClause(options.reorder_body ? ReorderBody(c) : c);
    const PredicateId head = c.head().PredicateId();
    prepared.stratum_rules[prepared.strat.stratum_of.at(head)].push_back(
        index);
    prepared.rules_for[head].push_back(index);
  }
  return prepared;
}

Result<Model> EvaluatePrepared(const PreparedProgram& prepared,
                               const std::vector<Atom>& seeds,
                               const EvalOptions& options, EvalStats* stats) {
  // num_threads counts the calling thread, so the pool holds one fewer
  // worker. No pool at all when num_threads <= 1: that path must stay
  // byte-for-byte the historical sequential evaluator.
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads - 1);
  }

  // Seeds and facts land before the first stratum, so round 0 of every
  // stratum sees them; facts depend on nothing, so the fixpoint is the
  // one a per-stratum insertion would reach.
  Model model;
  for (const Atom& seed : seeds) model.Insert(seed);
  for (const auto& [fact, support] : prepared.edb) model.Insert(fact);
  if (model.size() > options.max_facts) {
    return Status::ResourceExhausted("evaluation exceeded max_facts = " +
                                     std::to_string(options.max_facts));
  }

  for (size_t s = 0; s < prepared.strat.num_strata(); ++s) {
    const PredicateIdSet stratum_preds = StratumPredicates(prepared.strat, s);
    const std::vector<const Clause*> clauses = StratumRules(prepared, s);
    if (options.strategy == EvalOptions::Strategy::kSeminaive) {
      MULTILOG_RETURN_IF_ERROR(EvaluateStratumSeminaive(
          clauses, stratum_preds, options, pool.get(), &model, stats));
    } else {
      MULTILOG_RETURN_IF_ERROR(EvaluateStratumNaive(
          clauses, options, pool.get(), &model, stats));
    }
  }
  return model;
}

Result<Model> Evaluate(const Program& program, const EvalOptions& options,
                       EvalStats* stats) {
  MULTILOG_ASSIGN_OR_RETURN(PreparedProgram prepared,
                            PrepareProgram(program, options));
  // The facts go in as seeds too, so each relation lists them in
  // program order (the lattice builder reads level/1 in Lambda's order).
  std::vector<Atom> facts;
  for (const Clause& c : program.clauses()) {
    if (IsEdbFact(c)) facts.push_back(c.head());
  }
  return EvaluatePrepared(prepared, facts, options, stats);
}

namespace {

/// Early-exit sentinel for the rederivation probe: JoinBody has no
/// first-match mode, so the probe's emit callback returns this to
/// unwind as soon as one derivation is found and the caller translates
/// it back into "found". Never escapes ApplyDelta.
Status RederiveFound() {
  return Status::Internal("__apply_delta_rederive_found__");
}

}  // namespace

Result<DeltaChanges> ApplyDelta(PreparedProgram* prepared,
                                const std::vector<Atom>& adds,
                                const std::vector<Atom>& removes,
                                Model* model, const EvalOptions& options,
                                EvalStats* stats) {
  for (const Clause& c : prepared->rules.clauses()) {
    if (c.is_aggregate()) {
      return Status::InvalidProgram(
          "ApplyDelta: aggregate clauses are not incrementally "
          "maintainable");
    }
  }
  // The EDB support moves first: rederivation asks it whether a doomed
  // fact still has a fact clause in the post-mutation program.
  for (const Atom& a : adds) ++prepared->edb[a];
  for (const Atom& a : removes) {
    auto it = prepared->edb.find(a);
    if (it != prepared->edb.end() && --it->second == 0) {
      prepared->edb.erase(it);
    }
  }
  const Stratification& strat = prepared->strat;

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads - 1);
  }

  // Partition the external EDB delta by the stratum of its predicate. An
  // atom whose predicate no rule mentions has no stratum; nothing can
  // derive from or consume it, so stratum 0 is as good as any.
  const size_t nstrata = std::max<size_t>(strat.num_strata(), 1);
  std::vector<std::vector<Atom>> ext_adds(nstrata), ext_removes(nstrata);
  auto stratum_of = [&strat, nstrata](const Atom& a) -> size_t {
    auto it = strat.stratum_of.find(a.PredicateId());
    return it == strat.stratum_of.end() ? 0 : std::min(it->second, nstrata - 1);
  };
  for (const Atom& a : adds) ext_adds[stratum_of(a)].push_back(a);
  for (const Atom& a : removes) ext_removes[stratum_of(a)].push_back(a);

  // Net changes from fully processed ("settled") strata. The vectors
  // keep deterministic order for the caller; the sets answer membership;
  // the predicate sets let a stratum skip clauses the delta cannot fire.
  DeltaChanges net;
  AtomSet net_added_set, net_removed_set;
  PredicateIdSet net_added_preds, net_removed_preds;

  for (size_t s = 0; s < nstrata; ++s) {
    if (ext_adds[s].empty() && ext_removes[s].empty() && net.added.empty() &&
        net.removed.empty()) {
      continue;  // nothing reaches this stratum
    }
    const PredicateIdSet stratum_preds = StratumPredicates(strat, s);
    const std::vector<const Clause*> clauses = StratumRules(*prepared, s);
    // --- Phase 1: overestimate deletions (DRed). Joins must see the
    // pre-mutation state, so the settled removals this stratum's rules
    // read are temporarily reinserted; the model then shows old facts
    // for positive joins (plus the settled additions - harmless,
    // over-deletion is repaired by rederivation) while negation recovers
    // the *exact* old state by masking the settled additions (JoinBody's
    // neg_absent).
    if (!net.removed.empty()) {
      PredicateIdSet read;
      for (const Clause* c : clauses) {
        for (const Literal& lit : c->body()) {
          if (!lit.is_builtin()) read.insert(lit.atom().PredicateId());
        }
      }
      for (const Atom& a : net.removed) {
        if (read.count(a.PredicateId()) > 0) model->Insert(a);
      }
    }

    AtomSet doomed;
    std::vector<Atom> doomed_order;
    std::vector<Atom>* doom_sink = &doomed_order;
    auto condemn = [&](const Atom& fact) {
      if (model->Contains(fact) && doomed.insert(fact).second) {
        doom_sink->push_back(fact);
      }
    };
    for (const Atom& a : ext_removes[s]) condemn(a);

    auto doom_heads = [&](const std::vector<Literal>& body, const Atom& head,
                          const Atom* dbegin, const Atom* dend) -> Status {
      if (stats != nullptr) ++stats->rule_applications;
      return JoinBody(body, 0, *model, dbegin, dend, 0, &net_added_set,
                      Substitution(),
                      [&](const Substitution& subst) -> Status {
                        Atom h = subst.Apply(head);
                        if (!h.IsGround()) {
                          return Status::InvalidProgram(
                              "derived non-ground head: " + h.ToString());
                        }
                        condemn(h);
                        return Status::OK();
                      });
    };

    // Seeds from the settled lower-strata changes: a positive literal
    // that matched a removed fact, or a negated literal whose atom was
    // just added, each kills derivations that existed before.
    for (const Clause* c : clauses) {
      if (net.removed.empty() && net.added.empty()) break;
      MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
      for (size_t i = 0; i < c->body().size(); ++i) {
        const Literal& lit = c->body()[i];
        if (lit.is_builtin()) continue;
        std::vector<Literal> body;
        const std::vector<Atom>* dvec = nullptr;
        if (!lit.negated()) {
          if (!net_removed_preds.count(lit.atom().PredicateId())) continue;
          dvec = &net.removed;
          body.reserve(c->body().size());
          body.push_back(lit);
          for (size_t j = 0; j < c->body().size(); ++j) {
            if (j != i) body.push_back(c->body()[j]);
          }
        } else {
          if (!net_added_preds.count(lit.atom().PredicateId())) continue;
          // Bind from the added fact; drop this occurrence of the
          // negation (it held in the old state by construction).
          dvec = &net.added;
          body.reserve(c->body().size());
          body.push_back(Literal::Positive(lit.atom()));
          for (size_t j = 0; j < c->body().size(); ++j) {
            if (j != i) body.push_back(c->body()[j]);
          }
        }
        MULTILOG_RETURN_IF_ERROR(doom_heads(
            body, c->head(), dvec->data(), dvec->data() + dvec->size()));
      }
    }

    // Propagate deletions within the stratum: anything deriving through
    // a doomed fact is doomed too (still the overestimate - the model
    // has not been touched, so joins see the old stratum content).
    // Newly doomed facts collect in a side vector per round because
    // JoinBody holds raw pointers into the round's frontier.
    size_t frontier_begin = 0;
    while (frontier_begin < doomed_order.size()) {
      MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
      const size_t frontier_end = doomed_order.size();
      std::vector<Atom> newly;
      doom_sink = &newly;
      for (const Clause* c : clauses) {
        for (size_t i = 0; i < c->body().size(); ++i) {
          const Literal& lit = c->body()[i];
          if (lit.is_builtin() || lit.negated()) continue;
          if (!stratum_preds.count(lit.atom().PredicateId())) continue;
          std::vector<Literal> body;
          body.reserve(c->body().size());
          body.push_back(lit);
          for (size_t j = 0; j < c->body().size(); ++j) {
            if (j != i) body.push_back(c->body()[j]);
          }
          MULTILOG_RETURN_IF_ERROR(
              doom_heads(body, c->head(), doomed_order.data() + frontier_begin,
                         doomed_order.data() + frontier_end));
        }
      }
      doom_sink = &doomed_order;
      frontier_begin = frontier_end;
      doomed_order.insert(doomed_order.end(), newly.begin(), newly.end());
    }

    // --- Phase 2: drop the overestimate along with the reinserted
    // old-state scaffolding; the model now underestimates the stratum.
    model->RemoveFacts(net.removed);
    model->RemoveFacts(doomed_order);

    // --- Phase 3: rederive. A doomed fact with an alternative
    // derivation in the new state comes back; rederived facts then
    // propagate semi-naively, resurrecting doomed facts that depended
    // on them. An EDB atom still backed by a fact clause comes back on
    // its support alone; otherwise only the rules of its predicate are
    // tried.
    std::vector<Atom> inserted_log;
    std::vector<Atom> redelta;
    for (const Atom& f : doomed_order) {
      MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
      bool found = prepared->edb.count(f) > 0;
      auto rules_it = prepared->rules_for.find(f.PredicateId());
      if (!found && rules_it != prepared->rules_for.end()) {
        for (size_t i : rules_it->second) {
          const Clause& c = prepared->rules.clauses()[i];
          std::optional<Substitution> head_subst =
              UnifyAtoms(c.head(), f, Substitution());
          if (!head_subst.has_value()) continue;
          if (stats != nullptr) ++stats->rule_applications;
          Status st = JoinBody(
              c.body(), 0, *model, nullptr, nullptr, -1, nullptr,
              *head_subst,
              [](const Substitution&) -> Status { return RederiveFound(); });
          if (st.ok()) continue;
          if (st == RederiveFound()) {
            found = true;
            break;
          }
          return st;
        }
      }
      if (found && model->Insert(f)) {
        inserted_log.push_back(f);
        redelta.push_back(f);
      }
    }
    MULTILOG_RETURN_IF_ERROR(SeminaiveRounds(clauses, stratum_preds, options,
                                             pool.get(), model, stats,
                                             std::move(redelta),
                                             &inserted_log));

    // --- Phase 4: additions. Seeds are the external adds plus clause
    // firings enabled by the settled changes - a positive literal
    // matching an added fact, or a negated literal whose atom was
    // removed (bound from the removal; the original negation stays in
    // the body and re-checks against the new state). The rest of each
    // body joins the current model, which already holds all settled
    // additions, so multi-change combinations are covered.
    EmitBudget budget{options.max_facts, model->size(), options.cancel};
    std::vector<Atom> derived;
    derived.insert(derived.end(), ext_adds[s].begin(), ext_adds[s].end());
    for (const Clause* c : clauses) {
      if (net.removed.empty() && net.added.empty()) break;
      MULTILOG_RETURN_IF_ERROR(CheckCancelled(options.cancel));
      for (size_t i = 0; i < c->body().size(); ++i) {
        const Literal& lit = c->body()[i];
        if (lit.is_builtin()) continue;
        std::vector<Literal> body;
        const std::vector<Atom>* dvec = nullptr;
        if (!lit.negated()) {
          if (!net_added_preds.count(lit.atom().PredicateId())) continue;
          dvec = &net.added;
          body.reserve(c->body().size());
          body.push_back(lit);
          for (size_t j = 0; j < c->body().size(); ++j) {
            if (j != i) body.push_back(c->body()[j]);
          }
        } else {
          if (!net_removed_preds.count(lit.atom().PredicateId())) continue;
          dvec = &net.removed;
          body.reserve(c->body().size() + 1);
          body.push_back(Literal::Positive(lit.atom()));
          for (const Literal& l : c->body()) body.push_back(l);
        }
        if (stats != nullptr) ++stats->rule_applications;
        MULTILOG_RETURN_IF_ERROR(JoinBody(
            body, 0, *model, dvec->data(), dvec->data() + dvec->size(), 0,
            nullptr, Substitution(),
            [&](const Substitution& subst) -> Status {
              Atom h = subst.Apply(c->head());
              if (!h.IsGround()) {
                return Status::InvalidProgram("derived non-ground head: " +
                                              h.ToString());
              }
              if (!model->Contains(h)) {
                MULTILOG_RETURN_IF_ERROR(budget.Charge());
              }
              if (stats != nullptr) ++stats->facts_derived;
              derived.push_back(std::move(h));
              return Status::OK();
            }));
      }
    }
    std::vector<Atom> add_delta;
    for (Atom& a : derived) {
      if (model->Insert(a)) {
        inserted_log.push_back(a);
        add_delta.push_back(std::move(a));
      }
    }
    if (stats != nullptr) ++stats->iterations;
    MULTILOG_RETURN_IF_ERROR(SeminaiveRounds(clauses, stratum_preds, options,
                                             pool.get(), model, stats,
                                             std::move(add_delta),
                                             &inserted_log));

    // --- Stratum bookkeeping: the net effect feeds the next strata and
    // the caller. Doomed facts that made it back (rederived or re-added)
    // net to nothing, as do inserted facts that were doomed.
    for (const Atom& f : doomed_order) {
      if (!model->Contains(f) && net_removed_set.insert(f).second) {
        net.removed.push_back(f);
        net_removed_preds.insert(f.PredicateId());
      }
    }
    for (const Atom& a : inserted_log) {
      if (doomed.count(a) > 0) continue;
      if (net_added_set.insert(a).second) {
        net.added.push_back(a);
        net_added_preds.insert(a.PredicateId());
      }
    }
  }
  return net;
}

Result<std::vector<Substitution>> QueryModel(const Model& model,
                                             const std::vector<Literal>& goal,
                                             const CancelToken* cancel) {
  MULTILOG_RETURN_IF_ERROR(CheckCancelled(cancel));
  std::vector<Symbol> goal_vars;
  for (const Literal& l : goal) l.CollectVariables(&goal_vars);
  std::sort(goal_vars.begin(), goal_vars.end());
  goal_vars.erase(std::unique(goal_vars.begin(), goal_vars.end()),
                  goal_vars.end());

  OrderedAnswers<Substitution> answers;
  MULTILOG_RETURN_IF_ERROR(JoinBody(
      goal, 0, model, nullptr, nullptr, -1, nullptr, Substitution(),
      [&](const Substitution& subst) -> Status {
        MULTILOG_RETURN_IF_ERROR(CheckCancelled(cancel));
        Substitution restricted;
        for (Symbol v : goal_vars) {
          Term value = subst.Apply(Term::Var(v));
          if (!value.IsVariable()) restricted.Bind(v, value);
        }
        if (Substitution* slot = answers.Insert(restricted.ToString())) {
          *slot = std::move(restricted);
        }
        return Status::OK();
      }));
  return answers.Take();
}

}  // namespace multilog::datalog
