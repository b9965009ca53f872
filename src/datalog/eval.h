#ifndef MULTILOG_DATALOG_EVAL_H_
#define MULTILOG_DATALOG_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "datalog/model.h"
#include "datalog/program.h"
#include "datalog/stratify.h"
#include "datalog/unify.h"

namespace multilog::datalog {

/// Knobs for bottom-up evaluation.
struct EvalOptions {
  enum class Strategy {
    /// Semi-naive: per stratum, iterate only rule instantiations that use
    /// at least one fact derived in the previous round. The default, and
    /// what CORAL's bottom-up engine does.
    kSeminaive,
    /// Naive: re-derive everything each round. Kept as a test oracle and
    /// ablation baseline.
    kNaive,
  };
  Strategy strategy = Strategy::kSeminaive;

  /// Hard cap on the total number of derived facts; exceeded means
  /// ResourceExhausted (guards against runaway programs with compound
  /// terms, which make the Herbrand base infinite). Enforced on the
  /// emit path, so a single explosive round stops near the cap instead
  /// of overshooting it by an unbounded amount. The budget counts
  /// model facts plus the current round's emissions (duplicates
  /// included), so evaluation can stop while a round is still running.
  size_t max_facts = 10'000'000;

  /// Degree of parallelism for the bottom-up fixpoint. 1 (the default)
  /// is the exact sequential path. With k > 1 threads, each round's
  /// (clause x delta-chunk) work items are partitioned across k workers
  /// (the caller plus k-1 pool threads); every worker joins against the
  /// same immutable snapshot of the model and collects its derivations
  /// privately, and the round's results are merged into the model
  /// deterministically (concatenated in work-item order, then sorted),
  /// so the fixpoint model, the number of rounds, and all rendered
  /// output are identical for every thread count.
  size_t num_threads = 1;

  /// Cooperative cancellation: when set, evaluation polls the token on
  /// the same path that enforces `max_facts` (the emit-budget charge),
  /// at every rule application, and at round boundaries, returning
  /// kDeadlineExceeded once the token reports cancelled. The token must
  /// outlive the Evaluate call; nullptr (the default) disables polling.
  const CancelToken* cancel = nullptr;

  /// Greedy join reordering: before evaluation, each clause body is
  /// reordered so that literals with more already-bound arguments join
  /// first and negations/builtins run as soon as their variables are
  /// bound. Purely an optimization - the stratified model is unchanged
  /// (property-tested); disable for ablation.
  bool reorder_body = true;
};

/// Counters for benchmarking and tests.
struct EvalStats {
  size_t iterations = 0;         // fixpoint rounds across all strata
  size_t rule_applications = 0;  // body-join attempts (one per work item
                                 // when num_threads > 1 chunks the delta)
  size_t facts_derived = 0;      // successful head derivations (pre-dedup)
};

/// Computes the stratified minimal model of `program`. The program must
/// be safe (range-restricted) and stratifiable; both are checked. Each
/// relation lists the program's facts first, in program order.
Result<Model> Evaluate(const Program& program, const EvalOptions& options = {},
                       EvalStats* stats = nullptr);

/// A program compiled once for repeated evaluation and for incremental
/// maintenance: safety-checked, stratified, and (when the preparing
/// EvalOptions ask for it) body-reordered, with its ground facts held
/// apart from its rules. The per-call work of EvaluatePrepared is then
/// the fixpoint alone - the magic-sets plan cache in ml::Engine stores
/// one of these per (level, binding pattern) - and ApplyDelta keeps one
/// beside each maintained model, updating `edb` as facts come and go.
/// Fact changes never add a dependency edge, so `strat` and the rule
/// lists stay valid across every ApplyDelta call.
struct PreparedProgram {
  /// Every clause except the bodyless facts, in program order;
  /// body-reordered iff the preparing options said so.
  Program rules;
  /// The ground facts (the EDB), each with its support: the number of
  /// fact clauses stating it (a program may state a fact twice).
  std::unordered_map<Atom, uint32_t, AtomHash> edb;
  /// Stratification of the whole program, facts included.
  Stratification strat;
  /// Per stratum, the indexes into rules.clauses() of the rules whose
  /// head predicate lives there, in program order.
  std::vector<std::vector<size_t>> stratum_rules;
  /// Head predicate -> indexes into rules.clauses() of its rules.
  std::unordered_map<PredicateId, std::vector<size_t>, PredicateIdHash>
      rules_for;
};

/// Compiles `program` for repeated evaluation: CheckSafety + Stratify
/// (both on the original program) plus the ReorderBody pass over the
/// rules when `options.reorder_body` is set, and the fact clauses
/// counted into `edb`. The returned value is self-contained (it copies
/// the rules and facts), so it can outlive `program`.
Result<PreparedProgram> PrepareProgram(const Program& program,
                                       const EvalOptions& options = {});

/// Evaluates a prepared program. `seeds`, then the prepared EDB, are
/// inserted into the model before the first stratum runs - the
/// magic-sets execution path passes the query's magic seed here, so one
/// prepared rewrite serves every query with the same binding pattern.
/// Within a relation, seeds keep their order and EDB facts follow in
/// hash order. `options`' strategy / max_facts / cancel / num_threads
/// apply as in Evaluate; reorder_body is ignored (reordering happened
/// at preparation).
Result<Model> EvaluatePrepared(const PreparedProgram& prepared,
                               const std::vector<Atom>& seeds,
                               const EvalOptions& options = {},
                               EvalStats* stats = nullptr);

/// The net effect of one ApplyDelta call on the maintained model:
/// `added` holds facts now in the model that were not before, `removed`
/// facts that were and are no longer. Both are duplicate-free, disjoint,
/// and in a deterministic order, so a caller can follow the change in
/// O(|added| + |removed|).
struct DeltaChanges {
  std::vector<Atom> added;
  std::vector<Atom> removed;
};

/// Incrementally maintains a stratified fixpoint under EDB change
/// (DRed-style delete/rederive, per stratum, with semi-naive
/// propagation of both polarities across strata).
///
/// Contract: `*prepared` is the prepared pre-mutation program (from
/// PrepareProgram, or left by earlier ApplyDelta calls) and `*model`
/// its fixpoint; `adds`/`removes` are the ground atoms whose bodyless
/// fact clauses were added to / removed from the program. On success
/// `prepared->edb` counts the post-mutation facts and `*model` is the
/// post-mutation fixpoint - equal, as a set, to a scratch `Evaluate`
/// of the post-mutation program (property-tested) - and the returned
/// DeltaChanges describe the net difference. A doomed fact is
/// rederived from its remaining EDB support or from the rules of its
/// head predicate, so overlapping support is handled: removing one of
/// two fact clauses backing the same atom nets to no change.
///
/// Cost: no call re-checks, re-stratifies or re-reorders the program.
/// Each stratum visits only its rules, and removals cost O(arity) each
/// (Model::RemoveFacts), so a call's work follows the facts it changes
/// and the joins they feed, not the size of the EDB.
///
/// On any error (aggregate rules, which are not incrementally
/// maintainable; budget exhaustion; cancellation) `*model` and
/// `*prepared` may be left in an inconsistent intermediate state: the
/// caller must discard both and fall back to full recomputation.
Result<DeltaChanges> ApplyDelta(PreparedProgram* prepared,
                                const std::vector<Atom>& adds,
                                const std::vector<Atom>& removes,
                                Model* model, const EvalOptions& options = {},
                                EvalStats* stats = nullptr);

/// Matches a conjunctive goal (with negation and builtins) against a
/// completed model. Negative and builtin literals must be ground by the
/// time they are reached left-to-right (a dynamic safety check). Returns
/// one substitution per answer, restricted to the goal's variables,
/// deduplicated, in deterministic order.
Result<std::vector<Substitution>> QueryModel(const Model& model,
                                             const std::vector<Literal>& goal,
                                             const CancelToken* cancel =
                                                 nullptr);

/// The greedy body reordering used when EvalOptions::reorder_body is
/// set (exposed for tests and for the ablation bench): negations and
/// non-eq builtins are scheduled as soon as their variables are bound,
/// `=` as soon as one side is bound, and among positive literals the one
/// with the most bound/constant arguments joins next (ties keep source
/// order). Semantics-preserving for safe clauses.
Clause ReorderBody(const Clause& clause);

/// Folds ground arithmetic terms: plus/2, minus/2, times/2, div/2 and
/// mod/2 over integers evaluate recursively (e.g. plus(2, times(3, 4))
/// -> 14). Non-arithmetic terms and arithmetic terms with unbound
/// arguments are returned unchanged (so structural use stays possible);
/// ground arithmetic over non-integers and division by zero error.
/// Arithmetic folding applies inside builtin comparisons - `Z = plus(N,
/// 1)` is CORAL-style assignment.
Result<Term> EvalArithmetic(const Term& term);

/// Evaluates a ground builtin comparison (after arithmetic folding).
/// Errors when a side is not ground or the sides are of incomparable
/// kinds (int vs symbol) for ordering operators; = and != compare
/// structurally.
Result<bool> EvalBuiltin(Comparison op, const Term& lhs, const Term& rhs);

}  // namespace multilog::datalog

#endif  // MULTILOG_DATALOG_EVAL_H_
