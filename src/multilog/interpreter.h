#ifndef MULTILOG_MULTILOG_INTERPRETER_H_
#define MULTILOG_MULTILOG_INTERPRETER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "datalog/call_key.h"
#include "datalog/program.h"
#include "datalog/unify.h"
#include "multilog/database.h"
#include "multilog/proof.h"
#include "multilog/reduction.h"

namespace multilog::ml {

/// The operational semantics of Section 5: a goal-directed, tabled
/// implementation of the Figure 9 proof system, evaluated in the context
/// of a session (database) level u. Produces proof trees.
///
/// Rule mapping:
///  - EMPTY/AND      - goal-list recursion; facts carry an (empty) leaf;
///  - DEDUCTION-G    - SLD resolution for p-, l- and h-atoms;
///  - DEDUCTION-G'   - resolution for m-atoms; the no-read-up guards
///                     dominate(l, u) / dominate(c, u) are part of the
///                     lambda-translated clause bodies, as in Section 6;
///  - BELIEF         - dispatch of b-atoms to the mode rules;
///  - DESCEND-O      - optimistic belief: descend to any level R <= l;
///  - DESCEND-C1..C4 - cautious belief: descend plus the overriding
///                     (maximality) check of Definition 3.1; the printed
///                     Figure 9 variants collapse to two cases here -
///                     descend-c1 (own-level cell) and descend-c2
///                     (inherited cell) - each implicitly carrying the
///                     not-overridden side condition;
///  - DEDUCTION-B    - b-atoms in bodies are proved by the same BELIEF
///                     machinery;
///  - REFLEXIVITY /
///    TRANSITIVITY   - dominance goals discharged against the lattice;
///  - FILTER /
///    FILTER-NULL /
///    USER-BELIEF    - the Figure 13 extensions; the first two are
///                     opt-in, user belief modes are always available
///                     through Pi clauses over the distinguished bel/7
///                     predicate.
///
/// Termination: calls are tabled per call pattern with an outer fixpoint
/// (as in CORAL-style memoing engines); cautious belief's overriding
/// check runs the relevant sub-tables to completion first. Programs must
/// be level-stratified for cautious belief (no cell's presence at a
/// level may depend on cautious belief at a non-lower level) - the same
/// requirement the reduction imposes through stratification.
class Interpreter {
 public:
  struct Options {
    /// Enables the FILTER rule: a lower level inherits higher-level
    /// cells whose classification it dominates (Figure 13).
    bool enable_filter = false;
    /// Enables FILTER-NULL: hidden higher-level cells surface as nulls
    /// classified at the inheriting level (Figure 13).
    bool enable_filter_null = false;
    size_t max_passes = 256;
    size_t max_answers = 1'000'000;
  };

  struct Answer {
    /// Bindings restricted to the goal's variables.
    datalog::Substitution subst;
    /// Proof of the full goal (an "and" node for conjunctions).
    ProofPtr proof;
  };

  struct Stats {
    size_t passes = 0;
    size_t calls = 0;
    size_t tabled_answers = 0;
  };

  /// `cdb` must outlive the interpreter. The session level is fixed per
  /// interpreter (the paper determines it at login / compile time).
  static Result<Interpreter> Create(const CheckedDatabase* cdb,
                                    std::string user_level, Options options);
  static Result<Interpreter> Create(const CheckedDatabase* cdb,
                                    std::string user_level);

  /// Proves a MultiLog goal conjunction, returning every answer with its
  /// proof tree, deterministically ordered. Negated (p-/l-/h-) literals
  /// are proved by negation-as-failure over completed call tables.
  /// `cancel` (optional) is polled on the tabled-answer path — the same
  /// checkpoint as max_answers — and per call/pass; a cancelled solve
  /// unwinds with kDeadlineExceeded and the interpreter stays usable.
  Result<std::vector<Answer>> Solve(const std::vector<MlLiteral>& goal,
                                    const CancelToken* cancel = nullptr);

  /// As Solve, over the internal guarded-literal form.
  Result<std::vector<Answer>> SolveLiterals(
      const std::vector<datalog::Literal>& goal,
      const CancelToken* cancel = nullptr);

  const Stats& stats() const { return stats_; }
  const std::string& user_level() const { return user_level_; }

 private:
  Interpreter(const CheckedDatabase* cdb, std::string user_level,
              Options options, datalog::Program program);

  struct TabledAnswer {
    datalog::Atom atom;
    ProofPtr proof;
  };
  struct AnswerTable {
    std::vector<TabledAnswer> answers;
    std::unordered_set<datalog::Atom, datalog::AtomHash> set;
  };
  struct Match {
    datalog::Substitution subst;
    std::vector<ProofPtr> proofs;
  };

  Status SolveCallOnce(const datalog::Atom& pattern);
  Status CompleteCall(const datalog::Atom& pattern);
  Status SolveBody(const std::vector<datalog::Literal>& body, size_t index,
                   Match current, std::vector<Match>* out);

  Status ExpandClauses(const datalog::Atom& pattern, AnswerTable* table);
  Status ExpandDominate(const datalog::Atom& pattern, AnswerTable* table);
  Status ExpandBelief(const datalog::Atom& pattern, AnswerTable* table);
  Status ExpandFilter(const datalog::Atom& pattern, AnswerTable* table);

  Status AddAnswer(AnswerTable* table, datalog::Atom atom, ProofPtr proof);

  /// Ground levels the pattern's argument can take: the singleton when
  /// ground, every lattice level when a variable.
  Result<std::vector<std::string>> LevelCandidates(
      const datalog::Term& t) const;

  /// ExpandClauses' clause selection for one predicate, built once per
  /// interpreter: its clauses in program order and, per head argument
  /// position, the program-order indices of the clauses whose head holds
  /// a given constant there and of those whose head holds a variable
  /// there. A pattern constant at that position admits only those two
  /// lists; compound head arguments are in neither.
  struct ClauseIndex {
    std::vector<const datalog::Clause*> clauses;
    std::vector<std::unordered_map<datalog::Term, std::vector<uint32_t>,
                                   datalog::TermHash>>
        by_constant;
    std::vector<std::vector<uint32_t>> by_variable;
  };

  const CheckedDatabase* cdb_;
  std::string user_level_;
  Options options_;
  datalog::Program program_;  // tau(Delta), guarded, no axioms
  std::unordered_map<datalog::PredicateId, ClauseIndex,
                     datalog::PredicateIdHash>
      clauses_by_pred_;
  std::unordered_map<datalog::CallKey, AnswerTable, datalog::CallKeyHash>
      tables_;
  std::unordered_set<datalog::CallKey, datalog::CallKeyHash> active_;
  /// Suffix of the latest renaming. It advances once per clause of a
  /// predicate on every call (~4k for rel/6 on a 1000-entity Sigma), so
  /// a long-lived interpreter would overflow 32 bits.
  int64_t rename_counter_ = 0;
  Stats stats_;
  /// The current Solve's cancellation token (null outside Solve). Solve
  /// calls are externally serialized (see Engine), so a member is safe.
  const CancelToken* cancel_ = nullptr;
};

}  // namespace multilog::ml

#endif  // MULTILOG_MULTILOG_INTERPRETER_H_
