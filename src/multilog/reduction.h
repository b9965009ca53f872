#ifndef MULTILOG_MULTILOG_REDUCTION_H_
#define MULTILOG_MULTILOG_REDUCTION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "datalog/model.h"
#include "datalog/program.h"
#include "multilog/ast.h"
#include "multilog/database.h"

namespace multilog::ml {

/// The MultiLog inference engine **A** of Figure 12, in a repaired form:
/// the printed axioms a6-a9 are unsafe Datalog (variables occur only
/// under negation), so the cautious-mode axioms are restated with the
/// auxiliary predicates vis/6 (cell visible at a level) and overridden/5
/// (cell classification strictly dominated by a sibling cell's), which
/// compute exactly Definition 3.1 and keep every rule range-restricted
/// and the program stratified:
///
///   dominate(X, X) :- level(X).
///   dominate(X, Y) :- order(X, Y).
///   dominate(X, Y) :- order(X, Z), dominate(Z, Y).
///   sdom(X, Y)     :- order(X, Z), dominate(Z, Y).
///   bel(P,K,A,V,C,H,fir) :- rel(P,K,A,V,C,H).
///   bel(P,K,A,V,C,H,opt) :- rel(P,K,A,V,C,L), dominate(L,H).
///   vis(P,K,A,V,C,H)     :- rel(P,K,A,V,C,L), dominate(L,H).
///   overridden(P,K,A,C,H) :- vis(P,K,A,V,C,H), vis(P,K,A,V2,C2,H),
///                            sdom(C,C2).
///   bel(P,K,A,V,C,H,cau) :- vis(P,K,A,V,C,H),
///                           not overridden(P,K,A,C,H).
datalog::Program EngineAxioms();

/// Options for Reduce.
struct ReductionOptions {
  enum class Specialization {
    /// Specialize only when some Sigma or Pi clause body contains a
    /// b-atom (the case - e.g. Figure 10's r8 - where the generic
    /// program has recursion through negation at the predicate level
    /// even though the ground program is level-stratified).
    kAuto,
    kAlways,
    kNever,
  };
  Specialization specialization = Specialization::kAuto;
};

/// The level-specialized predicate names of a lattice: (rel, s) ->
/// rel__s, and likewise for bel, vis and overridden, each interned once
/// when the table is built. Specializing a goal or a written fact then
/// looks its names up instead of concatenating and interning them.
class SpecializedNames {
 public:
  SpecializedNames() = default;
  explicit SpecializedNames(const lattice::SecurityLattice& lattice);

  /// The predicate `target`__`level`; a level outside the lattice is
  /// interned on the spot.
  Symbol Get(Symbol target, Symbol level) const;

 private:
  static uint64_t Key(Symbol target, Symbol level) {
    return (uint64_t{target.id()} << 32) | level.id();
  }
  std::unordered_map<uint64_t, Symbol> names_;
};

/// The result of reducing a MultiLog database at a session level u.
struct ReducedProgram {
  /// The executable program: tau(Delta) + A, possibly level-specialized
  /// (rel/bel/vis/overridden split into per-level predicates rel__u,
  /// rel__c, ... so that stratification works whenever the level ladder
  /// is acyclic).
  datalog::Program program;
  /// The faithful generic form tau(Delta) + A (Figure 12's shape), for
  /// display and for programs that stratify as-is.
  datalog::Program display;
  bool specialized = false;
  std::string user_level;
  std::vector<std::string> levels;
  /// Copy of the database's security lattice (drives static pruning of
  /// dominance guards during goal translation).
  lattice::SecurityLattice lattice;
  /// The specialized predicate names over `lattice` (filled when
  /// `specialized`).
  SpecializedNames specialized_names;

  /// Maintenance bookkeeping, filled by Reduce: the half-open clause
  /// spans the Sigma component occupies in `display` and in `program`,
  /// plus per-Sigma-entry clause counts in store order (one entry per
  /// MlClause of Database::sigma; molecular facts atomize into several
  /// clauses). AppendSigmaFact / EraseSigmaFact splice these spans so a
  /// maintained copy stays byte-identical to a scratch Reduce of the
  /// mutated database.
  size_t display_sigma_begin = 0;
  size_t display_sigma_end = 0;
  size_t program_sigma_begin = 0;
  size_t program_sigma_end = 0;
  std::vector<size_t> sigma_display_counts;
  std::vector<size_t> sigma_program_counts;

  /// Translates a MultiLog goal into executable Datalog goal lists. With
  /// specialization a goal containing level variables expands into one
  /// list per level assignment (with explicit `Var = level` bindings so
  /// answers still carry the level variables).
  Result<std::vector<std::vector<datalog::Literal>>> TranslateGoal(
      const std::vector<MlLiteral>& goal) const;
};

/// The translation function tau of Section 6.1, plus the engine axioms,
/// compiled at session (database) level `user_level`: every m- and
/// b-atom in a clause body or query grows the guards dominate(l, u) and
/// dominate(c, u) - the lambda encoding of the BELIEF and DEDUCTION-G'
/// rules (no read up).
Result<ReducedProgram> Reduce(const CheckedDatabase& cdb,
                              const std::string& user_level,
                              const ReductionOptions& options = {});

/// Names reserved by the reduction; user programs may define bel/7
/// (user belief modes, Section 7) but not the others.
bool IsReservedPredicate(const std::string& name);

/// The clauses one Sigma entry contributes to a ReducedProgram, in both
/// forms, plus the ground EDB atoms those clauses assert (the program
/// clause heads) - exactly what datalog::ApplyDelta needs to maintain
/// the evaluated model.
struct SigmaFactDelta {
  std::vector<datalog::Clause> display;
  std::vector<datalog::Clause> program;
  std::vector<datalog::Atom> edb;
};

/// Translates one ground Sigma fact exactly as Reduce would (same
/// atomization, same specialization against rp's lattice). Errors when
/// a resulting program clause is not a ground bodyless fact - such an
/// entry is not incrementally maintainable and the caller must fall
/// back to a full Reduce.
Result<SigmaFactDelta> TranslateSigmaFact(const MlClause& fact,
                                          const ReducedProgram& rp);

/// Splices `delta`'s clauses at the end of rp's Sigma spans - matching
/// a Database::sigma push_back - and updates the bookkeeping.
void AppendSigmaFact(ReducedProgram* rp, const SigmaFactDelta& delta);

/// Removes the clauses contributed by the Sigma entry at `sigma_index`
/// (the index into Database::sigma *before* that entry is erased) and
/// updates the bookkeeping.
void EraseSigmaFact(ReducedProgram* rp, size_t sigma_index);

/// tau(Delta) alone - the translated clause store with session guards
/// but *without* the engine axioms. This is what the operational
/// interpreter resolves against (it implements the DESCEND rules
/// natively instead of through the axioms).
Result<datalog::Program> TranslateDatabase(const CheckedDatabase& cdb,
                                           const std::string& user_level);

/// Translates a goal into its generic guarded literal list (the
/// unspecialized form used by the operational interpreter).
Result<std::vector<datalog::Literal>> TranslateGoalGeneric(
    const std::vector<MlLiteral>& goal, const std::string& user_level);

/// The generic form of a model of ReducedProgram::program: undoes the
/// level specialization, renaming rel__u(P,K,A,V,C) back to
/// rel(P,K,A,V,C,u) (likewise bel__u, vis__u and overridden__u); every
/// other fact is copied unchanged. The renaming is injective, so the
/// result holds exactly one fact per input fact.
datalog::Model DecodeModel(const datalog::Model& model);

}  // namespace multilog::ml

#endif  // MULTILOG_MULTILOG_REDUCTION_H_
