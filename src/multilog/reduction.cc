#include "multilog/reduction.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"
#include "datalog/unify.h"

namespace multilog::ml {

namespace {

using datalog::Atom;
using datalog::Clause;
using datalog::Literal;
using datalog::Program;
using datalog::Substitution;

Term Sym(const std::string& s) { return Term::Sym(s); }
Term Var(const std::string& s) { return Term::Var(s); }

/// rel(p, k, a, v, c, l) for an atomic m-atom.
Atom RelAtom(const MAtom& m) {
  const MCell& cell = m.cells.front();
  return Atom("rel", {Sym(m.predicate), m.key, Sym(cell.attribute),
                      cell.value, cell.classification, m.level});
}

/// bel(p, k, a, v, c, l, m) for an atomic b-atom.
Atom BelAtom(const BAtom& b) {
  const MAtom& m = b.matom;
  const MCell& cell = m.cells.front();
  return Atom("bel", {Sym(m.predicate), m.key, Sym(cell.attribute),
                      cell.value, cell.classification, m.level, b.mode});
}

/// The lambda encoding: body occurrences of m- and b-atoms carry the
/// session guards dominate(l, u) and dominate(c, u).
void AppendGuards(const MAtom& m, const Term& user,
                  std::vector<Literal>* out) {
  out->push_back(Literal::Positive(Atom("dominate", {m.level, user})));
  out->push_back(Literal::Positive(
      Atom("dominate", {m.cells.front().classification, user})));
}

/// Which reserved predicates a p-atom may use in a body position.
/// `in_bel_clause`: the clause head is bel/7 (a user-defined belief
/// mode, Section 7) - such clauses get raw access to rel/6, since that
/// is precisely how the paper says user modes are written. `dominate` is
/// a harmless read-only lattice test and is always allowed. The engine
/// internals (vis, overridden, sdom) are never writable or readable.
Status CheckBodyPAtom(const PAtom& p, bool in_bel_clause) {
  const std::string& name = p.predicate();
  if (!IsReservedPredicate(name)) return Status::OK();
  if (name == "bel" || name == "dominate") return Status::OK();
  if (name == "rel" && in_bel_clause) return Status::OK();
  return Status::InvalidProgram("p-atom uses reserved predicate '" + name +
                                "'" +
                                (name == "rel"
                                     ? " (raw rel access is allowed only in "
                                       "bel/7 clause bodies)"
                                     : ""));
}

Status AppendBodyAtom(const MlLiteral& lit, const Term& user,
                      std::vector<Literal>* out,
                      bool in_bel_clause = false) {
  const MlAtom& atom = lit.atom;
  if (const auto* m = std::get_if<MAtom>(&atom)) {
    if (lit.negated) {
      return Status::InvalidProgram(
          "negation of secured atoms (m-/b-atoms) is not supported");
    }
    for (const MAtom& atomic : m->Atomize()) {
      out->push_back(Literal::Positive(RelAtom(atomic)));
      AppendGuards(atomic, user, out);
    }
    return Status::OK();
  }
  if (const auto* b = std::get_if<BAtom>(&atom)) {
    if (lit.negated) {
      return Status::InvalidProgram(
          "negation of secured atoms (m-/b-atoms) is not supported");
    }
    for (const MAtom& atomic : b->matom.Atomize()) {
      out->push_back(Literal::Positive(BelAtom(BAtom{atomic, b->mode})));
      AppendGuards(atomic, user, out);
    }
    return Status::OK();
  }
  auto emit = [&lit, out](Atom a) {
    out->push_back(lit.negated ? Literal::Negative(std::move(a))
                               : Literal::Positive(std::move(a)));
  };
  if (const auto* p = std::get_if<PAtom>(&atom)) {
    MULTILOG_RETURN_IF_ERROR(CheckBodyPAtom(*p, in_bel_clause));
    emit(*p);
    return Status::OK();
  }
  if (const auto* l = std::get_if<LAtom>(&atom)) {
    emit(Atom("level", {l->level}));
    return Status::OK();
  }
  if (const auto* c = std::get_if<CAtom>(&atom)) {
    out->push_back(Literal::Builtin(c->op, c->lhs, c->rhs));
    return Status::OK();
  }
  const auto& h = std::get<HAtom>(atom);
  emit(Atom("order", {h.low, h.high}));
  return Status::OK();
}

Result<std::vector<Clause>> TranslateClause(const MlClause& clause,
                                            const Term& user) {
  const auto* head_p = std::get_if<PAtom>(&clause.head);
  const bool in_bel_clause =
      head_p != nullptr && head_p->PredicateId() == "bel/7";

  std::vector<Literal> body;
  for (const MlLiteral& lit : clause.body) {
    MULTILOG_RETURN_IF_ERROR(AppendBodyAtom(lit, user, &body,
                                            in_bel_clause));
  }

  std::vector<Atom> heads;
  if (const auto* m = std::get_if<MAtom>(&clause.head)) {
    for (const MAtom& atomic : m->Atomize()) heads.push_back(RelAtom(atomic));
  } else if (const auto* p = std::get_if<PAtom>(&clause.head)) {
    if (IsReservedPredicate(p->predicate()) && p->predicate() != "bel") {
      return Status::InvalidProgram("p-clause defines reserved predicate '" +
                                    p->predicate() + "'");
    }
    heads.push_back(*p);
  } else if (const auto* l = std::get_if<LAtom>(&clause.head)) {
    heads.push_back(Atom("level", {l->level}));
  } else if (const auto* h = std::get_if<HAtom>(&clause.head)) {
    heads.push_back(Atom("order", {h->low, h->high}));
  } else {
    return Status::InvalidProgram("b-atom cannot head a clause");
  }

  std::vector<Clause> out;
  out.reserve(heads.size());
  for (Atom& head : heads) out.emplace_back(std::move(head), body);
  return out;
}

/// Level-argument position of a specialization target, or -1.
/// The reserved predicate ids are interned once.
int LevelPosition(const Atom& atom) {
  static const datalog::PredicateId kRel("rel/6");
  static const datalog::PredicateId kVis("vis/6");
  static const datalog::PredicateId kBel("bel/7");
  static const datalog::PredicateId kOverridden("overridden/5");
  const datalog::PredicateId id = atom.PredicateId();
  if (id == kRel || id == kVis) return 5;
  if (id == kBel) return 5;
  if (id == kOverridden) return 4;
  return -1;
}

/// Rewrites a specialization target into its per-level predicate, e.g.
/// rel(P,K,A,V,C,s) -> rel__s(P,K,A,V,C). The level position must hold a
/// ground symbol.
Result<Atom> SpecializeAtom(const Atom& atom, int pos,
                            const SpecializedNames& names) {
  const Term& level = atom.args()[pos];
  if (!level.IsSymbol()) {
    return Status::InvalidProgram(
        "cannot level-specialize " + atom.ToString() +
        ": level position is not a ground symbol");
  }
  std::vector<Term> args;
  args.reserve(atom.args().size() - 1);
  for (int i = 0; i < static_cast<int>(atom.args().size()); ++i) {
    if (i != pos) args.push_back(atom.args()[i]);
  }
  return Atom(names.Get(atom.predicate_symbol(), level.symbol()),
              std::move(args));
}

/// The inverse of SpecializeAtom: rel__s(P,K,A,V,C) -> rel(P,K,A,V,C,s).
/// Atoms of any other predicate are returned unchanged.
Atom DespecializeAtom(const Atom& atom) {
  static const struct {
    const char* base;
    size_t level_pos;
  } kTargets[] = {{"rel", 5}, {"bel", 5}, {"vis", 5}, {"overridden", 4}};
  const std::string& name = atom.predicate();
  for (const auto& target : kTargets) {
    const std::string prefix = std::string(target.base) + "__";
    if (!StartsWith(name, prefix)) continue;
    std::vector<Term> args = atom.args();
    args.insert(args.begin() + static_cast<ptrdiff_t>(target.level_pos),
                Sym(name.substr(prefix.size())));
    return Atom(target.base, std::move(args));
  }
  return atom;
}

/// Statically evaluates ground dominate/sdom/level literals against the
/// lattice, and specialization targets whose level position holds
/// neither a variable nor a symbol: in a specializable program their
/// facts carry a level symbol there, so such an atom matches nothing.
/// Returns 1 (true), 0 (false), -1 (not statically known).
int StaticTruth(const lattice::SecurityLattice& lat, const Literal& lit) {
  if (lit.is_builtin()) return -1;
  static const datalog::PredicateId kDominate("dominate/2");
  static const datalog::PredicateId kSdom("sdom/2");
  static const datalog::PredicateId kLevel("level/1");
  const Atom& a = lit.atom();
  const datalog::PredicateId id = a.PredicateId();
  const int level_pos = LevelPosition(a);
  bool truth;
  if (level_pos >= 0 && !a.args()[level_pos].IsVariable() &&
      !a.args()[level_pos].IsSymbol()) {
    truth = false;
  } else if (id == kDominate && a.args()[0].IsSymbol() &&
             a.args()[1].IsSymbol()) {
    truth = lat.Leq(a.args()[0].name(), a.args()[1].name()).value_or(false);
  } else if (id == kSdom && a.args()[0].IsSymbol() &&
             a.args()[1].IsSymbol()) {
    truth = lat.Lt(a.args()[0].name(), a.args()[1].name()).value_or(false);
  } else if (id == kLevel && a.args()[0].IsSymbol()) {
    truth = lat.Contains(a.args()[0].name());
  } else {
    return -1;
  }
  if (lit.negated()) truth = !truth;
  return truth ? 1 : 0;
}

/// Enumerates assignments of the clause's level-position variables over
/// the lattice's levels and emits the specialized copies, pruning
/// statically false guards.
Status SpecializeClause(const Clause& clause,
                        const lattice::SecurityLattice& lat,
                        const SpecializedNames& names, Program* out) {
  // Collect level-position variables across head and body targets.
  // std::set<Symbol> iterates in lexicographic (resolved-name) order,
  // so the emitted clause order matches the string-keyed era exactly.
  std::set<Symbol> level_vars;
  auto collect = [&level_vars](const Atom& atom) {
    int pos = LevelPosition(atom);
    if (pos >= 0 && atom.args()[pos].IsVariable()) {
      level_vars.insert(atom.args()[pos].symbol());
    }
  };
  collect(clause.head());
  for (const Literal& lit : clause.body()) {
    if (!lit.is_builtin()) collect(lit.atom());
  }

  std::vector<Symbol> vars(level_vars.begin(), level_vars.end());
  std::vector<size_t> choice(vars.size(), 0);
  const std::vector<std::string>& levels = lat.names();

  // Odometer over level assignments (a single empty assignment when the
  // clause has no level variables).
  while (true) {
    Substitution subst;
    for (size_t i = 0; i < vars.size(); ++i) {
      subst.Bind(vars[i], Sym(levels[choice[i]]));
    }

    Atom head = subst.Apply(clause.head());
    std::vector<Literal> body;
    bool dropped = false;
    for (const Literal& lit : clause.body()) {
      Literal applied = subst.Apply(lit);
      int truth = StaticTruth(lat, applied);
      if (truth == 0) {
        dropped = true;
        break;
      }
      if (truth == 1) continue;  // statically satisfied guard
      if (!applied.is_builtin() && LevelPosition(applied.atom()) >= 0) {
        MULTILOG_ASSIGN_OR_RETURN(
            Atom spec, SpecializeAtom(applied.atom(),
                                      LevelPosition(applied.atom()), names));
        body.push_back(applied.negated() ? Literal::Negative(std::move(spec))
                                         : Literal::Positive(std::move(spec)));
      } else {
        body.push_back(std::move(applied));
      }
    }
    if (!dropped) {
      int head_pos = LevelPosition(head);
      if (head_pos >= 0) {
        MULTILOG_ASSIGN_OR_RETURN(head,
                                  SpecializeAtom(head, head_pos, names));
      }
      out->AddClause(Clause(std::move(head), std::move(body)));
    }

    // Advance the odometer.
    size_t i = 0;
    while (i < choice.size() && ++choice[i] == levels.size()) {
      choice[i] = 0;
      ++i;
    }
    if (i == choice.size()) break;
    if (choice.empty()) break;
  }
  return Status::OK();
}

bool HasBAtomBodies(const Database& db) {
  auto scan = [](const std::vector<MlClause>& clauses) {
    for (const MlClause& c : clauses) {
      for (const MlLiteral& lit : c.body) {
        if (std::holds_alternative<BAtom>(lit.atom)) return true;
      }
    }
    return false;
  };
  return scan(db.sigma) || scan(db.pi);
}

}  // namespace

SpecializedNames::SpecializedNames(const lattice::SecurityLattice& lattice) {
  for (const char* target : {"rel", "bel", "vis", "overridden"}) {
    const Symbol base = Symbol::Intern(target);
    for (const std::string& level : lattice.names()) {
      names_.emplace(Key(base, Symbol::Intern(level)),
                     Symbol::Intern(std::string(target) + "__" + level));
    }
  }
}

Symbol SpecializedNames::Get(Symbol target, Symbol level) const {
  auto it = names_.find(Key(target, level));
  if (it != names_.end()) return it->second;
  return Symbol::Intern(target.str() + "__" + level.str());
}

bool IsReservedPredicate(const std::string& name) {
  return name == "rel" || name == "bel" || name == "dominate" ||
         name == "sdom" || name == "vis" || name == "overridden" ||
         name == "level" || name == "order";
}

datalog::Program EngineAxioms() {
  Program a;
  auto pos = [](Atom atom) { return Literal::Positive(std::move(atom)); };

  // a1-a3: dominance is the reflexive-transitive closure of order.
  a.AddClause(Clause(Atom("dominate", {Var("X"), Var("X")}),
                     {pos(Atom("level", {Var("X")}))}));
  a.AddClause(Clause(Atom("dominate", {Var("X"), Var("Y")}),
                     {pos(Atom("order", {Var("X"), Var("Y")}))}));
  a.AddClause(Clause(Atom("dominate", {Var("X"), Var("Y")}),
                     {pos(Atom("order", {Var("X"), Var("Z")})),
                      pos(Atom("dominate", {Var("Z"), Var("Y")}))}));
  // Strict dominance: at least one order edge.
  a.AddClause(Clause(Atom("sdom", {Var("X"), Var("Y")}),
                     {pos(Atom("order", {Var("X"), Var("Z")})),
                      pos(Atom("dominate", {Var("Z"), Var("Y")}))}));

  const std::vector<Term> pkavch = {Var("P"), Var("K"), Var("A"),
                                    Var("V"), Var("C"), Var("H")};
  // a4 (fir).
  {
    std::vector<Term> head = pkavch;
    head.push_back(Sym("fir"));
    a.AddClause(Clause(Atom("bel", head), {pos(Atom("rel", pkavch))}));
  }
  // a5 (opt).
  {
    std::vector<Term> head = pkavch;
    head.push_back(Sym("opt"));
    a.AddClause(Clause(
        Atom("bel", head),
        {pos(Atom("rel", {Var("P"), Var("K"), Var("A"), Var("V"), Var("C"),
                          Var("L")})),
         pos(Atom("dominate", {Var("L"), Var("H")}))}));
  }
  // Repaired a6-a9 (cau): visibility + overriding.
  a.AddClause(Clause(
      Atom("vis", pkavch),
      {pos(Atom("rel", {Var("P"), Var("K"), Var("A"), Var("V"), Var("C"),
                        Var("L")})),
       pos(Atom("dominate", {Var("L"), Var("H")}))}));
  a.AddClause(Clause(
      Atom("overridden", {Var("P"), Var("K"), Var("A"), Var("C"), Var("H")}),
      {pos(Atom("vis", pkavch)),
       pos(Atom("vis", {Var("P"), Var("K"), Var("A"), Var("V2"), Var("C2"),
                        Var("H")})),
       pos(Atom("sdom", {Var("C"), Var("C2")}))}));
  {
    std::vector<Term> head = pkavch;
    head.push_back(Sym("cau"));
    a.AddClause(Clause(
        Atom("bel", head),
        {pos(Atom("vis", pkavch)),
         Literal::Negative(Atom("overridden", {Var("P"), Var("K"), Var("A"),
                                               Var("C"), Var("H")}))}));
  }
  return a;
}

Result<datalog::Program> TranslateDatabase(const CheckedDatabase& cdb,
                                           const std::string& user_level) {
  MULTILOG_RETURN_IF_ERROR(cdb.lattice.Index(user_level).status());
  const Term user = Sym(user_level);
  Program out;
  for (const std::vector<MlClause>* component :
       {&cdb.db.lambda, &cdb.db.sigma, &cdb.db.pi}) {
    for (const MlClause& clause : *component) {
      MULTILOG_ASSIGN_OR_RETURN(std::vector<Clause> translated,
                                TranslateClause(clause, user));
      for (Clause& c : translated) out.AddClause(std::move(c));
    }
  }
  return out;
}

Result<std::vector<datalog::Literal>> TranslateGoalGeneric(
    const std::vector<MlLiteral>& goal, const std::string& user_level) {
  const Term user = Sym(user_level);
  std::vector<Literal> out;
  for (const MlLiteral& lit : goal) {
    MULTILOG_RETURN_IF_ERROR(AppendBodyAtom(lit, user, &out));
  }
  return out;
}

Result<ReducedProgram> Reduce(const CheckedDatabase& cdb,
                              const std::string& user_level,
                              const ReductionOptions& options) {
  MULTILOG_RETURN_IF_ERROR(cdb.lattice.Index(user_level).status());
  const Term user = Sym(user_level);

  ReducedProgram out;
  out.user_level = user_level;
  out.levels = cdb.lattice.names();
  out.lattice = cdb.lattice;

  // tau(Delta): Lambda, Sigma, Pi. The Sigma component's spans and
  // per-entry clause counts are recorded so a maintained copy can be
  // spliced incrementally (AppendSigmaFact / EraseSigmaFact).
  for (const std::vector<MlClause>* component :
       {&cdb.db.lambda, &cdb.db.sigma, &cdb.db.pi}) {
    const bool is_sigma = component == &cdb.db.sigma;
    if (is_sigma) out.display_sigma_begin = out.display.size();
    for (const MlClause& clause : *component) {
      MULTILOG_ASSIGN_OR_RETURN(std::vector<Clause> translated,
                                TranslateClause(clause, user));
      if (is_sigma) out.sigma_display_counts.push_back(translated.size());
      for (Clause& c : translated) out.display.AddClause(std::move(c));
    }
    if (is_sigma) out.display_sigma_end = out.display.size();
  }
  out.display.Append(EngineAxioms());

  switch (options.specialization) {
    case ReductionOptions::Specialization::kNever:
      out.specialized = false;
      break;
    case ReductionOptions::Specialization::kAlways:
      out.specialized = true;
      break;
    case ReductionOptions::Specialization::kAuto:
      out.specialized = HasBAtomBodies(cdb.db);
      break;
  }

  if (!out.specialized) {
    out.program = out.display;
    out.program_sigma_begin = out.display_sigma_begin;
    out.program_sigma_end = out.display_sigma_end;
    out.sigma_program_counts = out.sigma_display_counts;
    return out;
  }
  // Specialize clause by clause, noting where the Sigma span lands in
  // the specialized program and how many specialized clauses each Sigma
  // entry produced (a display clause can expand into several copies or
  // be statically dropped).
  out.specialized_names = SpecializedNames(cdb.lattice);
  std::vector<size_t> per_display(out.display.size(), 0);
  for (size_t i = 0; i < out.display.clauses().size(); ++i) {
    const size_t before = out.program.size();
    MULTILOG_RETURN_IF_ERROR(
        SpecializeClause(out.display.clauses()[i], cdb.lattice,
                         out.specialized_names, &out.program));
    per_display[i] = out.program.size() - before;
  }
  size_t pos = 0;
  for (size_t i = 0; i < out.display_sigma_begin; ++i) pos += per_display[i];
  out.program_sigma_begin = pos;
  size_t display_index = out.display_sigma_begin;
  for (size_t count : out.sigma_display_counts) {
    size_t produced = 0;
    for (size_t j = 0; j < count; ++j) produced += per_display[display_index++];
    out.sigma_program_counts.push_back(produced);
    pos += produced;
  }
  out.program_sigma_end = pos;
  return out;
}

Result<SigmaFactDelta> TranslateSigmaFact(const MlClause& fact,
                                          const ReducedProgram& rp) {
  SigmaFactDelta out;
  MULTILOG_ASSIGN_OR_RETURN(std::vector<Clause> translated,
                            TranslateClause(fact, Sym(rp.user_level)));
  if (rp.specialized) {
    Program spec;
    for (const Clause& c : translated) {
      MULTILOG_RETURN_IF_ERROR(
          SpecializeClause(c, rp.lattice, rp.specialized_names, &spec));
    }
    out.program.assign(spec.clauses().begin(), spec.clauses().end());
  } else {
    out.program = translated;
  }
  out.display = std::move(translated);
  out.edb.reserve(out.program.size());
  for (const Clause& c : out.program) {
    if (!c.IsFact() || !c.head().IsGround()) {
      return Status::InvalidArgument(
          "sigma entry does not translate to ground facts; not "
          "incrementally maintainable: " +
          c.ToString());
    }
    out.edb.push_back(c.head());
  }
  return out;
}

void AppendSigmaFact(ReducedProgram* rp, const SigmaFactDelta& delta) {
  size_t pos = rp->display_sigma_end;
  for (const Clause& c : delta.display) rp->display.InsertClause(pos++, c);
  rp->display_sigma_end += delta.display.size();
  pos = rp->program_sigma_end;
  for (const Clause& c : delta.program) rp->program.InsertClause(pos++, c);
  rp->program_sigma_end += delta.program.size();
  rp->sigma_display_counts.push_back(delta.display.size());
  rp->sigma_program_counts.push_back(delta.program.size());
}

void EraseSigmaFact(ReducedProgram* rp, size_t sigma_index) {
  size_t display_pos = rp->display_sigma_begin;
  size_t program_pos = rp->program_sigma_begin;
  for (size_t i = 0; i < sigma_index; ++i) {
    display_pos += rp->sigma_display_counts[i];
    program_pos += rp->sigma_program_counts[i];
  }
  const size_t display_count = rp->sigma_display_counts[sigma_index];
  const size_t program_count = rp->sigma_program_counts[sigma_index];
  rp->display.EraseClauses(display_pos, display_count);
  rp->program.EraseClauses(program_pos, program_count);
  rp->display_sigma_end -= display_count;
  rp->program_sigma_end -= program_count;
  rp->sigma_display_counts.erase(rp->sigma_display_counts.begin() +
                                 static_cast<ptrdiff_t>(sigma_index));
  rp->sigma_program_counts.erase(rp->sigma_program_counts.begin() +
                                 static_cast<ptrdiff_t>(sigma_index));
}

Result<std::vector<std::vector<datalog::Literal>>>
ReducedProgram::TranslateGoal(const std::vector<MlLiteral>& goal) const {
  const Term user = Sym(user_level);
  std::vector<Literal> generic;
  for (const MlLiteral& lit : goal) {
    MULTILOG_RETURN_IF_ERROR(AppendBodyAtom(lit, user, &generic));
  }
  if (!specialized) {
    return std::vector<std::vector<Literal>>{std::move(generic)};
  }

  // Specialize the goal like a headless clause, expanding level
  // variables and recording their bindings as explicit equalities so
  // answer substitutions still mention them. Statically false goals are
  // dropped; static pruning of true guards keeps the lists small.
  std::set<Symbol> level_vars;
  for (const Literal& lit : generic) {
    if (lit.is_builtin()) continue;
    int pos = LevelPosition(lit.atom());
    if (pos >= 0 && lit.atom().args()[pos].IsVariable()) {
      level_vars.insert(lit.atom().args()[pos].symbol());
    }
  }
  // Reuse SpecializeClause by synthesizing a head that carries the level
  // variables, then stripping it off.
  std::vector<Term> head_args;
  for (Symbol v : level_vars) head_args.push_back(Term::Var(v));
  static const Symbol kGoal = Symbol::Intern("__goal");
  Clause pseudo(Atom(kGoal, head_args), generic);

  Program expanded;
  MULTILOG_RETURN_IF_ERROR(
      SpecializeClause(pseudo, lattice, specialized_names, &expanded));

  std::vector<std::vector<Literal>> out;
  for (const Clause& c : expanded.clauses()) {
    std::vector<Literal> list = c.body();
    // Re-attach level-variable bindings from the synthesized head.
    size_t i = 0;
    for (Symbol v : level_vars) {
      list.push_back(Literal::Builtin(datalog::Comparison::kEq,
                                      Term::Var(v), c.head().args()[i]));
      ++i;
    }
    out.push_back(std::move(list));
  }
  return out;
}

datalog::Model DecodeModel(const datalog::Model& model) {
  datalog::Model out;
  for (const std::string& pred : model.Predicates()) {
    for (const Atom& fact : model.FactsFor(pred)) {
      out.Insert(DespecializeAtom(fact));
    }
  }
  return out;
}

}  // namespace multilog::ml
