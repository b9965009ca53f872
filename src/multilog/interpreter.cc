#include "multilog/interpreter.h"

#include <algorithm>
#include <functional>

#include "datalog/eval.h"

namespace multilog::ml {

namespace {

using datalog::Atom;
using datalog::Clause;
using datalog::Literal;
using datalog::Substitution;

using datalog::CallKey;
using datalog::MakeCallKey;

/// Renders an internal atom back in MultiLog surface syntax for proof
/// conclusions.
std::string DecodeAtom(const Atom& atom) {
  static const datalog::PredicateId kRel6("rel/6");
  static const datalog::PredicateId kBel7("bel/7");
  static const datalog::PredicateId kDominate2("dominate/2");
  const datalog::PredicateId id = atom.PredicateId();
  const auto& a = atom.args();
  if (id == kRel6) {
    return a[5].ToString() + "[" + a[0].ToString() + "(" + a[1].ToString() +
           " : " + a[2].ToString() + " -" + a[4].ToString() + "-> " +
           a[3].ToString() + ")]";
  }
  if (id == kBel7) {
    Atom rel("rel", {a[0], a[1], a[2], a[3], a[4], a[5]});
    return DecodeAtom(rel) + " << " + a[6].ToString();
  }
  if (id == kDominate2) {
    return a[0].ToString() + " <= " + a[1].ToString();
  }
  return atom.ToString();
}

std::string RuleNameForHead(const Atom& head) {
  static const datalog::PredicateId kRel6("rel/6");
  static const datalog::PredicateId kBel7("bel/7");
  const datalog::PredicateId id = head.PredicateId();
  if (id == kRel6) return "deduction-g'";
  if (id == kBel7) return "user-belief";
  return "deduction-g";
}

}  // namespace

Result<Interpreter> Interpreter::Create(const CheckedDatabase* cdb,
                                        std::string user_level) {
  return Create(cdb, std::move(user_level), Options());
}

Result<Interpreter> Interpreter::Create(const CheckedDatabase* cdb,
                                        std::string user_level,
                                        Options options) {
  MULTILOG_RETURN_IF_ERROR(cdb->lattice.Index(user_level).status());
  MULTILOG_ASSIGN_OR_RETURN(datalog::Program program,
                            TranslateDatabase(*cdb, user_level));
  MULTILOG_RETURN_IF_ERROR(program.CheckSafety());
  return Interpreter(cdb, std::move(user_level), options, std::move(program));
}

Interpreter::Interpreter(const CheckedDatabase* cdb, std::string user_level,
                         Options options, datalog::Program program)
    : cdb_(cdb),
      user_level_(std::move(user_level)),
      options_(options),
      program_(std::move(program)) {
  for (const Clause& c : program_.clauses()) {
    ClauseIndex& index = clauses_by_pred_[c.head().PredicateId()];
    const auto i = static_cast<uint32_t>(index.clauses.size());
    index.clauses.push_back(&c);
    const std::vector<Term>& args = c.head().args();
    index.by_constant.resize(args.size());
    index.by_variable.resize(args.size());
    for (size_t pos = 0; pos < args.size(); ++pos) {
      if (args[pos].IsConstant()) {
        index.by_constant[pos][args[pos]].push_back(i);
      } else if (args[pos].IsVariable()) {
        index.by_variable[pos].push_back(i);
      }
    }
  }
}

Result<std::vector<std::string>> Interpreter::LevelCandidates(
    const Term& t) const {
  if (t.IsSymbol()) {
    if (!cdb_->lattice.Contains(t.name())) {
      return std::vector<std::string>{};
    }
    return std::vector<std::string>{t.name()};
  }
  if (t.IsVariable()) return cdb_->lattice.names();
  return std::vector<std::string>{};
}

Status Interpreter::AddAnswer(AnswerTable* table, Atom atom, ProofPtr proof) {
  if (!atom.IsGround()) {
    return Status::InvalidProgram("derived non-ground answer: " +
                                  atom.ToString());
  }
  if (table->set.insert(atom).second) {
    table->answers.push_back(TabledAnswer{std::move(atom), std::move(proof)});
    ++stats_.tabled_answers;
    // Cancellation shares the checkpoint with the answer budget: both
    // fire at tabled-answer rate, and both unwind the whole solve.
    if (cancel_ != nullptr && cancel_->Cancelled()) {
      return Status::DeadlineExceeded(
          "operational evaluation cancelled (deadline exceeded)");
    }
    if (stats_.tabled_answers > options_.max_answers) {
      return Status::ResourceExhausted(
          "operational evaluation exceeded max_answers");
    }
  }
  return Status::OK();
}

Status Interpreter::SolveBody(const std::vector<Literal>& body, size_t index,
                              Match current, std::vector<Match>* out) {
  if (index == body.size()) {
    out->push_back(std::move(current));
    return Status::OK();
  }
  const Literal& lit = body[index];

  if (lit.is_builtin()) {
    MULTILOG_ASSIGN_OR_RETURN(
        Term lhs, datalog::EvalArithmetic(current.subst.Apply(lit.lhs())));
    MULTILOG_ASSIGN_OR_RETURN(
        Term rhs, datalog::EvalArithmetic(current.subst.Apply(lit.rhs())));
    if (lit.comparison() == datalog::Comparison::kEq &&
        (!lhs.IsGround() || !rhs.IsGround())) {
      Match next = current;
      if (!datalog::UnifyTerms(lhs, rhs, &next.subst)) return Status::OK();
      return SolveBody(body, index + 1, std::move(next), out);
    }
    MULTILOG_ASSIGN_OR_RETURN(
        bool holds, datalog::EvalBuiltin(lit.comparison(), lhs, rhs));
    if (!holds) return Status::OK();
    return SolveBody(body, index + 1, std::move(current), out);
  }
  if (lit.negated()) {
    // Negation as failure over a completed call table (sound for
    // predicate-stratified programs, which the reduction checks).
    Atom grounded = current.subst.Apply(lit.atom());
    if (!grounded.IsGround()) {
      return Status::InvalidProgram(
          "negative literal not ground at evaluation time: not " +
          grounded.ToString());
    }
    MULTILOG_RETURN_IF_ERROR(CompleteCall(grounded));
    auto table_it = tables_.find(MakeCallKey(grounded));
    if (table_it != tables_.end() && table_it->second.set.count(grounded)) {
      return Status::OK();  // the atom holds, so its negation fails
    }
    Match next = current;
    next.proofs.push_back(MakeProof(
        "negation-as-failure",
        "<D, " + user_level_ + "> |- not " + DecodeAtom(grounded)));
    return SolveBody(body, index + 1, std::move(next), out);
  }

  const Atom pattern = current.subst.Apply(lit.atom());
  MULTILOG_RETURN_IF_ERROR(SolveCallOnce(pattern));
  auto it = tables_.find(MakeCallKey(pattern));
  if (it == tables_.end()) return Status::OK();
  const std::vector<TabledAnswer> answers = it->second.answers;  // copy
  for (const TabledAnswer& answer : answers) {
    std::optional<Substitution> extended =
        datalog::UnifyAtoms(pattern, answer.atom, current.subst);
    if (!extended.has_value()) continue;
    Match next;
    next.subst = std::move(*extended);
    next.proofs = current.proofs;
    next.proofs.push_back(answer.proof);
    MULTILOG_RETURN_IF_ERROR(SolveBody(body, index + 1, std::move(next), out));
  }
  return Status::OK();
}

Status Interpreter::ExpandClauses(const Atom& pattern, AnswerTable* table) {
  auto it = clauses_by_pred_.find(pattern.PredicateId());
  if (it == clauses_by_pred_.end()) return Status::OK();
  const ClauseIndex& index = it->second;

  // Select through the constant argument position that admits the
  // fewest clauses; with no constant argument every clause is a
  // candidate.
  static const std::vector<uint32_t> kNone;
  const std::vector<uint32_t>* fixed = nullptr;
  const std::vector<uint32_t>* open = nullptr;
  for (size_t pos = 0; pos < pattern.arity(); ++pos) {
    const Term& arg = pattern.args()[pos];
    if (!arg.IsConstant()) continue;
    auto hit = index.by_constant[pos].find(arg);
    const std::vector<uint32_t>* f =
        hit == index.by_constant[pos].end() ? &kNone : &hit->second;
    const std::vector<uint32_t>* o = &index.by_variable[pos];
    if (fixed == nullptr ||
        f->size() + o->size() < fixed->size() + open->size()) {
      fixed = f;
      open = o;
    }
  }

  // rename_counter_ advances once per clause of the predicate, selected
  // or not, so every renamed clause gets the suffix a scan of all of them
  // would give it.
  uint32_t uncounted = 0;  // first clause the counter has not covered
  auto expand = [&](uint32_t i) -> Status {
    rename_counter_ += static_cast<int64_t>(i - uncounted) + 1;
    uncounted = i + 1;
    const Clause* clause = index.clauses[i];
    // A constant pattern argument facing a different constant or a
    // compound term cannot unify: reject before renaming.
    for (size_t pos = 0; pos < pattern.arity(); ++pos) {
      const Term& p = pattern.args()[pos];
      const Term& h = clause->head().args()[pos];
      if (p.IsConstant() && !h.IsVariable() && p != h) return Status::OK();
    }
    Atom head = datalog::RenameAtom(clause->head(), rename_counter_);
    std::optional<Substitution> unified =
        datalog::UnifyAtoms(pattern, head, Substitution());
    if (!unified.has_value()) return Status::OK();

    std::vector<Literal> body;
    body.reserve(clause->body().size());
    for (const Literal& l : clause->body()) {
      body.push_back(datalog::RenameLiteral(l, rename_counter_));
    }

    std::vector<Match> matches;
    Match seed;
    seed.subst = std::move(*unified);
    MULTILOG_RETURN_IF_ERROR(SolveBody(body, 0, std::move(seed), &matches));
    for (Match& m : matches) {
      Atom answer = m.subst.Apply(head);
      std::vector<ProofPtr> premises = std::move(m.proofs);
      if (premises.empty()) {
        premises.push_back(MakeProof("empty", "[]"));
      }
      ProofPtr proof = MakeProof(RuleNameForHead(head),
                                 "<D, " + user_level_ + "> |- " +
                                     DecodeAtom(answer),
                                 std::move(premises));
      MULTILOG_RETURN_IF_ERROR(
          AddAnswer(table, std::move(answer), std::move(proof)));
    }
    return Status::OK();
  };

  if (fixed == nullptr) {
    for (uint32_t i = 0; i < index.clauses.size(); ++i) {
      MULTILOG_RETURN_IF_ERROR(expand(i));
    }
  } else {
    // Merge the two sorted lists, keeping program order.
    size_t a = 0;
    size_t b = 0;
    while (a < fixed->size() || b < open->size()) {
      const bool take_fixed = b == open->size() ||
                              (a < fixed->size() && (*fixed)[a] < (*open)[b]);
      const uint32_t i = take_fixed ? (*fixed)[a++] : (*open)[b++];
      MULTILOG_RETURN_IF_ERROR(expand(i));
    }
  }
  rename_counter_ += static_cast<int64_t>(index.clauses.size() - uncounted);
  return Status::OK();
}

Status Interpreter::ExpandDominate(const Atom& pattern, AnswerTable* table) {
  MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> lows,
                            LevelCandidates(pattern.args()[0]));
  MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> highs,
                            LevelCandidates(pattern.args()[1]));
  for (const std::string& lo : lows) {
    for (const std::string& hi : highs) {
      MULTILOG_ASSIGN_OR_RETURN(bool leq, cdb_->lattice.Leq(lo, hi));
      if (!leq) continue;
      Atom answer("dominate", {Term::Sym(lo), Term::Sym(hi)});
      if (!datalog::UnifyAtoms(pattern, answer, Substitution()).has_value()) {
        continue;
      }
      ProofPtr proof =
          MakeProof(lo == hi ? "reflexivity" : "transitivity",
                    "<D, " + user_level_ + "> |- " + lo + " <= " + hi);
      MULTILOG_RETURN_IF_ERROR(
          AddAnswer(table, std::move(answer), std::move(proof)));
    }
  }
  return Status::OK();
}

Status Interpreter::ExpandBelief(const Atom& pattern, AnswerTable* table) {
  const auto& args = pattern.args();
  const Term& level_term = args[5];
  const Term& mode_term = args[6];

  std::vector<std::string> modes;
  if (mode_term.IsSymbol()) {
    modes.push_back(mode_term.name());
  } else if (mode_term.IsVariable()) {
    modes = {"fir", "opt", "cau"};
  }
  MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> levels,
                            LevelCandidates(level_term));

  for (const std::string& mode : modes) {
    for (const std::string& level : levels) {
      const Term l = Term::Sym(level);

      auto emit = [&](const Atom& rel_answer, ProofPtr descend) -> Status {
        Atom answer("bel",
                    {rel_answer.args()[0], rel_answer.args()[1],
                     rel_answer.args()[2], rel_answer.args()[3],
                     rel_answer.args()[4], l, Term::Sym(mode)});
        if (!datalog::UnifyAtoms(pattern, answer, Substitution())
                 .has_value()) {
          return Status::OK();
        }
        ProofPtr proof = MakeProof(
            "belief", "<D, " + user_level_ + "> |- " + DecodeAtom(answer),
            {std::move(descend)});
        return AddAnswer(table, std::move(answer), std::move(proof));
      };

      if (mode == "fir") {
        // Trivially captured by DEDUCTION-G' at the b-atom's own level.
        Atom rel("rel", {args[0], args[1], args[2], args[3], args[4], l});
        MULTILOG_RETURN_IF_ERROR(SolveCallOnce(rel));
        auto it = tables_.find(MakeCallKey(rel));
        if (it == tables_.end()) continue;
        const std::vector<TabledAnswer> answers = it->second.answers;
        for (const TabledAnswer& ra : answers) {
          MULTILOG_RETURN_IF_ERROR(emit(ra.atom, ra.proof));
        }
      } else if (mode == "opt") {
        MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> below,
                                  cdb_->lattice.DownSet(level));
        for (const std::string& r : below) {
          Atom rel("rel", {args[0], args[1], args[2], args[3], args[4],
                           Term::Sym(r)});
          MULTILOG_RETURN_IF_ERROR(SolveCallOnce(rel));
          auto it = tables_.find(MakeCallKey(rel));
          if (it == tables_.end()) continue;
          const std::vector<TabledAnswer> answers = it->second.answers;
          for (const TabledAnswer& ra : answers) {
            ProofPtr leq = MakeProof(
                r == level ? "reflexivity" : "transitivity",
                "<D, " + user_level_ + "> |- " + r + " <= " + level);
            ProofPtr descend =
                MakeProof("descend-o",
                          "<D, " + user_level_ + "> |- " +
                              DecodeAtom(ra.atom) + " with " + r +
                              " <= " + level,
                          {std::move(leq), ra.proof});
            MULTILOG_RETURN_IF_ERROR(emit(ra.atom, std::move(descend)));
          }
        }
      } else if (mode == "cau") {
        // Complete the visible-cell tables for every level below, then
        // keep the classification-maximal cells (Definition 3.1).
        MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> below,
                                  cdb_->lattice.DownSet(level));
        ++rename_counter_;
        const Term v_any = Term::Var("_cauV" + std::to_string(rename_counter_));
        const Term c_any = Term::Var("_cauC" + std::to_string(rename_counter_));
        struct VisibleCell {
          Atom atom;
          ProofPtr proof;
          std::string from_level;
        };
        std::vector<VisibleCell> visible;
        for (const std::string& r : below) {
          Atom rel("rel",
                   {args[0], args[1], args[2], v_any, c_any, Term::Sym(r)});
          MULTILOG_RETURN_IF_ERROR(CompleteCall(rel));
          auto it = tables_.find(MakeCallKey(rel));
          if (it == tables_.end()) continue;
          for (const TabledAnswer& ra : it->second.answers) {
            visible.push_back(VisibleCell{ra.atom, ra.proof, r});
          }
        }
        for (const VisibleCell& cell : visible) {
          // Overridden when a sibling cell for the same (p, k, a) carries
          // a strictly dominating classification.
          bool overridden = false;
          for (const VisibleCell& other : visible) {
            if (other.atom.args()[0] != cell.atom.args()[0] ||
                other.atom.args()[1] != cell.atom.args()[1] ||
                other.atom.args()[2] != cell.atom.args()[2]) {
              continue;
            }
            const Term& c1 = cell.atom.args()[4];
            const Term& c2 = other.atom.args()[4];
            if (!c1.IsSymbol() || !c2.IsSymbol()) continue;
            MULTILOG_ASSIGN_OR_RETURN(bool lt,
                                      cdb_->lattice.Lt(c1.name(), c2.name()));
            if (lt) {
              overridden = true;
              break;
            }
          }
          if (overridden) continue;
          const bool own_level = cell.from_level == level;
          ProofPtr descend = MakeProof(
              own_level ? "descend-c1" : "descend-c2",
              "<D, " + user_level_ + "> |- " + DecodeAtom(cell.atom) +
                  " maximal among cells visible at " + level,
              {cell.proof});
          MULTILOG_RETURN_IF_ERROR(emit(cell.atom, std::move(descend)));
        }
      }
      // Unknown built-in mode names fall through to USER-BELIEF clause
      // resolution, performed by the caller.
    }
  }
  return Status::OK();
}

Status Interpreter::ExpandFilter(const Atom& pattern, AnswerTable* table) {
  const auto& args = pattern.args();
  MULTILOG_ASSIGN_OR_RETURN(std::vector<std::string> levels,
                            LevelCandidates(args[5]));
  for (const std::string& level : levels) {
    for (const std::string& upper : cdb_->lattice.names()) {
      MULTILOG_ASSIGN_OR_RETURN(bool above, cdb_->lattice.Lt(level, upper));
      if (!above) continue;
      ++rename_counter_;
      const Term v_any = Term::Var("_fV" + std::to_string(rename_counter_));
      const Term c_any = Term::Var("_fC" + std::to_string(rename_counter_));
      Atom rel("rel",
               {args[0], args[1], args[2], v_any, c_any, Term::Sym(upper)});
      MULTILOG_RETURN_IF_ERROR(SolveCallOnce(rel));
      auto it = tables_.find(MakeCallKey(rel));
      if (it == tables_.end()) continue;
      const std::vector<TabledAnswer> answers = it->second.answers;
      for (const TabledAnswer& ra : answers) {
        const Term& cell_class = ra.atom.args()[4];
        if (!cell_class.IsSymbol()) continue;
        MULTILOG_ASSIGN_OR_RETURN(bool cell_visible,
                                  cdb_->lattice.Leq(cell_class.name(), level));
        if (cell_visible && options_.enable_filter) {
          // FILTER: inherit the visible part of the higher tuple.
          Atom answer("rel", {ra.atom.args()[0], ra.atom.args()[1],
                              ra.atom.args()[2], ra.atom.args()[3],
                              ra.atom.args()[4], Term::Sym(level)});
          if (datalog::UnifyAtoms(pattern, answer, Substitution())
                  .has_value()) {
            ProofPtr proof = MakeProof(
                "filter",
                "<D, " + user_level_ + "> |- " + DecodeAtom(answer) +
                    " inherited from " + upper,
                {ra.proof});
            MULTILOG_RETURN_IF_ERROR(
                AddAnswer(table, std::move(answer), std::move(proof)));
          }
        } else if (!cell_visible && options_.enable_filter_null) {
          // FILTER-NULL: the hidden cell surfaces as a null classified
          // at the inheriting level.
          Atom answer("rel", {ra.atom.args()[0], ra.atom.args()[1],
                              ra.atom.args()[2], NullTerm(), Term::Sym(level),
                              Term::Sym(level)});
          if (datalog::UnifyAtoms(pattern, answer, Substitution())
                  .has_value()) {
            ProofPtr proof = MakeProof(
                "filter-null",
                "<D, " + user_level_ + "> |- " + DecodeAtom(answer) +
                    " masking a cell above " + level + " from " + upper,
                {ra.proof});
            MULTILOG_RETURN_IF_ERROR(
                AddAnswer(table, std::move(answer), std::move(proof)));
          }
        }
      }
    }
  }
  return Status::OK();
}

Status Interpreter::SolveCallOnce(const Atom& pattern) {
  static const datalog::PredicateId kRel6("rel/6");
  static const datalog::PredicateId kBel7("bel/7");
  static const datalog::PredicateId kDominate2("dominate/2");
  const CallKey key = MakeCallKey(pattern);
  if (active_.count(key)) return Status::OK();
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    return Status::DeadlineExceeded(
        "operational evaluation cancelled (deadline exceeded)");
  }
  active_.insert(key);
  ++stats_.calls;

  AnswerTable& table = tables_[key];
  Status st;
  const datalog::PredicateId id = pattern.PredicateId();
  if (id == kDominate2) {
    st = ExpandDominate(pattern, &table);
  } else if (id == kBel7) {
    st = ExpandBelief(pattern, &table);
    if (st.ok()) st = ExpandClauses(pattern, &table);  // USER-BELIEF
  } else if (id == kRel6) {
    st = ExpandClauses(pattern, &table);
    if (st.ok() && (options_.enable_filter || options_.enable_filter_null)) {
      st = ExpandFilter(pattern, &table);
    }
  } else {
    st = ExpandClauses(pattern, &table);
  }

  active_.erase(key);
  return st;
}

Status Interpreter::CompleteCall(const Atom& pattern) {
  size_t before;
  do {
    before = stats_.tabled_answers;
    MULTILOG_RETURN_IF_ERROR(SolveCallOnce(pattern));
  } while (stats_.tabled_answers != before);
  return Status::OK();
}

Result<std::vector<Interpreter::Answer>> Interpreter::Solve(
    const std::vector<MlLiteral>& goal, const CancelToken* cancel) {
  MULTILOG_ASSIGN_OR_RETURN(std::vector<Literal> literals,
                            TranslateGoalGeneric(goal, user_level_));
  return SolveLiterals(literals, cancel);
}

Result<std::vector<Interpreter::Answer>> Interpreter::SolveLiterals(
    const std::vector<Literal>& goal, const CancelToken* cancel) {
  cancel_ = cancel;
  // Clear the token on every exit path so a later Solve without a token
  // never observes a stale one.
  struct ClearCancel {
    const CancelToken** slot;
    ~ClearCancel() { *slot = nullptr; }
  } clear_cancel{&cancel_};

  std::vector<Symbol> goal_vars;
  for (const Literal& l : goal) l.CollectVariables(&goal_vars);
  std::sort(goal_vars.begin(), goal_vars.end());
  goal_vars.erase(std::unique(goal_vars.begin(), goal_vars.end()),
                  goal_vars.end());

  std::vector<Match> matches;
  for (size_t pass = 0; pass < options_.max_passes; ++pass) {
    if (cancel_ != nullptr && cancel_->Cancelled()) {
      return Status::DeadlineExceeded(
          "operational evaluation cancelled (deadline exceeded)");
    }
    ++stats_.passes;
    active_.clear();
    size_t before = stats_.tabled_answers;
    matches.clear();
    MULTILOG_RETURN_IF_ERROR(SolveBody(goal, 0, Match{}, &matches));
    if (stats_.tabled_answers == before) break;
    if (pass + 1 == options_.max_passes) {
      return Status::ResourceExhausted(
          "operational evaluation did not converge within max_passes");
    }
  }

  datalog::OrderedAnswers<Answer> answers;
  for (Match& m : matches) {
    Substitution restricted;
    for (Symbol v : goal_vars) {
      Term value = m.subst.Apply(Term::Var(v));
      if (!value.IsVariable()) restricted.Bind(v, value);
    }
    Answer* slot = answers.Insert(restricted.ToString());
    if (slot == nullptr) continue;
    ProofPtr proof;
    if (m.proofs.empty()) {
      proof = MakeProof("empty", "[]");
    } else if (m.proofs.size() == 1) {
      proof = m.proofs.front();
    } else {
      proof = MakeProof("and", "<D, " + user_level_ + "> |- (goal)",
                        std::move(m.proofs));
    }
    *slot = Answer{std::move(restricted), std::move(proof)};
  }
  return answers.Take();
}

}  // namespace multilog::ml
