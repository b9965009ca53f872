#include "multilog/engine.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "common/trace.h"
#include "multilog/parser.h"

namespace multilog::ml {

namespace {

using datalog::Atom;
using datalog::Model;
using datalog::Substitution;

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Removes bindings of don't-care variables (the parser's "_dc<n>"
/// placeholders for omitted classifications, Section 7), then
/// deduplicates and orders the remaining answers by their own text,
/// keeping proof alignment. Answers arrive restricted, unique and
/// ordered, so when none binds a don't-care variable there is nothing
/// to do.
void StripDontCare(std::vector<Substitution>* answers,
                   std::vector<ProofPtr>* proofs) {
  auto binds_dont_care = [](const Substitution& answer) {
    return std::any_of(
        answer.bindings().begin(), answer.bindings().end(),
        [](const auto& b) { return StartsWith(b.first.str(), "_dc"); });
  };
  if (std::none_of(answers->begin(), answers->end(), binds_dont_care)) return;
  struct Kept {
    Substitution answer;
    ProofPtr proof;
  };
  datalog::OrderedAnswers<Kept> kept;
  for (size_t i = 0; i < answers->size(); ++i) {
    const Substitution& answer = (*answers)[i];
    Substitution restricted;
    for (const auto& [var, term] : answer.bindings()) {
      if (StartsWith(var.str(), "_dc")) continue;
      restricted.Bind(var, answer.Apply(term));
    }
    Kept* slot = kept.Insert(restricted.ToString());
    if (slot == nullptr) continue;
    slot->answer = std::move(restricted);
    if (proofs != nullptr && i < proofs->size()) slot->proof = (*proofs)[i];
  }
  answers->clear();
  if (proofs != nullptr) proofs->clear();
  for (Kept& k : kept.Take()) {
    answers->push_back(std::move(k.answer));
    if (proofs != nullptr) proofs->push_back(std::move(k.proof));
  }
}

/// Parses `source` as exactly one bodyless m-fact - the only clause
/// shape the mutation API accepts (rules belong to Pi, which is code,
/// not data; the write path covers Sigma only).
Result<MAtom> ParseFactAtom(std::string_view source) {
  MULTILOG_ASSIGN_OR_RETURN(Database db, ParseMultiLog(source));
  if (db.sigma.size() != 1 || !db.lambda.empty() || !db.pi.empty() ||
      !db.queries.empty() || !db.sigma[0].IsFact()) {
    return Status::InvalidArgument(
        "a mutation must be exactly one m-fact 's[p(k : a -c-> v)].'; got: " +
        std::string(source));
  }
  return std::get<MAtom>(db.sigma[0].head);
}

/// The stored clause structurally equal to `fact`, or sigma.end().
std::vector<MlClause>::iterator FindStoredFact(std::vector<MlClause>* sigma,
                                               const MAtom& fact) {
  return std::find_if(sigma->begin(), sigma->end(),
                      [&fact](const MlClause& c) {
                        const auto* m = std::get_if<MAtom>(&c.head);
                        return c.IsFact() && m != nullptr && *m == fact;
                      });
}

}  // namespace

Result<std::string> RoutingKeyOfFact(std::string_view fact_source) {
  MULTILOG_ASSIGN_OR_RETURN(MAtom fact, ParseFactAtom(fact_source));
  if (!fact.key.IsGround()) {
    return Status::InvalidArgument(
        "a mutation's entity key must be ground; got: " +
        std::string(fact_source));
  }
  return fact.key.ToString();
}

Result<Engine> Engine::FromSource(std::string_view source,
                                  EngineOptions options) {
  MULTILOG_ASSIGN_OR_RETURN(Database db, ParseMultiLog(source));
  return FromDatabase(std::move(db), options);
}

Result<Engine> Engine::FromDatabase(Database db, EngineOptions options) {
  MULTILOG_ASSIGN_OR_RETURN(
      CheckedDatabase cdb,
      CheckDatabase(std::move(db), options.require_consistency));
  return Engine(std::move(cdb), options);
}

Result<Engine> Engine::FromStorage(storage::Storage* storage,
                                   EngineOptions options) {
  if (storage == nullptr) {
    return Status::InvalidArgument("FromStorage requires a non-null storage");
  }
  MULTILOG_ASSIGN_OR_RETURN(
      Database db, ParseMultiLog(storage->recovered().snapshot_source));
  // Replay the WAL tail over the snapshot. Each record was validated
  // (security + Definition 5.4) before it was ever written, so replay
  // applies it verbatim; it is also idempotent - a duplicate assert or
  // absent retract (possible only in the checkpoint crash window, and
  // normally filtered by seqnos) is skipped, not fatal.
  for (const storage::WalRecord& rec : storage->recovered().records) {
    MULTILOG_ASSIGN_OR_RETURN(MAtom fact, ParseFactAtom(rec.fact));
    auto it = FindStoredFact(&db.sigma, fact);
    if (rec.type == storage::WalRecordType::kAssert) {
      if (it == db.sigma.end()) {
        db.sigma.push_back(MlClause{std::move(fact), {}});
      }
    } else if (rec.type == storage::WalRecordType::kRetract) {
      if (it != db.sigma.end()) db.sigma.erase(it);
    }
  }
  MULTILOG_ASSIGN_OR_RETURN(Engine engine,
                            FromDatabase(std::move(db), options));
  engine.storage_ = storage;
  engine.caches_->applied_seqno.store(storage->next_seqno() - 1, kRelaxed);
  return engine;
}

Result<const ReducedProgram*> Engine::Reduced(const std::string& user_level) {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  return ReducedLocked(user_level);
}

Result<const ReducedProgram*> Engine::ReducedLocked(
    const std::string& user_level) {
  const Symbol level = Symbol::Intern(user_level);
  {
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    auto it = caches_->reduced.find(level);
    if (it != caches_->reduced.end()) {
      caches_->cache_hits.fetch_add(1, kRelaxed);
      return &it->second;
    }
  }
  caches_->cache_misses.fetch_add(1, kRelaxed);
  // Build outside the structure lock (Reduce only reads cdb_, which
  // db_mu protects), then publish; on a race the first insert wins and
  // both callers see it.
  trace::Span reduce_span(trace::Stage::kReduce);
  MULTILOG_ASSIGN_OR_RETURN(ReducedProgram rp,
                            Reduce(cdb_, user_level, options_.reduction));
  std::unique_lock<std::shared_mutex> lock(caches_->mu);
  auto [it, inserted] = caches_->reduced.try_emplace(level, std::move(rp));
  return &it->second;
}

Result<const datalog::Model*> Engine::ReducedModel(
    const std::string& user_level, const CancelToken* cancel) {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  MULTILOG_ASSIGN_OR_RETURN(CachedLevel cached,
                            ReducedModelLocked(user_level, cancel));
  return cached.model;
}

Result<Engine::CachedLevel> Engine::ReducedModelLocked(
    const std::string& user_level, const CancelToken* cancel) {
  const Symbol level = Symbol::Intern(user_level);
  {
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    auto it = caches_->models.find(level);
    if (it != caches_->models.end()) {
      // A model is only ever cached beside its program (every path
      // that drops a program drops the model with it).
      caches_->cache_hits.fetch_add(1, kRelaxed);
      return CachedLevel{&caches_->reduced.at(level), &it->second.model};
    }
  }
  caches_->cache_misses.fetch_add(1, kRelaxed);
  // The reduced program is immutable once published, so evaluation can
  // run outside the structure lock; racing evaluations of the same
  // level produce identical models (the parallel merge is
  // deterministic) and the first publication wins. A cancelled
  // evaluation returns before the publication point, so no partial
  // model is ever cached.
  MULTILOG_ASSIGN_OR_RETURN(const ReducedProgram* rp,
                            ReducedLocked(user_level));
  datalog::EvalOptions eval = options_.eval;
  eval.cancel = cancel;
  Caches::LevelModel built;
  {
    trace::Span eval_span(trace::Stage::kEvalModel);
    MULTILOG_ASSIGN_OR_RETURN(built.plan,
                              datalog::PrepareProgram(rp->program, eval));
    MULTILOG_ASSIGN_OR_RETURN(built.model,
                              datalog::EvaluatePrepared(built.plan, {}, eval));
  }
  std::unique_lock<std::shared_mutex> lock(caches_->mu);
  auto [it, inserted] = caches_->models.try_emplace(level, std::move(built));
  return CachedLevel{rp, &it->second.model};
}

Result<Engine::InterpreterSlot*> Engine::GetInterpreterSlot(
    const std::string& user_level) {
  const Symbol level = Symbol::Intern(user_level);
  InterpreterSlot* slot = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    auto it = caches_->interpreters.find(level);
    if (it != caches_->interpreters.end()) slot = &it->second;
  }
  if (slot == nullptr) {
    caches_->cache_misses.fetch_add(1, kRelaxed);
    std::unique_lock<std::shared_mutex> lock(caches_->mu);
    slot = &caches_->interpreters[level];  // try_emplace; node is stable
  } else {
    caches_->cache_hits.fetch_add(1, kRelaxed);
  }
  std::lock_guard<std::mutex> init(slot->mu);
  if (slot->interp == nullptr) {
    MULTILOG_ASSIGN_OR_RETURN(
        Interpreter interp,
        Interpreter::Create(&cdb_, user_level, options_.interpreter));
    slot->interp = std::make_unique<Interpreter>(std::move(interp));
  }
  return slot;
}

Result<Interpreter*> Engine::OperationalInterpreter(
    const std::string& user_level) {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  MULTILOG_ASSIGN_OR_RETURN(InterpreterSlot * slot,
                            GetInterpreterSlot(user_level));
  return slot->interp.get();
}

Result<QueryResult> Engine::Query(const std::vector<MlLiteral>& goal,
                                  const std::string& user_level,
                                  ExecMode mode, const CancelToken* cancel) {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  return QueryLocked(goal, user_level, mode, cancel);
}

Result<QueryResult> Engine::QueryLocked(const std::vector<MlLiteral>& goal,
                                        const std::string& user_level,
                                        ExecMode mode,
                                        const CancelToken* cancel) {
  MULTILOG_RETURN_IF_ERROR(cdb_.lattice.Index(user_level).status());
  // A pre-expired deadline fails fast, before any cached work is
  // consulted (the server's "deadline_ms: 0" probe relies on this).
  if (cancel != nullptr && cancel->Cancelled()) {
    return Status::DeadlineExceeded("query cancelled (deadline exceeded)");
  }

  QueryResult operational;
  if (mode == ExecMode::kOperational || mode == ExecMode::kCheckBoth) {
    trace::Span solve_span(trace::Stage::kOperationalSolve);
    MULTILOG_ASSIGN_OR_RETURN(InterpreterSlot * slot,
                              GetInterpreterSlot(user_level));
    // Solving mutates the interpreter's call tables, so hold the
    // level's mutex for the duration; distinct levels run in parallel.
    std::lock_guard<std::mutex> lock(slot->mu);
    MULTILOG_ASSIGN_OR_RETURN(std::vector<Interpreter::Answer> answers,
                              slot->interp->Solve(goal, cancel));
    for (Interpreter::Answer& a : answers) {
      operational.answers.push_back(std::move(a.subst));
      operational.proofs.push_back(std::move(a.proof));
    }
    StripDontCare(&operational.answers, &operational.proofs);
    if (mode == ExecMode::kOperational) return operational;
  }

  QueryResult reduced;
  {
    // Goal-directed fast path: a selective goal with no cached full
    // model runs through a compiled magic plan, deriving only the
    // goal-relevant fragment. Falls through to the full build-and-match
    // path whenever the plan layer declines.
    bool magic_served = false;
    if (options_.magic) {
      Result<std::vector<Substitution>> outcome =
          Status::Internal("magic outcome unset");
      if (TryMagicLocked(goal, user_level, cancel, &outcome)) {
        MULTILOG_RETURN_IF_ERROR(outcome.status());
        reduced.answers = std::move(outcome.value());
        magic_served = true;
      }
    }
    if (!magic_served) {
      // Match the goal against the cached fixpoint in the program's own
      // (possibly level-specialized) form: a level variable expands into
      // one goal list per level, whose answers merge under the
      // answer-order contract.
      MULTILOG_ASSIGN_OR_RETURN(CachedLevel cached,
                                ReducedModelLocked(user_level, cancel));
      trace::Span query_span(trace::Stage::kQueryModel);
      MULTILOG_ASSIGN_OR_RETURN(
          std::vector<std::vector<datalog::Literal>> goals,
          cached.program->TranslateGoal(goal));
      if (goals.size() == 1) {
        MULTILOG_ASSIGN_OR_RETURN(
            reduced.answers,
            datalog::QueryModel(*cached.model, goals.front(), cancel));
      } else {
        datalog::OrderedAnswers<Substitution> merged;
        for (const std::vector<datalog::Literal>& list : goals) {
          MULTILOG_ASSIGN_OR_RETURN(
              std::vector<Substitution> answers,
              datalog::QueryModel(*cached.model, list, cancel));
          for (Substitution& answer : answers) {
            Substitution* slot = merged.Insert(answer.ToString());
            if (slot != nullptr) *slot = std::move(answer);
          }
        }
        reduced.answers = merged.Take();
      }
    }
    StripDontCare(&reduced.answers, nullptr);
  }
  if (mode == ExecMode::kReduced) return reduced;

  // kCheckBoth: Theorem 6.1 as an executable assertion. Both lists keep
  // the answer-order contract (deduplicated, ordered by text), so they
  // agree exactly when their texts do, in order.
  trace::Span compare_span(trace::Stage::kCheckCompare);
  auto texts = [](const std::vector<Substitution>& answers) {
    std::vector<std::string> out;
    out.reserve(answers.size());
    for (const Substitution& s : answers) out.push_back(s.ToString());
    return out;
  };
  const std::vector<std::string> a = texts(operational.answers);
  const std::vector<std::string> b = texts(reduced.answers);
  if (a != b) {
    std::string msg =
        "operational and reduced semantics disagree (Theorem 6.1 "
        "violation)\noperational:\n";
    for (const std::string& s : a) msg += "  " + s + "\n";
    msg += "reduced:\n";
    for (const std::string& s : b) msg += "  " + s + "\n";
    return Status::Internal(msg);
  }
  return operational;
}

bool Engine::TryMagicLocked(
    const std::vector<MlLiteral>& goal, const std::string& user_level,
    const CancelToken* cancel,
    Result<std::vector<datalog::Substitution>>* outcome) {
  const Symbol level = Symbol::Intern(user_level);
  {
    // A cached full model answers any goal at hash-lookup speed; magic
    // only wins when the alternative is building that model.
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    if (caches_->models.count(level) > 0) return false;
  }

  // Plans compile from the generic (display) program, so they take the
  // generic goal.
  Result<std::vector<datalog::Literal>> generic =
      TranslateGoalGeneric(goal, user_level);
  if (!generic.ok()) {
    *outcome = generic.status();
    return true;
  }
  datalog::MagicGoalPattern pattern = datalog::ParameterizeGoal(*generic);
  if (!pattern.any_bound) {
    // All-free goals enumerate the whole relation anyway; specializing
    // them buys nothing, so they always take the full path.
    caches_->magic_fallbacks.fetch_add(1, kRelaxed);
    return false;
  }
  const auto key =
      std::make_pair(level, Symbol::Intern(pattern.signature));

  std::shared_ptr<const datalog::MagicPlan> plan;
  uint64_t epoch = 0;
  bool known_rejection = false;
  {
    trace::Span lookup_span(trace::Stage::kPlanLookup);
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    auto epoch_it = caches_->plan_epochs.find(level);
    epoch = epoch_it == caches_->plan_epochs.end() ? 0 : epoch_it->second;
    auto it = caches_->plans.find(key);
    if (it != caches_->plans.end()) {
      if (it->second.plan == nullptr) {
        // A remembered rejection is structural - negation/aggregate
        // reachability depends on the rules alone, and mutations write
        // facts only - so it stays valid across epochs.
        known_rejection = true;
      } else if (it->second.epoch == epoch) {
        caches_->plan_hits.fetch_add(1, kRelaxed);
        plan = it->second.plan;
      }
    }
  }
  if (known_rejection) {
    caches_->magic_fallbacks.fetch_add(1, kRelaxed);
    return false;
  }

  if (plan == nullptr) {
    caches_->plan_misses.fetch_add(1, kRelaxed);
    Result<const ReducedProgram*> rp = ReducedLocked(user_level);
    if (!rp.ok()) {
      // The full path would fail identically building the same program.
      *outcome = rp.status();
      return true;
    }
    // Plans compile from the generic (display) program: the generic
    // goal's predicates match it directly, and the specialization
    // rewrite it skips is semantics-preserving, so the reachable
    // fragment's fixpoint restricted to the goal gives the full path's
    // answers.
    Result<datalog::MagicPlan> compiled =
        [&]() -> Result<datalog::MagicPlan> {
      trace::Span rewrite_span(trace::Stage::kMagicRewrite);
      return datalog::CompileMagicPlan((*rp)->display, pattern,
                                       options_.eval);
    }();
    std::shared_ptr<const datalog::MagicPlan> publish;
    if (compiled.ok()) {
      publish = std::make_shared<const datalog::MagicPlan>(
          std::move(compiled.value()));
    } else if (!compiled.status().IsInvalidProgram()) {
      // Only InvalidProgram means "this fragment cannot be
      // goal-directed"; anything else is a genuine failure.
      *outcome = compiled.status();
      return true;
    }
    {
      // First publication wins, like the model caches; identical inputs
      // compile to identical plans, so the loser's work is just wasted,
      // not wrong. A mutation cannot have intervened (readers hold
      // db_mu shared), but the epoch guard keeps a stale publication
      // impossible even if that invariant ever weakens.
      std::unique_lock<std::shared_mutex> lock(caches_->mu);
      auto [it, inserted] =
          caches_->plans.try_emplace(key, Caches::PlanEntry{epoch, publish});
      if (!inserted && it->second.epoch == epoch) publish = it->second.plan;
    }
    if (publish == nullptr) {
      caches_->magic_fallbacks.fetch_add(1, kRelaxed);
      return false;
    }
    plan = std::move(publish);
  }

  datalog::EvalOptions eval = options_.eval;
  eval.cancel = cancel;
  Result<std::vector<datalog::Substitution>> answers =
      [&]() -> Result<std::vector<datalog::Substitution>> {
    trace::Span eval_span(trace::Stage::kEvalModel);
    return datalog::ExecuteMagicPlan(*plan, pattern.params, eval);
  }();
  if (!answers.ok()) {
    if (answers.status().IsResourceExhausted() ||
        answers.status().IsDeadlineExceeded()) {
      // Budget/deadline failures must surface, not silently retry a
      // strictly more expensive full evaluation.
      *outcome = answers.status();
      return true;
    }
    // Execution-time InvalidProgram (e.g. a non-ground negation in the
    // goal): let the full path run and report whatever it reports.
    caches_->magic_fallbacks.fetch_add(1, kRelaxed);
    return false;
  }
  *outcome = std::move(answers);
  return true;
}

Result<QueryResult> Engine::QuerySource(std::string_view goal_text,
                                        const std::string& user_level,
                                        ExecMode mode,
                                        const CancelToken* cancel) {
  MULTILOG_ASSIGN_OR_RETURN(std::vector<MlLiteral> goal,
                            ParseMlGoal(goal_text));
  return Query(goal, user_level, mode, cancel);
}

Result<std::vector<QueryResult>> Engine::RunStoredQueries(
    const std::string& user_level, ExecMode mode,
    const CancelToken* cancel) {
  std::vector<QueryResult> out;
  for (const std::vector<MlLiteral>& goal : cdb_.db.queries) {
    MULTILOG_ASSIGN_OR_RETURN(QueryResult r,
                              Query(goal, user_level, mode, cancel));
    out.push_back(std::move(r));
  }
  return out;
}

Result<WriteResult> Engine::Assert(std::string_view fact_source,
                                   const std::string& level) {
  return Mutate(fact_source, level, /*retract=*/false);
}

Result<WriteResult> Engine::Retract(std::string_view fact_source,
                                    const std::string& level) {
  return Mutate(fact_source, level, /*retract=*/true);
}

Result<WriteResult> Engine::Mutate(std::string_view fact_source,
                                   const std::string& level, bool retract) {
  auto rejected = [this](Status s) -> Status {
    caches_->writes_rejected.fetch_add(1, kRelaxed);
    return s;
  };

  // Parse outside the database lock: a malformed request should not
  // stall queries.
  Result<MAtom> parsed = ParseFactAtom(fact_source);
  if (!parsed.ok()) return rejected(parsed.status());
  MAtom fact = std::move(parsed.value());

  std::unique_lock<std::shared_mutex> db_lock(caches_->db_mu);

  // --- Validate: security pinning, then integrity. Nothing below this
  // block may fail after the WAL append (write-ahead discipline), so
  // every rejection happens here, before any state - durable or
  // in-memory - changes. The duplicate/existence and Definition 5.4
  // checks go through sigma_index_, so their cost is O(key group), not
  // O(|Sigma|).
  Status valid = [&]() -> Status {
    trace::Span validate_span(trace::Stage::kValidate);
    if (!cdb_.lattice.Contains(level)) {
      return Status::InvalidArgument(
          "unknown writing level '" + level + "' (not asserted by Lambda)");
    }
    if (!fact.level.IsSymbol() || fact.level.name() != level) {
      return Status::SecurityViolation(
          "a subject cleared at '" + level + "' may only write " + level +
          "-facts (no write-up, no write-down); got " + fact.ToString());
    }
    for (const MCell& c : fact.cells) {
      if (!c.classification.IsSymbol()) {
        return Status::SecurityViolation(
            "classification of attribute '" + c.attribute +
            "' must be a ground level, got " + c.classification.ToString());
      }
      const std::string& cl = c.classification.name();
      if (!cdb_.lattice.Contains(cl)) {
        return Status::SecurityViolation("classification '" + cl +
                                         "' is not a level of Lambda");
      }
      Result<bool> leq = cdb_.lattice.Leq(cl, level);
      if (!leq.ok()) return leq.status();
      if (!leq.value()) {
        return Status::SecurityViolation(
            "classification '" + cl + "' of attribute '" + c.attribute +
            "' is not dominated by the writing level '" + level + "'");
      }
    }

    const size_t stored_count = sigma_index_.FactCount(fact);
    if (retract) {
      if (stored_count == 0) {
        return Status::NotFound("no such stored fact to retract: " +
                                fact.ToString() +
                                " (derived facts cannot be retracted)");
      }
      return Status::OK();
    }
    if (stored_count > 0) {
      return Status::InvalidArgument("fact already asserted: " +
                                     fact.ToString());
    }
    return CheckFactIntegrity(sigma_index_, cdb_.lattice, fact);
  }();
  if (!valid.ok()) return rejected(std::move(valid));

  // --- Log (durable engines): fsynced before memory changes. An I/O
  // failure here is not a rejection - the write is simply not committed,
  // and neither Sigma nor any cache has changed.
  WriteResult result;
  const std::string canonical = MlClause{fact, {}}.ToString();
  // Group commit: append unsynced here (under the database lock, so
  // tickets order with seqnos), apply in memory, then release the lock
  // and join a shared fdatasync before acknowledging. sync_ticket != 0
  // marks the deferred-durability path.
  uint64_t sync_ticket = 0;
  if (storage_ != nullptr) {
    const bool group = options_.group_commit;
    Result<uint64_t> seq =
        retract ? storage_->AppendRetract(level, canonical, /*sync=*/!group)
                : storage_->AppendAssert(level, canonical, /*sync=*/!group);
    if (!seq.ok()) return seq.status();
    result.seqno = seq.value();
    if (group) sync_ticket = storage_->last_append_ticket();
  } else {
    result.seqno = ++mem_seqno_;
  }

  // --- Apply + propagate, keeping sigma_index_ in lockstep with
  // sigma. The retract-side FindStoredFact only locates the erase
  // position: the index already proved the fact is stored. The erase
  // position is captured *before* the erase - the incremental path
  // splices exactly that entry's clauses out of maintained programs.
  const MlClause fact_clause{fact, {}};
  size_t sigma_index = 0;
  if (retract) {
    auto it = FindStoredFact(&cdb_.db.sigma, fact);
    sigma_index = static_cast<size_t>(it - cdb_.db.sigma.begin());
    cdb_.db.sigma.erase(it);
    sigma_index_.Remove(fact);
    caches_->retracts_ok.fetch_add(1, kRelaxed);
  } else {
    sigma_index_.Add(fact);
    cdb_.db.sigma.push_back(MlClause{std::move(fact), {}});
    caches_->asserts_ok.fetch_add(1, kRelaxed);
  }
  if (options_.incremental) {
    PropagateDelta(level, fact_clause, retract, sigma_index, &result);
  } else {
    result.invalidated_levels = InvalidateDominating(level);
  }
  // Compiled magic plans hold copies of the clauses they reached, so
  // the splice path cannot maintain them in place; every dominating
  // level's plans are dropped and its epoch bumped instead (plans for
  // non-dominating levels stay valid: the written fact is invisible
  // under their dominance guards).
  PrunePlans(level);
  caches_->applied_seqno.store(result.seqno, kRelaxed);
  if (sync_ticket != 0) {
    // Durability outside the database lock: queries proceed while this
    // writer (and every concurrent one) rides a single fdatasync. An
    // fsync failure is reported to this committer even though the
    // in-memory apply stands - the client was never acked, and a crash
    // may lose the record; a client that got an error must not assume
    // the write exists.
    db_lock.unlock();
    trace::Span sync_span(trace::Stage::kWalAppend);
    MULTILOG_RETURN_IF_ERROR(storage_->SyncTo(sync_ticket));
  }
  return result;
}

Result<WriteResult> Engine::ApplyReplicated(const storage::WalRecord& record) {
  trace::Span span(trace::Stage::kReplicaApply);
  const bool retract = record.type == storage::WalRecordType::kRetract;
  if (!retract && record.type != storage::WalRecordType::kAssert) {
    return Status::InvalidArgument("replicated record is not a mutation");
  }
  // Parse outside the lock, like Mutate. The record was produced by the
  // primary's canonical dump of a validated fact, so a parse failure is
  // stream corruption or divergence, never bad user input.
  Result<MAtom> parsed = ParseFactAtom(record.fact);
  if (!parsed.ok()) {
    return Status::Internal("replicated record seqno " +
                            std::to_string(record.seqno) +
                            " does not parse as an m-fact: " +
                            parsed.status().ToString());
  }
  MAtom fact = std::move(parsed.value());

  std::unique_lock<std::shared_mutex> db_lock(caches_->db_mu);

  WriteResult result;
  result.seqno = record.seqno;
  const uint64_t applied = caches_->applied_seqno.load(kRelaxed);
  if (record.seqno <= applied) {
    // Already applied (reconnect overlap / snapshot boundary replay).
    return result;
  }
  if (record.seqno != applied + 1) {
    // Every stream path delivers contiguous seqnos (mutation seqnos are
    // dense and the shipper never skips), so a gap means lost frames.
    // Refuse rather than apply: a silent skip is divergence; the
    // replicator answers an apply failure with a snapshot resync.
    return Status::Internal(
        "replicated record seqno " + std::to_string(record.seqno) +
        " skips ahead of applied seqno " + std::to_string(applied) +
        "; the stream lost records - resync from a snapshot");
  }

  // Paranoia check: the primary validated this write before logging it,
  // so a violation here means the replica's Sigma has diverged (or the
  // stream is corrupt). Surfaced as Internal so the replicator resyncs
  // from a snapshot instead of quietly serving wrong answers. Clearance
  // re-binding is deliberately skipped - record.level IS the clearance
  // the primary already pinned - but the level must still exist here.
  Status valid = [&]() -> Status {
    trace::Span validate_span(trace::Stage::kValidate);
    if (!cdb_.lattice.Contains(record.level)) {
      return Status::Internal("replicated level '" + record.level +
                              "' is not a level of this replica's lattice");
    }
    if (retract || sigma_index_.FactCount(fact) > 0) return Status::OK();
    Status s = CheckFactIntegrity(sigma_index_, cdb_.lattice, fact);
    if (!s.ok()) {
      return Status::Internal(
          "replica paranoia check failed at seqno " +
          std::to_string(record.seqno) + ": " + s.ToString());
    }
    return s;
  }();
  if (!valid.ok()) return valid;

  // Persist first (write-ahead), keeping the primary's seqno. The
  // record goes to the local WAL even when applying it is a no-op
  // (duplicate assert / absent retract): the disk must agree with the
  // primary on what the next expected seqno is, or a restarted replica
  // would re-request a range the primary may have checkpointed away.
  if (storage_ != nullptr) {
    MULTILOG_RETURN_IF_ERROR(storage_->AppendReplicated(record));
  }

  // Apply + propagate, exactly as Mutate does - so PR 6 incremental
  // maintenance and PR 7 plan invalidation compose unchanged.
  const auto it = FindStoredFact(&cdb_.db.sigma, fact);
  const bool applies = retract ? it != cdb_.db.sigma.end()
                               : it == cdb_.db.sigma.end();
  if (applies) {
    const MlClause fact_clause{fact, {}};
    size_t sigma_index = 0;
    if (retract) {
      sigma_index = static_cast<size_t>(it - cdb_.db.sigma.begin());
      cdb_.db.sigma.erase(it);
      sigma_index_.Remove(fact);
      caches_->retracts_ok.fetch_add(1, kRelaxed);
    } else {
      sigma_index_.Add(fact);
      cdb_.db.sigma.push_back(MlClause{std::move(fact), {}});
      caches_->asserts_ok.fetch_add(1, kRelaxed);
    }
    if (options_.incremental) {
      PropagateDelta(record.level, fact_clause, retract, sigma_index,
                     &result);
    } else {
      result.invalidated_levels = InvalidateDominating(record.level);
    }
    PrunePlans(record.level);
  }
  caches_->applied_seqno.store(record.seqno, kRelaxed);
  return result;
}

Status Engine::InstallSnapshot(uint64_t seqno, const std::string& source) {
  MULTILOG_ASSIGN_OR_RETURN(Database db, ParseMultiLog(source));
  MULTILOG_ASSIGN_OR_RETURN(
      CheckedDatabase fresh,
      CheckDatabase(std::move(db), options_.require_consistency));
  // The server hands out lattice() references without the database
  // lock (sessions bind their clearance against it), so the lattice
  // object must never be replaced - only verified equivalent. A
  // primary that changed its Lambda mid-stream is not a replication
  // event, it is a different database.
  if (fresh.lattice.TopologicalOrder() != cdb_.lattice.TopologicalOrder()) {
    return Status::Internal(
        "replicated snapshot carries a different security lattice; "
        "a replica cannot follow a primary whose Lambda changed");
  }

  std::unique_lock<std::shared_mutex> db_lock(caches_->db_mu);
  if (storage_ != nullptr) {
    MULTILOG_RETURN_IF_ERROR(storage_->InstallSnapshot(seqno, source));
  }
  cdb_.db = std::move(fresh.db);
  sigma_index_ = SigmaIndex::Build(cdb_.db);

  // Wholesale replacement: every cache is stale, whatever its level.
  uint64_t dropped = 0;
  std::vector<std::string> warm;
  {
    std::unique_lock<std::shared_mutex> lock(caches_->mu);
    for (const auto& [sym, unused] : caches_->models) {
      warm.emplace_back(sym.str());
    }
    dropped += caches_->reduced.size() + caches_->models.size() +
               caches_->interpreters.size();
    caches_->reduced.clear();
    caches_->models.clear();
    caches_->interpreters.clear();
    caches_->plans.clear();
    for (auto& [sym, epoch] : caches_->plan_epochs) ++epoch;
  }
  caches_->invalidation_events.fetch_add(1, kRelaxed);
  caches_->cache_entries_invalidated.fetch_add(dropped, kRelaxed);
  caches_->applied_seqno.store(seqno, kRelaxed);

  // Rebuild the levels that had a model before readers resume: left to
  // the readers, every one that reaches such a level before the first
  // rebuild is published evaluates the same model (only one is kept),
  // a varying number of full evaluations and transient heaps per
  // install. A level whose rebuild fails stays cold, and its next query
  // reports the error.
  for (const std::string& level : warm) {
    (void)ReducedModelLocked(level, nullptr);
  }
  return Status::OK();
}

uint64_t Engine::AppliedSeqno() const {
  return caches_->applied_seqno.load(kRelaxed);
}

void Engine::PrunePlans(const std::string& written_level) {
  std::unique_lock<std::shared_mutex> lock(caches_->mu);
  for (auto it = caches_->plans.begin(); it != caches_->plans.end();) {
    // Remembered rejections (nullptr plans) survive writes: whether the
    // reachable fragment has negation/aggregates is a property of the
    // rules, and mutations only touch Sigma facts. Compiled plans bake
    // in EDB facts, so those must go.
    if (it->second.plan == nullptr) {
      ++it;
      continue;
    }
    Result<bool> leq =
        cdb_.lattice.Leq(written_level, std::string(it->first.first.str()));
    if (leq.ok() && leq.value()) {
      it = caches_->plans.erase(it);
    } else {
      ++it;
    }
  }
  for (const std::string& name : cdb_.lattice.names()) {
    Result<bool> leq = cdb_.lattice.Leq(written_level, name);
    if (leq.ok() && leq.value()) {
      ++caches_->plan_epochs[Symbol::Intern(name)];
    }
  }
}

void Engine::PropagateDelta(const std::string& written_level,
                            const MlClause& fact, bool retract,
                            size_t sigma_index, WriteResult* result) {
  // db_mu is held exclusively, so no reader races the in-place updates;
  // `mu` still guards the maps' structure against nothing here but is
  // taken for symmetry with the read paths.
  uint64_t dropped = 0;
  std::unique_lock<std::shared_mutex> lock(caches_->mu);
  std::set<std::string> cached;
  // Every cached model sits beside its reduced program, so the program
  // and interpreter maps name every cached level.
  for (const auto& [sym, unused] : caches_->reduced) {
    cached.insert(std::string(sym.str()));
  }
  for (const auto& [sym, unused] : caches_->interpreters) {
    cached.insert(std::string(sym.str()));
  }
  for (const std::string& name : cached) {
    Result<bool> leq = cdb_.lattice.Leq(written_level, name);
    const bool dominating = leq.ok() && leq.value();
    const Symbol sym = Symbol::Intern(name);

    // EVERY cached reduced program absorbs the Sigma splice, dominance
    // aside: tau translates the whole store into each level's program
    // (visibility is enforced by the dominance guards, not by
    // omission), so the sigma-span bookkeeping must track every write
    // or a later splice would cut the wrong clause range. For
    // non-dominating levels the spliced facts are inert - no guard at
    // that session level admits them - so their models, which cannot
    // have changed, are left untouched, and so is the EDB support in
    // their plans: a fact's level is fixed, so its retract skips exactly
    // the levels its assert skipped.
    auto rp_it = caches_->reduced.find(sym);
    if (rp_it != caches_->reduced.end()) {
      ReducedProgram& rp = rp_it->second;
      Result<SigmaFactDelta> spliced = [&]() -> Result<SigmaFactDelta> {
        trace::Span span(trace::Stage::kDeltaReduce);
        MULTILOG_ASSIGN_OR_RETURN(SigmaFactDelta d,
                                  TranslateSigmaFact(fact, rp));
        if (retract) {
          EraseSigmaFact(&rp, sigma_index);
        } else {
          AppendSigmaFact(&rp, d);
        }
        return d;
      }();
      if (!spliced.ok()) {
        // The maintained program is stale; drop the whole level and
        // let the next query rebuild it from Sigma.
        dropped += caches_->reduced.erase(sym);
        dropped += caches_->models.erase(sym);
        dropped += caches_->interpreters.erase(sym);
        caches_->fallback_recomputes.fetch_add(1, kRelaxed);
        result->invalidated_levels.push_back(name);
        continue;
      }
      if (!dominating) continue;

      // Tabled interpreter state cannot absorb a retraction (and an
      // assert invalidates its negative answers); rebuild lazily.
      dropped += caches_->interpreters.erase(sym);

      // A level with no live model yet keeps only its maintained
      // program; its first query evaluates that program from scratch.
      auto model_it = caches_->models.find(sym);
      if (model_it != caches_->models.end()) {
        const std::vector<Atom> no_atoms;
        const std::vector<Atom>& adds = retract ? no_atoms : spliced->edb;
        const std::vector<Atom>& removes = retract ? spliced->edb : no_atoms;
        Status applied = [&]() -> Status {
          trace::Span span(trace::Stage::kDeltaEval);
          return datalog::ApplyDelta(&model_it->second.plan, adds, removes,
                                     &model_it->second.model, options_.eval)
              .status();
        }();
        if (!applied.ok()) {
          // Model and plan may be mid-surgery - discard both; the
          // maintained program stays (it is exact either way).
          dropped += caches_->models.erase(sym);
          caches_->fallback_recomputes.fetch_add(1, kRelaxed);
          result->invalidated_levels.push_back(name);
          continue;
        }
        caches_->deltas_applied.fetch_add(1, kRelaxed);
      }
      result->maintained_levels.push_back(name);
      continue;
    }

    if (!dominating) continue;
    // No reduced program, so no model either (a model is only cached
    // beside its program): just the interpreter, dropped as always.
    if (caches_->interpreters.erase(sym) > 0) {
      ++dropped;
      result->invalidated_levels.push_back(name);
    }
  }
  caches_->invalidation_events.fetch_add(1, kRelaxed);
  caches_->cache_entries_invalidated.fetch_add(dropped, kRelaxed);
}

std::vector<std::string> Engine::InvalidateDominating(
    const std::string& written_level) {
  // Soundness: level l's reduced program/model/interpreter are computed
  // from the facts visible at l, i.e. those at levels <= l. A write at
  // level s changes l's view iff s <= l; incomparable and strictly
  // lower cached levels therefore keep their entries verbatim.
  std::vector<std::string> invalidated;
  uint64_t dropped = 0;
  std::unique_lock<std::shared_mutex> lock(caches_->mu);
  std::set<std::string> cached;
  // Every cached model sits beside its reduced program, so the program
  // and interpreter maps name every cached level.
  for (const auto& [sym, unused] : caches_->reduced) {
    cached.insert(std::string(sym.str()));
  }
  for (const auto& [sym, unused] : caches_->interpreters) {
    cached.insert(std::string(sym.str()));
  }
  for (const std::string& name : cached) {
    Result<bool> leq = cdb_.lattice.Leq(written_level, name);
    if (!leq.ok() || !leq.value()) continue;
    const Symbol sym = Symbol::Intern(name);
    dropped += caches_->reduced.erase(sym);
    dropped += caches_->models.erase(sym);
    dropped += caches_->interpreters.erase(sym);
    invalidated.push_back(name);
  }
  caches_->invalidation_events.fetch_add(1, kRelaxed);
  caches_->cache_entries_invalidated.fetch_add(dropped, kRelaxed);
  return invalidated;
}

Status Engine::Checkpoint() {
  std::unique_lock<std::shared_mutex> db_lock(caches_->db_mu);
  if (storage_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint requires a durable engine (construct via FromStorage)");
  }
  MULTILOG_RETURN_IF_ERROR(storage_->Checkpoint(cdb_.db.ToString()));
  caches_->checkpoints.fetch_add(1, kRelaxed);
  return Status::OK();
}

std::string Engine::DumpSource(uint64_t* at_seqno) {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  if (at_seqno != nullptr) {
    *at_seqno = caches_->applied_seqno.load(kRelaxed);
  }
  return cdb_.db.ToString();
}

StorageCounters Engine::StorageStats() const {
  std::shared_lock<std::shared_mutex> db_lock(caches_->db_mu);
  StorageCounters c;
  c.applied_seqno = caches_->applied_seqno.load(kRelaxed);
  if (storage_ == nullptr) return c;
  c.attached = true;
  c.dir = storage_->dir();
  c.next_seqno = storage_->next_seqno();
  c.snapshot_seqno = storage_->snapshot_seqno();
  c.wal_records = storage_->wal_records();
  c.wal_bytes = storage_->wal_bytes();
  c.checkpoints = storage_->checkpoints();
  c.group_syncs = storage_->group_syncs();
  if (!storage_->recovered().data_loss.ok()) {
    c.recovery_data_loss = storage_->recovered().data_loss.ToString();
  }
  return c;
}

EngineCounters Engine::Counters() const {
  EngineCounters c;
  c.cache_hits = caches_->cache_hits.load(kRelaxed);
  c.cache_misses = caches_->cache_misses.load(kRelaxed);
  c.invalidation_events = caches_->invalidation_events.load(kRelaxed);
  c.cache_entries_invalidated =
      caches_->cache_entries_invalidated.load(kRelaxed);
  c.asserts_ok = caches_->asserts_ok.load(kRelaxed);
  c.retracts_ok = caches_->retracts_ok.load(kRelaxed);
  c.writes_rejected = caches_->writes_rejected.load(kRelaxed);
  c.checkpoints = caches_->checkpoints.load(kRelaxed);
  c.deltas_applied = caches_->deltas_applied.load(kRelaxed);
  c.fallback_recomputes = caches_->fallback_recomputes.load(kRelaxed);
  c.plan_hits = caches_->plan_hits.load(kRelaxed);
  c.plan_misses = caches_->plan_misses.load(kRelaxed);
  c.magic_fallbacks = caches_->magic_fallbacks.load(kRelaxed);
  {
    std::shared_lock<std::shared_mutex> lock(caches_->mu);
    c.live_models = caches_->models.size();
  }
  return c;
}

}  // namespace multilog::ml
