#ifndef MULTILOG_MULTILOG_ENGINE_H_
#define MULTILOG_MULTILOG_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/symbol.h"
#include "datalog/eval.h"
#include "datalog/magic.h"
#include "multilog/database.h"
#include "multilog/interpreter.h"
#include "multilog/reduction.h"
#include "storage/storage.h"

namespace multilog::ml {

/// How to execute a query.
enum class ExecMode {
  /// The goal-directed proof system of Section 5 (yields proof trees).
  kOperational,
  /// The CORAL-style reduction of Section 6 (bottom-up over tau(Delta)+A).
  kReduced,
  /// Run both and verify they agree - Theorem 6.1 as an executable
  /// assertion; disagreement returns an Internal error.
  kCheckBoth,
};

/// The routing key of one mutation, without an engine: parses
/// `fact_source` exactly as Assert/Retract would (one bodyless ground
/// m-fact) and returns the entity key's canonical rendering
/// (Term::ToString). The sharding router hashes this text to pick the
/// owning shard - the *text* rather than a symbol id, because symbol
/// ids are process-local while the rendered key is stable across every
/// process that ever sees the fact. Fails with InvalidArgument exactly
/// when the engines would refuse the mutation shape.
Result<std::string> RoutingKeyOfFact(std::string_view fact_source);

struct EngineOptions {
  Interpreter::Options interpreter;
  ReductionOptions reduction;
  /// Evaluation knobs for the bottom-up (reduced) semantics, including
  /// EvalOptions::num_threads for intra-query parallelism. The parallel
  /// merge is deterministic, so answers are identical for every thread
  /// count.
  datalog::EvalOptions eval;
  /// Enforce Definition 5.4 on load (see CheckDatabase).
  bool require_consistency = false;
  /// Maintain cached reduced programs and served models *in place*
  /// across Assert/Retract - the translated fact is spliced into each
  /// dominating level's reduced program and the EDB delta is propagated
  /// into its live fixpoint (DRed) and decoded view - instead of
  /// invalidating and recomputing them on the next query. Answers are
  /// byte-identical either way (property-tested); a level falls back to
  /// invalidation when its change cannot be applied incrementally.
  /// Disable for ablation or as a safety valve (`multilogd
  /// --no-incremental`).
  bool incremental = true;
  /// Goal-directed query compilation: when a reduced-mode query binds
  /// at least one argument and no full model is cached for its level,
  /// the engine compiles (and caches) a magic-sets rewrite specialized
  /// to the goal's binding pattern and evaluates only the goal-relevant
  /// fragment, instead of building the whole tau(Delta)+A fixpoint.
  /// Answers are byte-identical either way (property-tested); goals the
  /// rewrite cannot serve (all-free binding patterns, reachable
  /// negation/aggregates) fall back to the full path, counted by
  /// EngineCounters::magic_fallbacks. Disable for ablation or as a
  /// safety valve (`multilogd --no-magic`).
  bool magic = true;
  /// Group commit on the durable path: a mutation appends its WAL
  /// record unsynced under the database lock, then releases the lock
  /// and joins a shared fdatasync (Storage::SyncTo) before
  /// acknowledging - so N concurrent writers pay ~1 fsync, not N. The
  /// acknowledgement contract is unchanged (no reply until the record
  /// is durable); what changes is that the in-memory database applies
  /// the write *before* it is durable, so a concurrent reader can
  /// observe a write whose committer has not yet been acked - and a
  /// crash in that window loses a write nobody was told succeeded.
  /// Disable for ablation or strict log-before-apply ordering
  /// (`multilogd --no-group-commit`).
  bool group_commit = true;
};

/// One query's outcome. `answers[i]` pairs with `proofs[i]` when proofs
/// were produced (operational / check-both modes); otherwise `proofs` is
/// empty.
struct QueryResult {
  std::vector<datalog::Substitution> answers;
  std::vector<ProofPtr> proofs;
};

/// One committed mutation's outcome.
struct WriteResult {
  /// The mutation's database-wide sequence number (durable when storage
  /// is attached; an in-memory counter otherwise).
  uint64_t seqno = 0;
  /// The session levels whose cached reduced programs / models /
  /// interpreters this write invalidated (dropped): with incremental
  /// maintenance off, exactly the cached levels that dominate the
  /// written level; with it on, only the dominating levels that could
  /// not be maintained in place. Incomparable and strictly lower levels
  /// keep their caches - a fact at level s is invisible to them, so
  /// their models cannot have changed.
  std::vector<std::string> invalidated_levels;
  /// The cached dominating levels whose reduced program (and live
  /// model, when one was built) this write maintained *in place*
  /// through the delta path. Disjoint from invalidated_levels; always
  /// empty when EngineOptions::incremental is off.
  std::vector<std::string> maintained_levels;
};

/// A point-in-time copy of the engine's observability counters (the
/// live counters are relaxed atomics; this is the readable snapshot the
/// server's STATS command serializes).
struct EngineCounters {
  uint64_t cache_hits = 0;     // per-level cache lookups that hit
  uint64_t cache_misses = 0;   // lookups that had to build
  uint64_t invalidation_events = 0;    // committed writes
  uint64_t cache_entries_invalidated = 0;  // entries dropped by them
  uint64_t asserts_ok = 0;
  uint64_t retracts_ok = 0;
  uint64_t writes_rejected = 0;  // security/integrity/parse rejections
  uint64_t checkpoints = 0;
  uint64_t deltas_applied = 0;   // live models maintained in place by writes
  uint64_t fallback_recomputes = 0;  // levels dropped to a full recompute
  uint64_t live_models = 0;      // gauge: served models currently cached
  uint64_t plan_hits = 0;        // compiled magic plans served from cache
  uint64_t plan_misses = 0;      // plan compiles (first query of a pattern)
  uint64_t magic_fallbacks = 0;  // queries declined by the magic path
};

/// A point-in-time copy of the attached storage's counters, taken under
/// the engine's database lock (the raw Storage accessors are guarded by
/// it, so concurrent readers must come through here).
struct StorageCounters {
  bool attached = false;  // false = in-memory engine; storage fields zero
  std::string dir;
  uint64_t next_seqno = 0;
  uint64_t snapshot_seqno = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  /// Group-commit fdatasyncs performed (each covering >= 1 append);
  /// 0 when group commit is disabled.
  uint64_t group_syncs = 0;
  /// Highest mutation seqno applied to the in-memory database (set for
  /// in-memory engines too). On a primary this trails next_seqno by
  /// exactly one; on a replica it is the staleness bound clients read.
  uint64_t applied_seqno = 0;
  /// What recovery had to say about the WAL tail: empty when it was
  /// intact, otherwise the kDataLoss description of the torn tail that
  /// was truncated (previously visible only on the daemon's stderr).
  std::string recovery_data_loss;
};

/// The MultiLog engine: parses/checks a database once, then answers
/// queries at any session level through either semantics. Reduced
/// programs, their models, and interpreters are cached per level.
///
/// ## Concurrency model
///
/// The lattice (Lambda) and the options are immutable after
/// construction; Sigma is mutable through Assert/Retract. Two locks
/// govern the mutable state, both living behind `caches_`:
///
///  - `db_mu`, a shared_mutex over the database *and* the caches as a
///    whole. Every read path (Query, QuerySource, RunStoredQueries,
///    Reduced, ReducedModel, OperationalInterpreter, DumpSource) holds
///    it shared for the duration; Assert, Retract, and Checkpoint hold
///    it exclusive. Mutations therefore serialize against in-flight
///    queries: a write waits for running queries to finish, and queries
///    started after a commit see the new Sigma. Read throughput is
///    untouched in the steady state (shared acquisitions don't
///    serialize).
///  - `mu`, guarding the cache maps' structure exactly as before (two
///    readers may race to build the first model for a level; the first
///    publication wins).
///
/// ## Mutations (Assert / Retract / Checkpoint)
///
/// Writes are pinned to the writing subject's clearance: a fact
/// asserted at level s must be an s-fact (`s[p(...)]`), and every cell
/// classification must be dominated by s - anything else is a
/// SecurityViolation. Asserted facts are validated against Definition
/// 5.4 (entity / null / polyinstantiation integrity, CheckFactIntegrity)
/// *before* they are logged or applied; a rejected write leaves the
/// WAL, Sigma, and every cache untouched. A committed write invalidates
/// exactly the cached levels that dominate the written level
/// (dominance-aware invalidation; see WriteResult::invalidated_levels).
///
/// When constructed via FromStorage, commits are durable: the mutation
/// is fsynced into the write-ahead log *before* Sigma changes
/// (write-ahead discipline), and Checkpoint() compacts the log into a
/// fresh snapshot. See storage/storage.h for the recovery story.
///
/// The interpreter caveats of the previous revision still apply: each
/// level's operational interpreter is serialized by a per-level mutex,
/// and the raw OperationalInterpreter accessor bypasses both that mutex
/// and `db_mu` - callers using it concurrently with Query or any
/// mutation must do their own locking, and the pointer is invalidated
/// when a write at a dominated level evicts the slot.
///
/// The engine must not be moved after the first query (cached state
/// holds pointers into the engine); `Result<Engine>`'s move at
/// construction time is safe because all caches are still empty.
class Engine {
 public:
  /// Parses MultiLog source; stored `?- ...` queries are kept and can be
  /// run with RunStoredQueries.
  static Result<Engine> FromSource(std::string_view source,
                                   EngineOptions options = {});
  static Result<Engine> FromDatabase(Database db, EngineOptions options = {});

  /// Recovers the database from `storage` (latest snapshot + WAL
  /// replay; see Storage::Open) and attaches it, making Assert /
  /// Retract / Checkpoint durable. `storage` must outlive the engine.
  /// Replayed mutations were validated when first written, so they are
  /// applied verbatim; the recovered database then passes the same
  /// CheckDatabase as any other source. Torn-tail truncation performed
  /// by Storage::Open is NOT an error here - inspect
  /// storage->recovered().data_loss for it.
  static Result<Engine> FromStorage(storage::Storage* storage,
                                    EngineOptions options = {});

  const CheckedDatabase& checked() const { return cdb_; }
  const lattice::SecurityLattice& lattice() const { return cdb_.lattice; }

  /// Answers a goal at session level `user_level`. Thread-safe.
  ///
  /// `cancel` (optional) is a per-query cooperative cancellation token:
  /// the server arms it with the request deadline, and both semantics
  /// poll it (bottom-up on the emit-budget path, operational on the
  /// tabled-answer path), unwinding with kDeadlineExceeded. A cancelled
  /// first-query-at-a-level leaves the level uncached; nothing partial
  /// is ever published, so the engine stays consistent and reusable.
  Result<QueryResult> Query(const std::vector<MlLiteral>& goal,
                            const std::string& user_level,
                            ExecMode mode = ExecMode::kReduced,
                            const CancelToken* cancel = nullptr);

  /// Parses `goal_text` ("?- ..." optional) and answers it. Thread-safe.
  Result<QueryResult> QuerySource(std::string_view goal_text,
                                  const std::string& user_level,
                                  ExecMode mode = ExecMode::kReduced,
                                  const CancelToken* cancel = nullptr);

  /// Runs every stored query of the database, in order. Thread-safe.
  Result<std::vector<QueryResult>> RunStoredQueries(
      const std::string& user_level, ExecMode mode = ExecMode::kReduced,
      const CancelToken* cancel = nullptr);

  /// Asserts one ground MultiLog fact (e.g. "s[p(k : a -s-> v)].") on
  /// behalf of a subject cleared at `level`. Validates (security, then
  /// Definition 5.4 integrity), logs (when durable), applies, and
  /// invalidates dominating caches - in that order. Thread-safe;
  /// serializes against in-flight queries.
  Result<WriteResult> Assert(std::string_view fact_source,
                             const std::string& level);

  /// Retracts a previously asserted fact (matched structurally after
  /// parsing; NotFound when absent). Same security pinning, logging,
  /// and invalidation as Assert. Derived facts cannot be retracted -
  /// only stored Sigma facts.
  Result<WriteResult> Retract(std::string_view fact_source,
                              const std::string& level);

  /// Folds the WAL into a fresh snapshot (durable engines only;
  /// InvalidArgument otherwise). Thread-safe; serializes against
  /// queries and writes.
  Status Checkpoint();

  /// Applies one WAL record shipped from a replication primary. The
  /// apply-from-log twin of Assert/Retract: it skips clearance
  /// re-binding (the record's level IS the writing clearance the
  /// primary already enforced) but keeps the Definition 5.4 integrity
  /// check as a paranoia check - a failure means the replica has
  /// diverged from its primary, which the caller should treat as
  /// "resync from snapshot", not ignore. Persists the record to the
  /// local WAL first (same write-ahead discipline as Mutate), keeping
  /// the primary's seqno, so a restarted replica resumes from its own
  /// disk without refetching. Idempotent: a record at or below
  /// AppliedSeqno() is a no-op, as are a duplicate assert and an
  /// absent retract (the snapshot-then-tail handoff can replay the
  /// boundary record). A seqno gap (record.seqno > AppliedSeqno()+1)
  /// is refused with kInternal - the stream lost records, and the
  /// answer is a snapshot resync, never a silent skip. Thread-safe;
  /// serializes against queries.
  Result<WriteResult> ApplyReplicated(const storage::WalRecord& record);

  /// Replaces the entire database with a snapshot shipped from a
  /// replication primary (`source` is the primary's canonical dump at
  /// `seqno`) and drops every cache. The security lattice must be
  /// equivalent to the current one (same levels, same order) - the
  /// server binds sessions against a lattice reference it reads
  /// without the database lock, so the lattice object itself is never
  /// replaced. Persisted via Storage::InstallSnapshot when durable.
  /// Thread-safe; serializes against queries.
  Status InstallSnapshot(uint64_t seqno, const std::string& source);

  /// Highest mutation seqno applied to the in-memory database: the
  /// replica staleness bound, and the primary's last committed write.
  /// Lock-free (relaxed atomic) so bounded-staleness reads can poll it
  /// without touching the database lock.
  uint64_t AppliedSeqno() const;

  /// The current database as canonical MultiLog source - the same text
  /// a snapshot stores, so "byte-identical recovery" is a string
  /// compare on this. Thread-safe. When `at_seqno` is non-null it
  /// receives the applied seqno the dump corresponds to, read under the
  /// same hold of the database lock - the consistent (source, seqno)
  /// pair a replication snapshot ships.
  std::string DumpSource(uint64_t* at_seqno = nullptr);

  /// Snapshot of the engine's cache/mutation counters. Thread-safe.
  EngineCounters Counters() const;

  /// Snapshot of the attached storage's counters (zeroed, attached =
  /// false, for in-memory engines). Thread-safe, unlike poking the raw
  /// storage() while writers run.
  StorageCounters StorageStats() const;

  /// The attached storage (nullptr for in-memory engines). The
  /// pointer's state is guarded by the engine's database lock - use
  /// StorageStats() for concurrent reads.
  storage::Storage* storage() const { return storage_; }

  /// The reduced program compiled for `user_level` (cached). The
  /// returned object is immutable and stable until a mutation
  /// invalidates the level; holding it across an Assert/Retract at a
  /// dominated level is undefined. Safe to read while other threads
  /// query.
  Result<const ReducedProgram*> Reduced(const std::string& user_level);

  /// The evaluated model of the reduced program, with any level
  /// specialization decoded back to generic rel/6, bel/7, vis/6 and
  /// overridden/5 atoms. Stability caveat as for Reduced. A cancelled
  /// evaluation (via `cancel`) publishes nothing.
  Result<const datalog::Model*> ReducedModel(const std::string& user_level,
                                             const CancelToken* cancel =
                                                 nullptr);

  /// The operational interpreter for `user_level` (cached). NOT safe
  /// for concurrent Solve calls - see the concurrency model above.
  Result<Interpreter*> OperationalInterpreter(const std::string& user_level);

 private:
  /// A level's interpreter plus the mutex serializing its Solve calls
  /// (tabling mutates the interpreter). `interp` is set exactly once,
  /// under `mu`, and never replaced.
  struct InterpreterSlot {
    std::mutex mu;
    std::unique_ptr<Interpreter> interp;
  };

  /// All mutable engine state. Held behind a unique_ptr so the Engine
  /// value stays movable at construction time (mutexes and atomics are
  /// neither movable nor copyable).
  struct Caches {
    /// Readers-writer lock over the database + caches as a whole; see
    /// the class comment. Acquired before (and independently of) `mu`.
    std::shared_mutex db_mu;
    /// Guards the three maps' *structure* (find/insert/erase). The
    /// mapped values are immutable after publication (interpreter slots
    /// manage their own interior mutability via InterpreterSlot::mu).
    std::shared_mutex mu;
    // Per-level caches are keyed by the interned level symbol: lookup is
    // an integer compare, and iteration order still matches the level
    // names.
    std::map<Symbol, ReducedProgram> reduced;
    std::map<Symbol, datalog::Model> models;
    /// The *encoded* (possibly level-specialized) fixpoint each decoded
    /// model in `models` was derived from - the form ApplyDelta
    /// maintains. Populated only when EngineOptions::incremental is on,
    /// and kept in lockstep with `models`.
    std::map<Symbol, datalog::Model> raw_models;
    std::map<Symbol, InterpreterSlot> interpreters;

    /// One compiled magic plan per (level, goal-signature). A nullptr
    /// plan is a remembered compile rejection (reachable negation /
    /// unsafe goal): later queries with the pattern skip the compile
    /// attempt and go straight to the full path.
    struct PlanEntry {
      uint64_t epoch = 0;
      std::shared_ptr<const datalog::MagicPlan> plan;
    };
    /// Key: (interned level, interned MagicGoalPattern::signature).
    /// Inserted under `mu` (exclusive) by queries, erased only by
    /// mutations (which hold db_mu exclusively, so no reader is in
    /// flight); shared_ptr values keep a handed-out plan alive across
    /// its own eviction.
    std::map<std::pair<Symbol, Symbol>, PlanEntry> plans;
    /// Per-level program epoch, bumped by every mutation visible at the
    /// level. Plans record the epoch they were compiled at; a mismatch
    /// means the plan predates a write and must not be (re)published.
    std::map<Symbol, uint64_t> plan_epochs;

    // Observability (relaxed; read via Engine::Counters).
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> invalidation_events{0};
    std::atomic<uint64_t> cache_entries_invalidated{0};
    std::atomic<uint64_t> asserts_ok{0};
    std::atomic<uint64_t> retracts_ok{0};
    std::atomic<uint64_t> writes_rejected{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> deltas_applied{0};
    std::atomic<uint64_t> fallback_recomputes{0};
    std::atomic<uint64_t> plan_hits{0};
    std::atomic<uint64_t> plan_misses{0};
    std::atomic<uint64_t> magic_fallbacks{0};

    /// Highest seqno applied to the database (see Engine::AppliedSeqno).
    /// Written under db_mu (exclusive), read lock-free.
    std::atomic<uint64_t> applied_seqno{0};
  };

  Engine(CheckedDatabase cdb, EngineOptions options)
      : cdb_(std::move(cdb)),
        sigma_index_(SigmaIndex::Build(cdb_.db)),
        options_(options),
        caches_(std::make_unique<Caches>()) {}

  // The *Locked variants assume the caller holds db_mu (shared for
  // reads, exclusive for the writer calling into invalidation).
  Result<QueryResult> QueryLocked(const std::vector<MlLiteral>& goal,
                                  const std::string& user_level,
                                  ExecMode mode, const CancelToken* cancel);
  Result<const ReducedProgram*> ReducedLocked(const std::string& user_level);
  Result<const datalog::Model*> ReducedModelLocked(
      const std::string& user_level, const CancelToken* cancel);

  /// The goal-directed fast path of reduced-mode queries: probes the
  /// compiled-plan cache for (level, binding pattern), compiling and
  /// publishing a plan on a miss, and runs only the goal-relevant
  /// fragment of the reduced program. Returns true when the magic path
  /// produced `*outcome` (which may be a genuine error to propagate);
  /// false means "use the full path" - all-free goals, patterns whose
  /// compile was rejected, or a level whose full model is already
  /// cached (matching a cached model is cheaper than re-deriving).
  /// Assumes db_mu held (shared).
  bool TryMagicLocked(const std::vector<datalog::Literal>& generic,
                      const std::string& user_level,
                      const CancelToken* cancel,
                      Result<std::vector<datalog::Substitution>>* outcome);

  /// Post-commit plan invalidation: erases the cached plans of every
  /// level dominating `written_level` and bumps those levels' plan
  /// epochs, so a plan compiled against the pre-write program can never
  /// serve a post-write query (the PR 6 splice keeps reduced programs
  /// live in place, but a compiled plan holds copies of the clauses it
  /// reached, so it recompiles instead). Assumes db_mu held
  /// exclusively.
  void PrunePlans(const std::string& written_level);

  /// Returns the slot for `user_level`, creating it (and building the
  /// interpreter) on first use. Assumes db_mu held (shared).
  Result<InterpreterSlot*> GetInterpreterSlot(const std::string& user_level);

  /// Shared Assert/Retract implementation.
  Result<WriteResult> Mutate(std::string_view fact_source,
                             const std::string& level, bool retract);

  /// Drops every cached level that dominates `written_level`; returns
  /// the names of the dropped levels. Assumes db_mu held exclusively.
  std::vector<std::string> InvalidateDominating(
      const std::string& written_level);

  /// The incremental counterpart of InvalidateDominating: for every
  /// cached level dominating `written_level`, splices the translated
  /// fact into the maintained reduced program (kDeltaReduce) and
  /// propagates the EDB delta into the live fixpoint (kDeltaEval) and
  /// its decoded serving view (kRegroup). A level whose change cannot
  /// be applied incrementally falls back to being dropped. Interpreters
  /// are always dropped (tabled state cannot absorb a retraction).
  /// `fact` is the mutated Sigma clause; `sigma_index` its store
  /// position before a retract erased it. Assumes db_mu held
  /// exclusively.
  void PropagateDelta(const std::string& written_level, const MlClause& fact,
                      bool retract, size_t sigma_index, WriteResult* result);

  CheckedDatabase cdb_;
  /// Incremental index over the stored Sigma facts (duplicate counts +
  /// Definition 5.4 key groups), kept in lockstep with cdb_.db.sigma by
  /// Mutate under db_mu. Makes per-append validation O(key group)
  /// instead of O(|Sigma|).
  SigmaIndex sigma_index_;
  EngineOptions options_;
  std::unique_ptr<Caches> caches_;
  storage::Storage* storage_ = nullptr;  // not owned
  uint64_t mem_seqno_ = 0;  // in-memory engines; guarded by db_mu
};

}  // namespace multilog::ml

#endif  // MULTILOG_MULTILOG_ENGINE_H_
