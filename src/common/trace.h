#ifndef MULTILOG_COMMON_TRACE_H_
#define MULTILOG_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace multilog::trace {

/// # Per-stage tracing
///
/// A lock-free span/counter facility instrumenting the query path end
/// to end: the server (parse, queue wait, execute, serialize), the
/// MultiLog engine (reduction, model evaluation, operational solving,
/// belief computation per mode), the Datalog evaluator (per-round join
/// and merge), and storage (validation, WAL append, fsync, recovery).
///
/// Two consumers, two mechanisms:
///
///  - **Global aggregates**: one (count, total µs) pair of relaxed
///    atomics per stage, fed by every active span on any thread. The
///    server republishes them through the Prometheus `metrics` command.
///  - **Per-query span trees**: a `Collector` installed on the current
///    thread (`ScopedCollector`) captures nested spans as a tree with
///    start offsets and durations, which the server attaches to the
///    response when the client asked for `"trace": true` and feeds the
///    slow-query log.
///
/// A span is *active* when the global enable flag is set **or** a
/// collector is installed on the constructing thread; otherwise the
/// constructor is one relaxed atomic load plus one thread-local read
/// and the destructor a branch - the "~zero cost when disabled"
/// contract that bench_trace_overhead pins.
///
/// ## Thread-safety
///
/// The aggregate arrays are plain relaxed atomics - any thread, any
/// time. A Collector is strictly thread-local: only the thread that
/// installed it (via ScopedCollector) may open/close spans on it. The
/// server's collector never crosses threads: the worker that runs a
/// query creates it (from timestamps the serving loop took when it read
/// and parsed the request), fills it, and serializes the tree into the
/// response itself. Spans on threads *without* a collector (e.g.
/// evaluator workers inside ParallelFor) feed the aggregates only.

/// The stage taxonomy (DESIGN.md §13). Order is the exposition order.
enum class Stage : uint8_t {
  // Server request lifecycle.
  kRequest = 0,   // whole request: root of every span tree
  kParse,         // frame read + JSON parse + schema validation
  kQueueWait,     // dispatch submit -> worker pickup
  kExecute,       // handler on the worker (engine or SQL work inside)
  kSerialize,     // building the response JSON
  // Engine query path.
  kOperationalSolve,  // Section 5 proof system (interpreter Solve)
  kReduce,            // CORAL-style reduction tau(Delta)+A (Section 6)
  kPlanLookup,        // compiled magic-plan cache probe
  kMagicRewrite,      // magic-sets rewrite + plan compile on a miss
  kEvalModel,         // bottom-up evaluation of the reduced program
  kDecodeModel,       // de-specializing rel__l facts back to rel/6
  kQueryModel,        // matching the goal against the cached model
  kCheckCompare,      // kCheckBoth answer comparison (Theorem 6.1)
  // Datalog evaluator (per semi-naive round, on the calling thread).
  kEvalRound,  // one round: join + dedup/merge
  kEvalJoin,   // the round's rule applications (parallel section)
  kEvalMerge,  // deterministic model insert / next-delta build
  // Belief computation by mode (Definition 3.1).
  kBeliefFirm,
  kBeliefOptimistic,
  kBeliefCautious,
  // Mutation / storage path.
  kValidate,   // security pinning + Definition 5.4 integrity
  kWalAppend,  // WAL record framing + write
  kFsync,      // fdatasync of the WAL
  kRecovery,   // Storage::Open (snapshot read + WAL replay)
  // Incremental view maintenance (the post-commit delta path).
  kDeltaReduce,  // incremental tau update of a live reduced program
  kDeltaEval,    // DRed-style delta propagation into a live fixpoint
  kRegroup,      // regrouping a served view (decoded model / cautious beta)
  // Replication (the replica-side apply loop).
  kReplicaApply,  // applying one shipped WAL record through the engine
  // MSQL.
  kSqlExecute,
};
inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kSqlExecute) + 1;

/// Stable lowercase snake-case name ("eval_round", "wal_append", ...)
/// used as the Prometheus label value and the trace-JSON stage name.
const char* StageName(Stage stage);

/// The global enable flag for ambient (aggregate-only) tracing.
bool Enabled();
void SetEnabled(bool on);

/// One stage's global aggregate, snapshotted.
struct StageTotal {
  uint64_t count = 0;
  uint64_t total_micros = 0;
};

/// Snapshot of all per-stage aggregates (relaxed reads; pairs may be
/// mutually torn under concurrent recording, never individually torn).
std::array<StageTotal, kNumStages> AggregatedStages();

/// Zeroes the aggregates. Test/bench use only - racing recorders may
/// leave stragglers behind.
void ResetAggregates();

/// One node of a per-query span tree. Offsets are µs since the
/// collector's epoch (the server sets the epoch when the request's
/// frame has been read, so the root's duration is server-side wall
/// time).
struct SpanNode {
  Stage stage = Stage::kRequest;
  uint64_t start_micros = 0;
  uint64_t duration_micros = 0;
  std::vector<SpanNode> children;
};

/// Collects one query's span tree. Strictly single-threaded use; see
/// the file comment.
class Collector {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans beyond this many nodes are counted, not stored, so a
  /// pathological query cannot balloon its own trace.
  static constexpr size_t kMaxNodes = 512;

  /// `epoch` anchors every node's start offset - the server passes the
  /// instant the request frame finished reading, so the root's duration
  /// is server-side wall time for the whole request.
  explicit Collector(Clock::time_point epoch = Clock::now())
      : epoch_(epoch) {
    root_.stage = Stage::kRequest;
    open_.push_back(&root_);
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  Clock::time_point epoch() const { return epoch_; }

  /// Opens a child span under the innermost open span. Balanced by
  /// CloseSpan; Span does both via RAII.
  void OpenSpan(Stage stage);
  void CloseSpan(Clock::time_point start, Clock::time_point end);

  /// Records an already-measured leaf span (no nesting) under the
  /// innermost open span - used for stages timed on another thread's
  /// clock, like kParse and kQueueWait.
  void AddLeaf(Stage stage, Clock::time_point start, Clock::time_point end);

  /// Closes the root with `end` and returns the finished tree. The
  /// collector must not be used afterwards.
  SpanNode Finish(Clock::time_point end = Clock::now());

  /// Spans dropped by the node budget (reported so a truncated trace
  /// is distinguishable from a complete one).
  uint64_t dropped_spans() const { return dropped_spans_; }

 private:
  uint64_t SinceEpoch(Clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
  }

  Clock::time_point epoch_;
  SpanNode root_;
  /// The open-span stack. Only the innermost node ever gains children,
  /// so ancestor pointers stay valid while their descendants grow.
  std::vector<SpanNode*> open_;
  size_t nodes_ = 1;  // root
  /// Depth of spans opened past the budget (still balanced on close).
  size_t dropped_depth_ = 0;
  uint64_t dropped_spans_ = 0;
};

/// The collector installed on the current thread, or nullptr.
Collector* CurrentCollector();

/// Installs `collector` as the current thread's collector for the
/// enclosing scope (restores the previous one on destruction).
class ScopedCollector {
 public:
  explicit ScopedCollector(Collector* collector);
  ~ScopedCollector();
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  Collector* previous_;
};

/// RAII span: times the enclosing scope as `stage`. Inactive (two
/// loads, no clock call) unless tracing is enabled globally or the
/// thread has a collector.
class Span {
 public:
  explicit Span(Stage stage)
      : stage_(stage), collector_(CurrentCollector()) {
    active_ = collector_ != nullptr || Enabled();
    if (active_) {
      if (collector_ != nullptr) collector_->OpenSpan(stage_);
      start_ = Collector::Clock::now();
    }
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Stage stage_;
  Collector* collector_;
  bool active_;
  Collector::Clock::time_point start_;
};

}  // namespace multilog::trace

#endif  // MULTILOG_COMMON_TRACE_H_
