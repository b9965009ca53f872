#ifndef MULTILOG_SERVER_SERVER_H_
#define MULTILOG_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mls/belief.h"
#include "mls/relation.h"
#include "multilog/engine.h"
#include "replication/replicator.h"
#include "server/metrics.h"
#include "server/protocol.h"

namespace multilog::server {

/// Everything tunable about a multilogd instance. Defaults are sized
/// for tests and small deployments; the CLI exposes each as a flag.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (tests
  /// read it back via Server::port()).
  uint16_t port = 0;

  /// Size of the shared query worker pool. Queries from all
  /// connections dispatch here, so concurrency across sessions is
  /// min(#in-flight queries, num_workers). Workers start as concurrent
  /// requests first need them, never more than this.
  size_t num_workers = 4;

  /// Admission control: connections beyond this are accepted, told
  /// "ok":false with kResourceExhausted (best-effort, nonblocking),
  /// and closed immediately.
  size_t max_connections = 64;

  /// Admission control: QUERY/SQL/write requests beyond this many in
  /// flight get a structured overload error (the connection stays
  /// open). Parked min_seqno waits do not hold a slot - admission is
  /// charged when a query dispatches to a worker, not while it waits.
  size_t max_in_flight = 32;

  /// Largest request frame accepted; larger declared lengths are
  /// rejected without buffering the payload and the connection closes
  /// (framing can't be trusted past an oversized header).
  size_t max_request_bytes = 1u << 20;  // 1 MiB

  /// Pipelining backpressure: when a session's undelivered response
  /// bytes exceed this, the loop stops reading more requests from it
  /// until the peer drains below half. Bounds per-session memory
  /// against a client that pipelines requests but never reads.
  size_t max_session_write_buffer = 8u << 20;  // 8 MiB

  /// Deadline applied to queries that don't carry their own
  /// `deadline_ms`; 0 means no default deadline.
  int64_t default_deadline_ms = 0;

  /// Execution mode for sessions whose HELLO doesn't pick one.
  ml::ExecMode default_mode = ml::ExecMode::kReduced;

  /// Queries whose server-side wall time reaches this many ms are
  /// written to the slow-query log (level, mode, wall time, dominant
  /// stage, goal). 0 logs every query; -1 disables the log. Enabling it
  /// also makes every query collect a span tree, whether or not the
  /// client asked for one.
  int64_t slow_query_ms = -1;

  /// Destination of the slow-query log; nullptr means stderr. Must
  /// outlive the server. Lines are written under an internal mutex.
  std::ostream* slow_query_log = nullptr;

  /// Reject ASSERT/RETRACT/CHECKPOINT with kReadOnly. Set on replicas
  /// (--replica-of implies it): the replication stream is the only
  /// writer, so a client write would fork the replica's history from
  /// the primary's. Queries, stats, and metrics stay available.
  bool read_only = false;

  /// How long Stop() waits for in-flight requests to complete and
  /// their responses to flush before force-closing sessions.
  int64_t drain_deadline_ms = 5000;
};

/// A relation exposed to wire clients through the `sql` command.
struct SqlCatalogEntry {
  std::string name;
  const mls::Relation* relation = nullptr;  // must outlive the server
};

/// One request as a worker hands it to the handler: the request, what
/// its session's HELLO bound, the loop's timestamps (t_read is the trace
/// epoch), and the loop's counters.
struct Call {
  const Request& req;
  const std::string& level;
  ml::ExecMode mode;  // the session's; a query may override it
  trace::Collector::Clock::time_point t_read;
  trace::Collector::Clock::time_point t_parsed;
  trace::Collector::Clock::time_point t_submit;
  /// Handlers add their outcomes here and read the loop's connection
  /// and request families for stats and metrics.
  ServerMetrics& metrics;
  /// Admitted requests executing or queued right now.
  size_t in_flight;
};

/// What the serving loop dispatches through (DESIGN.md §18). The loop
/// frames, parses, admits, orders, and delivers; everything that
/// depends on what is served - the engine, or the sharding router -
/// sits behind these calls. Implementations must be thread-safe: Handle
/// runs on several workers at once.
class RequestHandler {
 public:
  RequestHandler() = default;
  virtual ~RequestHandler() = default;
  RequestHandler(const RequestHandler&) = delete;
  RequestHandler& operator=(const RequestHandler&) = delete;

  /// OK when this handler serves `cmd`; otherwise the refusal the
  /// client gets, before any HELLO check (the session stays open).
  virtual Status Serves(Request::Cmd cmd) const = 0;

  /// Binds a session at `level` and `mode`: the HELLO response, or the
  /// refusal of a level the handler's lattice lacks. Runs on the loop,
  /// so it must not block.
  virtual Result<Json> Hello(const std::string& level,
                             ml::ExecMode mode) = 0;

  /// What a query's `min_seqno` floor is checked against: a floor above
  /// it parks the query on the loop until it catches up.
  virtual uint64_t AppliedSeqno() const = 0;

  /// Answers one query, sql, assert, retract, checkpoint, stats,
  /// metrics, or shardmap request on a worker. The loop adds the `id`.
  virtual Json Handle(const Call& call) = 0;

  /// Serves a `replicate` stream on `fd` until the peer leaves or
  /// `stopping` is set; runs on a dedicated thread.
  virtual void ServeReplication(int fd, uint64_t from_seqno,
                                const std::atomic<bool>& stopping) = 0;
};

class EngineHandler;

/// The serving loop of multilogd and of the sharding router.
///
/// ## Architecture (DESIGN.md §18)
///
/// One epoll-driven I/O thread owns every connection: nonblocking
/// reads feed a per-session FrameDecoder, complete requests are parsed
/// on the loop, and cheap commands (ping, hello, bye) are answered
/// inline. Everything else goes to the shared worker pool and through
/// one RequestHandler call; workers serialize the response and post it
/// to a completion queue that an eventfd wakes the loop to drain, so
/// the loop never blocks on a handler and a worker never touches a
/// socket. Sessions live in an fd-keyed map and are freed the moment
/// their connection closes - connection churn leaves nothing behind
/// (the seed thread-per-connection server leaked a Connection plus a
/// joinable thread per accepted session until Stop()).
///
/// ## Session model
///
/// The first request must be HELLO, which binds the session's
/// {clearance level, exec mode} once the handler accepts the level.
/// From then on every request runs at exactly that level - for the
/// engine the session level *is* the database level, so read-up is
/// impossible by construction rather than by filtering.
///
/// ## Pipelining
///
/// A session may tag requests with an integer `id` and keep several in
/// flight; responses carry the tag and may complete out of order.
/// HELLO/BYE/`replicate` are ordered: the loop defers them until the
/// session's in-flight count drains to zero. `min_seqno` queries park
/// on the loop (no worker, no in-flight slot) until the handler's
/// applied seqno catches up or `wait_ms` expires.
///
/// ## Limits and failure
///
/// Admission control rejects connections over `max_connections`
/// (best-effort nonblocking error frame - a stalled peer cannot delay
/// the accept path) and dispatches over `max_in_flight`; oversized
/// frames are refused before buffering. A failed response write counts
/// `response_write_errors` and closes the session.
///
/// ## Shutdown
///
/// Stop() is graceful: the listener closes first, parked queries are
/// failed with kDeadlineExceeded, in-flight work completes and its
/// responses flush (bounded by `drain_deadline_ms`), sessions close,
/// and the loop, replication stream threads, and pool are joined
/// before Stop returns.
class Server {
 public:
  /// Serves `engine` (non-null, must outlive the server). `catalog`
  /// lists relations served to the `sql` command (empty = SQL
  /// disabled).
  Server(ml::Engine* engine, ServerOptions options,
         std::vector<SqlCatalogEntry> catalog = {},
         const mls::BeliefModeRegistry* belief_registry = nullptr);
  /// Serves `handler` (non-null, must outlive the server). Its metrics
  /// carry no per-level query counters.
  Server(RequestHandler* handler, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop. Returns once the
  /// server is reachable (so tests can connect immediately).
  Status Start();

  /// Graceful shutdown; idempotent. See the class comment.
  void Stop();

  /// The bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  const ServerMetrics& metrics() const { return metrics_; }

  /// On a replica, points the engine's stats/metrics surface at the
  /// replication link (connected flag, primary's next_seqno, lag
  /// gauge). The replicator must outlive the server. Call before
  /// Start(); a no-op unless the server was built over an engine.
  void SetReplicator(const replication::Replicator* replicator);

 private:
  /// A query parked on the loop until applied_seqno reaches its
  /// min_seqno floor (or give_up passes). Holds no worker and no
  /// in-flight slot while parked.
  struct ParkedQuery;

  /// Everything one connection owns; lives in sessions_ keyed by fd
  /// and is destroyed on close - that destruction IS the churn fix.
  struct Session;

  /// What a worker posts back to the loop: the serialized response for
  /// session (fd, gen). `gen` guards against fd reuse - a completion
  /// for a dead session is dropped.
  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    std::string payload;
  };

  /// A self-contained unit of worker-side work: owns copies of
  /// everything it needs, so it is immune to its session dying
  /// mid-execution.
  struct Task;

  /// A replication stream: the fd handed off from a session, served by
  /// a dedicated thread (an open-ended stream must not occupy a pool
  /// worker or the loop). Reaped when done; joined at Stop.
  struct Stream {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // --- event loop (all private state below sessions_ is loop-owned) --
  void LoopMain();
  void WakeLoop();
  /// First reaction to stopping_: close the listener, expire parked
  /// queries, stop reading, and start the bounded drain.
  void BeginDrain();
  void HandleAccept();
  /// Routes one epoll event (writable first, then readable) to the
  /// session owning `fd`, if it still exists.
  void HandleEvent(int fd, uint32_t events);
  void HandleReadable(Session* s);
  /// Decodes and processes every complete frame buffered in s, until a
  /// deferral/backpressure/close stops it. Returns false when the
  /// session was closed (the pointer is dead in that case - the same
  /// contract every bool-returning session method here follows).
  bool ProcessFrames(Session* s);
  bool ProcessPayload(Session* s, std::string payload);
  /// Serializes a response (echoing `id` when present), frames it, and
  /// delivers it through DeliverFrame.
  bool QueueResponse(Session* s, Json response,
                     const std::optional<int64_t>& id);
  /// Appends one already-framed response to s->wbuf, flushes what the
  /// socket takes, and applies write-buffer backpressure.
  bool DeliverFrame(Session* s, std::string frame);
  /// Flushes as much of s->wbuf as the socket takes without blocking.
  /// A hard send error counts response_write_errors and closes.
  bool FlushSession(Session* s);
  /// Lifts read backpressure once the write buffer drained below half
  /// the cap, and processes frames buffered while paused.
  bool ResumeReading(Session* s);
  void UpdateEpoll(Session* s);
  void CloseSession(Session* s);
  /// Snapshots session state into a Task and submits it to the pool.
  /// `admitted` tasks hold an in-flight slot they release on exit.
  void DispatchTask(Session* s, Request req,
                    trace::Collector::Clock::time_point t_read,
                    trace::Collector::Clock::time_point t_parsed,
                    bool admitted);
  /// Runs the task through the handler and posts its response.
  void RunTask(const std::shared_ptr<Task>& task,
               trace::Collector::Clock::time_point t_submit);
  void PostCompletion(int fd, uint64_t gen, std::string frame);
  void DrainCompletions();
  /// Re-checks parked min_seqno queries against the applied seqno and
  /// their give-up deadlines.
  void CheckParked();
  /// Runs the deferred ordered command (BYE / replicate) - the caller
  /// has verified the session is fully drained and flushed.
  bool RunDeferred(Session* s);
  /// Hands the fd off to a dedicated replication stream thread and
  /// frees the session state (the connection stays open as a stream).
  void StartReplication(Session* s, uint64_t from_seqno);
  void ReapStreamsLocked();
  /// Runs a ready deferred command, then closes the session if nothing
  /// keeps it alive (peer gone / closing / draining, nothing in
  /// flight, nothing buffered). Returns false when it closed.
  bool MaybeClose(Session* s);

  /// Owned when the server was built over an engine; null otherwise.
  std::unique_ptr<EngineHandler> engine_handler_;
  RequestHandler* handler_;
  ServerOptions options_;
  ServerMetrics metrics_;

  std::unique_ptr<ThreadPool> pool_;
  std::atomic<size_t> in_flight_{0};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers wake the loop for completions
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread loop_thread_;

  /// Loop-owned session table; erasing an entry frees the session.
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_gen_ = 1;
  /// Sessions with parked min_seqno queries (loop-owned).
  std::unordered_set<int> parked_fds_;
  /// Set once the loop observes stopping_ and begins its drain.
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::mutex comp_mu_;
  std::vector<Completion> completions_;  // workers push, loop drains

  std::mutex streams_mu_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_SERVER_H_
