#ifndef MULTILOG_SERVER_CLIENT_H_
#define MULTILOG_SERVER_CLIENT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "server/protocol.h"

namespace multilog::server {

/// A minimal blocking multilogd client: one TCP connection, strict
/// request/response. Shared by the CLI, the load generator, and the
/// integration tests (which is the point - they all exercise the same
/// wire path).
///
/// Not thread-safe: one Client per thread.
class Client {
 public:
  /// Connects to 127.0.0.1:`port` (multilogd binds loopback only).
  static Result<Client> Connect(uint16_t port);

  /// Connects to `host`:`port`. `host` must be an IPv4 dotted quad or
  /// "localhost" - multilogd binds loopback only today, so this exists
  /// for the HOST:PORT spelling of --replica-of and stays deliberately
  /// resolver-free (no DNS in the hot reconnect path).
  static Result<Client> Connect(const std::string& host, uint16_t port);

  /// Failover connect with retries: tries each endpoint in order, once
  /// per round, for `attempts` rounds (so a comma-separated --connect
  /// list keeps working when its first entry is down, and scripts need
  /// no "sleep and hope" loops racing a freshly spawned daemon's bind).
  /// Sleeps `backoff_ms` between rounds, doubling up to 2s; returns the
  /// last failure when every round exhausts the list.
  static Result<Client> ConnectAnyWithRetry(
      const std::vector<Endpoint>& endpoints, int attempts,
      int64_t backoff_ms);

  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Client& operator=(Client&& other) noexcept;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one frame and reads one response frame, parsed as JSON.
  /// Protocol-level errors from the server come back as an OK Result
  /// whose JSON has "ok":false - the caller decides whether that is
  /// fatal. A transport failure (connection closed, bad frame) is a
  /// non-OK Result.
  Result<Json> RoundTrip(const Json& request);

  /// Convenience wrappers building the request JSON. Each fails (non-OK
  /// Result) if the server's response has "ok":false, returning the
  /// server's code/error as the Status.
  Result<Json> Hello(const std::string& level, std::string_view mode = "");
  /// `trace` asks the server to attach the per-stage span tree to the
  /// response (its "trace" member). `min_seqno` > 0 makes the server
  /// wait up to `wait_ms` for its applied seqno to reach it before
  /// running the query (read-your-writes against a replica).
  Result<Json> Query(const std::string& goal, int64_t deadline_ms = -1,
                     std::string_view mode = "", bool proofs = false,
                     bool trace = false, uint64_t min_seqno = 0,
                     int64_t wait_ms = 0);
  Result<Json> Sql(const std::string& sql);
  Result<Json> Assert(const std::string& fact);
  Result<Json> Retract(const std::string& fact);
  Result<Json> Checkpoint();
  Result<Json> Stats();
  /// The Prometheus text exposition (the `metrics` command's "body").
  Result<std::string> Metrics();
  Result<Json> Ping();
  /// The router's versioned shard map (the `shardmap` command). A plain
  /// engine daemon refuses this with InvalidArgument.
  Result<Json> ShardMap();
  Status Bye();

  // -- pipelining --
  //
  // The server lets a session keep several `id`-tagged requests in
  // flight and answers them possibly out of order (each response
  // echoes the tag). These split RoundTrip into its halves: issue
  // SendQuery/SendAssert as fast as the socket takes them, then match
  // ReadResponse results back by their "id". The blocking wrappers
  // above still work on the same connection as long as nothing is in
  // flight when they run.

  /// Sends one id-tagged query without waiting for the response.
  Status SendQuery(int64_t id, const std::string& goal,
                   int64_t deadline_ms = -1, std::string_view mode = "");
  /// Sends one id-tagged assert without waiting for the response.
  Status SendAssert(int64_t id, const std::string& fact);
  /// Reads the next response frame, whatever request it answers. The
  /// caller dispatches on its "id"; "ok":false responses are returned
  /// as-is (transport failures are non-OK Results).
  Result<Json> ReadResponse();

  /// Sends raw bytes as one frame, no JSON involved - the robustness
  /// tests use this to inject malformed payloads.
  Status SendRaw(std::string_view payload);
  /// Reads one response frame (empty Result error on EOF).
  Result<std::string> ReadRaw();

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// RoundTrip + turn "ok":false into the corresponding error Status.
  Result<Json> Call(const Json& request);

  int fd_ = -1;
};

/// Rebuilds a Status from the wire's {"code","error"} pair so callers
/// can keep using IsDeadlineExceeded(), IsUnavailable() etc. across the
/// network hop. Unknown codes degrade to kInternal.
Status StatusFromWire(const Json& response);

/// One failed line of a batch run: where it failed and why.
struct BatchFailure {
  size_t lineno = 0;  // 1-based line in the batch input
  Status status;
};

/// What a batch run did. The batch succeeded iff `failures` is empty.
struct BatchResult {
  size_t applied = 0;  // lines that executed successfully
  size_t writes = 0;   // applied asserts + retracts
  /// Cache levels the server maintained in place (delta propagation)
  /// and levels it dropped for recompute, summed over the batch's
  /// writes - the incremental-vs-invalidate split of the run.
  size_t levels_maintained = 0;
  size_t levels_invalidated = 0;
  double wall_ms = 0.0;  // client-side wall time for the whole batch
  std::vector<BatchFailure> failures;
};

/// Runs a batch over the open (hello'd) connection. Each non-empty line
/// of `input` is `assert FACT`, `retract FACT`, `checkpoint`, or
/// `query GOAL`; '%' and '#' start comments. A malformed or rejected
/// line stops the batch at that line - unless `keep_going`, which
/// records the failure (with its line number) and continues, so one
/// bad write doesn't hide the rest of a staging file. When `echo` is
/// non-null every successful line's response is written to it as
/// `<lineno>: <response JSON>`.
BatchResult RunBatch(Client& client, std::istream& input,
                     bool keep_going = false, std::ostream* echo = nullptr);

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_CLIENT_H_
