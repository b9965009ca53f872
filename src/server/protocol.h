#ifndef MULTILOG_SERVER_PROTOCOL_H_
#define MULTILOG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "multilog/engine.h"
#include "server/json.h"

namespace multilog::server {

/// # The multilogd wire protocol
///
/// Length-delimited JSON over TCP. One frame is
///
///     <decimal byte count> '\n' <exactly that many bytes of UTF-8 JSON>
///
/// in both directions. A client that waits for each response before
/// sending the next request needs nothing more. A client may instead
/// *pipeline*: tag each request with an optional integer `id` member
/// and keep several in flight on one connection; the server echoes the
/// `id` in the matching response, and tagged responses may complete
/// out of order (queries run on a worker pool). Untagged pipelined
/// requests are legal but indistinguishable, so only `id`-tagged
/// requests should ever overlap. HELLO, BYE, and `replicate` stay
/// ordered: the server defers them until every in-flight request on
/// the session has completed. An engine daemon and the sharding router
/// (multilogd --router) serve the protocol from the same loop, so
/// framing, pipelining, ordering, and limits are identical on both. The
/// full grammar, session rules, and limits are documented in DESIGN.md
/// §11 and §18.
///
/// Requests (the `cmd` member selects):
///   {"cmd":"hello","level":L,"mode":M?}     bind the session clearance
///   {"cmd":"query","goal":G,"mode":M?,"deadline_ms":N?,"proofs":B?,
///    "trace":B?,"min_seqno":N?,"wait_ms":N?}  trace = per-stage span tree;
///                                           min_seqno = bounded-staleness
///                                           floor (waits up to wait_ms for
///                                           applied_seqno to reach it, then
///                                           fails with DeadlineExceeded)
///   {"cmd":"sql","sql":S}                   MSQL at the session level
///                                           (the router refuses it)
///   {"cmd":"assert","fact":F}               write F at the session level
///   {"cmd":"retract","fact":F}              remove F at the session level
///   {"cmd":"checkpoint"}                    fold the WAL into a snapshot
///   {"cmd":"stats"}                         the metrics surface (JSON)
///   {"cmd":"metrics"}                       Prometheus text exposition
///   {"cmd":"ping"}                          liveness probe
///   {"cmd":"bye"}                           orderly close
///   {"cmd":"replicate","from_seqno":N}      become a replication stream
///                                           (the router refuses it)
///   {"cmd":"shardmap"}                      the versioned shard map
///                                           (served by multilogd --router;
///                                           a plain engine daemon refuses)
///
/// `replicate` is the one departure from strict request/response: the
/// server turns the connection into a one-way stream of frames -
/// {"ok":true,"kind":"snapshot","seqno":S,"source":SRC} for catch-up,
/// {"ok":true,"kind":"record","rtype":"assert"|"retract","seqno":S,
///  "level":L,"fact":F} for live WAL tail, and
/// {"ok":true,"kind":"heartbeat","next_seqno":N} while idle - until the
/// peer disconnects or the server stops (see replication/log_shipper.h).
/// Like `stats`, it needs no HELLO: the daemon binds loopback only, and
/// a replication link is a trusted channel that by construction carries
/// every level's records (the replica re-enforces per-level visibility
/// when *its* clients read).
///
/// Writes run at exactly the session clearance (the fact's level must
/// equal it - the engine enforces no write-up/write-down) and serialize
/// against in-flight queries behind the engine's database lock.
///
/// Responses: {"ok":true, ...} or
///   {"ok":false,"code":<StatusCodeToString>,"error":<message>}.
///
/// Error handling is two-tier, mirroring what the peer can recover
/// from: *payload*-level problems (bad JSON, unknown command, unknown
/// level, query errors) get a structured error response and the
/// connection stays open; *framing*-level problems (unparseable length
/// header, declared length over the limit, truncated payload) get a
/// best-effort error frame followed by connection close, because the
/// byte stream can no longer be resynchronized.

/// Hard cap a frame header may declare regardless of configuration
/// (defense against absurd allocations before options are consulted).
constexpr size_t kAbsoluteMaxFrameBytes = 64u << 20;  // 64 MiB

/// Reads one frame from `fd`. Returns:
///  - the payload on success,
///  - nullopt on clean EOF at a frame boundary (peer closed),
///  - ParseError for an unparseable header or a payload truncated by
///    EOF, ResourceExhausted when the declared length exceeds
///    `max_bytes` (the declared length is NOT read in that case).
Result<std::optional<std::string>> ReadFrame(int fd, size_t max_bytes);

/// Writes one frame (header + payload) to `fd`.
Status WriteFrame(int fd, std::string_view payload);

/// Incremental frame reassembly for nonblocking sockets: the event
/// loop Feed()s whatever bytes arrived and Next() yields complete
/// payloads as they close. Identical acceptance rules and error codes
/// to the blocking ReadFrame above - the robustness corpus replays the
/// same hostile byte streams against both - but the decoder never
/// blocks and never loses bytes across calls, so a frame split at any
/// byte boundary reassembles exactly.
class FrameDecoder {
 public:
  /// `max_bytes` mirrors ServerOptions::max_request_bytes: a declared
  /// length above it (or kAbsoluteMaxFrameBytes) is refused before any
  /// payload byte is buffered.
  explicit FrameDecoder(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Appends newly received bytes to the reassembly buffer.
  void Feed(const char* data, size_t n);

  /// Extracts the next complete frame:
  ///  - a payload when one whole frame is buffered,
  ///  - nullopt when more bytes are needed (call Feed again),
  ///  - ParseError / ResourceExhausted on framing damage, after which
  ///    the stream cannot be resynchronized and the connection must
  ///    close (further Next() calls repeat the error).
  Result<std::optional<std::string>> Next();

  /// True while buffered bytes sit mid-frame - EOF now means the peer
  /// truncated a frame rather than closing at a boundary.
  bool mid_frame() const {
    return failed_ || in_payload_ || !header_.empty() || pos_ < buf_.size();
  }

  /// The status EOF deserves at this point: OK at a frame boundary,
  /// otherwise the same ParseError ReadFrame reports for a stream cut
  /// inside a header or payload.
  Status OnEof() const;

 private:
  size_t max_bytes_;
  std::string buf_;
  size_t pos_ = 0;          // consumed prefix of buf_
  std::string header_;      // digits of the in-progress header
  bool in_payload_ = false; // header accepted, collecting payload_len_
  size_t payload_len_ = 0;
  bool failed_ = false;     // framing damage is terminal
  Status fail_status_;
};

/// A parsed, schema-validated request.
struct Request {
  enum class Cmd {
    kHello,
    kQuery,
    kSql,
    kAssert,
    kRetract,
    kCheckpoint,
    kStats,
    kMetrics,
    kPing,
    kBye,
    kReplicate,
    kShardMap
  };
  Cmd cmd = Cmd::kPing;
  std::string level;         // hello
  std::optional<ml::ExecMode> mode;  // hello or query override
  std::string goal;          // query
  std::string sql;           // sql
  std::string fact;          // assert / retract
  int64_t deadline_ms = -1;  // query; -1 = server default
  bool want_proofs = false;  // query (operational modes only)
  bool want_trace = false;   // query: attach the per-stage span tree
  uint64_t min_seqno = 0;    // query: bounded-staleness floor; 0 = any
  int64_t wait_ms = 0;       // query: how long to wait for min_seqno
  uint64_t from_seqno = 0;   // replicate: resume after this seqno
  /// Pipelining tag: echoed verbatim as the response's "id" member.
  /// Requests without one get untagged responses (strict
  /// request/response clients never notice the feature exists).
  std::optional<int64_t> id;
};

/// The "id" member of a request object, if it carries a valid one -
/// usable even when ParseRequest rejects the rest of the request, so
/// error responses to pipelined requests still land on the right tag.
std::optional<int64_t> ExtractRequestId(const Json& json);

/// Validates the JSON shape of a request (presence and types of the
/// members each command requires). Lattice-dependent checks (does the
/// level exist?) happen in the server, which owns the engine.
Result<Request> ParseRequest(const Json& json);

/// Wire names for ExecMode: "operational", "reduced", "check_both"
/// (aliases "op", "red", "both", "check" are accepted on input).
Result<ml::ExecMode> ParseExecMode(std::string_view name);
const char* ExecModeName(ml::ExecMode mode);

/// Parses a TCP port for the CLI tools: the text must be all digits
/// and in [1, 65535]. Rejects what `atoi` silently mangles - empty
/// strings, trailing junk ("80x"), negatives, and values past 65535
/// that a uint16_t cast would wrap ("70000" -> 4464). The daemon
/// passes `allow_ephemeral` so "--port 0" keeps its meaning of "bind
/// an OS-assigned port"; a client has nothing to connect to at 0.
Result<uint16_t> ParsePort(std::string_view text, bool allow_ephemeral = false);

/// A dialable address for the CLI tools and the router.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Parses "HOST:PORT" or a bare "PORT" (host defaults to 127.0.0.1).
/// The port obeys ParsePort's rules; the host is not resolved here
/// (Client::Connect validates it when dialing).
Result<Endpoint> ParseHostPort(std::string_view text);

/// Parses a comma-separated endpoint list, e.g.
/// "7101,127.0.0.1:7102,localhost:7103". Empty elements and an empty
/// list are rejected. This is the spelling of `multilogd --shards` and
/// `multilog_client --connect`.
Result<std::vector<Endpoint>> ParseEndpointList(std::string_view text);

/// {"ok":false,"code":...,"error":...} from a non-OK status.
Json ErrorResponse(const Status& status);

/// {"ok":true} ready for command-specific members.
Json OkResponse();

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_PROTOCOL_H_
