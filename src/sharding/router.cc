#include "sharding/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <set>

#include "multilog/parser.h"

namespace multilog::sharding {

namespace {

using server::Client;
using server::ErrorResponse;
using server::ExecModeName;
using server::Json;
using server::OkResponse;
using server::ReadFrame;
using server::Request;
using server::WriteFrame;

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

/// Per-connection state, owned by the reader thread. One backend
/// session per shard, dialed lazily and bound at the client's own
/// clearance, so the shard enforces visibility exactly as if the client
/// had connected directly.
struct Router::RouterSession {
  bool hello_done = false;
  std::string level;
  ml::ExecMode mode = ml::ExecMode::kReduced;
  std::vector<std::unique_ptr<Client>> backends;
};

Router::Router(std::string db_source, RouterOptions options)
    : db_source_(std::move(db_source)),
      options_(std::move(options)),
      map_(options_.shards.size()) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (options_.shards.empty()) {
    return Status::InvalidArgument("a router needs at least one shard");
  }
  MULTILOG_ASSIGN_OR_RETURN(ml::Database db, ml::ParseMultiLog(db_source_));
  MULTILOG_ASSIGN_OR_RETURN(ml::CheckedDatabase cdb,
                            ml::CheckDatabase(std::move(db)));
  MULTILOG_ASSIGN_OR_RETURN(analysis_, RoutingAnalysis::Analyze(cdb.db));
  lattice_ = std::move(cdb.lattice);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  accept_thread_ = std::thread(&Router::AcceptLoop, this);
  started_ = true;
  return Status::OK();
}

void Router::Stop() {
  // Same drain pattern as the engine server: retire the listener, shut
  // each connection's read side down so its reader finishes the
  // in-flight exchange and exits, then join everything.
  if (!started_ || stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (!conn->closed) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // Joining without conn_mu_ is safe: only the accept thread (joined
  // above) and this function ever mutate connections_.
  for (const auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  started_ = false;
}

RouterCounters Router::Counters() const {
  RouterCounters c;
  c.requests_total = requests_total_.load(std::memory_order_relaxed);
  c.point_queries = point_queries_.load(std::memory_order_relaxed);
  c.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  c.anywhere_queries = anywhere_queries_.load(std::memory_order_relaxed);
  c.refused_queries = refused_queries_.load(std::memory_order_relaxed);
  c.writes_routed = writes_routed_.load(std::memory_order_relaxed);
  c.checkpoint_fanouts = checkpoint_fanouts_.load(std::memory_order_relaxed);
  c.shard_errors = shard_errors_.load(std::memory_order_relaxed);
  return c;
}

void Router::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    if (connections_open_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      WriteFrame(fd, ErrorResponse(Status::ResourceExhausted(
                         "router at connection limit"))
                         .Serialize());
      ::close(fd);
      continue;
    }
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    // Answers are small frames; without TCP_NODELAY a pipelining
    // client's in-order answers sit in Nagle's buffer waiting for
    // delayed ACKs (the server sets it on its sessions too).
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Free what previous sessions left behind before adding another -
    // under connection churn the table stays bounded by the number of
    // *live* connections, not the number ever accepted.
    ReapConnectionsLocked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    try {
      connections_.push_back(std::move(conn));
      raw->thread = std::thread(&Router::ServeConnection, this, raw);
    } catch (...) {
      if (!connections_.empty() && connections_.back().get() == raw) {
        connections_.pop_back();
      }
      ::close(fd);
      connections_open_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

void Router::ReapConnectionsLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* conn = it->get();
    if (!conn->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (conn->thread.joinable()) conn->thread.join();
    it = connections_.erase(it);
  }
}

void Router::ServeConnection(Connection* conn) {
  RouterSession session;
  session.mode = options_.default_mode;
  session.backends.resize(options_.shards.size());
  try {
    while (HandleFrame(session, conn->fd)) {
    }
  } catch (...) {
    // Drop the connection (and its backend sessions with it).
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!conn->closed) {
      ::close(conn->fd);
      conn->closed = true;
    }
  }
  connections_open_.fetch_sub(1, std::memory_order_acq_rel);
  // Last store: after this the accept loop may join and free `conn`.
  conn->done.store(true, std::memory_order_release);
}

Result<Client*> Router::Backend(RouterSession& session, size_t shard) {
  if (session.backends[shard] != nullptr) {
    return session.backends[shard].get();
  }
  const ShardEndpoint& ep = options_.shards[shard];
  Result<Client> client =
      Client::ConnectWithRetry(ep.host, ep.port, options_.connect_attempts,
                               options_.connect_backoff_ms);
  if (!client.ok()) return ShardUnavailable(shard, client.status());
  auto backend = std::make_unique<Client>(std::move(client).value());
  // Bind the backend session at the client's own clearance and mode so
  // the shard enforces per-level visibility itself; the session's level
  // was validated against the same lattice at HELLO.
  Result<Json> hello =
      backend->Hello(session.level, ExecModeName(session.mode));
  if (!hello.ok()) {
    if (hello.status().IsInternal()) {
      return ShardUnavailable(shard, hello.status());
    }
    return hello.status();  // the shard's own structured refusal
  }
  session.backends[shard] = std::move(backend);
  return session.backends[shard].get();
}

void Router::DropBackend(RouterSession& session, size_t shard) {
  session.backends[shard].reset();
  shard_errors_.fetch_add(1, std::memory_order_relaxed);
}

Status Router::ShardUnavailable(size_t shard, const Status& cause) {
  const ShardEndpoint& ep = options_.shards[shard];
  return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                             ep.host + ":" + std::to_string(ep.port) +
                             ") is unavailable: " + cause.message());
}

bool Router::HandleFrame(RouterSession& session, int fd) {
  Result<std::optional<std::string>> frame =
      ReadFrame(fd, options_.max_request_bytes);
  if (!frame.ok()) {
    WriteFrame(fd, ErrorResponse(frame.status()).Serialize());
    return false;  // framing damage: the stream can't resynchronize
  }
  if (!frame->has_value()) return false;  // clean EOF
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  Result<Json> json = Json::Parse(**frame);
  if (!json.ok()) {
    WriteFrame(fd, ErrorResponse(json.status()).Serialize());
    return true;
  }
  Result<Request> parsed = server::ParseRequest(*json);
  if (!parsed.ok()) {
    WriteFrame(fd, ErrorResponse(parsed.status()).Serialize());
    return true;
  }
  const Request& req = *parsed;

  switch (req.cmd) {
    case Request::Cmd::kPing: {
      Json resp = OkResponse();
      resp.Set("pong", Json::Bool(true));
      WriteFrame(fd, resp.Serialize());
      return true;
    }
    case Request::Cmd::kBye: {
      WriteFrame(fd, OkResponse().Serialize());
      return false;
    }
    case Request::Cmd::kShardMap: {
      Json resp = OkResponse();
      resp.Set("shardmap", ShardMapJson());
      WriteFrame(fd, resp.Serialize());
      return true;
    }
    case Request::Cmd::kStats: {
      Json resp = OkResponse();
      resp.Set("stats", StatsJson());
      WriteFrame(fd, resp.Serialize());
      return true;
    }
    case Request::Cmd::kMetrics: {
      Json resp = OkResponse();
      resp.Set("format", Json::Str("prometheus"));
      resp.Set("body", Json::Str(MetricsText()));
      WriteFrame(fd, resp.Serialize());
      return true;
    }
    case Request::Cmd::kHello: {
      if (session.hello_done) {
        WriteFrame(fd, ErrorResponse(Status::InvalidArgument(
                           "session is already bound; reconnect to change "
                           "clearance"))
                           .Serialize());
        return true;
      }
      if (!lattice_.Contains(req.level)) {
        WriteFrame(fd, ErrorResponse(Status::SecurityViolation(
                           "unknown clearance level '" + req.level + "'"))
                           .Serialize());
        return true;
      }
      session.hello_done = true;
      session.level = req.level;
      if (req.mode.has_value()) session.mode = *req.mode;
      Json resp = OkResponse();
      resp.Set("server", Json::Str("multilog-router"));
      resp.Set("level", Json::Str(session.level));
      resp.Set("mode", Json::Str(ExecModeName(session.mode)));
      resp.Set("shards",
               Json::Int(static_cast<int64_t>(options_.shards.size())));
      WriteFrame(fd, resp.Serialize());
      return true;
    }
    case Request::Cmd::kSql: {
      WriteFrame(fd, ErrorResponse(Status::InvalidArgument(
                         "the router does not serve 'sql'; connect to a "
                         "shard directly"))
                         .Serialize());
      return true;
    }
    case Request::Cmd::kReplicate: {
      WriteFrame(fd, ErrorResponse(Status::InvalidArgument(
                         "the router does not serve replication streams; "
                         "replicate from a shard"))
                         .Serialize());
      return true;
    }
    case Request::Cmd::kQuery:
    case Request::Cmd::kAssert:
    case Request::Cmd::kRetract:
    case Request::Cmd::kCheckpoint: {
      if (!session.hello_done) {
        WriteFrame(fd, ErrorResponse(Status::SecurityViolation(
                           "session has no clearance yet; send hello first"))
                           .Serialize());
        return true;
      }
      const Json resp = req.cmd == Request::Cmd::kQuery
                            ? HandleQuery(session, req)
                            : HandleWrite(session, req);
      WriteFrame(fd, resp.Serialize());
      return true;
    }
  }
  return true;
}

Json Router::RelayToShard(RouterSession& session, size_t shard,
                          const Json& request) {
  Result<Client*> backend = Backend(session, shard);
  if (!backend.ok()) return ErrorResponse(backend.status());
  Result<Json> response = (*backend)->RoundTrip(request);
  if (!response.ok()) {
    // Transport failure mid-exchange: the shard died (or restarted).
    // Drop the backend so the next request redials, and say which
    // shard - never return a partial or empty answer.
    DropBackend(session, shard);
    return ErrorResponse(ShardUnavailable(shard, response.status()));
  }
  Json resp = std::move(response).value();
  resp.Set("shard", Json::Int(static_cast<int64_t>(shard)));
  return resp;
}

Json Router::ScatterQuery(RouterSession& session, const Json& request) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = options_.shards.size();
  // Dial any missing backends first (serially: dial latency overlaps
  // poorly with correctness, and steady state redials nothing), then
  // fan the query out in parallel, one thread per shard - each thread
  // owns its shard's connection exclusively.
  for (size_t i = 0; i < n; ++i) {
    Result<Client*> backend = Backend(session, i);
    if (!backend.ok()) return ErrorResponse(backend.status());
  }
  std::vector<Result<Json>> responses(
      n, Result<Json>(Status::Internal("unreached")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([this, &session, &request, &responses, i] {
      responses[i] = session.backends[i]->RoundTrip(request);
    });
  }
  for (std::thread& t : threads) t.join();

  // Failures first, deterministically by shard index: a transport
  // failure is kUnavailable naming the shard; a shard's own structured
  // error (deadline, security...) is relayed as-is.
  for (size_t i = 0; i < n; ++i) {
    if (!responses[i].ok()) {
      DropBackend(session, i);
      return ErrorResponse(ShardUnavailable(i, responses[i].status()));
    }
    if (!responses[i]->GetBool("ok", false)) {
      Json resp = std::move(*responses[i]);
      resp.Set("shard", Json::Int(static_cast<int64_t>(i)));
      return resp;
    }
  }

  // Deterministic merge: the global ordered union over the decoded
  // answer tuples. Each shard's reduced-mode answers arrive sorted by
  // their canonical rendering and keys are disjoint across shards, so
  // the sorted, deduplicated union is byte-identical to a single
  // engine's answer list.
  std::set<std::string> merged;
  for (size_t i = 0; i < n; ++i) {
    const Json* answers = responses[i]->Find("answers");
    if (answers == nullptr || !answers->is_array()) {
      return ErrorResponse(Status::Internal(
          "shard " + std::to_string(i) + " returned no answer array"));
    }
    for (const Json& answer : answers->array_items()) {
      if (answer.is_string()) merged.insert(answer.string_value());
    }
  }
  Json resp = OkResponse();
  resp.Set("level", Json::Str(responses[0]->GetString("level")));
  resp.Set("mode", Json::Str(responses[0]->GetString("mode")));
  Json answers = Json::Array();
  for (const std::string& answer : merged) answers.Push(Json::Str(answer));
  resp.Set("count", Json::Int(static_cast<int64_t>(merged.size())));
  resp.Set("answers", std::move(answers));
  resp.Set("elapsed_ms",
           Json::Double(static_cast<double>(ElapsedMicros(start)) / 1000.0));
  resp.Set("shards", Json::Int(static_cast<int64_t>(n)));
  return resp;
}

Json Router::HandleQuery(RouterSession& session, const Request& req) {
  Result<std::vector<ml::MlLiteral>> goal = ml::ParseMlGoal(req.goal);
  if (!goal.ok()) {
    refused_queries_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(goal.status());
  }
  Result<RouteDecision> route = RouteGoal(*goal, analysis_, map_);
  if (!route.ok()) {
    refused_queries_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(route.status());
  }

  // The forwarded request pins the effective mode and deadline so the
  // shard's defaults can never disagree with the router's session.
  const ml::ExecMode mode = req.mode.has_value() ? *req.mode : session.mode;
  Json fwd = Json::Object();
  fwd.Set("cmd", Json::Str("query"));
  fwd.Set("goal", Json::Str(req.goal));
  fwd.Set("mode", Json::Str(ExecModeName(mode)));
  const int64_t deadline_ms = req.deadline_ms >= 0
                                  ? req.deadline_ms
                                  : (options_.default_deadline_ms > 0
                                         ? options_.default_deadline_ms
                                         : -1);
  if (deadline_ms >= 0) fwd.Set("deadline_ms", Json::Int(deadline_ms));
  if (req.want_proofs) fwd.Set("proofs", Json::Bool(true));
  if (req.want_trace) fwd.Set("trace", Json::Bool(true));
  if (req.min_seqno > 0) {
    fwd.Set("min_seqno", Json::Int(static_cast<int64_t>(req.min_seqno)));
    if (req.wait_ms > 0) fwd.Set("wait_ms", Json::Int(req.wait_ms));
  }

  switch (route->kind) {
    case RouteDecision::Kind::kPoint:
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      return RelayToShard(session, route->shard, fwd);
    case RouteDecision::Kind::kAnywhere: {
      anywhere_queries_.fetch_add(1, std::memory_order_relaxed);
      const size_t shard =
          round_robin_.fetch_add(1, std::memory_order_relaxed) %
          options_.shards.size();
      return RelayToShard(session, shard, fwd);
    }
    case RouteDecision::Kind::kScatter: {
      if (req.want_proofs) {
        refused_queries_.fetch_add(1, std::memory_order_relaxed);
        return ErrorResponse(Status::InvalidArgument(
            "proof trees are not available for scatter-gather queries; "
            "bind the entity key for a single-shard proof"));
      }
      scatter_queries_.fetch_add(1, std::memory_order_relaxed);
      return ScatterQuery(session, fwd);
    }
  }
  return ErrorResponse(Status::Internal("unreachable route kind"));
}

Json Router::HandleWrite(RouterSession& session, const Request& req) {
  const auto start = std::chrono::steady_clock::now();
  if (req.cmd == Request::Cmd::kCheckpoint) {
    checkpoint_fanouts_.fetch_add(1, std::memory_order_relaxed);
    Json fwd = Json::Object();
    fwd.Set("cmd", Json::Str("checkpoint"));
    for (size_t i = 0; i < options_.shards.size(); ++i) {
      Json resp = RelayToShard(session, i, fwd);
      if (!resp.GetBool("ok", false)) return resp;  // names the shard
    }
    Json resp = OkResponse();
    resp.Set("level", Json::Str(session.level));
    resp.Set("shards",
             Json::Int(static_cast<int64_t>(options_.shards.size())));
    resp.Set("elapsed_ms",
             Json::Double(static_cast<double>(ElapsedMicros(start)) / 1000.0));
    return resp;
  }

  // Assert/Retract: the fact's entity key names its owner. The shard
  // re-validates everything (clearance pinning, Definition 5.4) - the
  // router only decides *where*, never *whether*.
  Result<std::string> key = ml::RoutingKeyOfFact(req.fact);
  if (!key.ok()) return ErrorResponse(key.status());
  const size_t shard = map_.ShardOfKeyText(*key);
  writes_routed_.fetch_add(1, std::memory_order_relaxed);
  Json fwd = Json::Object();
  fwd.Set("cmd", Json::Str(req.cmd == Request::Cmd::kRetract ? "retract"
                                                             : "assert"));
  fwd.Set("fact", Json::Str(req.fact));
  return RelayToShard(session, shard, fwd);
}

Json Router::ShardMapJson() const {
  Json map = Json::Object();
  map.Set("version", Json::Int(static_cast<int64_t>(map_.version())));
  map.Set("num_shards", Json::Int(static_cast<int64_t>(map_.num_shards())));
  map.Set("hash", Json::Str(kShardHashName));
  Json shards = Json::Array();
  for (const ShardEndpoint& ep : options_.shards) {
    Json shard = Json::Object();
    shard.Set("host", Json::Str(ep.host));
    shard.Set("port", Json::Int(ep.port));
    shards.Push(std::move(shard));
  }
  map.Set("shards", std::move(shards));
  return map;
}

Json Router::StatsJson() const {
  const RouterCounters c = Counters();
  Json root = Json::Object();
  root.Set("server", Json::Str("multilog-router"));
  root.Set("connections_open",
           Json::Int(static_cast<int64_t>(
               connections_open_.load(std::memory_order_relaxed))));
  root.Set("requests_total",
           Json::Int(static_cast<int64_t>(c.requests_total)));
  Json routing = Json::Object();
  routing.Set("point_queries",
              Json::Int(static_cast<int64_t>(c.point_queries)));
  routing.Set("scatter_queries",
              Json::Int(static_cast<int64_t>(c.scatter_queries)));
  routing.Set("anywhere_queries",
              Json::Int(static_cast<int64_t>(c.anywhere_queries)));
  routing.Set("refused_queries",
              Json::Int(static_cast<int64_t>(c.refused_queries)));
  routing.Set("writes_routed",
              Json::Int(static_cast<int64_t>(c.writes_routed)));
  routing.Set("checkpoint_fanouts",
              Json::Int(static_cast<int64_t>(c.checkpoint_fanouts)));
  routing.Set("shard_errors",
              Json::Int(static_cast<int64_t>(c.shard_errors)));
  root.Set("routing", std::move(routing));
  root.Set("shardmap", ShardMapJson());
  return root;
}

std::string Router::MetricsText() const {
  const RouterCounters c = Counters();
  std::string out;
  auto counter = [&out](const char* name, const char* help, uint64_t value,
                        const char* type = "counter") {
    out.append("# HELP ").append(name).append(" ").append(help).append("\n");
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  };
  counter("multilog_router_shards", "Shards in the serving map.",
          options_.shards.size(), "gauge");
  counter("multilog_router_connections_open", "Open client sessions.",
          connections_open_.load(std::memory_order_relaxed), "gauge");
  counter("multilog_router_requests_total", "Requests received.",
          c.requests_total);
  counter("multilog_router_point_queries_total",
          "Queries routed to a single owning shard.", c.point_queries);
  counter("multilog_router_scatter_queries_total",
          "Queries scatter-gathered across every shard.", c.scatter_queries);
  counter("multilog_router_anywhere_queries_total",
          "Key-free queries served round-robin by one shard.",
          c.anywhere_queries);
  counter("multilog_router_refused_queries_total",
          "Goals refused as unroutable (cross-shard joins, tainted "
          "predicates).",
          c.refused_queries);
  counter("multilog_router_writes_routed_total",
          "Asserts/retracts routed to their key's owner.", c.writes_routed);
  counter("multilog_router_checkpoint_fanouts_total",
          "Checkpoints fanned out to every shard.", c.checkpoint_fanouts);
  counter("multilog_router_shard_errors_total",
          "Transport failures talking to shards.", c.shard_errors);
  return out;
}

}  // namespace multilog::sharding
