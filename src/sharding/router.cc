#include "sharding/router.h"

#include <chrono>
#include <limits>
#include <set>

#include "multilog/parser.h"

namespace multilog::sharding {

namespace {

using server::Call;
using server::Client;
using server::ErrorResponse;
using server::ExecModeName;
using server::Json;
using server::OkResponse;
using server::Request;

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

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

  server::ServerOptions loop_options;
  loop_options.port = options_.port;
  loop_options.max_connections = options_.max_connections;
  // One request in flight per connection is never refused for load.
  // A relayed request holds its worker for as long as its shard takes
  // (a parked min_seqno wait, a slow listing, a stalled shard), so each
  // admitted request may have a worker of its own, plus one that no
  // shard can hold for stats, metrics and shardmap. The loop starts
  // workers only as concurrent requests need them.
  loop_options.max_in_flight = options_.max_connections;
  loop_options.num_workers = loop_options.max_in_flight + 1;
  loop_options.max_request_bytes = options_.max_request_bytes;
  loop_options.default_mode = options_.default_mode;
  loop_ = std::make_unique<server::Server>(
      static_cast<server::RequestHandler*>(this), loop_options);
  return loop_->Start();
}

void Router::Stop() {
  if (loop_ != nullptr) loop_->Stop();
}

RouterCounters Router::Counters() const {
  RouterCounters c;
  if (loop_ != nullptr) {
    c.requests_total =
        loop_->metrics().requests_total.load(std::memory_order_relaxed);
  }
  c.point_queries = point_queries_.load(std::memory_order_relaxed);
  c.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  c.anywhere_queries = anywhere_queries_.load(std::memory_order_relaxed);
  c.refused_queries = refused_queries_.load(std::memory_order_relaxed);
  c.writes_routed = writes_routed_.load(std::memory_order_relaxed);
  c.checkpoint_fanouts = checkpoint_fanouts_.load(std::memory_order_relaxed);
  c.shard_errors = shard_errors_.load(std::memory_order_relaxed);
  return c;
}

Status Router::Serves(Request::Cmd cmd) const {
  if (cmd == Request::Cmd::kSql) {
    return Status::InvalidArgument(
        "the router does not serve 'sql'; connect to a shard directly");
  }
  if (cmd == Request::Cmd::kReplicate) {
    return Status::InvalidArgument(
        "the router does not serve replication streams; replicate from a "
        "shard");
  }
  return Status::OK();
}

Result<Json> Router::Hello(const std::string& level, ml::ExecMode mode) {
  if (!lattice_.Contains(level)) {
    return Status::SecurityViolation("unknown clearance level '" + level +
                                     "'");
  }
  Json resp = OkResponse();
  resp.Set("server", Json::Str("multilog-router"));
  resp.Set("level", Json::Str(level));
  resp.Set("mode", Json::Str(ExecModeName(mode)));
  resp.Set("shards", Json::Int(static_cast<int64_t>(options_.shards.size())));
  return resp;
}

uint64_t Router::AppliedSeqno() const {
  return std::numeric_limits<uint64_t>::max();
}

void Router::ServeReplication(int, uint64_t, const std::atomic<bool>&) {}

Json Router::Handle(const Call& call) {
  switch (call.req.cmd) {
    case Request::Cmd::kQuery:
      return HandleQuery(call);
    case Request::Cmd::kShardMap: {
      Json resp = OkResponse();
      resp.Set("shardmap", ShardMapJson());
      return resp;
    }
    case Request::Cmd::kStats: {
      Json resp = OkResponse();
      resp.Set("stats", StatsJson(call.metrics));
      return resp;
    }
    case Request::Cmd::kMetrics: {
      Json resp = OkResponse();
      resp.Set("format", Json::Str("prometheus"));
      resp.Set("body", Json::Str(MetricsText(call.metrics)));
      return resp;
    }
    default:
      return HandleWrite(call);
  }
}

Result<Client> Router::Checkout(size_t shard, const std::string& level) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    std::vector<Client>& idle = pool_[{shard, level}];
    if (!idle.empty()) {
      Client backend = std::move(idle.back());
      idle.pop_back();
      return backend;
    }
  }
  // One attempt: a retry loop here would hold a worker every session
  // shares, and the next request dials again anyway.
  const ShardEndpoint& ep = options_.shards[shard];
  Result<Client> backend = Client::Connect(ep.host, ep.port);
  if (!backend.ok()) return ShardUnavailable(shard, backend.status());
  // Bind the backend at the clearance it will serve, so the shard
  // enforces per-level visibility itself; the level was validated
  // against the same lattice at the client's HELLO. Every forwarded
  // query names its mode, so the backend's own mode never matters.
  Result<Json> hello = backend->Hello(level);
  if (!hello.ok()) {
    if (hello.status().IsInternal()) {
      return ShardUnavailable(shard, hello.status());
    }
    return hello.status();  // the shard's own structured refusal
  }
  return backend;
}

void Router::Checkin(size_t shard, const std::string& level,
                     Client backend) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_[{shard, level}].push_back(std::move(backend));
}

void Router::ShardFailed(size_t shard) {
  shard_errors_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (auto& [key, idle] : pool_) {
    if (key.first == shard) idle.clear();
  }
}

Status Router::ShardUnavailable(size_t shard, const Status& cause) {
  const ShardEndpoint& ep = options_.shards[shard];
  return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                             ep.host + ":" + std::to_string(ep.port) +
                             ") is unavailable: " + cause.message());
}

Json Router::RelayToShard(size_t shard, const std::string& level,
                          const Json& request) {
  Result<Client> backend = Checkout(shard, level);
  if (!backend.ok()) return ErrorResponse(backend.status());
  Result<Json> response = backend->RoundTrip(request);
  if (!response.ok()) {
    // Transport failure mid-exchange: the shard died (or restarted).
    // The backend is dropped, so the next request dials afresh; say
    // which shard - never return a partial or empty answer.
    ShardFailed(shard);
    return ErrorResponse(ShardUnavailable(shard, response.status()));
  }
  Checkin(shard, level, std::move(backend).value());
  Json resp = std::move(response).value();
  resp.Set("shard", Json::Int(static_cast<int64_t>(shard)));
  return resp;
}

Json Router::ScatterQuery(const std::string& level, const Json& request) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = options_.shards.size();
  std::vector<Client> backends;
  backends.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<Client> backend = Checkout(i, level);
    if (!backend.ok()) {
      // Nothing was sent yet: the backends already held are clean.
      for (size_t j = 0; j < backends.size(); ++j) {
        Checkin(j, level, std::move(backends[j]));
      }
      return ErrorResponse(backend.status());
    }
    backends.push_back(std::move(backend).value());
  }
  // Every shard works at once: all the sends, then all the reads. Each
  // backend is read to the end of its response (or dropped) before it
  // goes back to the pool, so none carries an unread answer.
  const std::string payload = request.Serialize();
  std::vector<Status> sent;
  sent.reserve(n);
  for (Client& backend : backends) sent.push_back(backend.SendRaw(payload));
  std::vector<Result<Json>> responses;
  responses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    responses.push_back(sent[i].ok() ? backends[i].ReadResponse()
                                     : Result<Json>(sent[i]));
    if (responses[i].ok()) {
      Checkin(i, level, std::move(backends[i]));
    } else {
      ShardFailed(i);
    }
  }

  // Failures first, deterministically by shard index: a transport
  // failure is kUnavailable naming the shard; a shard's own structured
  // error (deadline, security...) is relayed as-is.
  for (size_t i = 0; i < n; ++i) {
    if (!responses[i].ok()) {
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

Json Router::HandleQuery(const Call& call) {
  const Request& req = call.req;
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
  const ml::ExecMode mode = req.mode.has_value() ? *req.mode : call.mode;
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
      return RelayToShard(route->shard, call.level, fwd);
    case RouteDecision::Kind::kAnywhere: {
      anywhere_queries_.fetch_add(1, std::memory_order_relaxed);
      const size_t shard =
          round_robin_.fetch_add(1, std::memory_order_relaxed) %
          options_.shards.size();
      return RelayToShard(shard, call.level, fwd);
    }
    case RouteDecision::Kind::kScatter: {
      if (req.want_proofs) {
        refused_queries_.fetch_add(1, std::memory_order_relaxed);
        return ErrorResponse(Status::InvalidArgument(
            "proof trees are not available for scatter-gather queries; "
            "bind the entity key for a single-shard proof"));
      }
      scatter_queries_.fetch_add(1, std::memory_order_relaxed);
      return ScatterQuery(call.level, fwd);
    }
  }
  return ErrorResponse(Status::Internal("unreachable route kind"));
}

Json Router::HandleWrite(const Call& call) {
  const Request& req = call.req;
  const auto start = std::chrono::steady_clock::now();
  if (req.cmd == Request::Cmd::kCheckpoint) {
    checkpoint_fanouts_.fetch_add(1, std::memory_order_relaxed);
    Json fwd = Json::Object();
    fwd.Set("cmd", Json::Str("checkpoint"));
    for (size_t i = 0; i < options_.shards.size(); ++i) {
      Json resp = RelayToShard(i, call.level, fwd);
      if (!resp.GetBool("ok", false)) return resp;  // names the shard
    }
    Json resp = OkResponse();
    resp.Set("level", Json::Str(call.level));
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
  return RelayToShard(shard, call.level, fwd);
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

Json Router::StatsJson(const server::ServerMetrics& loop) const {
  const RouterCounters c = Counters();
  Json root = Json::Object();
  root.Set("server", Json::Str("multilog-router"));
  // The serving loop's connection and request families.
  const Json served = loop.ToJson();
  root.Set("connections", *served.Find("connections"));
  root.Set("requests", *served.Find("requests"));
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

std::string Router::MetricsText(const server::ServerMetrics& loop) const {
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
  out.append(loop.LoopPrometheusText());
  return out;
}

}  // namespace multilog::sharding
