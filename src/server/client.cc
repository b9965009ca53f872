#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>

namespace multilog::server {

Status StatusFromWire(const Json& response) {
  const std::string code = response.GetString("code", "Internal");
  std::string msg = response.GetString("error", "unknown server error");
  if (code == "ParseError") return Status::ParseError(std::move(msg));
  if (code == "InvalidProgram") return Status::InvalidProgram(std::move(msg));
  if (code == "NotFound") return Status::NotFound(std::move(msg));
  if (code == "InvalidArgument") {
    return Status::InvalidArgument(std::move(msg));
  }
  if (code == "SecurityViolation") {
    return Status::SecurityViolation(std::move(msg));
  }
  if (code == "IntegrityViolation") {
    return Status::IntegrityViolation(std::move(msg));
  }
  if (code == "ResourceExhausted") {
    return Status::ResourceExhausted(std::move(msg));
  }
  if (code == "DeadlineExceeded") {
    return Status::DeadlineExceeded(std::move(msg));
  }
  if (code == "DataLoss") return Status::DataLoss(std::move(msg));
  if (code == "ReadOnly") return Status::ReadOnly(std::move(msg));
  if (code == "Unavailable") return Status::Unavailable(std::move(msg));
  return Status::Internal(std::move(msg));
}

Result<Client> Client::Connect(uint16_t port) {
  return Connect("127.0.0.1", port);
}

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "invalid host '" + host +
        "' (expected an IPv4 address or 'localhost')");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::Internal("connect to " + host + ":" +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return s;
  }
  // Frames are small; Nagle would hold a pipelined burst hostage to
  // the peer's delayed ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Result<Client> Client::ConnectAnyWithRetry(
    const std::vector<Endpoint>& endpoints, int attempts,
    int64_t backoff_ms) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("no endpoints to connect to");
  }
  if (attempts < 1) attempts = 1;
  Result<Client> last = Status::Internal("no connect attempts made");
  int64_t delay = backoff_ms;
  for (int round = 0; round < attempts; ++round) {
    for (const Endpoint& ep : endpoints) {
      last = Connect(ep.host, ep.port);
      if (last.ok()) return last;
      // An invalid host never becomes valid: a configuration error
      // worth failing fast on. Only refusals are worth waiting out.
      if (last.status().IsInvalidArgument()) return last;
    }
    if (round + 1 < attempts && delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      delay = std::min<int64_t>(delay * 2, 2000);
    }
  }
  return last;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendQuery(int64_t id, const std::string& goal,
                         int64_t deadline_ms, std::string_view mode) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("query"));
  req.Set("goal", Json::Str(goal));
  req.Set("id", Json::Int(id));
  if (deadline_ms >= 0) req.Set("deadline_ms", Json::Int(deadline_ms));
  if (!mode.empty()) req.Set("mode", Json::Str(std::string(mode)));
  return SendRaw(req.Serialize());
}

Status Client::SendAssert(int64_t id, const std::string& fact) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("assert"));
  req.Set("fact", Json::Str(fact));
  req.Set("id", Json::Int(id));
  return SendRaw(req.Serialize());
}

Result<Json> Client::ReadResponse() {
  MULTILOG_ASSIGN_OR_RETURN(std::string payload, ReadRaw());
  return Json::Parse(payload);
}

Status Client::SendRaw(std::string_view payload) {
  return WriteFrame(fd_, payload);
}

Result<std::string> Client::ReadRaw() {
  MULTILOG_ASSIGN_OR_RETURN(std::optional<std::string> frame,
                            ReadFrame(fd_, kAbsoluteMaxFrameBytes));
  if (!frame.has_value()) {
    return Status::Internal("server closed the connection");
  }
  return *std::move(frame);
}

Result<Json> Client::RoundTrip(const Json& request) {
  MULTILOG_RETURN_IF_ERROR(SendRaw(request.Serialize()));
  MULTILOG_ASSIGN_OR_RETURN(std::string payload, ReadRaw());
  return Json::Parse(payload);
}

Result<Json> Client::Call(const Json& request) {
  MULTILOG_ASSIGN_OR_RETURN(Json response, RoundTrip(request));
  if (!response.GetBool("ok", false)) return StatusFromWire(response);
  return response;
}

Result<Json> Client::Hello(const std::string& level, std::string_view mode) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("hello"));
  req.Set("level", Json::Str(level));
  if (!mode.empty()) req.Set("mode", Json::Str(std::string(mode)));
  return Call(req);
}

Result<Json> Client::Query(const std::string& goal, int64_t deadline_ms,
                           std::string_view mode, bool proofs, bool trace,
                           uint64_t min_seqno, int64_t wait_ms) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("query"));
  req.Set("goal", Json::Str(goal));
  if (deadline_ms >= 0) req.Set("deadline_ms", Json::Int(deadline_ms));
  if (!mode.empty()) req.Set("mode", Json::Str(std::string(mode)));
  if (proofs) req.Set("proofs", Json::Bool(true));
  if (trace) req.Set("trace", Json::Bool(true));
  if (min_seqno > 0) {
    req.Set("min_seqno", Json::Int(static_cast<int64_t>(min_seqno)));
    if (wait_ms > 0) req.Set("wait_ms", Json::Int(wait_ms));
  }
  return Call(req);
}

Result<Json> Client::Sql(const std::string& sql) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("sql"));
  req.Set("sql", Json::Str(sql));
  return Call(req);
}

Result<Json> Client::Assert(const std::string& fact) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("assert"));
  req.Set("fact", Json::Str(fact));
  return Call(req);
}

Result<Json> Client::Retract(const std::string& fact) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("retract"));
  req.Set("fact", Json::Str(fact));
  return Call(req);
}

Result<Json> Client::Checkpoint() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("checkpoint"));
  return Call(req);
}

Result<Json> Client::Stats() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("stats"));
  return Call(req);
}

Result<std::string> Client::Metrics() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("metrics"));
  MULTILOG_ASSIGN_OR_RETURN(Json response, Call(req));
  const Json* body = response.Find("body");
  if (body == nullptr || !body->is_string()) {
    return Status::Internal("metrics response is missing a string 'body'");
  }
  return body->string_value();
}

Result<Json> Client::Ping() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("ping"));
  return Call(req);
}

Result<Json> Client::ShardMap() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("shardmap"));
  return Call(req);
}

Status Client::Bye() {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("bye"));
  return Call(req).status();
}

namespace {

/// Strips comments ('%' or '#' to end of line) and surrounding blanks.
std::string StripBatchLine(std::string line) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '%' || line[i] == '#') {
      line.resize(i);
      break;
    }
  }
  const size_t begin = line.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const size_t end = line.find_last_not_of(" \t\r");
  return line.substr(begin, end - begin + 1);
}

}  // namespace

BatchResult RunBatch(Client& client, std::istream& input, bool keep_going,
                     std::ostream* echo) {
  BatchResult result;
  const auto start = std::chrono::steady_clock::now();
  size_t lineno = 0;
  std::string line;
  while (std::getline(input, line)) {
    ++lineno;
    const std::string stripped = StripBatchLine(line);
    if (stripped.empty()) continue;
    const size_t space = stripped.find_first_of(" \t");
    const std::string verb = stripped.substr(0, space);
    const std::string rest = space == std::string::npos
                                 ? ""
                                 : StripBatchLine(stripped.substr(space));

    Result<Json> response = Status::Internal("unreached");
    if (verb == "assert" && !rest.empty()) {
      response = client.Assert(rest);
    } else if (verb == "retract" && !rest.empty()) {
      response = client.Retract(rest);
    } else if (verb == "checkpoint" && rest.empty()) {
      response = client.Checkpoint();
    } else if (verb == "query" && !rest.empty()) {
      response = client.Query(rest);
    } else {
      response = Status::InvalidArgument(
          "expected 'assert FACT', 'retract FACT', 'checkpoint', or "
          "'query GOAL'");
    }
    if (!response.ok()) {
      result.failures.push_back({lineno, response.status()});
      if (keep_going) continue;
      return result;
    }
    if (echo != nullptr) {
      *echo << lineno << ": " << response->Serialize() << "\n";
    }
    ++result.applied;
    if (verb == "assert" || verb == "retract") {
      ++result.writes;
      auto count = [&](const char* field) -> size_t {
        const Json* levels = response->Find(field);
        return levels != nullptr && levels->is_array()
                   ? levels->array_items().size()
                   : 0;
      };
      result.levels_maintained += count("maintained_levels");
      result.levels_invalidated += count("invalidated_levels");
    }
  }
  result.wall_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count()) /
      1000.0;
  return result;
}

}  // namespace multilog::server
