#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace multilog::server {

namespace {

/// Reads exactly `n` bytes, retrying on EINTR. Returns the number of
/// bytes actually read (< n only at EOF or on a socket error).
size_t ReadFully(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  return got;
}

}  // namespace

Result<std::optional<std::string>> ReadFrame(int fd, size_t max_bytes) {
  // Header: decimal digits then '\n', read byte-wise (headers are tiny
  // and this keeps the reader stateless between frames).
  std::string header;
  while (true) {
    char c;
    const size_t r = ReadFully(fd, &c, 1);
    if (r == 0) {
      if (header.empty()) return std::optional<std::string>();  // clean EOF
      return Status::ParseError("connection closed inside a frame header");
    }
    if (c == '\n') break;
    if (c < '0' || c > '9') {
      return Status::ParseError(
          "malformed frame header: expected a decimal length");
    }
    header.push_back(c);
    if (header.size() > 20) {
      return Status::ParseError("malformed frame header: length too long");
    }
  }
  if (header.empty()) {
    return Status::ParseError("malformed frame header: empty length");
  }
  errno = 0;
  const unsigned long long declared = std::strtoull(header.c_str(), nullptr,
                                                    10);
  if (errno == ERANGE || declared > kAbsoluteMaxFrameBytes ||
      declared > max_bytes) {
    return Status::ResourceExhausted(
        "frame of " + header + " bytes exceeds the request size limit of " +
        std::to_string(max_bytes) + " bytes");
  }
  std::string payload(static_cast<size_t>(declared), '\0');
  const size_t got = ReadFully(fd, payload.data(), payload.size());
  if (got != payload.size()) {
    return Status::ParseError("connection closed inside a frame payload (" +
                              std::to_string(got) + " of " + header +
                              " bytes)");
  }
  return std::optional<std::string>(std::move(payload));
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (failed_) return;  // damaged streams buffer nothing further
  // Compact before growing: pos_ only ever advances, so without this a
  // long-lived pipelined session would accumulate every frame it ever
  // received.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (failed_) return fail_status_;
  auto fail = [this](Status s) -> Status {
    failed_ = true;
    fail_status_ = s;
    return fail_status_;
  };
  if (!in_payload_) {
    // Header: decimal digits then '\n'. Same acceptance rules (and
    // error wording) as the blocking ReadFrame.
    while (pos_ < buf_.size()) {
      const char c = buf_[pos_];
      ++pos_;
      if (c == '\n') {
        if (header_.empty()) {
          return fail(
              Status::ParseError("malformed frame header: empty length"));
        }
        errno = 0;
        const unsigned long long declared =
            std::strtoull(header_.c_str(), nullptr, 10);
        if (errno == ERANGE || declared > kAbsoluteMaxFrameBytes ||
            declared > max_bytes_) {
          return fail(Status::ResourceExhausted(
              "frame of " + header_ + " bytes exceeds the request size "
              "limit of " + std::to_string(max_bytes_) + " bytes"));
        }
        payload_len_ = static_cast<size_t>(declared);
        in_payload_ = true;
        break;
      }
      if (c < '0' || c > '9') {
        return fail(Status::ParseError(
            "malformed frame header: expected a decimal length"));
      }
      header_.push_back(c);
      if (header_.size() > 20) {
        return fail(
            Status::ParseError("malformed frame header: length too long"));
      }
    }
    if (!in_payload_) return std::optional<std::string>();  // need bytes
  }
  if (buf_.size() - pos_ < payload_len_) {
    return std::optional<std::string>();  // need bytes
  }
  std::string payload = buf_.substr(pos_, payload_len_);
  pos_ += payload_len_;
  header_.clear();
  in_payload_ = false;
  payload_len_ = 0;
  return std::optional<std::string>(std::move(payload));
}

Status FrameDecoder::OnEof() const {
  if (failed_) return fail_status_;
  if (in_payload_) {
    return Status::ParseError(
        "connection closed inside a frame payload (" +
        std::to_string(buf_.size() - pos_) + " of " +
        std::to_string(payload_len_) + " bytes)");
  }
  if (!header_.empty() || pos_ < buf_.size()) {
    return Status::ParseError("connection closed inside a frame header");
  }
  return Status::OK();
}

Status WriteFrame(int fd, std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame.push_back('\n');
  frame.append(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-conversation must yield an
    // error Status here, not SIGPIPE the whole server.
    const ssize_t w =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<ml::ExecMode> ParseExecMode(std::string_view name) {
  if (name == "operational" || name == "op") return ml::ExecMode::kOperational;
  if (name == "reduced" || name == "red") return ml::ExecMode::kReduced;
  if (name == "check_both" || name == "check" || name == "both") {
    return ml::ExecMode::kCheckBoth;
  }
  return Status::InvalidArgument(
      "unknown exec mode '" + std::string(name) +
      "' (expected operational|reduced|check_both)");
}

Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t min,
                               uint64_t max, std::string_view what) {
  const Status bad = Status::InvalidArgument(
      "invalid " + std::string(what) + " '" + std::string(text) +
      "' (expected " + std::to_string(min) + "-" + std::to_string(max) + ")");
  // 19 digits always fit in a uint64_t, so the loop cannot overflow.
  if (text.empty() || text.size() > 19) return bad;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return bad;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value < min || value > max) return bad;
  return value;
}

Result<uint16_t> ParsePort(std::string_view text, bool allow_ephemeral) {
  MULTILOG_ASSIGN_OR_RETURN(
      uint64_t port,
      ParseUnsigned(text, allow_ephemeral ? 0 : 1, 65535, "port"));
  return static_cast<uint16_t>(port);
}

Result<Endpoint> ParseHostPort(std::string_view text) {
  Endpoint ep;
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) {
    MULTILOG_ASSIGN_OR_RETURN(ep.port, ParsePort(text));
    return ep;
  }
  if (colon == 0) {
    return Status::InvalidArgument("invalid endpoint '" + std::string(text) +
                                   "' (empty host before ':')");
  }
  ep.host = std::string(text.substr(0, colon));
  MULTILOG_ASSIGN_OR_RETURN(ep.port, ParsePort(text.substr(colon + 1)));
  return ep;
}

Result<std::vector<Endpoint>> ParseEndpointList(std::string_view text) {
  std::vector<Endpoint> endpoints;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view element = text.substr(begin, end - begin);
    if (element.empty()) {
      return Status::InvalidArgument(
          "invalid endpoint list '" + std::string(text) +
          "' (expected comma-separated HOST:PORT or PORT entries)");
    }
    MULTILOG_ASSIGN_OR_RETURN(Endpoint ep, ParseHostPort(element));
    endpoints.push_back(std::move(ep));
    begin = end + 1;
  }
  return endpoints;
}

const char* ExecModeName(ml::ExecMode mode) {
  switch (mode) {
    case ml::ExecMode::kOperational:
      return "operational";
    case ml::ExecMode::kReduced:
      return "reduced";
    case ml::ExecMode::kCheckBoth:
      return "check_both";
  }
  return "unknown";
}

Result<Request> ParseRequest(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const Json* cmd = json.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return Status::InvalidArgument("request is missing a string 'cmd'");
  }
  Request req;
  if (const Json* id = json.Find("id"); id != nullptr) {
    if (!id->is_int()) {
      return Status::InvalidArgument("'id' must be an integer");
    }
    req.id = id->int_value();
  }
  const std::string& name = cmd->string_value();
  if (name == "hello") {
    req.cmd = Request::Cmd::kHello;
    const Json* level = json.Find("level");
    if (level == nullptr || !level->is_string() ||
        level->string_value().empty()) {
      return Status::InvalidArgument("hello requires a non-empty 'level'");
    }
    req.level = level->string_value();
    if (const Json* mode = json.Find("mode"); mode != nullptr) {
      if (!mode->is_string()) {
        return Status::InvalidArgument("'mode' must be a string");
      }
      MULTILOG_ASSIGN_OR_RETURN(ml::ExecMode m,
                                ParseExecMode(mode->string_value()));
      req.mode = m;
    }
    return req;
  }
  if (name == "query") {
    req.cmd = Request::Cmd::kQuery;
    const Json* goal = json.Find("goal");
    if (goal == nullptr || !goal->is_string() ||
        goal->string_value().empty()) {
      return Status::InvalidArgument("query requires a non-empty 'goal'");
    }
    req.goal = goal->string_value();
    if (const Json* mode = json.Find("mode"); mode != nullptr) {
      if (!mode->is_string()) {
        return Status::InvalidArgument("'mode' must be a string");
      }
      MULTILOG_ASSIGN_OR_RETURN(ml::ExecMode m,
                                ParseExecMode(mode->string_value()));
      req.mode = m;
    }
    if (const Json* dl = json.Find("deadline_ms"); dl != nullptr) {
      if (!dl->is_int() || dl->int_value() < 0 ||
          dl->int_value() > kMaxRequestMs) {
        return Status::InvalidArgument(
            "'deadline_ms' must be an integer in [0, " +
            std::to_string(kMaxRequestMs) + "]");
      }
      req.deadline_ms = dl->int_value();
    }
    if (const Json* proofs = json.Find("proofs"); proofs != nullptr) {
      if (!proofs->is_bool()) {
        return Status::InvalidArgument("'proofs' must be a boolean");
      }
      req.want_proofs = proofs->bool_value();
    }
    if (const Json* tr = json.Find("trace"); tr != nullptr) {
      if (!tr->is_bool()) {
        return Status::InvalidArgument("'trace' must be a boolean");
      }
      req.want_trace = tr->bool_value();
    }
    if (const Json* ms = json.Find("min_seqno"); ms != nullptr) {
      if (!ms->is_int() || ms->int_value() < 0) {
        return Status::InvalidArgument(
            "'min_seqno' must be a non-negative integer");
      }
      req.min_seqno = static_cast<uint64_t>(ms->int_value());
    }
    if (const Json* wm = json.Find("wait_ms"); wm != nullptr) {
      if (!wm->is_int() || wm->int_value() < 0 ||
          wm->int_value() > kMaxRequestMs) {
        return Status::InvalidArgument(
            "'wait_ms' must be an integer in [0, " +
            std::to_string(kMaxRequestMs) + "]");
      }
      req.wait_ms = wm->int_value();
    }
    return req;
  }
  if (name == "sql") {
    req.cmd = Request::Cmd::kSql;
    const Json* sql = json.Find("sql");
    if (sql == nullptr || !sql->is_string() || sql->string_value().empty()) {
      return Status::InvalidArgument("sql requires a non-empty 'sql'");
    }
    req.sql = sql->string_value();
    return req;
  }
  if (name == "assert" || name == "retract") {
    req.cmd = name == "assert" ? Request::Cmd::kAssert : Request::Cmd::kRetract;
    const Json* fact = json.Find("fact");
    if (fact == nullptr || !fact->is_string() ||
        fact->string_value().empty()) {
      return Status::InvalidArgument(name + " requires a non-empty 'fact'");
    }
    req.fact = fact->string_value();
    return req;
  }
  if (name == "checkpoint") {
    req.cmd = Request::Cmd::kCheckpoint;
    return req;
  }
  if (name == "stats") {
    req.cmd = Request::Cmd::kStats;
    return req;
  }
  if (name == "metrics") {
    req.cmd = Request::Cmd::kMetrics;
    return req;
  }
  if (name == "ping") {
    req.cmd = Request::Cmd::kPing;
    return req;
  }
  if (name == "bye") {
    req.cmd = Request::Cmd::kBye;
    return req;
  }
  if (name == "shardmap") {
    req.cmd = Request::Cmd::kShardMap;
    return req;
  }
  if (name == "replicate") {
    req.cmd = Request::Cmd::kReplicate;
    if (const Json* fs = json.Find("from_seqno"); fs != nullptr) {
      if (!fs->is_int() || fs->int_value() < 0) {
        return Status::InvalidArgument(
            "'from_seqno' must be a non-negative integer");
      }
      req.from_seqno = static_cast<uint64_t>(fs->int_value());
    }
    return req;
  }
  return Status::InvalidArgument("unknown command '" + name + "'");
}

std::optional<int64_t> ExtractRequestId(const Json& json) {
  if (!json.is_object()) return std::nullopt;
  const Json* id = json.Find("id");
  if (id == nullptr || !id->is_int()) return std::nullopt;
  return id->int_value();
}

Json ErrorResponse(const Status& status) {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(false));
  j.Set("code", Json::Str(StatusCodeToString(status.code())));
  j.Set("error", Json::Str(status.message()));
  return j;
}

Json OkResponse() {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(true));
  return j;
}

}  // namespace multilog::server
