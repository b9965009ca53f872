#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "server/engine_handler.h"

namespace multilog::server {

namespace {

/// size_t decrement-on-exit for the in-flight admission counter.
class InFlightGuard {
 public:
  explicit InFlightGuard(std::atomic<size_t>* counter) : counter_(counter) {}
  ~InFlightGuard() { counter_->fetch_sub(1, std::memory_order_acq_rel); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::atomic<size_t>* counter_;
};

/// `<decimal byte count>\n<payload>` - the same frame WriteFrame emits,
/// built as a string so the loop can buffer it for a nonblocking
/// socket.
std::string EncodeFrame(std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame.push_back('\n');
  frame.append(payload);
  return frame;
}

/// The seed server's bounded-staleness failure message, verbatim - the
/// event loop reports it from the parking path now, but clients (and
/// tests) match on the text.
Json MinSeqnoError(uint64_t applied, const Request& req) {
  return ErrorResponse(Status::DeadlineExceeded(
      "applied seqno " + std::to_string(applied) +
      " has not reached min_seqno " + std::to_string(req.min_seqno) +
      " within wait_ms=" + std::to_string(req.wait_ms)));
}

constexpr uint32_t kReadEvents = EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP;

}  // namespace

struct Server::ParkedQuery {
  Request req;
  std::chrono::steady_clock::time_point give_up;
  trace::Collector::Clock::time_point t_read;
  trace::Collector::Clock::time_point t_parsed;
};

struct Server::Session {
  explicit Session(size_t max_request_bytes) : decoder(max_request_bytes) {}

  int fd = -1;
  /// Monotonic across all sessions; completions carry it so a response
  /// for a dead session never lands on the fd's next owner.
  uint64_t gen = 0;
  FrameDecoder decoder;

  /// Undelivered response bytes: [wbuf_off, wbuf.size()) is pending.
  std::string wbuf;
  size_t wbuf_off = 0;

  bool hello_done = false;
  std::string level;
  ml::ExecMode mode = ml::ExecMode::kReduced;

  /// Requests dispatched to the pool whose completions haven't been
  /// consumed yet (stats/metrics/shardmap too; ordered commands wait on
  /// it).
  size_t in_flight = 0;
  std::vector<ParkedQuery> parked;

  /// EOF or read error observed. The session lingers until in-flight
  /// work and parked queries resolve, so their responses are still
  /// attempted (and failures counted) - then it closes.
  bool peer_gone = false;
  /// Close as soon as in-flight work drains and wbuf flushes.
  bool closing = false;
  /// Read backpressure: wbuf exceeded the cap; EPOLLIN is off.
  bool reading_paused = false;
  /// BYE or replicate waiting for the session to drain (ordered).
  std::optional<Request> deferred;

  bool in_epoll = false;
  uint32_t epoll_events = 0;
};

struct Server::Task {
  int fd = -1;
  uint64_t gen = 0;
  Request req;
  /// Session snapshot at dispatch: the task outlives the session if the
  /// peer disconnects mid-query.
  std::string level;
  ml::ExecMode mode = ml::ExecMode::kReduced;
  trace::Collector::Clock::time_point t_read;
  trace::Collector::Clock::time_point t_parsed;
  /// Whether this task holds one of the max_in_flight slots.
  bool admitted = false;
};

Server::Server(ml::Engine* engine, ServerOptions options,
               std::vector<SqlCatalogEntry> catalog,
               const mls::BeliefModeRegistry* belief_registry)
    : engine_handler_(std::make_unique<EngineHandler>(
          engine, options, std::move(catalog), belief_registry)),
      handler_(engine_handler_.get()),
      options_(options),
      metrics_(engine->lattice().TopologicalOrder()) {}

Server::Server(RequestHandler* handler, ServerOptions options)
    : handler_(handler), options_(options), metrics_({}) {}

Server::~Server() { Stop(); }

Status Server::Start() {
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
  if (::listen(listen_fd_, 512) < 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // The loop accepts in a drain-until-EAGAIN burst, so the listener
  // must never block it.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status s = Status::Internal(std::string("epoll/eventfd: ") +
                                      std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  stopping_.store(false);
  draining_ = false;
  loop_thread_ = std::thread(&Server::LoopMain, this);
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_ || stopping_.exchange(true)) return;
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Replication streams: ServeReplication polls stopping_, and the
  // shutdown unblocks any write it is sitting in right now.
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (const auto& stream : streams_) {
      if (stream->fd >= 0) ::shutdown(stream->fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (const auto& stream : streams_) {
      if (stream->thread.joinable()) stream->thread.join();
      if (stream->fd >= 0) ::close(stream->fd);
    }
    streams_.clear();
  }
  // Workers may still be finishing force-abandoned tasks; joining the
  // pool before closing wake_fd_ keeps their completion wake-ups safe.
  pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  started_ = false;
}

void Server::SetReplicator(const replication::Replicator* replicator) {
  if (engine_handler_ != nullptr) engine_handler_->SetReplicator(replicator);
}

void Server::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void Server::LoopMain() {
  std::array<epoll_event, 64> events;
  while (true) {
    if (stopping_.load(std::memory_order_relaxed) && !draining_) {
      BeginDrain();
    }
    if (draining_) {
      if (sessions_.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline_) {
        // The bounded drain expired: force-close what's left. Their
        // in-flight completions are dropped by the generation check.
        std::vector<int> fds;
        fds.reserve(sessions_.size());
        for (const auto& entry : sessions_) fds.push_back(entry.first);
        for (const int fd : fds) {
          auto it = sessions_.find(fd);
          if (it != sessions_.end()) CloseSession(it->second.get());
        }
        break;
      }
    }
    // Parked min_seqno waiters need a poll tick (replication applies
    // land off-loop); a drain needs one to watch its deadline.
    const int timeout_ms = draining_ ? 5 : (parked_fds_.empty() ? -1 : 1);
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself broke; nothing sensible left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      HandleEvent(fd, events[i].events);
    }
    DrainCompletions();
    CheckParked();
  }
}

void Server::BeginDrain() {
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_deadline_ms);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);  // also removes it from the epoll set
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  fds.reserve(sessions_.size());
  for (const auto& entry : sessions_) fds.push_back(entry.first);
  for (const int fd : fds) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    Session* s = it->second.get();
    // Parked queries will never see their seqno now; fail them the way
    // an expired wait would.
    bool alive = true;
    while (alive && !s->parked.empty()) {
      ParkedQuery parked = std::move(s->parked.back());
      s->parked.pop_back();
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      alive = QueueResponse(s, MinSeqnoError(handler_->AppliedSeqno(),
                                             parked.req),
                            parked.req.id);
    }
    if (!alive) continue;
    UpdateEpoll(s);  // draining_ drops EPOLLIN: no new requests
    MaybeClose(s);
  }
  parked_fds_.clear();
}

void Server::HandleAccept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: burst drained (or listener gone)
    }
    {
      std::lock_guard<std::mutex> lock(streams_mu_);
      ReapStreamsLocked();
    }
    if (metrics_.connections_open.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      metrics_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      // Best effort on a nonblocking socket: a rejected peer that never
      // reads cannot stall the accept path (the seed's blocking
      // WriteFrame here could wedge every later accept).
      const std::string frame =
          EncodeFrame(ErrorResponse(Status::ResourceExhausted(
                                        "server at connection limit"))
                          .Serialize());
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, frame.data(), frame.size(),
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_open.fetch_add(1, std::memory_order_relaxed);
    // Responses are small frames; without TCP_NODELAY a pipelined
    // client's answers sit in Nagle's buffer waiting for delayed ACKs.
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto session = std::make_unique<Session>(options_.max_request_bytes);
    session->fd = fd;
    session->gen = next_session_gen_++;
    session->mode = options_.default_mode;
    Session* s = session.get();
    sessions_[fd] = std::move(session);
    epoll_event ev{};
    ev.events = kReadEvents;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseSession(s);
      continue;
    }
    s->in_epoll = true;
    s->epoll_events = kReadEvents;
  }
}

void Server::HandleEvent(int fd, uint32_t events) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session* s = it->second.get();
  if ((events & EPOLLOUT) != 0) {
    if (!FlushSession(s)) return;
    if (!ResumeReading(s)) return;
    UpdateEpoll(s);
    if (!MaybeClose(s)) return;
  }
  if ((events & kReadEvents) != 0) HandleReadable(s);
}

void Server::HandleReadable(Session* s) {
  char buf[65536];
  while (!s->peer_gone && !s->reading_paused && !s->closing &&
         !s->deferred.has_value() && !draining_) {
    const ssize_t n = ::recv(s->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      s->decoder.Feed(buf, static_cast<size_t>(n));
      if (!ProcessFrames(s)) return;
      continue;
    }
    if (n == 0) {
      s->peer_gone = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    s->peer_gone = true;  // hard read error: treat like an abrupt close
    break;
  }
  if (s->peer_gone) {
    // A half-closing pipeliner may have sent its whole batch plus FIN;
    // everything completely framed still executes and answers.
    if (!ProcessFrames(s)) return;
    if (s->decoder.mid_frame()) {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      if (!QueueResponse(s, ErrorResponse(s->decoder.OnEof()), std::nullopt)) {
        return;
      }
    }
  }
  UpdateEpoll(s);
  MaybeClose(s);
}

bool Server::ProcessFrames(Session* s) {
  while (!s->deferred.has_value() && !s->closing && !s->reading_paused) {
    Result<std::optional<std::string>> next = s->decoder.Next();
    if (!next.ok()) {
      // Framing damage: the byte stream can't be resynchronized. Tell
      // the peer why (best effort) and close - buffered or in-flight
      // responses are forfeit, exactly like the seed's immediate close.
      if (next.status().IsResourceExhausted()) {
        metrics_.rejected_oversized.fetch_add(1, std::memory_order_relaxed);
      } else {
        metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      }
      if (!QueueResponse(s, ErrorResponse(next.status()), std::nullopt)) {
        return false;
      }
      CloseSession(s);
      return false;
    }
    if (!next->has_value()) return true;  // need more bytes
    metrics_.requests_total.fetch_add(1, std::memory_order_relaxed);
    if (!ProcessPayload(s, std::move(**next))) return false;
  }
  return true;
}

bool Server::ProcessPayload(Session* s, std::string payload) {
  // Epoch for a traced request: the instant its frame was reassembled.
  const auto t_read = trace::Collector::Clock::now();

  // Payload-tier problems keep the connection open: framing is intact,
  // so the peer can recover by sending a corrected request.
  Result<Json> json = Json::Parse(payload);
  if (!json.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return QueueResponse(s, ErrorResponse(json.status()), std::nullopt);
  }
  // Even a rejected request gets its error on the right pipeline tag.
  const std::optional<int64_t> id = ExtractRequestId(*json);
  Result<Request> parsed = ParseRequest(*json);
  if (!parsed.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return QueueResponse(s, ErrorResponse(parsed.status()), id);
  }
  Request req = std::move(*parsed);
  const auto t_parsed = trace::Collector::Clock::now();

  if (Status refusal = handler_->Serves(req.cmd); !refusal.ok()) {
    return QueueResponse(s, ErrorResponse(refusal), req.id);
  }
  switch (req.cmd) {
    case Request::Cmd::kPing: {
      Json resp = OkResponse();
      resp.Set("pong", Json::Bool(true));
      return QueueResponse(s, std::move(resp), req.id);
    }
    case Request::Cmd::kStats:
    case Request::Cmd::kMetrics:
    case Request::Cmd::kShardMap: {
      // Off-loop (the engine's take engine locks) but exempt from the
      // in-flight cap, as in the seed server: observability and the
      // shard map must work on an overloaded server.
      s->in_flight += 1;
      DispatchTask(s, std::move(req), t_read, t_parsed, /*admitted=*/false);
      return true;
    }
    case Request::Cmd::kHello: {
      if (s->hello_done) {
        return QueueResponse(
            s,
            ErrorResponse(Status::InvalidArgument(
                "session is already bound; reconnect to change clearance")),
            req.id);
      }
      const ml::ExecMode mode = req.mode.has_value() ? *req.mode : s->mode;
      Result<Json> hello = handler_->Hello(req.level, mode);
      if (!hello.ok()) {
        return QueueResponse(s, ErrorResponse(hello.status()), req.id);
      }
      s->hello_done = true;
      s->level = req.level;
      s->mode = mode;
      return QueueResponse(s, std::move(hello).value(), req.id);
    }
    case Request::Cmd::kBye:
    case Request::Cmd::kReplicate: {
      // Ordered commands: defer until every in-flight and parked
      // request on this session has answered, and stop reading - they
      // are by definition the session's last exchange.
      s->deferred = std::move(req);
      UpdateEpoll(s);
      return MaybeClose(s);
    }
    case Request::Cmd::kQuery:
    case Request::Cmd::kSql:
    case Request::Cmd::kAssert:
    case Request::Cmd::kRetract:
    case Request::Cmd::kCheckpoint: {
      if (options_.read_only && req.cmd != Request::Cmd::kQuery &&
          req.cmd != Request::Cmd::kSql) {
        metrics_.write_errors.fetch_add(1, std::memory_order_relaxed);
        return QueueResponse(s,
                             ErrorResponse(Status::ReadOnly(
                                 "this daemon is a read-only replica; send "
                                 "writes to the primary")),
                             req.id);
      }
      if (!s->hello_done) {
        return QueueResponse(
            s,
            ErrorResponse(Status::SecurityViolation(
                "session has no clearance yet; send hello first")),
            req.id);
      }
      // Bounded staleness: park on the loop until the applied seqno
      // catches up. A parked query holds no worker and no in-flight
      // slot (the seed burned both in a sleep loop), so queries with
      // satisfied floors keep flowing around it.
      if (req.cmd == Request::Cmd::kQuery && req.min_seqno > 0 &&
          handler_->AppliedSeqno() < req.min_seqno) {
        if (req.wait_ms <= 0) {
          metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
          return QueueResponse(
              s, MinSeqnoError(handler_->AppliedSeqno(), req), req.id);
        }
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(req.wait_ms);
        s->parked.push_back(
            ParkedQuery{std::move(req), give_up, t_read, t_parsed});
        parked_fds_.insert(s->fd);
        return true;
      }
      // Admission control on the shared pool: fail fast instead of
      // queueing unboundedly behind slow queries. Writes count against
      // the same budget - a mutation holds the engine's database lock,
      // so letting unbounded writes queue would starve readers just as
      // surely as unbounded queries would.
      if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
          options_.max_in_flight) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
        return QueueResponse(s,
                             ErrorResponse(Status::ResourceExhausted(
                                 "server overloaded: too many queries in "
                                 "flight")),
                             req.id);
      }
      s->in_flight += 1;
      DispatchTask(s, std::move(req), t_read, t_parsed, /*admitted=*/true);
      return true;
    }
  }
  return true;
}

void Server::DispatchTask(Session* s, Request req,
                          trace::Collector::Clock::time_point t_read,
                          trace::Collector::Clock::time_point t_parsed,
                          bool admitted) {
  auto task = std::make_shared<Task>();
  task->fd = s->fd;
  task->gen = s->gen;
  task->req = std::move(req);
  task->level = s->level;
  task->mode = s->mode;
  task->t_read = t_read;
  task->t_parsed = t_parsed;
  task->admitted = admitted;
  const auto t_submit = trace::Collector::Clock::now();
  pool_->Submit([this, task, t_submit] { RunTask(task, t_submit); });
}

void Server::RunTask(const std::shared_ptr<Task>& task,
                     trace::Collector::Clock::time_point t_submit) {
  // The admitted slot unwinds on every exit path, including a handler
  // or serialization exception.
  std::optional<InFlightGuard> slot;
  if (task->admitted) slot.emplace(&in_flight_);

  Json resp;
  try {
    resp = handler_->Handle(Call{task->req, task->level, task->mode,
                                 task->t_read, task->t_parsed, t_submit,
                                 metrics_,
                                 in_flight_.load(std::memory_order_relaxed)});
  } catch (const std::exception& e) {
    // A handler exception must not kill the worker, and the client
    // still deserves an answer.
    resp = ErrorResponse(Status::Internal(
        std::string("handler raised an exception: ") + e.what()));
  } catch (...) {
    resp = ErrorResponse(
        Status::Internal("handler raised an unknown exception"));
  }
  if (task->req.id.has_value()) resp.Set("id", Json::Int(*task->req.id));
  // Release the admission slot BEFORE the response becomes visible: a
  // client that sees this answer and immediately sends its next request
  // must not bounce off a slot the finished query still pins.
  slot.reset();
  PostCompletion(task->fd, task->gen, EncodeFrame(resp.Serialize()));
}

void Server::PostCompletion(int fd, uint64_t gen, std::string frame) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    was_empty = completions_.empty();
    completions_.push_back(Completion{fd, gen, std::move(frame)});
  }
  // One wake covers every completion queued before the loop's next
  // drain; only the empty -> non-empty transition needs the eventfd
  // write. A group-commit cohort finishing together costs one syscall,
  // not one per commit.
  if (was_empty) WakeLoop();
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    batch.swap(completions_);
  }
  // Stage every completion into its session's write buffer first, then
  // flush each touched session once: a pipelined burst completing
  // together leaves in one send() instead of one per response.
  std::vector<int> touched;
  for (Completion& c : batch) {
    auto it = sessions_.find(c.fd);
    if (it == sessions_.end() || it->second->gen != c.gen) {
      continue;  // session died first; the response has no one to go to
    }
    Session* s = it->second.get();
    s->in_flight -= 1;
    if (s->wbuf_off >= s->wbuf.size()) {
      s->wbuf.clear();
      s->wbuf_off = 0;
    }
    if (std::find(touched.begin(), touched.end(), c.fd) == touched.end()) {
      touched.push_back(c.fd);
    }
    s->wbuf.append(c.payload);
  }
  for (const int fd : touched) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    Session* s = it->second.get();
    if (!FlushSession(s)) continue;
    if (!s->reading_paused &&
        s->wbuf.size() - s->wbuf_off > options_.max_session_write_buffer) {
      s->reading_paused = true;
    }
    UpdateEpoll(s);
    if (!ResumeReading(s)) continue;
    MaybeClose(s);
  }
}

void Server::CheckParked() {
  if (parked_fds_.empty()) return;
  const uint64_t applied = handler_->AppliedSeqno();
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> fds(parked_fds_.begin(), parked_fds_.end());
  for (const int fd : fds) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) {
      parked_fds_.erase(fd);
      continue;
    }
    Session* s = it->second.get();
    bool alive = true;
    for (auto pit = s->parked.begin(); alive && pit != s->parked.end();) {
      if (applied >= pit->req.min_seqno) {
        // Caught up - but an unparked query still needs an admission
        // slot; when the server is saturated it stays parked and
        // retries next tick rather than bouncing with an overload
        // error it never risked when it arrived.
        if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
            options_.max_in_flight) {
          in_flight_.fetch_sub(1, std::memory_order_acq_rel);
          ++pit;
          continue;
        }
        ParkedQuery parked = std::move(*pit);
        pit = s->parked.erase(pit);
        s->in_flight += 1;
        DispatchTask(s, std::move(parked.req), parked.t_read,
                     parked.t_parsed, /*admitted=*/true);
      } else if (now >= pit->give_up) {
        ParkedQuery parked = std::move(*pit);
        pit = s->parked.erase(pit);
        metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        alive = QueueResponse(s, MinSeqnoError(applied, parked.req),
                              parked.req.id);
      } else {
        ++pit;
      }
    }
    if (!alive) {
      parked_fds_.erase(fd);
      continue;
    }
    if (s->parked.empty()) parked_fds_.erase(fd);
    MaybeClose(s);
  }
}

bool Server::QueueResponse(Session* s, Json response,
                           const std::optional<int64_t>& id) {
  if (id.has_value()) response.Set("id", Json::Int(*id));
  return DeliverFrame(s, EncodeFrame(response.Serialize()));
}

bool Server::DeliverFrame(Session* s, std::string frame) {
  if (s->wbuf_off >= s->wbuf.size()) {
    s->wbuf.clear();
    s->wbuf_off = 0;
  }
  s->wbuf.append(frame);
  if (!FlushSession(s)) return false;
  if (!s->reading_paused &&
      s->wbuf.size() - s->wbuf_off > options_.max_session_write_buffer) {
    // The peer pipelines requests faster than it reads responses: stop
    // reading until it drains, bounding per-session memory.
    s->reading_paused = true;
  }
  UpdateEpoll(s);
  return true;
}

bool Server::FlushSession(Session* s) {
  while (s->wbuf_off < s->wbuf.size()) {
    const ssize_t n =
        ::send(s->fd, s->wbuf.data() + s->wbuf_off,
               s->wbuf.size() - s->wbuf_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      s->wbuf_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // socket full; EPOLLOUT (via UpdateEpoll) resumes
    }
    // The peer is gone or the socket broke: the response cannot be
    // delivered. Count it and close - a peer that can't take responses
    // must not keep submitting work.
    metrics_.response_write_errors.fetch_add(1, std::memory_order_relaxed);
    CloseSession(s);
    return false;
  }
  s->wbuf.clear();
  s->wbuf_off = 0;
  return true;
}

bool Server::ResumeReading(Session* s) {
  if (!s->reading_paused) return true;
  if (s->wbuf.size() - s->wbuf_off >
      options_.max_session_write_buffer / 2) {
    return true;
  }
  s->reading_paused = false;
  if (!ProcessFrames(s)) return false;
  UpdateEpoll(s);
  return true;
}

void Server::UpdateEpoll(Session* s) {
  uint32_t want = 0;
  if (!s->peer_gone && !s->closing && !s->reading_paused &&
      !s->deferred.has_value() && !draining_) {
    want |= kReadEvents;
  }
  if (s->wbuf_off < s->wbuf.size()) want |= EPOLLOUT;
  if (want == s->epoll_events && (want != 0) == s->in_epoll) return;
  if (want == 0) {
    // Deregister entirely: EPOLLHUP/ERR are reported regardless of the
    // requested mask, so a lingering peer-gone session would otherwise
    // spin the level-triggered loop.
    if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
    s->in_epoll = false;
  } else {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = s->fd;
    ::epoll_ctl(epoll_fd_, s->in_epoll ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                s->fd, &ev);
    s->in_epoll = true;
  }
  s->epoll_events = want;
}

bool Server::MaybeClose(Session* s) {
  const bool drained = s->in_flight == 0 && s->parked.empty();
  const bool flushed = s->wbuf_off >= s->wbuf.size();
  if (s->deferred.has_value() && drained && flushed) {
    if (!RunDeferred(s)) return false;
  }
  if ((s->peer_gone || s->closing || draining_) && drained && flushed) {
    CloseSession(s);
    return false;
  }
  return true;
}

bool Server::RunDeferred(Session* s) {
  Request req = std::move(*s->deferred);
  s->deferred.reset();
  if (req.cmd == Request::Cmd::kBye) {
    s->closing = true;
    return QueueResponse(s, OkResponse(), req.id);
  }
  StartReplication(s, req.from_seqno);
  return false;  // the session state is gone; the fd lives on as a stream
}

void Server::StartReplication(Session* s, uint64_t from_seqno) {
  // The connection becomes a one-way stream served by a dedicated
  // thread: an open-ended stream must not occupy a pool worker (a few
  // replicas would starve every query) and its blocking writes cannot
  // run on the loop. Like stats, it needs no HELLO: the daemon binds
  // loopback only, and the replica re-enforces per-level visibility
  // for its own clients.
  const int fd = s->fd;
  if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  parked_fds_.erase(fd);
  sessions_.erase(fd);  // frees the session state; the fd stays open
  metrics_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
  // ServeReplication writes with blocking I/O.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);

  std::lock_guard<std::mutex> lock(streams_mu_);
  ReapStreamsLocked();
  streams_.push_back(std::make_unique<Stream>());
  Stream* stream = streams_.back().get();
  stream->fd = fd;
  stream->thread = std::thread([this, stream, from_seqno] {
    handler_->ServeReplication(stream->fd, from_seqno, stopping_);
    // The gauge drops here so admission sees it promptly; the fd is
    // closed by the reaper (after the join), never by this thread, so
    // it cannot be reused while anything could still name it.
    metrics_.connections_open.fetch_sub(1, std::memory_order_acq_rel);
    stream->done.store(true, std::memory_order_release);
  });
}

void Server::ReapStreamsLocked() {
  for (auto it = streams_.begin(); it != streams_.end();) {
    Stream* stream = it->get();
    if (!stream->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (stream->thread.joinable()) stream->thread.join();
    if (stream->fd >= 0) ::close(stream->fd);
    it = streams_.erase(it);
  }
}

void Server::CloseSession(Session* s) {
  const int fd = s->fd;
  if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  parked_fds_.erase(fd);
  metrics_.connections_open.fetch_sub(1, std::memory_order_acq_rel);
  metrics_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
  sessions_.erase(fd);  // frees the Session - the churn-leak fix itself
}

}  // namespace multilog::server
