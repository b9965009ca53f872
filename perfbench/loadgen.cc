#include "perfbench/loadgen.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <cerrno>

namespace perfbench {

using multilog::server::Json;
namespace trace = multilog::trace;

namespace {

constexpr auto kDrainLimit = std::chrono::seconds(60);

double SumStage(const Json& node, const std::string& stage) {
  double total = 0;
  if (node.GetString("stage") == stage) {
    return static_cast<double>(node.GetInt("dur_us"));
  }
  if (const Json* children = node.Find("children")) {
    for (const Json& child : children->array_items()) {
      total += SumStage(child, stage);
    }
  }
  return total;
}

double SumFsync(const trace::SpanNode& node) {
  if (node.stage == trace::Stage::kFsync) {
    return static_cast<double>(node.duration_micros);
  }
  double total = 0;
  for (const trace::SpanNode& child : node.children) total += SumFsync(child);
  return total;
}

void AddStages(const trace::SpanNode& node, Stages* into) {
  auto& total = (*into)[static_cast<size_t>(node.stage)];
  ++total.count;
  total.total_micros += node.duration_micros;
  for (const trace::SpanNode& child : node.children) AddStages(child, into);
}

void AddStages(const Json& node, Stages* into) {
  static const std::map<std::string, size_t> kByName = [] {
    std::map<std::string, size_t> m;
    for (size_t i = 0; i < trace::kNumStages; ++i) {
      m[trace::StageName(static_cast<trace::Stage>(i))] = i;
    }
    return m;
  }();
  if (auto it = kByName.find(node.GetString("stage")); it != kByName.end()) {
    ++(*into)[it->second].count;
    (*into)[it->second].total_micros +=
        static_cast<uint64_t>(node.GetInt("dur_us"));
  }
  if (const Json* children = node.Find("children")) {
    for (const Json& child : children->array_items()) AddStages(child, into);
  }
}

void CollectFsyncs(const trace::SpanNode& node, TraceAcc* acc) {
  if (node.stage == trace::Stage::kFsync) {
    acc->Add("storage.fsync", static_cast<double>(node.duration_micros));
  }
  for (const trace::SpanNode& child : node.children) CollectFsyncs(child, acc);
}

bool Idle(const Conn& c) {
  return c.inflight.empty() && c.out_off >= c.out.size();
}

void Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.client->fd(), c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      c.broken = true;
      return;
    }
  }
  c.out.clear();
  c.out_off = 0;
}

void Record(const RunCtx& ctx, Kind kind, Phase phase, Clock::time_point due,
            Clock::time_point sent, Clock::time_point now, Stats& st) {
  if (phase == Phase::kFixed) {
    st.lat[kind].push_back(MsBetween(due, now));
  } else if (phase == Phase::kCapacity && now <= ctx.cap_end) {
    ++st.cap_completed;
    st.cap_lat.push_back(MsBetween(sent, now));
  }
}

void OnWriteAck(RunCtx& ctx, const Op& op, uint64_t seqno,
                Clock::time_point now, Stats& st) {
  op.write->seqno.store(seqno);
  op.write->acked.store(true);
  st.acked.push_back(op.write);
  if (ctx.sample_lag) st.lag_records.push_back(ctx.sample_lag());
  if (ctx.ryw_inbox != nullptr) {
    Op ryw;
    ryw.kind = kRyw;
    ryw.level = ctx.ryw_level;
    ryw.goal = ObjectiveGoal(op.write->level, op.write->key, "opt");
    ryw.min_seqno = seqno;
    ryw.expect = op.write;
    ctx.ryw_inbox->Push(std::move(ryw), now);
  }
}

bool Contains(const Json& answers, const std::string& want) {
  for (const Json& a : answers.array_items()) {
    if (a.is_string() && a.string_value() == want) return true;
  }
  return false;
}

/// Checks a read against the write it must reflect. An assert whose
/// retract already left the generator may legitimately be gone.
bool ExpectationHolds(const Op& op, const Json& answers) {
  const WriteRec& rec = *op.expect;
  if (rec.retract) return !Contains(answers, rec.undoes->expect);
  if (rec.retract_sent.load()) return true;
  return Contains(answers, rec.expect);
}

/// Runs a write as a direct engine call on this thread. Nothing reads
/// the connection meanwhile, so the call's end is recorded as a stall.
void DirectWrite(RunCtx& ctx, Conn& c, Op op, Clock::time_point due,
                 Phase phase, Stats& st) {
  trace::Collector collector;
  multilog::Result<multilog::ml::WriteResult> result =
      multilog::Status::Internal("not run");
  const Clock::time_point t0 = Clock::now();
  {
    trace::ScopedCollector install(&collector);
    result = ctx.direct_write(*op.write);
  }
  const Clock::time_point t1 = Clock::now();
  c.stall_end = t1;
  const trace::SpanNode root = collector.Finish(t1);
  if (phase == Phase::kFixed) {
    AnalyzeWriteTrace(root, UsBetween(t0, t1), &st.trace);
    AddStages(root, &st.trace.stages);
  }
  if (!result.ok()) {
    st.Fail(op, phase, multilog::StatusCodeToString(result.status().code()),
            result.status().message());
    return;
  }
  OnWriteAck(ctx, op, result->seqno, t1, st);
  Record(ctx, kWrite, phase, due, t0, t1, st);
}

void Send(RunCtx& ctx, Conn& c, Op op, Clock::time_point due,
          bool late_by_system, Phase phase, Stats& st) {
  const Clock::time_point now = Clock::now();
  ++st.attempted;
  if (phase == Phase::kFixed && !late_by_system) {
    st.send_lag.push_back(MsBetween(due, now));
  }
  if (op.kind == kWrite && op.write->retract) {
    op.write->undoes->retract_sent.store(true);
  }
  if (op.kind == kWrite && ctx.direct_write) {
    DirectWrite(ctx, c, std::move(op), due, phase, st);
    return;
  }
  const int64_t id = c.next_id++;
  const bool is_query = op.kind != kWrite && op.kind != kCheckpoint;
  c.out += RequestFrame(op, id, ctx.traced && is_query);
  c.inflight.push_back(Conn::Pending{id, std::move(op), due, now, phase});
  Flush(c);
}

void Complete(RunCtx& ctx, const Conn& c, Conn::Pending p, const Json& resp,
              Clock::time_point now, Stats& st) {
  const Op& op = p.op;
  if (!resp.GetBool("ok", false)) {
    st.Fail(op, p.phase, resp.GetString("code"), resp.GetString("error"));
    return;
  }
  // Due before the thread's latest direct write returned: the answer
  // also waited on the generator.
  const bool stalled = p.due < c.stall_end;
  if (op.kind == kWrite) {
    OnWriteAck(ctx, op, static_cast<uint64_t>(resp.GetInt("seqno")), now, st);
  } else if (op.kind != kCheckpoint) {
    const Json* answers = resp.Find("answers");
    if (answers == nullptr || !answers->is_array()) {
      ++st.wrong;
      if (st.errors.size() < 5) {
        st.errors.push_back("answer without answers: " +
                            resp.Serialize().substr(0, 200));
      }
      return;
    }
    if (op.memo) {
      std::string bytes = answers->Serialize();
      if (const Json* proofs = resp.Find("proofs")) {
        bytes += "\n" + proofs->Serialize();
      }
      const std::string key = op.level + "\x1f" +
                              (op.operational ? "operational" : "reduced") +
                              (op.proofs ? "+proofs" : "") + "\x1f" + op.goal;
      auto [it, inserted] = st.memo.try_emplace(key, MemoEntry{op, bytes});
      if (!inserted && it->second.bytes != bytes) {
        ++st.wrong;
        if (st.errors.size() < 5) {
          st.errors.push_back("answer changed between requests: " + op.goal);
        }
      }
    }
    if (op.expect && !ExpectationHolds(op, *answers)) {
      ++st.wrong;
      if (st.errors.size() < 5) {
        st.errors.push_back("read does not reflect acked write: " + op.goal +
                            " -> " + answers->Serialize());
      }
    }
    const Json* tree = ctx.traced ? resp.Find("trace") : nullptr;
    if (tree != nullptr && op.kind != kRyw && p.phase == Phase::kWarm) {
      AddStages(*tree, &st.trace.warm_stages);
    }
    if (tree != nullptr && p.phase == Phase::kFixed) {
      if (op.kind != kRyw) AddStages(*tree, &st.trace.stages);
      st.trace.stalled += stalled ? 1 : 0;
      AnalyzeQueryTrace(*tree, stalled ? -1 : UsBetween(p.sent, now),
                        ctx.via_router, op.min_seqno > 0, &st.trace);
    }
  }
  // A traced run's stalled latencies would charge the generator's own
  // blocking to tracing overhead.
  if (ctx.traced && stalled) return;
  Record(ctx, op.kind, p.phase, p.due, p.sent, now, st);
}

void ReadAvailable(RunCtx& ctx, Conn& c, Stats& st) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.client->fd(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.decoder.Feed(buf, static_cast<size_t>(n));
      // Acknowledge at once: a delayed ACK here would hold the next
      // in-order answer of a server that does not set TCP_NODELAY (the
      // router) for up to 40 ms, and time the client's ACK timer
      // instead of the server.
      const int one = 1;
      ::setsockopt(c.client->fd(), IPPROTO_TCP, TCP_QUICKACK, &one,
                   sizeof(one));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.broken = true;  // EOF or a socket error
    break;
  }
  const Clock::time_point now = Clock::now();
  while (true) {
    multilog::Result<std::optional<std::string>> frame = c.decoder.Next();
    if (!frame.ok()) {
      c.broken = true;
      return;
    }
    if (!frame->has_value()) return;
    multilog::Result<Json> resp = Json::Parse(**frame);
    if (!resp.ok() || c.inflight.empty()) {
      c.broken = true;
      return;
    }
    // Match by the echoed id; a server that answers in order without
    // echoing it (today's router) is matched first-in, first-out.
    auto it = c.inflight.begin();
    if (const Json* id = resp->Find("id"); id != nullptr && id->is_int()) {
      it = std::find_if(c.inflight.begin(), c.inflight.end(),
                        [&](const Conn::Pending& p) {
                          return p.id == id->int_value();
                        });
      if (it == c.inflight.end()) {
        c.broken = true;
        return;
      }
    }
    Conn::Pending p = std::move(*it);
    c.inflight.erase(it);
    Complete(ctx, c, std::move(p), *resp, now, st);
  }
}

void PollOnce(RunCtx& ctx, Conn& c, Inbox* inbox, int64_t wait_us, Stats& st) {
  pollfd fds[2] = {};
  fds[0].fd = c.client->fd();
  fds[0].events = POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0);
  nfds_t n = 1;
  if (inbox != nullptr) {
    fds[1].fd = inbox->efd;
    fds[1].events = POLLIN;
    n = 2;
  }
  wait_us = std::clamp<int64_t>(wait_us, 0, 5000);
  const timespec ts{0, static_cast<long>(wait_us * 1000)};
  if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
  if (fds[0].revents & POLLOUT) Flush(c);
  if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) ReadAvailable(ctx, c, st);
  if (n == 2 && (fds[1].revents & POLLIN)) {
    uint64_t v = 0;
    [[maybe_unused]] ssize_t r = ::read(inbox->efd, &v, sizeof(v));
  }
}

/// Sends the inbox's follow-ups; their due time is the ack that caused
/// them, so any delay is the system's.
void SendInbox(RunCtx& ctx, Conn& c, Phase phase, Stats& st) {
  for (auto& [op, due] : ctx.ryw_inbox->Take()) {
    Send(ctx, c, std::move(op), due, /*late_by_system=*/true, phase, st);
  }
}

/// Sends every blocked op whose prerequisite write was acked; drops the
/// ones whose prerequisite failed (already counted).
void SendUnblocked(RunCtx& ctx, Conn& c, Phase phase, Stats& st) {
  for (size_t i = 0; i < c.blocked.size();) {
    const WriteRec& needs = *c.blocked[i].first.needs;
    if (needs.acked.load() || needs.failed.load()) {
      auto [op, due] = std::move(c.blocked[i]);
      c.blocked.erase(c.blocked.begin() + static_cast<long>(i));
      if (!needs.failed.load()) {
        Send(ctx, c, std::move(op), due, /*late_by_system=*/true, phase, st);
      }
    } else {
      ++i;
    }
  }
}

bool Ready(const Op& op) { return !op.needs || op.needs->acked.load(); }

bool Drained(RunCtx& ctx, const Conn& c) {
  if (!Idle(c)) return false;
  if (!c.inbox_only) return true;
  return ctx.producers.load() == 0 && ctx.ryw_inbox->Empty();
}

void GiveUp(Conn& c, Stats& st) {
  ++st.broken;
  st.timed_out += c.inflight.size();
  for (const Conn::Pending& p : c.inflight) {
    if (p.phase == Phase::kFixed) ++st.late[p.op.kind];
  }
  if (st.errors.size() < 5) {
    st.errors.push_back("connection at " + c.level +
                        (c.broken ? " broke" : " did not drain") + " with " +
                        std::to_string(c.inflight.size()) + " in flight");
  }
  c.inflight.clear();
  c.blocked.clear();
  c.broken = true;
}

}  // namespace

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void TraceAcc::Merge(TraceAcc&& other) {
  for (auto& [name, values] : other.us) {
    std::vector<double>& mine = us[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  attributed_us += other.attributed_us;
  rtt_us += other.rtt_us;
  server_self_us += other.server_self_us;
  server_rtt_us += other.server_rtt_us;
  for (size_t i = 0; i < trace::kNumStages; ++i) {
    stages[i].count += other.stages[i].count;
    stages[i].total_micros += other.stages[i].total_micros;
    warm_stages[i].count += other.warm_stages[i].count;
    warm_stages[i].total_micros += other.warm_stages[i].total_micros;
  }
  stalled += other.stalled;
}

void AnalyzeQueryTrace(const Json& tree, double rtt_us, bool via_router,
                       bool min_seqno, TraceAcc* acc) {
  const double root = static_cast<double>(tree.GetInt("dur_us"));
  double children_us = 0;
  double execute_us = 0;
  double parsed_at = 0;
  double park = 0;
  if (const Json* children = tree.Find("children")) {
    for (const Json& child : children->array_items()) {
      const std::string stage = child.GetString("stage");
      const double d = static_cast<double>(child.GetInt("dur_us"));
      children_us += d;
      if (stage == "parse") {
        parsed_at = static_cast<double>(child.GetInt("start_us")) + d;
      }
      if (stage == "queue_wait" && min_seqno) {
        // A min_seqno query parks on the loop between parse and
        // dispatch until the replica has applied the seqno.
        park = std::max(0.0, static_cast<double>(child.GetInt("start_us")) -
                                 parsed_at);
        acc->Add("replication.min_seqno_wait", park);
        children_us += park;
      }
      if (stage == "parse" || stage == "queue_wait" || stage == "serialize") {
        acc->Add("server." + stage, d);
      } else if (stage == "execute") {
        execute_us += d;
        double engine_us = 0;
        if (const Json* inner = child.Find("children")) {
          for (const Json& span : inner->array_items()) {
            engine_us += static_cast<double>(span.GetInt("dur_us"));
          }
        }
        acc->Add("multilog.execute_self", d - engine_us);
        if (const double q = SumStage(child, "query_model"); q > 0) {
          acc->Add("datalog.query_model", q);
        }
        if (const double s = SumStage(child, "operational_solve"); s > 0) {
          acc->Add("multilog.solve", s);
        }
      }
    }
  }
  if (rtt_us < 0) return;
  const double outside = std::max(0.0, rtt_us - root);
  acc->Add(via_router ? "sharding.route_overhead" : "server.wire", outside);
  acc->attributed_us += outside + children_us;
  acc->rtt_us += rtt_us;
  acc->server_self_us += root - execute_us - park;
  acc->server_rtt_us += rtt_us;
}

void AnalyzeWriteTrace(const trace::SpanNode& root, double call_us,
                       TraceAcc* acc) {
  double validate = 0, delta_reduce = 0, delta_eval = 0, regroup = 0;
  // Before the first span: parsing the fact and waiting for db_mu.
  const double lock_wait =
      root.children.empty()
          ? 0
          : static_cast<double>(root.children.front().start_micros);
  double covered = lock_wait;
  acc->Add("multilog.lock_wait", lock_wait);
  std::vector<const trace::SpanNode*> wal;
  for (const trace::SpanNode& child : root.children) {
    const double d = static_cast<double>(child.duration_micros);
    covered += d;
    switch (child.stage) {
      case trace::Stage::kValidate:
        validate += d;
        break;
      case trace::Stage::kDeltaReduce:
        delta_reduce += d;
        break;
      case trace::Stage::kDeltaEval:
        delta_eval += d;
        break;
      case trace::Stage::kRegroup:
        regroup += d;
        break;
      case trace::Stage::kWalAppend:
        wal.push_back(&child);
        break;
      default:
        break;
    }
  }
  // The program labels two things wal_append: the record write under
  // the database lock, then (group commit) the SyncTo wait after it.
  const double record =
      wal.empty() ? 0 : static_cast<double>(wal[0]->duration_micros);
  acc->Add("multilog.write_hold",
           validate + record + delta_reduce + delta_eval + regroup);
  acc->Add("multilog.validate", validate);
  acc->Add("multilog.delta_reduce", delta_reduce);
  acc->Add("multilog.regroup", regroup);
  acc->Add("datalog.delta_eval", delta_eval);
  if (!wal.empty()) acc->Add("storage.wal_write", record);
  if (wal.size() > 1) {
    acc->Add("storage.commit_wait",
             static_cast<double>(wal[1]->duration_micros) - SumFsync(*wal[1]));
  }
  CollectFsyncs(root, acc);
  acc->attributed_us += covered;
  acc->rtt_us += call_us;
}

void Stats::Fail(const Op& op, Phase phase, const std::string& code,
                 const std::string& msg) {
  if (phase == Phase::kFixed) ++late[op.kind];
  if (code == "ResourceExhausted") {
    ++refused;
  } else if (code == "DeadlineExceeded") {
    ++timed_out;
  } else {
    ++failed;
  }
  if (op.write) op.write->failed.store(true);
  if (errors.size() < 5) {
    errors.push_back(std::string(kKindNames[op.kind]) + " " + code + ": " +
                     msg.substr(0, 300));
  }
}

void Stats::Merge(Stats&& other) {
  for (int k = 0; k < kNumKinds; ++k) {
    lat[k].insert(lat[k].end(), other.lat[k].begin(), other.lat[k].end());
  }
  cap_lat.insert(cap_lat.end(), other.cap_lat.begin(), other.cap_lat.end());
  cap_completed += other.cap_completed;
  send_lag.insert(send_lag.end(), other.send_lag.begin(), other.send_lag.end());
  attempted += other.attempted;
  failed += other.failed;
  refused += other.refused;
  timed_out += other.timed_out;
  wrong += other.wrong;
  broken += other.broken;
  for (int k = 0; k < kNumKinds; ++k) late[k] += other.late[k];
  lag_records.insert(lag_records.end(), other.lag_records.begin(),
                     other.lag_records.end());
  acked.insert(acked.end(), other.acked.begin(), other.acked.end());
  for (auto& [key, entry] : other.memo) {
    auto [it, inserted] = memo.try_emplace(key, entry);
    if (!inserted && it->second.bytes != entry.bytes) {
      ++wrong;
      if (errors.size() < 5) {
        errors.push_back("answers differ across connections: " +
                         entry.op.goal);
      }
    }
  }
  trace.Merge(std::move(other.trace));
  for (std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(std::move(e));
  }
}

Inbox::Inbox() : efd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

Inbox::~Inbox() {
  if (efd >= 0) ::close(efd);
}

void Inbox::Push(Op op, Clock::time_point due) {
  {
    std::lock_guard<std::mutex> lock(mu);
    items.emplace_back(std::move(op), due);
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(efd, &one, sizeof(one));
}

std::vector<std::pair<Op, Clock::time_point>> Inbox::Take() {
  std::lock_guard<std::mutex> lock(mu);
  return std::exchange(items, {});
}

bool Inbox::Empty() {
  std::lock_guard<std::mutex> lock(mu);
  return items.empty();
}

void DriveOpen(RunCtx& ctx, Conn& c, Phase phase, Clock::time_point start,
               Clock::time_point end, double rate, Stats& st) {
  std::exponential_distribution<double> gap(rate);
  auto next_gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap(c.gap_rng)));
  };
  Clock::time_point next_due = start + next_gap();
  bool done_sending = c.inbox_only;
  const Clock::time_point give_up = end + kDrainLimit;
  Inbox* inbox = c.inbox_only ? ctx.ryw_inbox : nullptr;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (c.inbox_only) SendInbox(ctx, c, phase, st);
    SendUnblocked(ctx, c, phase, st);
    while (!done_sending && next_due <= now) {
      if (next_due >= end) {
        done_sending = true;
        break;
      }
      Op op = c.source->Next();
      if (Ready(op)) {
        Send(ctx, c, std::move(op), next_due, false, phase, st);
      } else {
        c.blocked.emplace_back(std::move(op), next_due);
      }
      next_due += next_gap();
    }
    if (!done_sending && next_due >= end) done_sending = true;
    if (done_sending && c.blocked.empty() && Drained(ctx, c)) break;
    if (c.broken || now > give_up) {
      GiveUp(c, st);
      break;
    }
    int64_t wait_us = 5000;
    if (!done_sending) {
      wait_us = static_cast<int64_t>(UsBetween(now, next_due));
    }
    if (!c.blocked.empty()) wait_us = std::min<int64_t>(wait_us, 200);
    PollOnce(ctx, c, inbox, wait_us, st);
  }
  if (!c.inbox_only) ctx.producers.fetch_sub(1);
}

void DriveClosed(RunCtx& ctx, Conn& c, Phase phase, Clock::time_point end,
                 size_t depth, bool from_source, Stats& st) {
  const Clock::time_point give_up = end + kDrainLimit;
  Inbox* inbox = c.inbox_only ? ctx.ryw_inbox : nullptr;
  while (true) {
    const Clock::time_point now = Clock::now();
    const bool open = now < end;
    if (c.inbox_only) {
      SendInbox(ctx, c, phase, st);
    } else if (open) {
      SendUnblocked(ctx, c, phase, st);
      while (c.inflight.size() + c.blocked.size() < depth) {
        Op op;
        if (!c.queued.empty()) {
          op = std::move(c.queued.front());
          c.queued.pop_front();
        } else if (from_source) {
          op = c.source->Next();
        } else {
          break;
        }
        if (Ready(op)) {
          Send(ctx, c, std::move(op), Clock::now(), false, phase, st);
        } else {
          c.blocked.emplace_back(std::move(op), Clock::now());
        }
      }
    }
    const bool out_of_work =
        !open || (!from_source && c.queued.empty() && c.blocked.empty());
    if ((c.inbox_only || out_of_work) && Drained(ctx, c)) break;
    if (c.broken || now > give_up) {
      GiveUp(c, st);
      break;
    }
    int64_t wait_us = 5000;
    if (!c.blocked.empty()) wait_us = 200;
    PollOnce(ctx, c, inbox, wait_us, st);
  }
  // Closed-loop ops still waiting on a write at the deadline were never
  // sent; they are not part of the run.
  c.blocked.clear();
  if (!c.inbox_only) ctx.producers.fetch_sub(1);
}

}  // namespace perfbench
