// The perfbench load generator: one thread per connection drives
// id-tagged, pipelined requests over a real loopback socket, in an open
// loop (seeded exponential arrivals, latency from each request's due
// time) or a closed loop (a fixed number of requests in flight).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "multilog/engine.h"
#include "perfbench/gen.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);
double UsBetween(Clock::time_point a, Clock::time_point b);

enum class Phase { kWarm, kRamp, kFixed, kCapacity };

using Stages =
    std::array<multilog::trace::StageTotal, multilog::trace::kNumStages>;

/// Per-layer figures taken from span trees in a traced run. Keys are
/// metric names without the unit suffix; values are microseconds.
struct TraceAcc {
  std::map<std::string, std::vector<double>> us;
  double attributed_us = 0;  // RTT covered by named stages or intervals
  double rtt_us = 0;
  double server_self_us = 0;  // request root minus execute
  double server_rtt_us = 0;
  /// Every span of the trees the serving role returned (all but the
  /// replica's), summed per stage: over the fixed-rate phase, and over
  /// the warm-up.
  Stages stages{};
  Stages warm_stages{};
  /// Traced answers whose round trip overlapped one of the generator
  /// thread's own direct writes, left out of the RTT-derived figures.
  uint64_t stalled = 0;
  void Add(const std::string& name, double v) { us[name].push_back(v); }
  void Merge(TraceAcc&& other);
};

/// Adds one traced query answer: `tree` is the response's span tree,
/// `rtt_us` the client round trip, or negative when the round trip
/// overlapped a direct write on the generator thread (then only the
/// server-side stages count). Through the router the tree is the owning
/// shard's, so RTT minus its root is the route overhead. `min_seqno`
/// marks a bounded-staleness read, whose park on the server loop is
/// attributed to replication.
void AnalyzeQueryTrace(const multilog::server::Json& tree, double rtt_us,
                       bool via_router, bool min_seqno, TraceAcc* acc);
/// Adds one traced Engine::Assert/Retract call. Time before its first
/// span is the fact parse plus the wait for the database lock.
void AnalyzeWriteTrace(const multilog::trace::SpanNode& root, double call_us,
                       TraceAcc* acc);

struct MemoEntry {
  Op op;
  std::string bytes;  // serialized answers (and proofs)
};

/// What one connection's thread measured.
struct Stats {
  std::vector<double> lat[kNumKinds];  // fixed-rate phase, ms from due time
  std::vector<double> cap_lat;         // closed loop, ms from send
  uint64_t cap_completed = 0;
  std::vector<double> send_lag;  // fixed-rate phase, generator lateness ms
  uint64_t attempted = 0, failed = 0, refused = 0, timed_out = 0, wrong = 0;
  uint64_t broken = 0;  // connections given up on
  /// Fixed-rate ops that failed or timed out: they miss every latency
  /// limit, so the limit checks count them as infinitely late.
  uint64_t late[kNumKinds] = {};
  std::vector<double> lag_records;  // replica lag sampled at write acks
  std::vector<std::shared_ptr<WriteRec>> acked;  // acked writes
  std::map<std::string, MemoEntry> memo;
  TraceAcc trace;
  std::vector<std::string> errors;  // the first few, for stderr

  uint64_t Failures() const {
    return failed + refused + timed_out + wrong + broken;
  }
  void Fail(const Op& op, Phase phase, const std::string& code,
            const std::string& msg);
  void Merge(Stats&& other);
};

/// Follow-up requests handed to another connection's thread (the
/// read-your-writes queries write_mix sends to the replica).
struct Inbox {
  Inbox();
  ~Inbox();
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;
  void Push(Op op, Clock::time_point due);
  std::vector<std::pair<Op, Clock::time_point>> Take();
  bool Empty();

  std::mutex mu;
  std::vector<std::pair<Op, Clock::time_point>> items;  // guarded by mu
  int efd = -1;
};

struct Conn {
  std::string level;
  bool inbox_only = false;  // sends only what arrives in the run's inbox
  std::optional<multilog::server::Client> client;
  multilog::server::FrameDecoder decoder{
      multilog::server::kAbsoluteMaxFrameBytes};
  std::string out;
  size_t out_off = 0;
  struct Pending {
    int64_t id;
    Op op;
    Clock::time_point due, sent;
    Phase phase;
  };
  std::deque<Pending> inflight;
  int64_t next_id = 1;
  std::unique_ptr<Source> source;
  std::deque<Op> queued;  // sent before anything the source draws
  std::mt19937_64 gap_rng;
  /// Ops whose prerequisite write is not acked yet, with due times.
  std::vector<std::pair<Op, Clock::time_point>> blocked;
  bool broken = false;
  /// When this thread's latest direct write (traced runs) returned:
  /// answers due before it waited on the thread, not only the system.
  Clock::time_point stall_end{};
};

/// Shared by every connection thread of one measured run.
struct RunCtx {
  bool traced = false;
  bool via_router = false;
  Inbox* ryw_inbox = nullptr;  // write_mix: follow-ups for acked writes
  std::string ryw_level;
  std::atomic<int> producers{0};  // threads still able to push follow-ups
  Clock::time_point cap_end{};
  /// Traced runs time writes as direct engine calls instead of sending
  /// them (the wire carries no trace flag for writes).
  std::function<multilog::Result<multilog::ml::WriteResult>(const WriteRec&)>
      direct_write;
  /// Replica lag in records, sampled at each write ack (write_mix).
  std::function<double()> sample_lag;
};

/// Open loop: sends the source's ops at seeded exponential gaps of
/// `rate` ops/s from `start` until `end`, then drains.
void DriveOpen(RunCtx& ctx, Conn& c, Phase phase, Clock::time_point start,
               Clock::time_point end, double rate, Stats& st);

/// Closed loop: keeps `depth` requests in flight until `end` (queued
/// ops first, then the source's when `from_source`), then drains.
void DriveClosed(RunCtx& ctx, Conn& c, Phase phase, Clock::time_point end,
                 size_t depth, bool from_source, Stats& st);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
