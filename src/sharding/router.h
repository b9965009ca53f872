#ifndef MULTILOG_SHARDING_ROUTER_H_
#define MULTILOG_SHARDING_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lattice/lattice.h"
#include "multilog/database.h"
#include "multilog/engine.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"

namespace multilog::sharding {

/// One engine shard the router fans out to.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  uint16_t port = 0;
  /// Connections beyond this are refused, as by multilogd. The loop
  /// admits as many requests in flight as there may be connections, and
  /// may start a worker for each (plus one), since a relayed request
  /// holds its worker until the shard answers.
  size_t max_connections = 64;
  size_t max_request_bytes = 1u << 20;  // 1 MiB
  /// Deadline forwarded to shards for queries that carry none; 0 = none.
  int64_t default_deadline_ms = 0;
  ml::ExecMode default_mode = ml::ExecMode::kReduced;
  /// The shard fleet, indexed by shard id (ShardMap::ShardOfKey).
  std::vector<ShardEndpoint> shards;
};

/// Observability snapshot for the router's stats/metrics surface.
struct RouterCounters {
  uint64_t requests_total = 0;
  uint64_t point_queries = 0;
  uint64_t scatter_queries = 0;
  uint64_t anywhere_queries = 0;
  uint64_t refused_queries = 0;  // unroutable goals (cross-shard joins...)
  uint64_t writes_routed = 0;
  uint64_t checkpoint_fanouts = 0;
  uint64_t shard_errors = 0;  // transport failures talking to shards
};

/// # multilog-router: the scatter-gather query layer over N shards
///
/// A request handler behind multilogd's own serving loop
/// (server::Server), so it speaks the exact multilogd wire protocol -
/// same framing, pipelining, admission control, and session rules -
/// and every existing client works unchanged; `sql` and `replicate` are
/// refused (shards own those). HELLO binds {clearance, mode} against
/// the *same* database lattice the shards serve. Requests reach a shard
/// over a backend taken from a pool per (shard, clearance), shared by
/// all sessions: every pooled backend has said HELLO at its clearance,
/// so the shard re-enforces per-level visibility exactly as if the
/// client had connected to it directly, and the router adds no trusted
/// surface.
///
///  - Point queries (one ground entity key) go to the owning shard and
///    its response is relayed verbatim plus a "shard" member: byte-
///    identical answers in every mode, because the owner holds the
///    key's complete group (see routing.h).
///  - Wide queries (one shared non-ground key term) go to every shard -
///    all the sends first, then all the reads - and return the
///    deterministic ordered union of the decoded answers: the same
///    sorted, deduplicated order the reduced semantics produces on a
///    single engine, so reduced-mode answers are byte-identical.
///    (Operational proof *order* is an enumeration artifact; the answer
///    set is identical, served sorted.) Proof trees are refused on
///    scatter.
///  - Key-free goals route round-robin to any single shard (each holds
///    all of Lambda and Pi).
///  - Assert/Retract route to the written key's owner; Checkpoint fans
///    out to every shard.
///
/// `deadline_ms` and `min_seqno`/`wait_ms` are propagated per shard. A
/// shard that cannot be reached - or dies mid-query - yields
/// kUnavailable naming the shard, never a silently truncated answer; a
/// backend goes back to its pool only after its whole response was
/// read; a transport failure drops it and the shard's idle backends at
/// every clearance, and the next request dials afresh (one attempt), so
/// a restarted shard rejoins transparently. The
/// `shardmap` command serves the versioned map (hash name, shard count,
/// endpoints) to routing-aware clients.
class Router : private server::RequestHandler {
 public:
  /// `db_source` is the same MultiLog source the shards were seeded
  /// from: the router parses it for the lattice (HELLO validation) and
  /// the routing analysis, but never evaluates it.
  Router(std::string db_source, RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Checks the database + shardability, binds, and starts serving.
  Status Start();

  /// Graceful shutdown; idempotent.
  void Stop();

  uint16_t port() const { return loop_ != nullptr ? loop_->port() : 0; }
  const ShardMap& shard_map() const { return map_; }
  RouterCounters Counters() const;

 private:
  // server::RequestHandler
  Status Serves(server::Request::Cmd cmd) const override;
  Result<server::Json> Hello(const std::string& level,
                             ml::ExecMode mode) override;
  /// No floor is checked here: each shard enforces `min_seqno` itself.
  uint64_t AppliedSeqno() const override;
  server::Json Handle(const server::Call& call) override;
  /// Never reached: Serves refuses `replicate`.
  void ServeReplication(int fd, uint64_t from_seqno,
                        const std::atomic<bool>& stopping) override;

  /// An idle backend for `shard` at `level`, or a fresh one dialed
  /// (one attempt) and bound by HELLO at that clearance. kUnavailable,
  /// naming the shard, when the dial fails.
  Result<server::Client> Checkout(size_t shard, const std::string& level);
  /// Returns a backend whose whole response has been read.
  void Checkin(size_t shard, const std::string& level,
               server::Client backend);
  /// Counts a transport failure on `shard` and drops its idle backends
  /// at every clearance: whatever broke the failed one (a restart
  /// closes every connection) broke them too, so the next request
  /// dials afresh instead of failing once per pooled backend.
  void ShardFailed(size_t shard);
  /// Wraps a transport-level failure talking to `shard` as
  /// kUnavailable naming it.
  Status ShardUnavailable(size_t shard, const Status& cause);

  server::Json HandleQuery(const server::Call& call);
  server::Json HandleWrite(const server::Call& call);
  server::Json RelayToShard(size_t shard, const std::string& level,
                            const server::Json& request);
  server::Json ScatterQuery(const std::string& level,
                            const server::Json& request);
  server::Json ShardMapJson() const;
  server::Json StatsJson(const server::ServerMetrics& loop) const;
  std::string MetricsText(const server::ServerMetrics& loop) const;

  std::string db_source_;
  RouterOptions options_;
  ShardMap map_;
  RoutingAnalysis analysis_;
  lattice::SecurityLattice lattice_;

  std::atomic<uint64_t> point_queries_{0};
  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> anywhere_queries_{0};
  std::atomic<uint64_t> refused_queries_{0};
  std::atomic<uint64_t> writes_routed_{0};
  std::atomic<uint64_t> checkpoint_fanouts_{0};
  std::atomic<uint64_t> shard_errors_{0};
  std::atomic<uint64_t> round_robin_{0};

  /// Idle backends by (shard, clearance).
  std::mutex pool_mu_;
  std::map<std::pair<size_t, std::string>, std::vector<server::Client>>
      pool_;

  std::unique_ptr<server::Server> loop_;
};

}  // namespace multilog::sharding

#endif  // MULTILOG_SHARDING_ROUTER_H_
