#ifndef MULTILOG_SERVER_ENGINE_HANDLER_H_
#define MULTILOG_SERVER_ENGINE_HANDLER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "mls/belief.h"
#include "multilog/engine.h"
#include "replication/replicator.h"
#include "server/server.h"

namespace multilog::server {

/// The engine behind multilogd's serving loop: queries and writes at
/// the session clearance, MSQL over the catalog, the stats and metrics
/// surfaces, and replication streams for replicas.
class EngineHandler : public RequestHandler {
 public:
  /// `engine` must be non-null and outlive the handler; so must the
  /// catalog's relations and `belief_registry` (null = built-ins).
  EngineHandler(ml::Engine* engine, const ServerOptions& options,
                std::vector<SqlCatalogEntry> catalog,
                const mls::BeliefModeRegistry* belief_registry);

  void SetReplicator(const replication::Replicator* replicator) {
    replicator_ = replicator;
  }

  /// Everything but `shardmap`.
  Status Serves(Request::Cmd cmd) const override;
  Result<Json> Hello(const std::string& level, ml::ExecMode mode) override;
  uint64_t AppliedSeqno() const override;
  /// Runs the request under a span collector when the client asked for
  /// a trace or the slow-query log needs one.
  Json Handle(const Call& call) override;
  void ServeReplication(int fd, uint64_t from_seqno,
                        const std::atomic<bool>& stopping) override;

 private:
  Json HandleQuery(const Call& call);
  /// MSQL on a session built for this statement: the catalog's
  /// read-only relations with the user context locked at the session
  /// level, so no statement can change what a later one sees.
  Json HandleSql(const Call& call);
  /// ASSERT / RETRACT / CHECKPOINT at the session clearance. The engine
  /// serializes the mutation against in-flight queries behind its
  /// database lock; by the time the response is written, the write is
  /// durable (when the engine has storage) and visible to every later
  /// query on every connection.
  Json HandleWrite(const Call& call);
  /// The STATS payload: the loop's metrics plus the engine's
  /// cache/mutation counters and, when durable, the storage surface.
  Json StatsJson(const Call& call);
  /// The METRICS payload: the full Prometheus text exposition -
  /// ServerMetrics::PrometheusText() plus the in-flight gauge, the
  /// engine and storage counter families, and the per-stage trace
  /// aggregates.
  std::string MetricsText(const Call& call);
  /// Appends one slow-query line (level, mode, wall ms, dominant stage,
  /// goal) to options_.slow_query_log (stderr when unset).
  void LogSlowQuery(const Call& call, const trace::SpanNode& root);

  ml::Engine* engine_;
  ServerOptions options_;
  std::vector<SqlCatalogEntry> catalog_;
  const mls::BeliefModeRegistry* belief_registry_;
  const replication::Replicator* replicator_ = nullptr;
  std::atomic<uint64_t> replication_streams_{0};  // served as the primary
  std::mutex slow_log_mu_;
};

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_ENGINE_HANDLER_H_
