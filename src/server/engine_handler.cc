#include "server/engine_handler.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/cancel.h"
#include "msql/executor.h"
#include "multilog/proof.h"
#include "replication/log_shipper.h"

namespace multilog::server {

namespace {

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// One span-tree node as response JSON: stage name, start offset, and
/// duration in µs, with nested children.
Json TraceNodeJson(const trace::SpanNode& node) {
  Json j = Json::Object();
  j.Set("stage", Json::Str(trace::StageName(node.stage)));
  j.Set("start_us", Json::Int(static_cast<int64_t>(node.start_micros)));
  j.Set("dur_us", Json::Int(static_cast<int64_t>(node.duration_micros)));
  if (!node.children.empty()) {
    Json children = Json::Array();
    for (const trace::SpanNode& child : node.children) {
      children.Push(TraceNodeJson(child));
    }
    j.Set("children", std::move(children));
  }
  return j;
}

/// The leaf span with the largest duration - where the request actually
/// spent its time (inner spans carry the exclusive cost). nullptr when
/// the tree is only its root.
const trace::SpanNode* DominantSpan(const trace::SpanNode& root) {
  const trace::SpanNode* best = nullptr;
  std::vector<const trace::SpanNode*> stack;
  for (const trace::SpanNode& child : root.children) stack.push_back(&child);
  while (!stack.empty()) {
    const trace::SpanNode* node = stack.back();
    stack.pop_back();
    if (node->children.empty()) {
      if (best == nullptr || node->duration_micros > best->duration_micros) {
        best = node;
      }
    }
    for (const trace::SpanNode& child : node->children) {
      stack.push_back(&child);
    }
  }
  return best;
}

}  // namespace

EngineHandler::EngineHandler(ml::Engine* engine, const ServerOptions& options,
                             std::vector<SqlCatalogEntry> catalog,
                             const mls::BeliefModeRegistry* belief_registry)
    : engine_(engine),
      options_(options),
      catalog_(std::move(catalog)),
      belief_registry_(belief_registry) {}

Status EngineHandler::Serves(Request::Cmd cmd) const {
  if (cmd == Request::Cmd::kShardMap) {
    return Status::InvalidArgument(
        "this daemon is not a router; 'shardmap' is served by "
        "multilogd --router");
  }
  return Status::OK();
}

Result<Json> EngineHandler::Hello(const std::string& level,
                                  ml::ExecMode mode) {
  if (!engine_->lattice().Contains(level)) {
    return Status::SecurityViolation("unknown clearance level '" + level +
                                     "'");
  }
  Json resp = OkResponse();
  resp.Set("server", Json::Str("multilogd"));
  resp.Set("level", Json::Str(level));
  resp.Set("mode", Json::Str(ExecModeName(mode)));
  resp.Set("sql", Json::Bool(!catalog_.empty()));
  return resp;
}

uint64_t EngineHandler::AppliedSeqno() const {
  return engine_->AppliedSeqno();
}

Json EngineHandler::Handle(const Call& call) {
  const Request& req = call.req;
  // A collector rides along when the client asked for a trace or the
  // slow-query log needs a span tree to attribute time.
  std::optional<trace::Collector> collector;
  if (req.cmd == Request::Cmd::kQuery &&
      (req.want_trace || options_.slow_query_ms >= 0)) {
    collector.emplace(call.t_read);
    collector->AddLeaf(trace::Stage::kParse, call.t_read, call.t_parsed);
    collector->AddLeaf(trace::Stage::kQueueWait, call.t_submit,
                       trace::Collector::Clock::now());
  }
  Json resp;
  {
    trace::ScopedCollector install(collector.has_value() ? &*collector
                                                         : nullptr);
    switch (req.cmd) {
      case Request::Cmd::kQuery:
        resp = HandleQuery(call);
        break;
      case Request::Cmd::kSql:
        resp = HandleSql(call);
        break;
      case Request::Cmd::kStats: {
        resp = OkResponse();
        resp.Set("stats", StatsJson(call));
        break;
      }
      case Request::Cmd::kMetrics: {
        resp = OkResponse();
        resp.Set("format", Json::Str("prometheus"));
        resp.Set("body", Json::Str(MetricsText(call)));
        break;
      }
      default:
        resp = HandleWrite(call);
        break;
    }
  }
  // Close the root when the work ends: completion-queue latency back to
  // the loop is scheduler noise, not query time.
  if (collector.has_value()) {
    const trace::SpanNode root =
        collector->Finish(trace::Collector::Clock::now());
    if (req.want_trace) {
      Json tj = TraceNodeJson(root);
      if (collector->dropped_spans() > 0) {
        tj.Set("dropped_spans",
               Json::Int(static_cast<int64_t>(collector->dropped_spans())));
      }
      resp.Set("trace", std::move(tj));
    }
    if (options_.slow_query_ms >= 0 &&
        root.duration_micros >=
            static_cast<uint64_t>(options_.slow_query_ms) * 1000) {
      LogSlowQuery(call, root);
    }
  }
  return resp;
}

void EngineHandler::ServeReplication(int fd, uint64_t from_seqno,
                                     const std::atomic<bool>& stopping) {
  replication_streams_.fetch_add(1, std::memory_order_relaxed);
  replication::ServeReplication(fd, engine_, from_seqno, &stopping);
}

Json EngineHandler::HandleQuery(const Call& call) {
  const Request& req = call.req;
  // Deadline precedence: the request's own deadline_ms (0 is a valid
  // "already expired" probe), else the server default, else none.
  CancelToken cancel;
  const CancelToken* cancel_ptr = nullptr;
  if (req.deadline_ms >= 0) {
    cancel.SetTimeout(std::chrono::milliseconds(req.deadline_ms));
    cancel_ptr = &cancel;
  } else if (options_.default_deadline_ms > 0) {
    cancel.SetTimeout(std::chrono::milliseconds(options_.default_deadline_ms));
    cancel_ptr = &cancel;
  }
  const ml::ExecMode mode =
      req.mode.has_value() ? *req.mode : call.mode;

  const auto start = std::chrono::steady_clock::now();
  Result<ml::QueryResult> result = ml::QueryResult{};
  {
    trace::Span exec_span(trace::Stage::kExecute);
    result = engine_->QuerySource(req.goal, call.level, mode, cancel_ptr);
  }
  const uint64_t micros = ElapsedMicros(start);
  call.metrics.RecordQuery(call.level, static_cast<size_t>(mode), micros);

  if (!result.ok()) {
    if (result.status().IsDeadlineExceeded()) {
      call.metrics.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    } else {
      call.metrics.query_errors.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(result.status());
  }
  call.metrics.queries_ok.fetch_add(1, std::memory_order_relaxed);
  call.metrics.rows_returned.fetch_add(result->answers.size(),
                                       std::memory_order_relaxed);

  trace::Span serialize_span(trace::Stage::kSerialize);
  Json resp = OkResponse();
  resp.Set("level", Json::Str(call.level));
  resp.Set("mode", Json::Str(ExecModeName(mode)));
  Json answers = Json::Array();
  for (const datalog::Substitution& answer : result->answers) {
    answers.Push(Json::Str(answer.ToString()));
  }
  resp.Set("count", Json::Int(static_cast<int64_t>(result->answers.size())));
  resp.Set("answers", std::move(answers));
  if (req.want_proofs && !result->proofs.empty()) {
    Json proofs = Json::Array();
    for (const ml::ProofPtr& proof : result->proofs) {
      proofs.Push(Json::Str(ml::RenderProof(*proof)));
    }
    resp.Set("proofs", std::move(proofs));
  }
  resp.Set("elapsed_ms", Json::Double(static_cast<double>(micros) / 1000.0));
  return resp;
}

Json EngineHandler::HandleWrite(const Call& call) {
  const Request& req = call.req;
  const auto start = std::chrono::steady_clock::now();
  Json resp = OkResponse();
  if (req.cmd == Request::Cmd::kCheckpoint) {
    const Status s = engine_->Checkpoint();
    if (!s.ok()) {
      call.metrics.write_errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(s);
    }
    if (engine_->storage() != nullptr) {
      resp.Set("snapshot", Json::Str(engine_->storage()->snapshot_path()));
    }
  } else {
    const bool retract = req.cmd == Request::Cmd::kRetract;
    Result<ml::WriteResult> result =
        retract ? engine_->Retract(req.fact, call.level)
                : engine_->Assert(req.fact, call.level);
    if (!result.ok()) {
      call.metrics.write_errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(result.status());
    }
    resp.Set("seqno", Json::Int(static_cast<int64_t>(result->seqno)));
    Json invalidated = Json::Array();
    for (const std::string& level : result->invalidated_levels) {
      invalidated.Push(Json::Str(level));
    }
    resp.Set("invalidated_levels", std::move(invalidated));
    Json maintained = Json::Array();
    for (const std::string& level : result->maintained_levels) {
      maintained.Push(Json::Str(level));
    }
    resp.Set("maintained_levels", std::move(maintained));
    resp.Set("durable", Json::Bool(engine_->storage() != nullptr));
  }
  call.metrics.writes_ok.fetch_add(1, std::memory_order_relaxed);
  resp.Set("level", Json::Str(call.level));
  resp.Set("elapsed_ms",
           Json::Double(static_cast<double>(ElapsedMicros(start)) / 1000.0));
  return resp;
}

Json EngineHandler::HandleSql(const Call& call) {
  if (catalog_.empty()) {
    call.metrics.query_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::InvalidArgument(
        "this server has no SQL catalog configured"));
  }
  const auto start = std::chrono::steady_clock::now();
  Result<msql::ResultSet> result = [&] {
    msql::Session session(belief_registry_);
    for (const SqlCatalogEntry& entry : catalog_) {
      session.RegisterRelation(entry.name, entry.relation);
    }
    session.SetUserContext(call.level);
    session.LockUserContext();
    trace::Span sql_span(trace::Stage::kSqlExecute);
    return session.Execute(call.req.sql);
  }();
  const uint64_t micros = ElapsedMicros(start);
  call.metrics.latency().Record(micros);

  if (!result.ok()) {
    call.metrics.query_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(result.status());
  }
  call.metrics.queries_ok.fetch_add(1, std::memory_order_relaxed);
  call.metrics.rows_returned.fetch_add(result->rows.size(),
                                       std::memory_order_relaxed);

  Json resp = OkResponse();
  Json columns = Json::Array();
  for (const std::string& column : result->columns) {
    columns.Push(Json::Str(column));
  }
  Json rows = Json::Array();
  for (const std::vector<std::string>& row : result->rows) {
    Json cells = Json::Array();
    for (const std::string& cell : row) cells.Push(Json::Str(cell));
    rows.Push(std::move(cells));
  }
  resp.Set("columns", std::move(columns));
  resp.Set("count", Json::Int(static_cast<int64_t>(result->rows.size())));
  resp.Set("rows", std::move(rows));
  resp.Set("elapsed_ms", Json::Double(static_cast<double>(micros) / 1000.0));
  return resp;
}

Json EngineHandler::StatsJson(const Call& call) {
  Json root = call.metrics.ToJson();
  root.Set("in_flight", Json::Int(static_cast<int64_t>(call.in_flight)));
  const ml::EngineCounters ec = engine_->Counters();
  Json engine = Json::Object();
  engine.Set("cache_hits", Json::Int(static_cast<int64_t>(ec.cache_hits)));
  engine.Set("cache_misses", Json::Int(static_cast<int64_t>(ec.cache_misses)));
  engine.Set("invalidation_events",
             Json::Int(static_cast<int64_t>(ec.invalidation_events)));
  engine.Set("cache_entries_invalidated",
             Json::Int(static_cast<int64_t>(ec.cache_entries_invalidated)));
  engine.Set("deltas_applied",
             Json::Int(static_cast<int64_t>(ec.deltas_applied)));
  engine.Set("fallback_recomputes",
             Json::Int(static_cast<int64_t>(ec.fallback_recomputes)));
  engine.Set("live_models", Json::Int(static_cast<int64_t>(ec.live_models)));
  engine.Set("plan_hits", Json::Int(static_cast<int64_t>(ec.plan_hits)));
  engine.Set("plan_misses", Json::Int(static_cast<int64_t>(ec.plan_misses)));
  engine.Set("magic_fallbacks",
             Json::Int(static_cast<int64_t>(ec.magic_fallbacks)));
  engine.Set("asserts_ok", Json::Int(static_cast<int64_t>(ec.asserts_ok)));
  engine.Set("retracts_ok", Json::Int(static_cast<int64_t>(ec.retracts_ok)));
  engine.Set("writes_rejected",
             Json::Int(static_cast<int64_t>(ec.writes_rejected)));
  engine.Set("checkpoints", Json::Int(static_cast<int64_t>(ec.checkpoints)));
  root.Set("engine", std::move(engine));
  const ml::StorageCounters sc = engine_->StorageStats();
  root.Set("applied_seqno", Json::Int(static_cast<int64_t>(sc.applied_seqno)));
  root.Set("read_only", Json::Bool(options_.read_only));
  if (sc.attached) {
    Json storage = Json::Object();
    storage.Set("dir", Json::Str(sc.dir));
    storage.Set("next_seqno", Json::Int(static_cast<int64_t>(sc.next_seqno)));
    storage.Set("snapshot_seqno",
                Json::Int(static_cast<int64_t>(sc.snapshot_seqno)));
    storage.Set("wal_records", Json::Int(static_cast<int64_t>(
                                   sc.wal_records)));
    storage.Set("wal_bytes", Json::Int(static_cast<int64_t>(sc.wal_bytes)));
    storage.Set("checkpoints", Json::Int(static_cast<int64_t>(
                                   sc.checkpoints)));
    storage.Set("group_syncs",
                Json::Int(static_cast<int64_t>(sc.group_syncs)));
    if (!sc.recovery_data_loss.empty()) {
      storage.Set("recovery_data_loss", Json::Str(sc.recovery_data_loss));
    }
    root.Set("storage", std::move(storage));
  }
  // Replication, from whichever side this daemon plays: streams served
  // (primary) and, on a replica, the link state the Replicator tracks.
  Json repl = Json::Object();
  repl.Set("streams_served",
           Json::Int(static_cast<int64_t>(
               replication_streams_.load(std::memory_order_relaxed))));
  if (replicator_ != nullptr) {
    const replication::Replicator::Stats rs = replicator_->GetStats();
    repl.Set("connected", Json::Bool(rs.connected));
    repl.Set("applied_seqno",
             Json::Int(static_cast<int64_t>(rs.applied_seqno)));
    repl.Set("primary_next_seqno",
             Json::Int(static_cast<int64_t>(rs.primary_next_seqno)));
    // Lag in records: how far the primary's committed tip is past what
    // this replica has applied. 0 until the first heartbeat reports the
    // primary's position.
    const uint64_t lag = rs.primary_next_seqno > rs.applied_seqno + 1
                             ? rs.primary_next_seqno - rs.applied_seqno - 1
                             : 0;
    repl.Set("lag_records", Json::Int(static_cast<int64_t>(lag)));
    repl.Set("records_applied",
             Json::Int(static_cast<int64_t>(rs.records_applied)));
    repl.Set("snapshots_installed",
             Json::Int(static_cast<int64_t>(rs.snapshots_installed)));
    repl.Set("reconnects", Json::Int(static_cast<int64_t>(rs.reconnects)));
    if (!rs.last_error.empty()) {
      repl.Set("last_error", Json::Str(rs.last_error));
    }
  }
  root.Set("replication", std::move(repl));
  return root;
}

std::string EngineHandler::MetricsText(const Call& call) {
  std::string out = call.metrics.PrometheusText();
  auto counter = [&out](const char* name, const char* help, uint64_t value,
                        const char* type = "counter") {
    out.append("# HELP ").append(name).append(" ").append(help).append("\n");
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  };
  counter("multilog_requests_in_flight",
          "Dispatched requests currently executing or queued.",
          call.in_flight, "gauge");

  const ml::EngineCounters ec = engine_->Counters();
  counter("multilog_engine_cache_hits_total",
          "Per-level cache lookups that hit.", ec.cache_hits);
  counter("multilog_engine_cache_misses_total",
          "Per-level cache lookups that had to build.", ec.cache_misses);
  counter("multilog_engine_invalidation_events_total", "Committed writes.",
          ec.invalidation_events);
  counter("multilog_engine_cache_entries_invalidated_total",
          "Cache entries dropped by committed writes.",
          ec.cache_entries_invalidated);
  counter("multilog_engine_asserts_ok_total", "Asserts committed.",
          ec.asserts_ok);
  counter("multilog_engine_retracts_ok_total", "Retracts committed.",
          ec.retracts_ok);
  counter("multilog_engine_writes_rejected_total",
          "Mutations rejected by security or integrity checks.",
          ec.writes_rejected);
  counter("multilog_engine_checkpoints_total", "Checkpoints taken.",
          ec.checkpoints);
  counter("multilog_engine_deltas_applied_total",
          "Cached models maintained in place by delta propagation.",
          ec.deltas_applied);
  counter("multilog_engine_fallback_recomputes_total",
          "Incremental maintenance fallbacks to full recompute.",
          ec.fallback_recomputes);
  counter("multilog_engine_live_models", "Maintained per-level models.",
          ec.live_models, "gauge");
  counter("multilog_engine_plan_hits_total",
          "Compiled magic plans served from the plan cache.", ec.plan_hits);
  counter("multilog_engine_plan_misses_total",
          "Magic plan compiles (first query of a binding pattern).",
          ec.plan_misses);
  counter("multilog_engine_magic_fallbacks_total",
          "Queries the magic path declined to the full bottom-up path.",
          ec.magic_fallbacks);

  const ml::StorageCounters sc = engine_->StorageStats();
  counter("multilog_applied_seqno",
          "Last mutation sequence number applied to the database.",
          sc.applied_seqno, "gauge");
  if (sc.attached) {
    counter("multilog_storage_next_seqno", "Next mutation sequence number.",
            sc.next_seqno, "gauge");
    counter("multilog_storage_snapshot_seqno",
            "Sequence number the on-disk snapshot covers.",
            sc.snapshot_seqno, "gauge");
    counter("multilog_storage_wal_records",
            "Records in the live WAL segment.", sc.wal_records, "gauge");
    counter("multilog_storage_wal_bytes", "Bytes in the live WAL segment.",
            sc.wal_bytes, "gauge");
    counter("multilog_storage_checkpoints_total", "Checkpoints folded.",
            sc.checkpoints);
    counter("multilog_storage_group_syncs_total",
            "Group-commit fsync batches (each covers >= 1 append).",
            sc.group_syncs);
    counter("multilog_storage_recovery_data_loss",
            "1 when the last recovery truncated a damaged WAL tail.",
            sc.recovery_data_loss.empty() ? 0 : 1, "gauge");
  }
  counter("multilog_replication_streams_served_total",
          "Replication streams this daemon has served as the primary.",
          replication_streams_.load(std::memory_order_relaxed));
  if (replicator_ != nullptr) {
    const replication::Replicator::Stats rs = replicator_->GetStats();
    counter("multilog_replica_connected",
            "1 while the replication link to the primary is up.",
            rs.connected ? 1 : 0, "gauge");
    counter("multilog_replica_lag_records",
            "Primary mutations not yet applied on this replica.",
            rs.primary_next_seqno > rs.applied_seqno + 1
                ? rs.primary_next_seqno - rs.applied_seqno - 1
                : 0,
            "gauge");
    counter("multilog_replica_records_applied_total",
            "Shipped WAL records applied by this replica.",
            rs.records_applied);
    counter("multilog_replica_snapshots_installed_total",
            "Catch-up snapshots installed by this replica.",
            rs.snapshots_installed);
    counter("multilog_replica_reconnects_total",
            "Reconnections to the primary after the first attempt.",
            rs.reconnects);
    counter("multilog_replica_has_error",
            "1 while the link's most recent failure is unresolved (cleared "
            "on the first healthy frame after reconnect).",
            rs.last_error.empty() ? 0 : 1, "gauge");
  }

  // Per-stage trace aggregates (populated when tracing is enabled
  // globally or per-query collectors ran).
  const std::array<trace::StageTotal, trace::kNumStages> stages =
      trace::AggregatedStages();
  out.append(
      "# HELP multilog_stage_spans_total Trace spans recorded per stage.\n"
      "# TYPE multilog_stage_spans_total counter\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    out.append("multilog_stage_spans_total{stage=\"")
        .append(trace::StageName(static_cast<trace::Stage>(i)))
        .append("\"} ")
        .append(std::to_string(stages[i].count))
        .append("\n");
  }
  out.append(
      "# HELP multilog_stage_duration_seconds_total Cumulative time per "
      "stage.\n"
      "# TYPE multilog_stage_duration_seconds_total counter\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g",
                  static_cast<double>(stages[i].total_micros) / 1e6);
    out.append("multilog_stage_duration_seconds_total{stage=\"")
        .append(trace::StageName(static_cast<trace::Stage>(i)))
        .append("\"} ")
        .append(buf)
        .append("\n");
  }
  return out;
}

void EngineHandler::LogSlowQuery(const Call& call,
                                 const trace::SpanNode& root) {
  const ml::ExecMode mode =
      call.req.mode.has_value() ? *call.req.mode : call.mode;
  std::ostringstream line;
  line << "[multilogd] slow query: "
       << static_cast<double>(root.duration_micros) / 1000.0
       << " ms level=" << call.level << " mode=" << ExecModeName(mode);
  if (const trace::SpanNode* dominant = DominantSpan(root)) {
    line << " dominant=" << trace::StageName(dominant->stage) << ":"
         << static_cast<double>(dominant->duration_micros) / 1000.0 << "ms";
  }
  line << " goal=" << call.req.goal << "\n";
  std::ostream* sink =
      options_.slow_query_log != nullptr ? options_.slow_query_log
                                         : &std::cerr;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  (*sink) << line.str() << std::flush;
}

}  // namespace multilog::server
