// multilogd: serve a MultiLog database over TCP.
//
//   $ multilogd --sample --port 7690
//   $ multilogd --db mission.mlog --port 7690 --workers 8
//   $ multilogd --db mission.mlog --data-dir /var/lib/multilog
//
// With --sample the server loads the paper's D1 database (Figure 10)
// and additionally exposes the Figure 1 Mission relation to the `sql`
// command. Clients speak the length-delimited JSON protocol described
// in src/server/protocol.h (see also `multilog_client`).
//
// With --data-dir the database is durable: on first start the --db (or
// --sample) source seeds the directory's snapshot; on every later start
// the directory wins - the snapshot plus WAL replay reconstruct exactly
// the state as of the last acknowledged write, and the `assert` /
// `retract` / `checkpoint` commands are persisted there. A torn WAL
// tail (crash mid-append) is truncated and reported on stderr at boot.
//
// With --replica-of HOST:PORT the daemon is a read-only replica: a
// background replicator streams the primary's WAL (snapshot catch-up
// included), applies it through the engine, and - when --data-dir is
// also given - persists it locally so a restarted replica resumes from
// its own applied seqno. Client writes are rejected with ReadOnly;
// reads, stats, and metrics serve normally:
//
//   $ multilogd --sample --port 7690 --data-dir /var/lib/ml-primary
//   $ multilogd --sample --port 7691 --data-dir /var/lib/ml-replica \
//       --replica-of 127.0.0.1:7690
//
// With --router --shards HOST:PORT,... the daemon is a scatter-gather
// query router instead of an engine: it speaks the same protocol, but
// routes each query/write to the hash-owning shard (or scatters wide
// queries across all of them) - see src/sharding/router.h. The --db /
// --sample source is parsed for the lattice and the routing analysis
// only; the shards must have been seeded with the matching per-shard
// partition of the same source (examples/sharding_demo.sh shows the
// full flow). The router serves from the same loop with its default
// workers, so the engine's flags (--workers, --max-inflight,
// --slow-query-ms, --no-*) are refused rather than ignored:
//
//   $ multilogd --sample --port 7101 --data-dir /var/lib/ml-shard-0
//   $ multilogd --sample --port 7102 --data-dir /var/lib/ml-shard-1
//   $ multilogd --sample --router --shards 7101,7102 --port 7690

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <semaphore.h>
#include <sstream>
#include <string>

#include "mls/sample_data.h"
#include "multilog/engine.h"
#include "replication/replicator.h"
#include "server/server.h"
#include "sharding/router.h"
#include "storage/storage.h"

namespace {

using namespace multilog;

// Signal handlers can only poke async-signal-safe primitives; the main
// thread parks on this semaphore until SIGINT/SIGTERM posts it.
sem_t g_shutdown;

void HandleSignal(int) { sem_post(&g_shutdown); }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--db FILE | --sample) [--data-dir DIR] [--port N]\n"
      "          [--replica-of HOST:PORT]  (serve as a read-only replica)\n"
      "          [--router --shards HOST:PORT,...]  (serve as the\n"
      "                                 scatter-gather router over shards)\n"
      "          [--workers N] [--max-conns N] [--max-inflight N]\n"
      "          [--max-request-bytes N] [--deadline-ms N]\n"
      "          [--mode operational|reduced|check_both]\n"
      "          [--slow-query-ms N]   (log queries >= N ms to stderr)\n"
      "          [--no-incremental]    (invalidate caches on writes instead\n"
      "                                 of delta-maintaining them)\n"
      "          [--no-magic]          (disable goal-directed magic-set\n"
      "                                 plans; always evaluate bottom-up)\n"
      "          [--no-group-commit]   (fsync each write alone instead of\n"
      "                                 batching concurrent commits)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string data_dir;
  bool use_sample = false;
  bool is_replica = false;
  bool is_router = false;
  std::vector<server::Endpoint> shard_endpoints;
  std::vector<std::string> engine_flags;  // a router cannot honour these
  server::ServerOptions options;
  ml::EngineOptions engine_options;
  replication::Replicator::Options replica_options;
  options.port = 7690;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--db") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      db_path = v;
    } else if (arg == "--sample") {
      use_sample = true;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      data_dir = v;
    } else if (arg == "--replica-of") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      const size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "--replica-of expects HOST:PORT, got '%s'\n", v);
        return 2;
      }
      Result<uint16_t> port = server::ParsePort(spec.substr(colon + 1));
      if (!port.ok()) {
        std::fprintf(stderr, "--replica-of: %s\n",
                     port.status().ToString().c_str());
        return 2;
      }
      replica_options.host = spec.substr(0, colon);
      replica_options.port = *port;
      is_replica = true;
    } else if (arg == "--router") {
      is_router = true;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      Result<std::vector<server::Endpoint>> endpoints =
          server::ParseEndpointList(v);
      if (!endpoints.ok()) {
        std::fprintf(stderr, "--shards: %s\n",
                     endpoints.status().ToString().c_str());
        return 2;
      }
      shard_endpoints = *std::move(endpoints);
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      // 0 stays legal for the daemon: "bind an OS-assigned port" (the
      // demo scripts rely on it and read the real port from the banner).
      Result<uint16_t> port = server::ParsePort(v, /*allow_ephemeral=*/true);
      if (!port.ok()) {
        std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
        return 2;
      }
      options.port = *port;
    } else if (arg == "--workers") {
      engine_flags.push_back(arg);
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.num_workers = static_cast<size_t>(std::atol(v));
    } else if (arg == "--max-conns") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_connections = static_cast<size_t>(std::atol(v));
    } else if (arg == "--max-inflight") {
      engine_flags.push_back(arg);
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_in_flight = static_cast<size_t>(std::atol(v));
    } else if (arg == "--max-request-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_request_bytes = static_cast<size_t>(std::atol(v));
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.default_deadline_ms = std::atol(v);
    } else if (arg == "--slow-query-ms") {
      engine_flags.push_back(arg);
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.slow_query_ms = std::atol(v);
    } else if (arg == "--no-incremental") {
      engine_flags.push_back(arg);
      engine_options.incremental = false;
    } else if (arg == "--no-magic") {
      engine_flags.push_back(arg);
      engine_options.magic = false;
    } else if (arg == "--no-group-commit") {
      engine_flags.push_back(arg);
      engine_options.group_commit = false;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      Result<ml::ExecMode> mode = server::ParseExecMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      options.default_mode = *mode;
    } else {
      return Usage(argv[0]);
    }
  }
  if (use_sample == !db_path.empty()) return Usage(argv[0]);
  if (is_router != !shard_endpoints.empty()) {
    std::fprintf(stderr, "--router and --shards go together\n");
    return Usage(argv[0]);
  }
  if (is_router && (is_replica || !data_dir.empty())) {
    std::fprintf(stderr,
                 "--router holds no data: it takes neither --data-dir nor "
                 "--replica-of\n");
    return Usage(argv[0]);
  }
  if (is_router && !engine_flags.empty()) {
    std::fprintf(stderr, "--router runs no engine: it does not take %s\n",
                 engine_flags.front().c_str());
    return Usage(argv[0]);
  }

  std::string source;
  Result<mls::MissionDataset> dataset = Status::Internal("unused");
  std::vector<server::SqlCatalogEntry> catalog;
  if (use_sample) {
    source = mls::D1Source();
    dataset = mls::BuildMissionDataset();
    if (!dataset.ok()) {
      std::fprintf(stderr, "sample dataset: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    catalog.push_back({"mission", dataset->mission.get()});
  } else {
    std::ifstream in(db_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", db_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  if (is_router) {
    sharding::RouterOptions router_options;
    router_options.port = options.port;
    router_options.max_connections = options.max_connections;
    router_options.max_request_bytes = options.max_request_bytes;
    router_options.default_deadline_ms = options.default_deadline_ms;
    router_options.default_mode = options.default_mode;
    for (const server::Endpoint& ep : shard_endpoints) {
      router_options.shards.push_back({ep.host, ep.port});
    }
    sharding::Router router(source, router_options);
    if (Status s = router.Start(); !s.ok()) {
      std::fprintf(stderr, "router: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("multilog-router listening on 127.0.0.1:%u (%zu shards, %s)\n",
                router.port(), router.shard_map().num_shards(),
                sharding::kShardHashName);
    std::fflush(stdout);
    sem_init(&g_shutdown, 0, 0);
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (sem_wait(&g_shutdown) != 0 && errno == EINTR) {
    }
    std::printf("shutting down\n");
    router.Stop();
    return 0;
  }

  Result<storage::Storage> storage = Status::Internal("unused");
  Result<ml::Engine> engine = Status::Internal("unused");
  if (!data_dir.empty()) {
    storage = storage::Storage::Open(data_dir, source);
    if (!storage.ok()) {
      std::fprintf(stderr, "storage: %s\n",
                   storage.status().ToString().c_str());
      return 1;
    }
    if (!storage->recovered().data_loss.ok()) {
      // Recoverable by design: the torn tail is already truncated and
      // everything durably acknowledged is intact. Operators still want
      // to know a crash interrupted an append.
      std::fprintf(stderr, "recovery: %s\n",
                   storage->recovered().data_loss.ToString().c_str());
    }
    engine = ml::Engine::FromStorage(&*storage, engine_options);
  } else {
    engine = ml::Engine::FromSource(source, engine_options);
  }
  if (!engine.ok()) {
    std::fprintf(stderr, "database: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // A replica rejects client writes; the replication stream is the only
  // writer. The engine seed (--db/--sample) must be the same database
  // the primary serves - the security lattice has to match, and catch-up
  // replaces the facts wholesale on the first snapshot install anyway.
  if (is_replica) options.read_only = true;

  server::Server srv(&*engine, options, std::move(catalog));
  std::optional<replication::Replicator> replicator;
  if (is_replica) {
    replicator.emplace(&*engine, replica_options);
    srv.SetReplicator(&*replicator);
  }
  if (Status s = srv.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  if (replicator.has_value()) replicator->Start();
  std::printf("multilogd listening on 127.0.0.1:%u (%zu workers, levels:",
              srv.port(), options.num_workers);
  for (const std::string& level : engine->lattice().TopologicalOrder()) {
    std::printf(" %s", level.c_str());
  }
  std::printf(")\n");
  if (!data_dir.empty()) {
    std::printf("durable: %s (next seqno %llu)\n", data_dir.c_str(),
                static_cast<unsigned long long>(storage->next_seqno()));
  }
  if (is_replica) {
    std::printf("read-only replica of %s:%u (applied seqno %llu)\n",
                replica_options.host.c_str(), replica_options.port,
                static_cast<unsigned long long>(engine->AppliedSeqno()));
  }
  std::fflush(stdout);

  sem_init(&g_shutdown, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown) != 0 && errno == EINTR) {
  }
  std::printf("shutting down\n");
  // Replicator first: once it stops applying, the server drain below
  // sees a quiescent engine; the reverse order would race stream applies
  // against connection teardown for no benefit.
  if (replicator.has_value()) replicator->Stop();
  srv.Stop();
  return 0;
}
