// The systems under test, built in-process from the generated Sigma:
// one served engine (read_serving), a durable primary plus a replica
// (write_mix), or four shards behind the router (sharded).
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "multilog/engine.h"
#include "perfbench/gen.h"
#include "perfbench/loadgen.h"
#include "replication/replicator.h"
#include "server/server.h"
#include "sharding/router.h"
#include "sharding/shard_map.h"
#include "storage/storage.h"

namespace perfbench {

namespace ml = multilog::ml;
namespace replication = multilog::replication;
namespace server = multilog::server;
namespace sharding = multilog::sharding;
namespace storage = multilog::storage;
using multilog::Result;
using multilog::Status;

struct System {
  System() = default;
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Closes the generator's connections, then stops servers, the
  /// replicator and the router. Idempotent.
  void Stop();

  /// Engines that serve the workload's reads and writes (the primary
  /// for write_mix, every shard for sharded).
  std::vector<ml::Engine*> ServingEngines() const;

  std::string dir;  // write_mix data directory, removed on destruction
  std::unique_ptr<storage::Storage> primary_store;
  std::unique_ptr<storage::Storage> replica_store;
  std::unique_ptr<ml::Engine> engine;  // read_serving engine / primary
  std::unique_ptr<ml::Engine> replica;
  std::vector<std::unique_ptr<ml::Engine>> shards;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<server::Server> replica_server;
  std::unique_ptr<replication::Replicator> replicator;
  std::vector<std::unique_ptr<server::Server>> shard_servers;
  std::unique_ptr<sharding::ShardMap> map;
  std::unique_ptr<sharding::Router> router;
  std::unique_ptr<Inbox> inbox;  // write_mix: follow-ups for the replica
  std::vector<std::unique_ptr<Conn>> conns;

  double setup_s = 0;     // construction to ready, warm-up included
  double start_ms = 0;    // shard servers + router start (sharded)
  double catchup_s = 0;   // replicator start to connected (write_mix)
};

/// Builds the workload's system, connects and hellos the generator's
/// connections, and sends the warm-up requests (with "trace" when
/// `traced`, so their span trees fill warm_stats->trace.warm_stages).
/// Fails loudly.
Result<std::unique_ptr<System>> Setup(const Spec& spec, const Sigma& sigma,
                                      uint64_t seed,
                                      const std::string& data_dir, bool traced,
                                      Stats* warm_stats);

/// Runs `body` for every connection on its own thread and merges the
/// per-thread stats into `into`.
void RunPhase(RunCtx& ctx, System& sys,
              const std::function<void(Conn&, Stats&)>& body, Stats* into);

/// write_mix at quiescence: every acked write visible on the primary
/// and the replica, their dumps byte-identical, and a reopen of the
/// primary's data dir reproducing the dump. Stops the system. Returns
/// the mismatches found (each counts as a wrong answer).
struct DurabilityReport {
  uint64_t mismatches = 0;
  double recovery_s = 0;
  double disk_bytes_per_sigma_byte = 0;
  std::vector<std::string> errors;
};
DurabilityReport CheckWriteMix(
    System& sys, const Sigma& sigma,
    const std::vector<std::shared_ptr<WriteRec>>& acked);

/// read_serving and sharded: every distinct answer against a reference
/// engine fed the unsplit source and the acked writes; for sharded also
/// the final router listing over the written cells. Call before Stop
/// (the listing goes through the generator's connections).
uint64_t CheckAgainstReference(System& sys, const Spec& spec,
                               const Sigma& sigma, const Stats& st,
                               std::vector<std::string>* errors);

/// sharded, traced: repeats sampled listings through the router and
/// directly against every shard, one level at a time.
struct ScatterProbe {
  std::vector<double> overhead_us;  // router RTT - slowest shard RTT
  std::vector<double> skew;         // slowest / median shard RTT
};
Result<ScatterProbe> ProbeScatters(System& sys, uint64_t seed, size_t per_level,
                                   TraceAcc* acc);

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
