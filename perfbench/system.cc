#include "perfbench/system.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "multilog/proof.h"
#include "server/client.h"
#include "server/json.h"
#include "sharding/routing.h"

namespace perfbench {

using server::Json;
namespace fs = std::filesystem;

namespace {

constexpr auto kReadyLimit = std::chrono::seconds(30);

template <typename T>
Result<std::unique_ptr<T>> Own(Result<T> r) {
  if (!r.ok()) return r.status();
  return std::make_unique<T>(std::move(r).value());
}

Status StartServer(std::unique_ptr<server::Server>* out, ml::Engine* engine,
                   bool read_only, size_t workers = 4,
                   const replication::Replicator* replicator = nullptr) {
  server::ServerOptions options;
  options.read_only = read_only;
  options.num_workers = workers;
  *out = std::make_unique<server::Server>(engine, options);
  if (replicator != nullptr) (*out)->SetReplicator(replicator);
  return (*out)->Start();
}

/// Waits until the replica has applied everything the primary has.
bool WaitCaughtUp(const System& sys) {
  const Clock::time_point limit = Clock::now() + kReadyLimit;
  while (sys.replica->AppliedSeqno() < sys.engine->AppliedSeqno()) {
    if (Clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// The answers (and proofs) of a query rendered as the server renders
/// them, so the comparison is byte for byte.
std::string RenderAnswers(const ml::QueryResult& result, bool proofs) {
  Json answers = Json::Array();
  for (const auto& answer : result.answers) {
    answers.Push(Json::Str(answer.ToString()));
  }
  std::string bytes = answers.Serialize();
  if (proofs && !result.proofs.empty()) {
    Json rendered = Json::Array();
    for (const ml::ProofPtr& proof : result.proofs) {
      rendered.Push(Json::Str(ml::RenderProof(*proof)));
    }
    bytes += "\n" + rendered.Serialize();
  }
  return bytes;
}

bool AnswersContain(const ml::QueryResult& result, const std::string& want) {
  for (const auto& answer : result.answers) {
    if (answer.ToString() == want) return true;
  }
  return false;
}

Result<server::Client> Dial(uint16_t port, const std::string& level) {
  Result<server::Client> client = server::Client::Connect(port);
  if (!client.ok()) return client.status();
  if (Result<Json> hello = client->Hello(level); !hello.ok()) {
    return hello.status();
  }
  return client;
}

}  // namespace

System::~System() {
  Stop();
  if (!dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

void System::Stop() {
  conns.clear();
  if (router) router->Stop();
  for (auto& s : shard_servers) s->Stop();
  if (replicator) replicator->Stop();
  if (replica_server) replica_server->Stop();
  if (server) server->Stop();
}

std::vector<ml::Engine*> System::ServingEngines() const {
  std::vector<ml::Engine*> out;
  if (engine) out.push_back(engine.get());
  for (const auto& shard : shards) out.push_back(shard.get());
  return out;
}

void RunPhase(RunCtx& ctx, System& sys,
              const std::function<void(Conn&, Stats&)>& body, Stats* into) {
  int producers = 0;
  for (const auto& c : sys.conns) producers += c->inbox_only ? 0 : 1;
  ctx.producers.store(producers);
  std::vector<Stats> stats(sys.conns.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sys.conns.size(); ++i) {
    threads.emplace_back(
        [&body, &sys, &stats, i] { body(*sys.conns[i], stats[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (Stats& s : stats) into->Merge(std::move(s));
}

Result<std::unique_ptr<System>> Setup(const Spec& spec, const Sigma& sigma,
                                      uint64_t seed,
                                      const std::string& data_dir, bool traced,
                                      Stats* warm_stats) {
  static int setups = 0;
  auto sys = std::make_unique<System>();
  const Clock::time_point t0 = Clock::now();
  struct Endpoint {
    int level;
    uint16_t port;
    bool inbox_only;
  };
  std::vector<Endpoint> endpoints;

  if (spec.name == "read_serving") {
    Result<std::unique_ptr<ml::Engine>> engine =
        Own(ml::Engine::FromSource(sigma.source));
    if (!engine.ok()) return engine.status();
    sys->engine = std::move(engine).value();
    if (Status s = StartServer(&sys->server, sys->engine.get(), false);
        !s.ok()) {
      return s;
    }
    for (int l = 0; l < 4; ++l) {
      endpoints.push_back({l, sys->server->port(), false});
    }
  } else if (spec.name == "write_mix") {
    sys->dir = data_dir + "/" + std::to_string(::getpid()) + "-" +
               std::to_string(setups++);
    std::error_code ec;
    fs::remove_all(sys->dir, ec);
    fs::create_directories(sys->dir, ec);
    if (ec) return Status::Internal("cannot create " + sys->dir);
    Result<std::unique_ptr<storage::Storage>> primary_store =
        Own(storage::Storage::Open(sys->dir + "/primary", sigma.source));
    if (!primary_store.ok()) return primary_store.status();
    sys->primary_store = std::move(primary_store).value();
    Result<std::unique_ptr<ml::Engine>> engine =
        Own(ml::Engine::FromStorage(sys->primary_store.get()));
    if (!engine.ok()) return engine.status();
    sys->engine = std::move(engine).value();
    if (Status s = StartServer(&sys->server, sys->engine.get(), false);
        !s.ok()) {
      return s;
    }
    Result<std::unique_ptr<storage::Storage>> replica_store =
        Own(storage::Storage::Open(sys->dir + "/replica", sigma.source));
    if (!replica_store.ok()) return replica_store.status();
    sys->replica_store = std::move(replica_store).value();
    Result<std::unique_ptr<ml::Engine>> replica =
        Own(ml::Engine::FromStorage(sys->replica_store.get()));
    if (!replica.ok()) return replica.status();
    sys->replica = std::move(replica).value();
    replication::Replicator::Options options;
    options.port = sys->server->port();
    sys->replicator = std::make_unique<replication::Replicator>(
        sys->replica.get(), options);
    if (Status s = StartServer(&sys->replica_server, sys->replica.get(), true,
                               4, sys->replicator.get());
        !s.ok()) {
      return s;
    }
    const Clock::time_point t_rep = Clock::now();
    sys->replicator->Start();
    while (!sys->replicator->GetStats().connected) {
      if (Clock::now() - t_rep > kReadyLimit) {
        return Status::Unavailable("replica did not connect to the primary");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    sys->catchup_s = MsBetween(t_rep, Clock::now()) / 1000;
    sys->inbox = std::make_unique<Inbox>();
    for (int l = 0; l < 3; ++l) {
      endpoints.push_back({l, sys->server->port(), false});
    }
    endpoints.push_back({3, sys->replica_server->port(), true});
  } else {
    const Clock::time_point t_start = Clock::now();
    sys->map = std::make_unique<sharding::ShardMap>(4);
    Result<std::vector<std::string>> parts =
        sharding::PartitionSource(sigma.source, *sys->map);
    if (!parts.ok()) return parts.status();
    sharding::RouterOptions router_options;
    for (const std::string& part : *parts) {
      Result<std::unique_ptr<ml::Engine>> shard =
          Own(ml::Engine::FromSource(part));
      if (!shard.ok()) return shard.status();
      sys->shards.push_back(std::move(shard).value());
      sys->shard_servers.emplace_back();
      // One worker per shard: the four shards together have the four
      // workers a single server gets, not sixteen threads on four CPUs.
      if (Status s = StartServer(&sys->shard_servers.back(),
                                 sys->shards.back().get(), false, 1);
          !s.ok()) {
        return s;
      }
      router_options.shards.push_back(
          {"127.0.0.1", sys->shard_servers.back()->port()});
    }
    sys->router =
        std::make_unique<sharding::Router>(sigma.source, router_options);
    if (Status s = sys->router->Start(); !s.ok()) return s;
    sys->start_ms = MsBetween(t_start, Clock::now());
    for (int l = 0; l < 4; ++l) {
      endpoints.push_back({l, sys->router->port(), false});
    }
  }

  for (size_t i = 0; i < endpoints.size(); ++i) {
    const Endpoint& ep = endpoints[i];
    auto conn = std::make_unique<Conn>();
    conn->level = kLevels[ep.level];
    conn->inbox_only = ep.inbox_only;
    Result<server::Client> client = Dial(ep.port, conn->level);
    if (!client.ok()) return client.status();
    conn->client.emplace(std::move(client).value());
    conn->gap_rng.seed(MixSeed(seed, 200 + i));
    if (!ep.inbox_only) {
      conn->source = std::make_unique<Source>(spec, sigma, ep.level,
                                              static_cast<int>(i), seed);
      for (Op& op : conn->source->Warmup()) {
        conn->queued.push_back(std::move(op));
      }
    }
    sys->conns.push_back(std::move(conn));
  }

  // Warm-up: one request of every (clearance, op kind), one at a time
  // per connection, all connections at once - what the first users
  // after a restart pay.
  RunCtx ctx;
  ctx.traced = traced;
  ctx.via_router = sys->router != nullptr;
  if (sys->inbox) {
    ctx.ryw_inbox = sys->inbox.get();
    ctx.ryw_level = kLevels[3];
    Op warm;
    warm.kind = kRyw;
    warm.level = kLevels[3];
    warm.goal = ObjectiveGoal(kLevels[3], "k0", "opt");
    sys->inbox->Push(std::move(warm), Clock::now());
  }
  const Clock::time_point no_deadline = Clock::now() + std::chrono::hours(1);
  RunPhase(ctx, *sys,
           [&](Conn& c, Stats& st) {
             DriveClosed(ctx, c, Phase::kWarm, no_deadline, 1, false, st);
           },
           warm_stats);
  if (sys->replica && !WaitCaughtUp(*sys)) {
    return Status::Unavailable("replica did not catch up after warm-up");
  }
  sys->setup_s = MsBetween(t0, Clock::now()) / 1000;
  return sys;
}

DurabilityReport CheckWriteMix(
    System& sys, const Sigma& sigma,
    const std::vector<std::shared_ptr<WriteRec>>& acked) {
  DurabilityReport report;
  auto mismatch = [&](std::string what) {
    ++report.mismatches;
    if (report.errors.size() < 5) report.errors.push_back(std::move(what));
  };
  if (!WaitCaughtUp(sys)) mismatch("replica never caught up with the primary");

  std::set<const WriteRec*> retracted;
  for (const auto& rec : acked) {
    if (rec->retract) retracted.insert(rec->undoes.get());
  }
  for (const auto& rec : acked) {
    if (rec->retract) continue;
    const bool live = retracted.count(rec.get()) == 0;
    for (ml::Engine* engine : {sys.engine.get(), sys.replica.get()}) {
      Result<ml::QueryResult> r = engine->QuerySource(
          ObjectiveGoal(rec->level, rec->key, "opt"), rec->level);
      if (!r.ok() || AnswersContain(*r, rec->expect) != live) {
        mismatch(std::string(engine == sys.engine.get() ? "primary"
                                                        : "replica") +
                 (live ? " lost acked write " : " still shows retracted ") +
                 rec->fact);
      }
    }
  }
  const std::string dump = sys.engine->DumpSource();
  if (dump != sys.replica->DumpSource()) {
    mismatch("primary and replica dumps differ");
  }

  const std::string primary_dir = sys.dir + "/primary";
  uint64_t disk_bytes = 0;
  for (const char* file : {"/wal.log", "/snapshot.mls"}) {
    std::error_code ec;
    const uintmax_t size = fs::file_size(primary_dir + file, ec);
    if (!ec) disk_bytes += size;
  }
  report.disk_bytes_per_sigma_byte =
      static_cast<double>(disk_bytes) / static_cast<double>(dump.size());

  // Reopen the primary's data dir from disk alone.
  sys.Stop();
  sys.server.reset();
  sys.engine.reset();
  sys.primary_store.reset();
  const Clock::time_point t0 = Clock::now();
  Result<storage::Storage> store =
      storage::Storage::Open(primary_dir, sigma.source);
  if (!store.ok()) {
    mismatch("reopen failed: " + store.status().ToString());
    return report;
  }
  Result<ml::Engine> reopened = ml::Engine::FromStorage(&*store);
  report.recovery_s = MsBetween(t0, Clock::now()) / 1000;
  if (!reopened.ok()) {
    mismatch("recovery failed: " + reopened.status().ToString());
  } else if (reopened->DumpSource() != dump) {
    mismatch("reopened primary does not reproduce its dump");
  }
  return report;
}

uint64_t CheckAgainstReference(System& sys, const Spec& spec,
                               const Sigma& sigma, const Stats& st,
                               std::vector<std::string>* errors) {
  uint64_t mismatches = 0;
  auto mismatch = [&](std::string what) {
    ++mismatches;
    if (errors->size() < 5) errors->push_back(std::move(what));
  };
  Result<ml::Engine> reference = ml::Engine::FromSource(sigma.source);
  if (!reference.ok()) {
    mismatch("reference engine: " + reference.status().ToString());
    return mismatches;
  }
  if (spec.name == "sharded") {
    for (const auto& rec : st.acked) {
      Result<ml::WriteResult> r =
          rec->retract ? reference->Retract(rec->fact, rec->level)
                       : reference->Assert(rec->fact, rec->level);
      if (!r.ok()) mismatch("reference refused acked write " + rec->fact);
    }
    // The written cells, listed through the router at quiescence.
    for (const auto& conn : sys.conns) {
      const std::string goal =
          "?- " + conn->level + "[mission(K : destin -C-> V)] << opt.";
      Result<Json> got = conn->client->Query(goal);
      Result<ml::QueryResult> want = reference->QuerySource(goal, conn->level);
      const Json* answers = got.ok() ? got->Find("answers") : nullptr;
      if (answers == nullptr || !want.ok() ||
          answers->Serialize() != RenderAnswers(*want, false)) {
        mismatch("router listing of written cells differs at " + conn->level);
      }
    }
  }
  for (const auto& [key, entry] : st.memo) {
    const Op& op = entry.op;
    Result<ml::QueryResult> want = reference->QuerySource(
        op.goal, op.level,
        op.operational ? ml::ExecMode::kOperational : ml::ExecMode::kReduced);
    if (!want.ok() || RenderAnswers(*want, op.proofs) != entry.bytes) {
      mismatch("answer differs from the reference engine: " + op.goal +
               " at " + op.level);
    }
  }
  return mismatches;
}

Result<ScatterProbe> ProbeScatters(System& sys, uint64_t seed,
                                   size_t per_level, TraceAcc* acc) {
  ScatterProbe probe;
  std::mt19937_64 rng(MixSeed(seed, 300));
  for (const char* level : kLevels) {
    std::vector<std::string> goals;
    for (size_t i = 0; i < per_level; ++i) {
      goals.push_back(ObjectiveGoal(level, "K", kBeliefModes[rng() % 3]));
    }
    // The router first, then the shards directly: never more than four
    // connections open, and the two measurements do not disturb each
    // other.
    std::vector<double> router_us;
    {
      Result<server::Client> client = Dial(sys.router->port(), level);
      if (!client.ok()) return client.status();
      for (const std::string& goal : goals) {
        const Clock::time_point t0 = Clock::now();
        Result<Json> r = client->Query(goal);
        if (!r.ok()) return r.status();
        router_us.push_back(UsBetween(t0, Clock::now()));
      }
    }
    std::vector<server::Client> shards;
    for (const auto& s : sys.shard_servers) {
      Result<server::Client> client = Dial(s->port(), level);
      if (!client.ok()) return client.status();
      shards.push_back(std::move(client).value());
    }
    for (size_t g = 0; g < goals.size(); ++g) {
      Json request = Json::Object();
      request.Set("cmd", Json::Str("query"));
      request.Set("goal", Json::Str(goals[g]));
      request.Set("trace", Json::Bool(true));
      const std::string payload = request.Serialize();
      const Clock::time_point sent = Clock::now();
      for (server::Client& c : shards) {
        if (Status s = server::WriteFrame(c.fd(), payload); !s.ok()) return s;
      }
      std::vector<double> rtt(shards.size(), -1);
      std::vector<Json> trees(shards.size());
      size_t remaining = shards.size();
      while (remaining > 0) {
        std::vector<pollfd> fds;
        std::vector<size_t> index;
        for (size_t i = 0; i < shards.size(); ++i) {
          if (rtt[i] >= 0) continue;
          fds.push_back({shards[i].fd(), POLLIN, 0});
          index.push_back(i);
        }
        if (::poll(fds.data(), fds.size(), 30000) <= 0) {
          return Status::DeadlineExceeded("shard did not answer the probe");
        }
        for (size_t k = 0; k < fds.size(); ++k) {
          if (fds[k].revents == 0) continue;
          const size_t i = index[k];
          Result<Json> r = shards[i].ReadResponse();
          if (!r.ok()) return r.status();
          rtt[i] = UsBetween(sent, Clock::now());
          if (const Json* tree = r->Find("trace")) trees[i] = *tree;
          --remaining;
        }
      }
      const size_t slowest = static_cast<size_t>(
          std::max_element(rtt.begin(), rtt.end()) - rtt.begin());
      std::vector<double> sorted = rtt;
      std::sort(sorted.begin(), sorted.end());
      const double median =
          (sorted[(sorted.size() - 1) / 2] + sorted[sorted.size() / 2]) / 2;
      const double overhead = router_us[g] - rtt[slowest];
      probe.overhead_us.push_back(overhead);
      probe.skew.push_back(rtt[slowest] / median);
      // Coverage: the scatter overhead, then the slowest shard's wire
      // time and its tiled request stages.
      const Json& tree = trees[slowest];
      double stages = 0;
      if (const Json* children = tree.Find("children")) {
        for (const Json& child : children->array_items()) {
          stages += static_cast<double>(child.GetInt("dur_us"));
        }
      }
      const double wire =
          rtt[slowest] - static_cast<double>(tree.GetInt("dur_us"));
      acc->attributed_us +=
          std::min(router_us[g], std::max(0.0, overhead) + wire + stages);
      acc->rtt_us += router_us[g];
    }
  }
  return probe;
}

}  // namespace perfbench
