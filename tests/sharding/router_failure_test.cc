// Partial-failure behavior: a shard that dies mid-service must surface
// as kUnavailable naming it - never as a silently truncated answer - a
// restarted shard must rejoin without router intervention, a restarted
// router must keep serving the live shard fleet, point routing must
// stay consistent under concurrent interleaved writes, and a session
// whose requests wait on a shard must not hold up any other session.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "sharding/router.h"
#include "router_test_util.h"

namespace multilog::sharding {
namespace {

using server::Client;
using server::Json;

constexpr char kWideGoal[] = "?- c[intel(K : src -R-> V)] << opt.";

class RouterFailureTest : public RouterClusterTest {
 protected:
  /// Stops shard `i` and serves the same engine again on the same port,
  /// as a restart with a durable data dir would.
  void RestartShard(size_t i) {
    const uint16_t port = shard_servers_[i]->port();
    shard_servers_[i]->Stop();
    server::ServerOptions options;
    options.port = port;
    shard_servers_[i] = std::make_unique<server::Server>(
        shard_engines_[i].get(), options,
        std::vector<server::SqlCatalogEntry>{});
    ASSERT_TRUE(shard_servers_[i]->Start().ok());
  }

  /// Sends `goal` tagged `id` with a min_seqno floor no shard reaches,
  /// so every shard it goes to parks it for `wait_ms` and then refuses
  /// it - all the while the router's worker waits on the backend.
  static Status SendParked(Client& client, int64_t id,
                           const std::string& goal, int64_t wait_ms) {
    Json req = Json::Object();
    req.Set("cmd", Json::Str("query"));
    req.Set("goal", Json::Str(goal));
    req.Set("min_seqno", Json::Int(1000000));
    req.Set("wait_ms", Json::Int(wait_ms));
    req.Set("id", Json::Int(id));
    return client.SendRaw(req.Serialize());
  }
};

TEST_F(RouterFailureTest, ShardDownMidSessionYieldsUnavailableNotTruncation) {
  StartCluster(ClusterSource(), 2);
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  // Warm both backend connections so the failure hits an established
  // session, not a dial.
  ASSERT_TRUE(client.Query(kWideGoal).ok());

  shard_servers_[1]->Stop();

  Result<Json> r = client.Query(kWideGoal);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
  EXPECT_NE(r.status().message().find("shard 1"), std::string::npos)
      << r.status();

  // The raw response carries no answers member at all: a failed scatter
  // returns *nothing*, not the surviving shards' subset.
  Json raw = Json::Object();
  raw.Set("cmd", Json::Str("query"));
  raw.Set("goal", Json::Str(kWideGoal));
  Result<Json> wire = client.RoundTrip(raw);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_FALSE(wire->GetBool("ok", true));
  EXPECT_EQ(wire->Find("answers"), nullptr);

  // Point queries owned by the surviving shard still answer.
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    const std::string goal =
        "?- c[intel(" + std::string(key) + " : src -R-> V)] << opt.";
    Result<Json> point = client.Query(goal);
    if (router_->shard_map().ShardOfKeyText(key) == 0) {
      EXPECT_TRUE(point.ok()) << key << ": " << point.status();
    } else {
      ASSERT_FALSE(point.ok()) << key;
      EXPECT_TRUE(point.status().IsUnavailable()) << point.status();
    }
  }
  EXPECT_GT(router_->Counters().shard_errors, 0u);
}

TEST_F(RouterFailureTest, RestartedShardRejoinsOnTheNextRequest) {
  StartCluster(ClusterSource(), 2);
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> before = client.Query(kWideGoal);
  ASSERT_TRUE(before.ok()) << before.status();

  const uint16_t port1 = shard_servers_[1]->port();
  shard_servers_[1]->Stop();
  Result<Json> down = client.Query(kWideGoal);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(down.status().IsUnavailable()) << down.status();

  // Bring the shard back on the same port with the same data (the
  // engine outlived the server, as it would with a durable data dir).
  server::ServerOptions options;
  options.port = port1;
  shard_servers_[1] = std::make_unique<server::Server>(
      shard_engines_[1].get(), options,
      std::vector<server::SqlCatalogEntry>{});
  ASSERT_TRUE(shard_servers_[1]->Start().ok());

  // Same session, no router restart: the dropped backend redials, and
  // the rejoined fleet serves exactly the pre-failure answers.
  Result<Json> back = client.Query(kWideGoal);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Find("answers")->Serialize(),
            before->Find("answers")->Serialize());
  EXPECT_EQ(back->GetInt("count"), before->GetInt("count"));
}

TEST_F(RouterFailureTest, RestartedShardCostsOneFailureWithAWarmPool) {
  StartCluster(ClusterSource(), 2);
  std::string point_goal;
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    if (router_->shard_map().ShardOfKeyText(key) == 1) {
      point_goal = "?- s[intel(" + std::string(key) + " : src -R-> V)] << opt.";
    }
  }
  ASSERT_FALSE(point_goal.empty()) << "no key of the cluster is on shard 1";

  for (const std::string& goal : {point_goal, std::string(kWideGoal)}) {
    // Two sessions at s whose queries wait on the shards at the same
    // time leave two pooled backends per shard they reach.
    Client a = ConnectRouter();
    Client b = ConnectRouter();
    ASSERT_TRUE(a.Hello("s").ok());
    ASSERT_TRUE(b.Hello("s").ok());
    ASSERT_TRUE(SendParked(a, 1, goal, /*wait_ms=*/200).ok());
    ASSERT_TRUE(SendParked(b, 1, goal, /*wait_ms=*/200).ok());
    for (Client* c : {&a, &b}) {
      Result<Json> r = c->ReadResponse();
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_FALSE(r->GetBool("ok", true)) << goal;
    }
    ASSERT_GE(shard_servers_[1]->metrics().connections_open.load(), 2u)
        << goal;

    // A restart closes every one of them. The first request to meet a
    // dead backend fails; the next dials afresh and is answered.
    RestartShard(1);
    int failures = 0;
    Result<Json> r = a.Query(goal);
    while (!r.ok() && failures < 3) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
      ++failures;
      r = a.Query(goal);
    }
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status();
    EXPECT_LE(failures, 1) << goal;
  }
}

// A min_seqno wait parks on the owning shard, and the router's worker
// waits on its backend until the shard answers. One session holding
// more such waits than the loop's default worker count must not stall
// another session's query or stats.
TEST_F(RouterFailureTest, ParkedShardWaitsDoNotStallOtherSessions) {
  StartCluster(ClusterSource(), 2);
  constexpr char kPointGoal[] = "?- s[intel(k1 : src -R-> V)] << opt.";
  constexpr int kWaits = 8;
  Client waiter = ConnectRouter();
  ASSERT_TRUE(waiter.Hello("s").ok());
  for (int id = 1; id <= kWaits; ++id) {
    ASSERT_TRUE(SendParked(waiter, id, kPointGoal, /*wait_ms=*/5000).ok());
  }
  // The loop has read the HELLO and every wait before the other session
  // says anything.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router_->Counters().requests_total < 1 + kWaits &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(router_->Counters().requests_total, 1u + kWaits);

  Client other = ConnectRouter();
  ASSERT_TRUE(other.Hello("s").ok());
  const auto t0 = std::chrono::steady_clock::now();
  Result<Json> point = other.Query(kPointGoal);
  Result<Json> stats = other.Stats();
  const auto took_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_TRUE(point.ok()) << point.status();
  EXPECT_TRUE(stats.ok()) << stats.status();
  EXPECT_LT(took_ms, 1000) << "another session's waits held this one";

  // Stopping the shards refuses their parked queries; every wait is
  // answered on its own tag.
  for (auto& server : shard_servers_) server->Stop();
  std::set<int64_t> answered;
  for (int i = 0; i < kWaits; ++i) {
    Result<Json> r = waiter.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->GetBool("ok", true));
    answered.insert(r->GetInt("id"));
  }
  EXPECT_EQ(answered.size(), static_cast<size_t>(kWaits));
}

TEST_F(RouterFailureTest, ScatterOverADeadShardLeavesNoUnreadResponse) {
  StartCluster(ClusterSource(), 3);
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  // Every shard gets a pooled backend at s.
  ASSERT_TRUE(client.Query(kWideGoal).ok());

  const uint16_t port1 = shard_servers_[1]->port();
  shard_servers_[1]->Stop();
  // Shards 0 and 2 answer this scatter; shard 1 cannot.
  Result<Json> down = client.Query(kWideGoal);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(down.status().IsUnavailable()) << down.status();

  server::ServerOptions options;
  options.port = port1;
  shard_servers_[1] = std::make_unique<server::Server>(
      shard_engines_[1].get(), options,
      std::vector<server::SqlCatalogEntry>{});
  ASSERT_TRUE(shard_servers_[1]->Start().ok());

  // A different wide goal first: a backend still holding the failed
  // scatter's answer would hand that over instead of this one's.
  Client ref = ConnectReference();
  ASSERT_TRUE(ref.Hello("s").ok());
  for (const char* goal :
       {"?- s[intel(K : vet -R-> V)] << cau.", kWideGoal}) {
    ExpectSameAnswers(client, ref, goal, "reduced");
  }
}

TEST_F(RouterFailureTest, PerShardDeadlinePropagatesAndNamesTheRefusal) {
  StartCluster(ClusterSource(), 2);
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  // min_seqno far past anything applied + a tiny wait: every shard
  // gives up with DeadlineExceeded, and the router relays the shard's
  // own structured refusal (scatter picks the lowest shard index).
  Result<Json> r = client.Query(kWideGoal, /*deadline_ms=*/-1, /*mode=*/"",
                                /*proofs=*/false, /*trace=*/false,
                                /*min_seqno=*/1000, /*wait_ms=*/30);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();

  // An expired wall-clock deadline is likewise the shard's verdict,
  // relayed with the connection intact.
  Result<Json> expired = client.Query(kWideGoal, /*deadline_ms=*/0);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterFailureTest, RouterRestartServesTheLiveShardsAgain) {
  StartCluster(ClusterSource(), 2);
  {
    Client client = ConnectRouter();
    ASSERT_TRUE(client.Hello("c").ok());
    ASSERT_TRUE(client.Assert("c[intel(k77 : src -c-> k77)].").ok());
  }
  router_->Stop();

  // A fresh router over the same fleet: the data lives on the shards,
  // so nothing is lost and the shard map (same size, same hash) places
  // k77 where the old router wrote it.
  RouterOptions options;
  for (const auto& server : shard_servers_) {
    options.shards.push_back({"127.0.0.1", server->port()});
  }
  router_ = std::make_unique<Router>(source_, options);
  ASSERT_TRUE(router_->Start().ok());

  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("c").ok());
  Result<Json> r = client.Query("?- c[intel(k77 : src -R-> V)] << opt.");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetInt("count"), 1);
}

TEST_F(RouterFailureTest, PointRoutingStaysConsistentUnderInterleavedWrites) {
  StartCluster(ClusterSource(), 3);
  // Writers keep asserting fresh entities while a reader point-queries
  // entities already written; every read must come from the key's
  // owning shard and see the committed fact (reads and writes for one
  // key serialize on the owner - there is no cross-shard lag to hide).
  constexpr int kWriters = 4;
  constexpr int kFactsPerWriter = 8;
  // Facts writer 0 has had acknowledged: the reader only re-reads those.
  std::atomic<int> written{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([this, t, &written] {
      Result<Client> client = Client::Connect(router_->port());
      ASSERT_TRUE(client.ok()) << client.status();
      ASSERT_TRUE(client->Hello("c").ok());
      for (int i = 0; i < kFactsPerWriter; ++i) {
        const std::string entity =
            "iw" + std::to_string(t) + "x" + std::to_string(i);
        const std::string fact =
            "c[intel(" + entity + " : f -c-> " + entity + ")].";
        Result<Json> r = client->Assert(fact);
        EXPECT_TRUE(r.ok()) << fact << ": " << r.status();
        if (t == 0) written.fetch_add(1, std::memory_order_release);
      }
    });
  }
  threads.emplace_back([this, &written] {
    Result<Client> client = Client::Connect(router_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Hello("c").ok());
    int reads = 0;
    while (reads < 20) {
      // Re-read a fact that was acknowledged before the query started.
      const int i = reads % 4;
      if (written.load(std::memory_order_acquire) <= i) continue;
      const std::string key = "iw0x" + std::to_string(i);
      Result<Json> r = client->Query("?- c[intel(" + key +
                                     " : f -R-> V)] << opt.");
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->GetInt("count"), 1) << key;
      EXPECT_EQ(static_cast<size_t>(r->Find("shard")->int_value()),
                router_->shard_map().ShardOfKeyText(key));
      ++reads;
    }
  });
  for (std::thread& t : threads) t.join();

  // Every write landed on its owner: per-shard direct reads partition
  // the written keys exactly as the map says.
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kFactsPerWriter; ++i) {
      const std::string key =
          "iw" + std::to_string(t) + "x" + std::to_string(i);
      const size_t owner = router_->shard_map().ShardOfKeyText(key);
      for (size_t s = 0; s < shard_servers_.size(); ++s) {
        Result<Client> direct = Client::Connect(shard_servers_[s]->port());
        ASSERT_TRUE(direct.ok());
        ASSERT_TRUE(direct->Hello("c").ok());
        Result<Json> r = direct->Query("?- c[intel(" + key +
                                       " : f -R-> V)] << opt.");
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->GetInt("count"), s == owner ? 1 : 0)
            << key << " on shard " << s;
      }
    }
  }
}

}  // namespace
}  // namespace multilog::sharding
