// Partial-failure behavior: a shard that dies mid-service must surface
// as kUnavailable naming it - never as a silently truncated answer - a
// restarted shard must rejoin without router intervention, a restarted
// router must keep serving the live shard fleet, and point routing must
// stay consistent under concurrent interleaved writes.

#include <gtest/gtest.h>

#include <atomic>
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

class RouterFailureTest : public RouterClusterTest {};

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
  options.connect_attempts = 3;
  options.connect_backoff_ms = 10;
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
