// The router's functional contract: protocol parity with multilogd,
// the shardmap surface, and - the core acceptance property - byte-
// identical answers to a single reference engine fed the same stream,
// at every clearance and mode, under randomized interleaved writes,
// single- and multi-threaded.

#include "sharding/router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "router_test_util.h"

namespace multilog::sharding {
namespace {

using server::Client;
using server::Json;

const char* const kLevels[] = {"u", "c", "s"};
const char* const kModes[] = {"operational", "reduced", "check_both"};

/// Goals covering each routing class against ClusterSource().
const char* const kPointGoals[] = {
    "?- c[intel(k1 : src -R-> V)] << opt.",
    "?- s[intel(k3 : src -R-> V)] << cau.",
    "?- s[intel(k1 : vet -R-> V)] << cau.",  // via the replicated rule
    "?- u[intel(k2 : src -R-> V)] << fir.",
};
const char* const kWideGoals[] = {
    "?- c[intel(K : src -R-> V)] << opt.",
    "?- u[intel(K : src -R-> V)] << cau.",
    "?- s[intel(K : vet -R-> V)] << cau.",
    "?- s[intel(K : src -R-> V)] << fir.",
};

class RouterTest : public RouterClusterTest {};

TEST_F(RouterTest, HelloBindsAndReportsRouterIdentity) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  Result<Json> hello = client.Hello("s", "operational");
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(hello->GetString("server"), "multilog-router");
  EXPECT_EQ(hello->GetString("level"), "s");
  EXPECT_EQ(hello->GetString("mode"), "operational");
  EXPECT_EQ(hello->GetInt("shards"), 3);
}

TEST_F(RouterTest, UnknownLevelIsRefusedLikeAnEngine) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  Result<Json> hello = client.Hello("nosuch");
  ASSERT_FALSE(hello.ok());
  EXPECT_TRUE(hello.status().IsSecurityViolation()) << hello.status();
}

TEST_F(RouterTest, QueryBeforeHelloIsRefused) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  Result<Json> r = client.Query(kPointGoals[0]);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSecurityViolation()) << r.status();
}

TEST_F(RouterTest, ShardMapIsServedWithoutHello) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  Result<Json> resp = client.ShardMap();
  ASSERT_TRUE(resp.ok()) << resp.status();
  const Json* map = resp->Find("shardmap");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->GetInt("version"), 1);
  EXPECT_EQ(map->GetInt("num_shards"), 3);
  EXPECT_EQ(map->GetString("hash"), kShardHashName);
  ASSERT_NE(map->Find("shards"), nullptr);
  EXPECT_EQ(map->Find("shards")->array_items().size(), 3u);
}

TEST_F(RouterTest, PlainEngineRefusesShardMap) {
  StartCluster(ClusterSource());
  Client client = ConnectReference();
  Result<Json> resp = client.ShardMap();
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status();
}

TEST_F(RouterTest, SqlAndReplicateAreRefused) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> sql = client.Sql("select * from mission");
  ASSERT_FALSE(sql.ok());
  EXPECT_TRUE(sql.status().IsInvalidArgument()) << sql.status();
}

TEST_F(RouterTest, TaintedGoalIsRefusedNotSilentlyWrong) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> r = client.Query("?- watch(K).");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST_F(RouterTest, PointResponsesCarryTheOwningShard) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> r = client.Query(kPointGoals[0]);
  ASSERT_TRUE(r.ok()) << r.status();
  const Json* shard = r->Find("shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(static_cast<size_t>(shard->int_value()),
            router_->shard_map().ShardOfKeyText("k1"));
}

TEST_F(RouterTest, AllGoalsAllLevelsAllModesMatchTheReferenceEngine) {
  StartCluster(ClusterSource());
  for (const char* level : kLevels) {
    Client via_router = ConnectRouter();
    Client via_ref = ConnectReference();
    ASSERT_TRUE(via_router.Hello(level).ok());
    ASSERT_TRUE(via_ref.Hello(level).ok());
    for (const char* mode : kModes) {
      for (const char* goal : kPointGoals) {
        ExpectSameAnswers(via_router, via_ref, goal, mode);
      }
      for (const char* goal : kWideGoals) {
        ExpectSameAnswers(via_router, via_ref, goal, mode,
                          /*operational_scatter=*/mode ==
                              std::string("operational"));
      }
      // Key-free goals route to a single arbitrary shard - every shard
      // holds all of Pi, so any one of them matches the reference.
      ExpectSameAnswers(via_router, via_ref, "?- q(X).", mode);
    }
  }
}

TEST_F(RouterTest, ProofsRelayOnPointQueriesAndAreRefusedOnScatter) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s", "operational").ok());
  Result<Json> point =
      client.Query(kPointGoals[0], -1, "", /*proofs=*/true);
  ASSERT_TRUE(point.ok()) << point.status();
  ASSERT_NE(point->Find("proofs"), nullptr);
  EXPECT_EQ(point->Find("proofs")->array_items().size(),
            static_cast<size_t>(point->GetInt("count")));

  Result<Json> scatter =
      client.Query(kWideGoals[0], -1, "", /*proofs=*/true);
  ASSERT_FALSE(scatter.ok());
  EXPECT_TRUE(scatter.status().IsInvalidArgument()) << scatter.status();
}

TEST_F(RouterTest, StatsAndMetricsExposeRoutingCounters) {
  StartCluster(ClusterSource());
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("s").ok());
  ASSERT_TRUE(client.Query(kPointGoals[0]).ok());
  ASSERT_TRUE(client.Query(kWideGoals[0]).ok());
  ASSERT_TRUE(client.Query("?- q(X).").ok());

  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* routing = stats->Find("stats")->Find("routing");
  ASSERT_NE(routing, nullptr);
  EXPECT_EQ(routing->GetInt("point_queries"), 1);
  EXPECT_EQ(routing->GetInt("scatter_queries"), 1);
  EXPECT_EQ(routing->GetInt("anywhere_queries"), 1);

  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("multilog_router_point_queries_total 1"),
            std::string::npos);
  EXPECT_NE(metrics->find("multilog_router_shards 3"), std::string::npos);
}

TEST_F(RouterTest, WritesRouteToTheOwnerAndCheckpointFansOut) {
  // Durable shards: checkpoint is only served by storage-backed engines.
  StartCluster(ClusterSource(), 3,
               ::testing::TempDir() + "/router_writes_" +
                   std::to_string(::getpid()));
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("c").ok());
  // Entity integrity (Def. 5.4) wants a key cell: the value is the key.
  const std::string fact = "c[intel(k9 : src -c-> k9)].";
  Result<Json> written = client.Assert(fact);
  ASSERT_TRUE(written.ok()) << written.status();
  const size_t owner = router_->shard_map().ShardOfKeyText("k9");
  EXPECT_EQ(static_cast<size_t>(written->Find("shard")->int_value()), owner);

  // The fact is on the owner shard and nowhere else.
  for (size_t i = 0; i < shard_servers_.size(); ++i) {
    Result<Client> direct = Client::Connect(shard_servers_[i]->port());
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct->Hello("c").ok());
    Result<Json> r = direct->Query("?- c[intel(k9 : src -R-> V)] << opt.");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->GetInt("count"), i == owner ? 1 : 0) << "shard " << i;
  }

  Result<Json> checkpoint = client.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->GetInt("shards"), 3);
  EXPECT_TRUE(client.Retract(fact).ok());
}

TEST_F(RouterTest, ByteIdentityUnderRandomizedInterleavedWrites) {
  StartCluster(ClusterSource());
  // One session per level on each side; the same op stream goes to
  // both, and every outcome (success or refusal) must match.
  std::vector<Client> via_router, via_ref;
  for (const char* level : kLevels) {
    via_router.push_back(ConnectRouter());
    via_ref.push_back(ConnectReference());
    ASSERT_TRUE(via_router.back().Hello(level).ok());
    ASSERT_TRUE(via_ref.back().Hello(level).ok());
  }

  std::mt19937 rng(20260809);
  std::uniform_int_distribution<size_t> level_dist(0, 2);
  std::uniform_int_distribution<int> entity_dist(0, 11);
  std::uniform_int_distribution<int> op_dist(0, 2);

  for (int step = 0; step < 120; ++step) {
    const size_t li = level_dist(rng);
    const std::string level = kLevels[li];
    // Entity integrity (Def. 5.4) wants a key cell, so the cell value
    // is the key itself.
    const std::string entity = "e" + std::to_string(entity_dist(rng));
    const std::string fact = level + "[intel(" + entity + " : f -" +
                             level + "-> " + entity + ")].";
    // Random asserts and retracts, *including* invalid ones (asserting
    // a fact already present, retracting the absent): the router must
    // relay exactly the refusals the reference produces, keeping both
    // sides in lockstep.
    Result<Json> a = Status::Internal("unreached");
    Result<Json> b = Status::Internal("unreached");
    if (op_dist(rng) != 0) {
      a = via_router[li].Assert(fact);
      b = via_ref[li].Assert(fact);
    } else {
      a = via_router[li].Retract(fact);
      b = via_ref[li].Retract(fact);
    }
    ASSERT_EQ(a.ok(), b.ok()) << "step " << step << " " << fact
                              << " router: " << a.status()
                              << " reference: " << b.status();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code())
          << "step " << step << " " << fact;
    }

    if (step % 10 == 9) {
      for (size_t qi = 0; qi < 3; ++qi) {
        ExpectSameAnswers(via_router[qi], via_ref[qi],
                          "?- " + std::string(kLevels[qi]) +
                              "[intel(K : f -R-> V)] << cau.",
                          "reduced");
        ExpectSameAnswers(via_router[qi], via_ref[qi],
                          "?- " + std::string(kLevels[qi]) + "[intel(e" +
                              std::to_string(entity_dist(rng)) +
                              " : f -R-> V)] << opt.",
                          "operational");
      }
    }
  }
  // Final full sweep: every level, every mode, wide and derived goals.
  for (size_t li = 0; li < 3; ++li) {
    for (const char* mode : kModes) {
      ExpectSameAnswers(via_router[li], via_ref[li],
                        "?- " + std::string(kLevels[li]) +
                            "[intel(K : f -R-> V)] << cau.",
                        mode,
                        /*operational_scatter=*/mode ==
                            std::string("operational"));
    }
  }
}

TEST_F(RouterTest, ConcurrentClearancesNeverShareABackend) {
  StartCluster(ClusterSource());
  // What each clearance must see, from the reference engine - and proof
  // that these goals tell u from s, so a u session served over an
  // s-bound backend could not pass unnoticed.
  std::vector<std::string> goals(std::begin(kPointGoals),
                                 std::end(kPointGoals));
  goals.insert(goals.end(), std::begin(kWideGoals), std::end(kWideGoals));
  auto outcome = [](const Result<Json>& r) {
    return r.ok() ? r->Find("answers")->Serialize()
                  : "error " + r.status().ToString();
  };
  std::map<std::string, std::vector<std::string>> expected;
  for (const char* level : {"u", "s"}) {
    Client ref = ConnectReference();
    ASSERT_TRUE(ref.Hello(level).ok());
    for (const std::string& goal : goals) {
      expected[level].push_back(outcome(ref.Query(goal)));
    }
  }
  ASSERT_NE(expected["u"], expected["s"]);

  // Two sessions per clearance, all running the same goals at once, so
  // the backend pools are checked out and returned concurrently.
  std::vector<std::thread> sessions;
  for (const char* level : {"u", "s", "u", "s"}) {
    sessions.emplace_back([this, level, &goals, &expected, &outcome] {
      Result<Client> client = Client::Connect(router_->port());
      ASSERT_TRUE(client.ok()) << client.status();
      ASSERT_TRUE(client->Hello(level).ok());
      for (int round = 0; round < 20; ++round) {
        for (size_t g = 0; g < goals.size(); ++g) {
          EXPECT_EQ(outcome(client->Query(goals[g])), expected.at(level)[g])
              << "level " << level << ": " << goals[g];
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(router_->Counters().shard_errors, 0u);
}

TEST_F(RouterTest, EightConcurrentWritersThenByteIdenticalAnswers) {
  StartCluster(ClusterSource());
  // Eight threads assert disjoint entities through the router; asserts
  // of distinct facts commute, so feeding the same set serially to the
  // reference engine must converge to the same answers.
  constexpr int kThreads = 8;
  constexpr int kFactsPerThread = 6;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([this, t] {
      Result<Client> client = Client::Connect(router_->port());
      ASSERT_TRUE(client.ok()) << client.status();
      ASSERT_TRUE(client->Hello("c").ok());
      for (int i = 0; i < kFactsPerThread; ++i) {
        const std::string entity =
            "w" + std::to_string(t) + "e" + std::to_string(i);
        const std::string fact =
            "c[intel(" + entity + " : f -c-> " + entity + ")].";
        Result<Json> r = client->Assert(fact);
        EXPECT_TRUE(r.ok()) << fact << ": " << r.status();
      }
    });
  }
  for (std::thread& t : writers) t.join();

  Client ref = ConnectReference();
  ASSERT_TRUE(ref.Hello("c").ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFactsPerThread; ++i) {
      const std::string entity =
          "w" + std::to_string(t) + "e" + std::to_string(i);
      ASSERT_TRUE(
          ref.Assert("c[intel(" + entity + " : f -c-> " + entity + ")].")
              .ok());
    }
  }

  for (const char* level : kLevels) {
    Client via_router = ConnectRouter();
    Client via_ref = ConnectReference();
    ASSERT_TRUE(via_router.Hello(level).ok());
    ASSERT_TRUE(via_ref.Hello(level).ok());
    for (const char* mode : kModes) {
      ExpectSameAnswers(via_router, via_ref,
                        "?- c[intel(K : f -R-> V)] << opt.", mode,
                        /*operational_scatter=*/mode ==
                            std::string("operational"));
      ExpectSameAnswers(via_router, via_ref,
                        "?- c[intel(w3e1 : f -R-> V)] << opt.", mode);
    }
  }
  const RouterCounters counters = router_->Counters();
  EXPECT_EQ(counters.writes_routed, kThreads * kFactsPerThread);
  EXPECT_EQ(counters.shard_errors, 0u);
}

}  // namespace
}  // namespace multilog::sharding
