// Wire-level mutation tests: assert/retract/checkpoint commands against
// a durable multilogd, session-clearance pinning of writes, the Figure
// 11 goldens surviving rejected writes, stats exposure of the engine
// and storage counters, and state reproduction across a server restart
// from the same data dir.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>

#include "mls/sample_data.h"
#include "multilog/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage.h"

namespace multilog::server {
namespace {

/// The Figure 11 golden query: at s (and c) it answers {R=u}; at u it
/// answers nothing.
constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

/// Like ServerTestBase but the engine sits on durable storage, and the
/// whole stack (server, engine, storage) can be torn down and restarted
/// against the same data dir.
class DurableServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/server_mutation_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void StartServer() {
    Result<storage::Storage> st = storage::Storage::Open(dir_, mls::D1Source());
    ASSERT_TRUE(st.ok()) << st.status();
    storage_ = std::make_unique<storage::Storage>(std::move(st).value());
    Result<ml::Engine> engine = ml::Engine::FromStorage(storage_.get());
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::make_unique<ml::Engine>(std::move(engine).value());
    ServerOptions options;
    options.port = 0;
    server_ = std::make_unique<Server>(engine_.get(), options,
                                       std::vector<SqlCatalogEntry>{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void StopServer() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    engine_.reset();
    storage_.reset();
  }

  void TearDown() override { StopServer(); }

  Client MustConnect() {
    Result<Client> c = Client::Connect(server_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  std::string dir_;
  std::unique_ptr<storage::Storage> storage_;
  std::unique_ptr<ml::Engine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(DurableServerTest, WritesRequireHello) {
  StartServer();
  Client client = MustConnect();
  Result<Json> r = client.Assert("s[p(k2 : a -s-> k2)].");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSecurityViolation()) << r.status();
}

TEST_F(DurableServerTest, AssertRetractCheckpointRoundTrip) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());

  Result<Json> w = client.Assert("s[p(k2 : a -s-> k2)].");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->GetInt("seqno"), 1);
  EXPECT_TRUE(w->GetBool("durable"));
  const Json* invalidated = w->Find("invalidated_levels");
  ASSERT_NE(invalidated, nullptr);

  // The new s-fact rides alongside the paper's database: the Figure 11
  // golden is untouched, and the asserted fact answers at s only.
  Result<Json> golden = client.Query(kGoal);
  ASSERT_TRUE(golden.ok()) << golden.status();
  ASSERT_EQ(golden->GetInt("count"), 1);
  EXPECT_EQ(golden->Find("answers")->array_items()[0].string_value(), "{R=u}");
  Result<Json> mine = client.Query("s[p(k2 : a -R-> k2)] << opt");
  ASSERT_TRUE(mine.ok()) << mine.status();
  EXPECT_EQ(mine->GetInt("count"), 1);

  Result<Json> gone = client.Retract("s[p(k2 : a -s-> k2)].");
  ASSERT_TRUE(gone.ok()) << gone.status();
  EXPECT_EQ(gone->GetInt("seqno"), 2);
  Result<Json> after = client.Query("s[p(k2 : a -R-> k2)] << opt");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->GetInt("count"), 0);

  Result<Json> ckpt = client.Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_NE(ckpt->GetString("snapshot"), "");

  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* engine = stats->Find("stats")->Find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->GetInt("asserts_ok"), 1);
  EXPECT_EQ(engine->GetInt("retracts_ok"), 1);
  EXPECT_EQ(engine->GetInt("checkpoints"), 1);
  EXPECT_EQ(engine->GetInt("writes_rejected"), 0);
  const Json* storage = stats->Find("stats")->Find("storage");
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(storage->GetString("dir"), dir_);
  EXPECT_EQ(storage->GetInt("next_seqno"), 3);
  EXPECT_EQ(storage->GetInt("wal_records"), 0);  // checkpoint compacted
  EXPECT_EQ(storage->GetInt("checkpoints"), 1);
  const Json* writes = stats->Find("stats")->Find("writes");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->GetInt("ok"), 3);
  EXPECT_EQ(writes->GetInt("errors"), 0);
}

TEST_F(DurableServerTest, WriteResponsesAndStatsSurfaceDeltaMaintenance) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());

  // Warm the s-level cache so the write has a live model to maintain.
  ASSERT_TRUE(client.Query(kGoal).ok());

  Result<Json> w = client.Assert("s[p(k9 : a -s-> k9)].");
  ASSERT_TRUE(w.ok()) << w.status();
  const Json* maintained = w->Find("maintained_levels");
  ASSERT_NE(maintained, nullptr);
  ASSERT_TRUE(maintained->is_array());
  bool kept_s = false;
  for (const Json& level : maintained->array_items()) {
    if (level.string_value() == "s") kept_s = true;
  }
  EXPECT_TRUE(kept_s) << w->Serialize();
  EXPECT_TRUE(w->Find("invalidated_levels")->array_items().empty())
      << w->Serialize();

  // The maintained model serves the new fact without a rebuild.
  Result<Json> mine = client.Query("s[p(k9 : a -R-> k9)] << opt");
  ASSERT_TRUE(mine.ok()) << mine.status();
  EXPECT_EQ(mine->GetInt("count"), 1);

  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* engine = stats->Find("stats")->Find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_GE(engine->GetInt("deltas_applied"), 1);
  EXPECT_EQ(engine->GetInt("fallback_recomputes"), 0);
  EXPECT_GE(engine->GetInt("live_models"), 1);

  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("multilog_engine_deltas_applied_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("multilog_engine_fallback_recomputes_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("multilog_engine_live_models"), std::string::npos);
}

TEST_F(DurableServerTest, RejectedWritesKeepTheConnectionAndTheGolden) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("c").ok());

  // Write pinned to the session clearance: a c-cleared session can
  // neither write an s-fact nor smuggle an s-classified cell into a
  // c-fact.
  Result<Json> up = client.Assert("s[p(k2 : a -s-> k2)].");
  ASSERT_FALSE(up.ok());
  EXPECT_TRUE(up.status().IsSecurityViolation()) << up.status();
  Result<Json> cell = client.Assert("c[p(k2 : a -s-> w)].");
  ASSERT_FALSE(cell.ok());
  EXPECT_TRUE(cell.status().IsSecurityViolation()) << cell.status();
  Result<Json> absent = client.Retract("c[p(zzz : a -c-> zzz)].");
  ASSERT_FALSE(absent.ok());
  EXPECT_TRUE(absent.status().IsNotFound()) << absent.status();

  // Payload-tier rejections keep the connection open, and the Figure 11
  // golden still answers on it.
  Result<Json> golden = client.Query(kGoal);
  ASSERT_TRUE(golden.ok()) << golden.status();
  ASSERT_EQ(golden->GetInt("count"), 1);
  EXPECT_EQ(golden->Find("answers")->array_items()[0].string_value(), "{R=u}");

  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Find("stats")->Find("engine")->GetInt("writes_rejected"),
            3);
  EXPECT_EQ(stats->Find("stats")->Find("writes")->GetInt("errors"), 3);
  EXPECT_EQ(stats->Find("stats")->Find("writes")->GetInt("ok"), 0);
  EXPECT_EQ(stats->Find("stats")->Find("storage")->GetInt("next_seqno"), 1);
}

TEST_F(DurableServerTest, RestartFromTheSameDataDirReproducesState) {
  StartServer();
  {
    Client client = MustConnect();
    ASSERT_TRUE(client.Hello("s").ok());
    ASSERT_TRUE(client.Assert("s[r(n1 : id -s-> n1)].").ok());
    Result<Json> r = client.Query("s[r(n1 : id -R-> n1)] << opt");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->GetInt("count"), 1);
  }
  StopServer();
  StartServer();  // same dir_: recovery must reproduce the state
  {
    Client client = MustConnect();
    ASSERT_TRUE(client.Hello("s").ok());
    Result<Json> r = client.Query("s[r(n1 : id -R-> n1)] << opt");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->GetInt("count"), 1);
    // The Figure 11 goldens hold at every clearance over the wire after
    // the restart.
    Result<Json> golden = client.Query(kGoal);
    ASSERT_TRUE(golden.ok()) << golden.status();
    ASSERT_EQ(golden->GetInt("count"), 1);
    EXPECT_EQ(golden->Find("answers")->array_items()[0].string_value(),
              "{R=u}");
  }
  {
    Client low = MustConnect();
    ASSERT_TRUE(low.Hello("u").ok());
    Result<Json> golden = low.Query(kGoal);
    ASSERT_TRUE(golden.ok()) << golden.status();
    EXPECT_EQ(golden->GetInt("count"), 0);
    Result<Json> hidden = low.Query("s[r(n1 : id -R-> n1)] << opt");
    ASSERT_TRUE(hidden.ok()) << hidden.status();
    EXPECT_EQ(hidden->GetInt("count"), 0);
  }
}

}  // namespace
}  // namespace multilog::server
