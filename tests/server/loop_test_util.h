#ifndef MULTILOG_TESTS_SERVER_LOOP_TEST_UTIL_H_
#define MULTILOG_TESTS_SERVER_LOOP_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mls/sample_data.h"
#include "multilog/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "server_test_util.h"
#include "sharding/router.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"

namespace multilog::server {

/// The serving loop's fixture, parameterised by the handler the loop
/// serves: the engine over D1 with the Mission SQL catalog (exactly
/// ServerTestBase), or the sharding router over D1 split across two
/// in-process shards. A test body is written once, as a member of a
/// fixture derived from this one, and MULTILOG_LOOP_TEST registers it
/// against both.
///
/// The router takes the loop options RouterOptions has (port, limits,
/// deadline, mode); its loop admits as many requests in flight as it
/// admits connections, with a worker for each. It parks no
/// min_seqno floor itself and reports no applied_seqno: the owning
/// shard does both, and D1's key k lives on the same shard as k2.
class LoopTest : public ServerTestBase {
 protected:
  enum class Handler { kEngine, kRouter };

  explicit LoopTest(Handler handler = Handler::kEngine) : handler_(handler) {}

  /// Starts the loop under test (hides ServerTestBase::StartServer).
  void StartServer(ServerOptions options = {}) {
    if (handler_ == Handler::kEngine) {
      ServerTestBase::StartServer(options);
      return;
    }
    Result<std::vector<std::string>> parts =
        sharding::PartitionSource(mls::D1Source(), sharding::ShardMap(2));
    ASSERT_TRUE(parts.ok()) << parts.status();
    sharding::RouterOptions router_options;
    router_options.max_connections = options.max_connections;
    router_options.max_request_bytes = options.max_request_bytes;
    router_options.default_deadline_ms = options.default_deadline_ms;
    router_options.default_mode = options.default_mode;
    for (const std::string& part : *parts) {
      Result<ml::Engine> engine = ml::Engine::FromSource(part);
      ASSERT_TRUE(engine.ok()) << engine.status();
      shard_engines_.push_back(
          std::make_unique<ml::Engine>(std::move(engine).value()));
      shard_servers_.push_back(
          std::make_unique<Server>(shard_engines_.back().get(),
                                   ServerOptions{}));
      ASSERT_TRUE(shard_servers_.back()->Start().ok());
      router_options.shards.push_back(
          {"127.0.0.1", shard_servers_.back()->port()});
    }
    router_ =
        std::make_unique<sharding::Router>(mls::D1Source(), router_options);
    const Status started = router_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  uint16_t port() const {
    return router_ != nullptr ? router_->port() : server_->port();
  }

  /// Connects to the loop under test (hides ServerTestBase::MustConnect).
  Client MustConnect() {
    Result<Client> c = Client::Connect(port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& shard : shard_servers_) shard->Stop();
    ServerTestBase::TearDown();
  }

 private:
  Handler handler_;
  std::vector<std::unique_ptr<ml::Engine>> shard_engines_;
  std::vector<std::unique_ptr<Server>> shard_servers_;
  std::unique_ptr<sharding::Router> router_;
};

}  // namespace multilog::server

/// Registers the fixture member `Name` as a test against both handlers:
/// `EngineSuite.Name` and `RouterSuite.Name`, where RouterSuite derives
/// from EngineSuite and constructs it with Handler::kRouter.
#define MULTILOG_LOOP_TEST(EngineSuite, RouterSuite, Name) \
  TEST_F(EngineSuite, Name) { Name(); }                    \
  TEST_F(RouterSuite, Name) { Name(); }

#endif  // MULTILOG_TESTS_SERVER_LOOP_TEST_UTIL_H_
