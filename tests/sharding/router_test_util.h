#ifndef MULTILOG_TESTS_SHARDING_ROUTER_TEST_UTIL_H_
#define MULTILOG_TESTS_SHARDING_ROUTER_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multilog/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "sharding/router.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"
#include "storage/storage.h"

namespace multilog::sharding {

/// A database whose Sigma spans several entity keys, with an anchored
/// replicated rule (vet) and both an untainted (q) and a tainted
/// (watch) p-predicate - enough surface to exercise every routing path.
inline const char* ClusterSource() {
  return R"(
level(u). level(c). level(s).
order(u, c). order(c, s).
u[intel(k1 : src -u-> v1)].
c[intel(k1 : src -c-> t1)].
u[intel(k2 : src -u-> v2)].
s[intel(k3 : src -s-> v3)].
c[intel(k4 : src -c-> v4)].
s[intel(K : vet -u-> yes)] :- c[intel(K : src -c-> T)] << cau.
q(j).
watch(K) :- u[intel(K : src -u-> V)].
)";
}

/// One in-process sharded deployment: N shard servers seeded with
/// PartitionSource's split, the router over them, and a reference
/// engine server fed the *unsplit* source - the byte-identity oracle.
class RouterClusterTest : public ::testing::Test {
 protected:
  /// `data_base`, when non-empty, puts each shard on durable storage
  /// under ShardDataDir(data_base, i) - required for checkpoint tests.
  void StartCluster(const std::string& source, size_t num_shards = 3,
                    const std::string& data_base = "") {
    source_ = source;
    const ShardMap map(num_shards);
    Result<std::vector<std::string>> parts = PartitionSource(source, map);
    ASSERT_TRUE(parts.ok()) << parts.status();
    // Storage::Open creates the shard dir but not its parent.
    if (!data_base.empty()) ::mkdir(data_base.c_str(), 0755);
    RouterOptions options;
    for (size_t i = 0; i < parts->size(); ++i) {
      ASSERT_TRUE(StartShard(
          (*parts)[i],
          data_base.empty() ? "" : storage::ShardDataDir(data_base, i)));
      options.shards.push_back({"127.0.0.1", shard_servers_.back()->port()});
    }
    Result<ml::Engine> ref = ml::Engine::FromSource(source);
    ASSERT_TRUE(ref.ok()) << ref.status();
    reference_engine_ = std::make_unique<ml::Engine>(std::move(ref).value());
    server::ServerOptions ref_options;
    ref_options.port = 0;
    reference_server_ = std::make_unique<server::Server>(
        reference_engine_.get(), ref_options,
        std::vector<server::SqlCatalogEntry>{});
    ASSERT_TRUE(reference_server_->Start().ok());

    router_ = std::make_unique<Router>(source, options);
    const Status started = router_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  /// Starts one shard server over `part`; appends to the fleet. A
  /// non-empty `data_dir` makes the shard durable (storage-backed).
  bool StartShard(const std::string& part, const std::string& data_dir = "") {
    Result<ml::Engine> engine = Status::Internal("unreached");
    if (data_dir.empty()) {
      engine = ml::Engine::FromSource(part);
    } else {
      Result<storage::Storage> st = storage::Storage::Open(data_dir, part);
      EXPECT_TRUE(st.ok()) << st.status();
      if (!st.ok()) return false;
      shard_storages_.push_back(
          std::make_unique<storage::Storage>(std::move(st).value()));
      engine = ml::Engine::FromStorage(shard_storages_.back().get());
    }
    EXPECT_TRUE(engine.ok()) << engine.status();
    if (!engine.ok()) return false;
    shard_engines_.push_back(
        std::make_unique<ml::Engine>(std::move(engine).value()));
    server::ServerOptions options;
    options.port = 0;
    shard_servers_.push_back(std::make_unique<server::Server>(
        shard_engines_.back().get(), options,
        std::vector<server::SqlCatalogEntry>{}));
    const Status started = shard_servers_.back()->Start();
    EXPECT_TRUE(started.ok()) << started;
    return started.ok();
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& server : shard_servers_) server->Stop();
    if (reference_server_ != nullptr) reference_server_->Stop();
  }

  server::Client ConnectRouter() {
    Result<server::Client> c = server::Client::Connect(router_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  server::Client ConnectReference() {
    Result<server::Client> c =
        server::Client::Connect(reference_server_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  /// Runs `goal` through the router and the reference engine and
  /// demands identical outcomes: same error code on failure; on
  /// success the same count and - for relayed and reduced-merge paths -
  /// byte-identical answer arrays. Operational scatter answers are
  /// proof-ordered on a single engine, so there (and only there) both
  /// sides are compared as sorted sets, which check_both separately
  /// proves equal to the reduced answers.
  void ExpectSameAnswers(server::Client& via_router, server::Client& via_ref,
                         const std::string& goal, const std::string& mode,
                         bool operational_scatter = false) {
    Result<server::Json> a = via_router.Query(goal, -1, mode);
    Result<server::Json> b = via_ref.Query(goal, -1, mode);
    ASSERT_EQ(a.ok(), b.ok()) << goal << " [" << mode
                              << "] router: " << a.status()
                              << " reference: " << b.status();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code())
          << goal << " router: " << a.status()
          << " reference: " << b.status();
      return;
    }
    const server::Json* ans_a = a->Find("answers");
    const server::Json* ans_b = b->Find("answers");
    ASSERT_NE(ans_a, nullptr) << goal;
    ASSERT_NE(ans_b, nullptr) << goal;
    if (operational_scatter) {
      std::vector<std::string> sa, sb;
      for (const server::Json& s : ans_a->array_items()) {
        sa.push_back(s.string_value());
      }
      for (const server::Json& s : ans_b->array_items()) {
        sb.push_back(s.string_value());
      }
      std::sort(sa.begin(), sa.end());
      sa.erase(std::unique(sa.begin(), sa.end()), sa.end());
      std::sort(sb.begin(), sb.end());
      sb.erase(std::unique(sb.begin(), sb.end()), sb.end());
      EXPECT_EQ(sa, sb) << goal << " [" << mode << "]";
    } else {
      EXPECT_EQ(a->GetInt("count"), b->GetInt("count"))
          << goal << " [" << mode << "]";
      EXPECT_EQ(ans_a->Serialize(), ans_b->Serialize())
          << goal << " [" << mode << "]";
    }
  }

  std::string source_;
  std::vector<std::unique_ptr<storage::Storage>> shard_storages_;
  std::vector<std::unique_ptr<ml::Engine>> shard_engines_;
  std::vector<std::unique_ptr<server::Server>> shard_servers_;
  std::unique_ptr<ml::Engine> reference_engine_;
  std::unique_ptr<server::Server> reference_server_;
  std::unique_ptr<Router> router_;
};

}  // namespace multilog::sharding

#endif  // MULTILOG_TESTS_SHARDING_ROUTER_TEST_UTIL_H_
