// Connection-scale soak: thousands of idle sessions held open while a
// hot set of pipelined clients hammers queries through the same loop.
// The epoll server's cost for an idle session is one fd plus one
// Session struct - no thread - so a four-digit connection count is
// routine; the seed thread-per-connection server (and the router before
// it served from the same loop) would need that many stacks. It runs
// against both handlers the loop serves. The hot set checks that answer
// bytes do not degrade under fanout and that every tagged response
// finds its way home.
//
// Scale: MULTILOG_SOAK_SESSIONS overrides the idle-session target
// (default 10000). The test raises RLIMIT_NOFILE to its hard cap and
// clamps the target to fit - client and server ends live in this one
// process, so each idle session costs two fds.

#include "server/server.h"

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "loop_test_util.h"

namespace multilog::server {
namespace {

constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

class ServerSoakTest : public LoopTest {
 protected:
  using LoopTest::LoopTest;
  void TenThousandIdlePlusHundredHotPipelined();
};

class RouterSoakTest : public ServerSoakTest {
 protected:
  RouterSoakTest() : ServerSoakTest(Handler::kRouter) {}
};

MULTILOG_LOOP_TEST(ServerSoakTest, RouterSoakTest,
                   TenThousandIdlePlusHundredHotPipelined)

size_t IdleSessionTarget() {
  size_t target = 10000;
  if (const char* env = std::getenv("MULTILOG_SOAK_SESSIONS")) {
    target = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0) {
    if (lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      ::setrlimit(RLIMIT_NOFILE, &lim);
      ::getrlimit(RLIMIT_NOFILE, &lim);
    }
    // Two fds per idle session (both ends in-process), plus room for
    // the hot clients, the server's own fds, stdio, and the allocator.
    const size_t overhead = 512;
    if (lim.rlim_cur != RLIM_INFINITY &&
        static_cast<size_t>(lim.rlim_cur) > overhead) {
      target = std::min(target,
                        (static_cast<size_t>(lim.rlim_cur) - overhead) / 2);
    }
  }
  return target;
}

void ServerSoakTest::TenThousandIdlePlusHundredHotPipelined() {
  const size_t kIdle = IdleSessionTarget();
  constexpr size_t kHot = 100;
  constexpr int kBurst = 16;  // pipelined queries per hot client

  ServerOptions options;
  options.max_connections = kIdle + kHot + 8;
  options.max_in_flight = 64;
  StartServer(options);

  // The blocking reference answer every hot response must match.
  Client reference_client = MustConnect();
  ASSERT_TRUE(reference_client.Hello("s").ok());
  Result<Json> reference = reference_client.Query(kGoal);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string ref_answers = reference->Find("answers")->Serialize();

  // Open the idle herd. They never speak after connecting; their only
  // job is to sit in the epoll set and cost nothing.
  std::vector<Client> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    Result<Client> c = Client::Connect(port());
    ASSERT_TRUE(c.ok()) << "idle connect " << i << ": " << c.status();
    idle.push_back(std::move(c).value());
  }

  // The hot set: each client hellos, fires a pipelined burst, then
  // matches every tagged response and byte-checks the answers.
  size_t responses_checked = 0;
  for (size_t h = 0; h < kHot; ++h) {
    Client hot = MustConnect();
    ASSERT_TRUE(hot.Hello("s").ok()) << "hot client " << h;
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(hot.SendQuery(static_cast<int64_t>(h * 1000 + i), kGoal)
                      .ok());
    }
    std::set<int64_t> seen;
    for (int i = 0; i < kBurst; ++i) {
      Result<Json> resp = hot.ReadResponse();
      ASSERT_TRUE(resp.ok()) << "hot " << h << ": " << resp.status();
      ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
      const Json* id = resp->Find("id");
      ASSERT_NE(id, nullptr);
      seen.insert(id->int_value());
      ASSERT_EQ(resp->Find("answers")->Serialize(), ref_answers)
          << "answer bytes degraded under soak (hot client " << h << ")";
      ++responses_checked;
    }
    ASSERT_EQ(seen.size(), static_cast<size_t>(kBurst));
  }
  EXPECT_EQ(responses_checked, kHot * static_cast<size_t>(kBurst));

  // The idle herd is all still accounted as open.
  Result<Json> stats = reference_client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* conns = stats->Find("stats")->Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(static_cast<size_t>(conns->GetInt("accepted")), kIdle + kHot);
  EXPECT_GE(static_cast<size_t>(conns->GetInt("open")), kIdle);

  // Drop the herd and watch the server reap every one of them.
  idle.clear();
  bool reaped = false;
  for (int attempt = 0; attempt < 500 && !reaped; ++attempt) {
    Result<Json> now = reference_client.Stats();
    ASSERT_TRUE(now.ok()) << now.status();
    const Json* c = now->Find("stats")->Find("connections");
    ASSERT_NE(c, nullptr);
    reaped = c->GetInt("open") <= 4;
    if (!reaped) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(reaped) << "idle sessions were not reaped after disconnect";

  // And the loop still serves: one more query round-trips cleanly.
  Result<Json> after = reference_client.Query(kGoal);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->Find("answers")->Serialize(), ref_answers);
}

}  // namespace
}  // namespace multilog::server
