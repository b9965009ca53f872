// Event-loop behaviors that only matter once serving is nonblocking:
//
//  - the connection-limit rejection is best-effort and never lets a
//    stalled (never-reading) rejected peer delay the next accept, on
//    both handlers the loop serves (engine and router),
//  - a query parked on a min_seqno floor burns no worker thread and no
//    in-flight slot while it waits (other queries run to completion
//    around it), and expires with the staleness-deadline error,
//  - a response that cannot be written (peer reset the connection)
//    counts response_write_errors and closes the session instead of
//    wedging the loop.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "server/client.h"
#include "server/protocol.h"
#include "loop_test_util.h"

namespace multilog::server {
namespace {

constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

class ServerEventLoopTest : public LoopTest {
 protected:
  using LoopTest::LoopTest;
  void StalledRejectedPeerDoesNotDelayNextAccept();
};

class RouterEventLoopTest : public ServerEventLoopTest {
 protected:
  RouterEventLoopTest() : ServerEventLoopTest(Handler::kRouter) {}
};

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

MULTILOG_LOOP_TEST(ServerEventLoopTest, RouterEventLoopTest,
                   StalledRejectedPeerDoesNotDelayNextAccept)

void ServerEventLoopTest::StalledRejectedPeerDoesNotDelayNextAccept() {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  // Fill the limit.
  Client a = MustConnect();
  ASSERT_TRUE(a.Hello("s").ok());
  Client b = MustConnect();
  ASSERT_TRUE(b.Hello("s").ok());

  // A peer that connects over the limit and then never reads a byte:
  // the rejection frame is sent best-effort with MSG_DONTWAIT, so the
  // loop must not block on this socket no matter what the peer does.
  Result<Client> staller = Client::Connect(port());
  ASSERT_TRUE(staller.ok()) << staller.status();
  // (deliberately no ReadRaw: the staller just sits there)

  // The admitted sessions keep working immediately.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.Query(kGoal).ok());
  EXPECT_LT(ElapsedMs(t0), 2000)
      << "a stalled rejected peer delayed an admitted session";

  // Free a slot and connect again: the accept path must admit the new
  // session promptly even though the staller never drained its
  // rejection frame.
  ASSERT_TRUE(b.Bye().ok());
  const auto t1 = std::chrono::steady_clock::now();
  Result<Client> fresh = Status::Internal("unattempted");
  for (int attempt = 0; attempt < 50; ++attempt) {
    fresh = Client::Connect(port());
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    Result<Json> hello = fresh->Hello("s");
    if (hello.ok()) break;  // rejected = bye not yet reaped; retry
    fresh = Status::Internal("rejected, retrying");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_LT(ElapsedMs(t1), 2000)
      << "accept was delayed behind a stalled rejected peer";
  EXPECT_TRUE(fresh->Query(kGoal).ok());

  Result<Json> stats = a.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* conns = stats->Find("stats")->Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->GetInt("rejected"), 1);
}

TEST_F(ServerEventLoopTest, ParkedQueryHoldsNoWorkerAndNoInFlightSlot) {
  // One worker, one in-flight slot: if parking held either, the second
  // session's query could not run until the first one's wait resolved.
  ServerOptions options;
  options.num_workers = 1;
  options.max_in_flight = 1;
  StartServer(options);

  Client parked = MustConnect();
  ASSERT_TRUE(parked.Hello("s").ok());
  Result<Json> stats = parked.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const int64_t applied = stats->Find("stats")->GetInt("applied_seqno");

  Json waiting = Json::Object();
  waiting.Set("cmd", Json::Str("query"));
  waiting.Set("goal", Json::Str(kGoal));
  waiting.Set("id", Json::Int(1));
  waiting.Set("min_seqno", Json::Int(applied + 1));
  waiting.Set("wait_ms", Json::Int(10000));
  ASSERT_TRUE(parked.SendRaw(waiting.Serialize()).ok());

  // With the park in place, a lower-floor query on another session
  // completes while the first still waits.
  Client runner = MustConnect();
  ASSERT_TRUE(runner.Hello("s").ok());
  const auto t0 = std::chrono::steady_clock::now();
  Result<Json> fast = runner.Query(kGoal);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(fast->GetInt("count"), 1);
  EXPECT_LT(ElapsedMs(t0), 2000)
      << "a parked query is holding the only worker or in-flight slot";

  // A write satisfies the floor and the parked query completes.
  ASSERT_TRUE(runner.Assert("s[p(k2 : a -s-> k2)].").ok());
  Result<Json> released = parked.ReadResponse();
  ASSERT_TRUE(released.ok()) << released.status();
  EXPECT_TRUE(released->GetBool("ok", false)) << released->Serialize();
  EXPECT_EQ(released->Find("id")->int_value(), 1);
  EXPECT_EQ(released->GetInt("count"), 1);
}

TEST_F(ServerEventLoopTest, ParkedQueryExpiresWithTheStalenessDeadline) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const int64_t applied = stats->Find("stats")->GetInt("applied_seqno");

  const auto t0 = std::chrono::steady_clock::now();
  Result<Json> r = client.Query(kGoal, /*deadline_ms=*/-1, /*mode=*/"",
                                /*proofs=*/false, /*trace=*/false,
                                /*min_seqno=*/applied + 1000,
                                /*wait_ms=*/100);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  EXPECT_NE(r.status().message().find("has not reached min_seqno"),
            std::string::npos)
      << r.status();
  EXPECT_GE(ElapsedMs(t0), 100);
  EXPECT_LT(ElapsedMs(t0), 5000);

  Result<Json> after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status();
  const Json* queries = after->Find("stats")->Find("queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_GE(queries->GetInt("deadline_exceeded"), 1);
}

TEST_F(ServerEventLoopTest, FailedResponseWriteCountsAndClosesTheSession) {
  StartServer();

  // Raw socket so we can arm SO_LINGER(0): closing then sends RST, and
  // any later server write to this connection fails outright.
  int doomed = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(doomed, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(doomed, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  Json hello = Json::Object();
  hello.Set("cmd", Json::Str("hello"));
  hello.Set("level", Json::Str("s"));
  ASSERT_TRUE(WriteFrame(doomed, hello.Serialize()).ok());
  Result<std::optional<std::string>> hello_resp =
      ReadFrame(doomed, kAbsoluteMaxFrameBytes);
  ASSERT_TRUE(hello_resp.ok() && hello_resp->has_value());

  // Park a query so the server's (error) response is written at a
  // deterministic later moment - after the RST below has landed.
  Json waiting = Json::Object();
  waiting.Set("cmd", Json::Str("query"));
  waiting.Set("goal", Json::Str(kGoal));
  waiting.Set("min_seqno", Json::Int(1000000));
  waiting.Set("wait_ms", Json::Int(300));
  ASSERT_TRUE(WriteFrame(doomed, waiting.Serialize()).ok());

  // Reset the connection under the parked query.
  struct linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(::setsockopt(doomed, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)),
            0);
  ::close(doomed);  // -> RST

  // When the park expires the server tries to write the deadline
  // error, the write fails, and the failure is counted; the session
  // must be reaped, not wedged.
  Client observer = MustConnect();
  ASSERT_TRUE(observer.Hello("s").ok());
  bool counted = false;
  for (int attempt = 0; attempt < 100 && !counted; ++attempt) {
    Result<Json> now = observer.Stats();
    ASSERT_TRUE(now.ok()) << now.status();
    const Json* reqs = now->Find("stats")->Find("requests");
    ASSERT_NE(reqs, nullptr);
    counted = reqs->GetInt("response_write_errors") >= 1;
    if (!counted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(counted) << "failed response write was never counted";

  // And the doomed session is gone: open connections is just the
  // observer (reaped keeps pace with accepted).
  Result<Json> fin = observer.Stats();
  ASSERT_TRUE(fin.ok()) << fin.status();
  const Json* conns = fin->Find("stats")->Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->GetInt("reaped"),
            conns->GetInt("accepted") - conns->GetInt("open"));
  EXPECT_LE(conns->GetInt("open"), 2);
}

}  // namespace
}  // namespace multilog::server
