// Pipelining: a session may have multiple tagged requests in flight and
// the server may complete them out of order; each response echoes its
// request's "id" so the client can match them back up. Untagged
// requests stay supported (no "id" member is invented), error responses
// carry the offending request's id, and pipelined answers are the same
// bytes the blocking one-at-a-time client receives - on both handlers
// the loop serves. Distinct write seqnos are the engine's alone: each
// shard behind a router numbers its own writes.

#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "server/client.h"
#include "loop_test_util.h"

namespace multilog::server {
namespace {

constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

class ServerPipelineTest : public LoopTest {
 protected:
  using LoopTest::LoopTest;
  void BurstOfTaggedQueriesAllAnswerWithTheirId();
  void ResponsesMayArriveOutOfOrder();
  void UntaggedRequestsGetNoInventedId();
  void ErrorResponsesCarryTheRequestId();
  void ClearanceErrorBeforeHelloCarriesTheId();
  void ByeDrainsInFlightResponsesFirst();
};

class RouterPipelineTest : public ServerPipelineTest {
 protected:
  RouterPipelineTest() : ServerPipelineTest(Handler::kRouter) {}
};

MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   BurstOfTaggedQueriesAllAnswerWithTheirId)
MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   ResponsesMayArriveOutOfOrder)
MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   UntaggedRequestsGetNoInventedId)
MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   ErrorResponsesCarryTheRequestId)
MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   ClearanceErrorBeforeHelloCarriesTheId)
MULTILOG_LOOP_TEST(ServerPipelineTest, RouterPipelineTest,
                   ByeDrainsInFlightResponsesFirst)

void ServerPipelineTest::BurstOfTaggedQueriesAllAnswerWithTheirId() {
  ServerOptions options;
  options.max_in_flight = 128;  // admit the whole burst at once
  StartServer(options);
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());

  // The blocking reference answer for byte-comparison.
  Result<Json> reference = client.Query(kGoal);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string ref_answers = reference->Find("answers")->Serialize();

  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendQuery(/*id=*/1000 + i, kGoal).ok());
  }
  std::set<int64_t> seen;
  for (int i = 0; i < kBurst; ++i) {
    Result<Json> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
    const Json* id = resp->Find("id");
    ASSERT_NE(id, nullptr) << "response lost its id tag";
    seen.insert(id->int_value());
    EXPECT_EQ(resp->GetInt("count"), 1);
    EXPECT_EQ(resp->Find("answers")->Serialize(), ref_answers)
        << "pipelined answer differs from the blocking client's";
  }
  // Every id came back exactly once (set collapse would shrink it).
  ASSERT_EQ(seen.size(), static_cast<size_t>(kBurst));
  EXPECT_EQ(*seen.begin(), 1000);
  EXPECT_EQ(*seen.rbegin(), 1000 + kBurst - 1);
}

void ServerPipelineTest::ResponsesMayArriveOutOfOrder() {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());

  // First request parks on a bounded-staleness floor one write in the
  // future; the second runs immediately. The fast one must come back
  // first even though it was sent second - that is the whole point of
  // tagging - and the parked one completes once a write lands.
  Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const int64_t applied = stats->Find("stats")->GetInt("applied_seqno");

  Json waiting = Json::Object();
  waiting.Set("cmd", Json::Str("query"));
  waiting.Set("goal", Json::Str(kGoal));
  waiting.Set("id", Json::Int(1));
  waiting.Set("min_seqno", Json::Int(applied + 1));
  waiting.Set("wait_ms", Json::Int(10000));
  ASSERT_TRUE(client.SendRaw(waiting.Serialize()).ok());
  ASSERT_TRUE(client.SendQuery(/*id=*/2, kGoal).ok());

  Result<Json> first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->Find("id")->int_value(), 2)
      << "the un-parked query should finish first: " << first->Serialize();

  // Release the parked query with a write from a second session.
  Client writer = MustConnect();
  ASSERT_TRUE(writer.Hello("s").ok());
  ASSERT_TRUE(writer.Assert("s[p(k2 : a -s-> k2)].").ok());

  Result<Json> second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->Find("id")->int_value(), 1) << second->Serialize();
  EXPECT_TRUE(second->GetBool("ok", false)) << second->Serialize();
  EXPECT_EQ(second->GetInt("count"), 1);
}

void ServerPipelineTest::UntaggedRequestsGetNoInventedId() {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> resp = client.Query(kGoal);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->Find("id"), nullptr);
}

void ServerPipelineTest::ErrorResponsesCarryTheRequestId() {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  // A goal that fails to parse: the error must still be routed back to
  // the tag so a pipelining client can tell *which* request died.
  ASSERT_TRUE(client.SendQuery(/*id=*/77, "this is not a goal").ok());
  Result<Json> resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->GetBool("ok", true));
  const Json* id = resp->Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->int_value(), 77);
}

void ServerPipelineTest::ClearanceErrorBeforeHelloCarriesTheId() {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.SendQuery(/*id=*/5, kGoal).ok());
  Result<Json> resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->GetBool("ok", true));
  EXPECT_EQ(resp->GetString("code"), "SecurityViolation");
  const Json* id = resp->Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->int_value(), 5);
}

TEST_F(ServerPipelineTest, PipelinedWritesAllCommitWithDistinctSeqnos) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  // Tagged writes may execute in any relative order (only hello/bye/
  // replicate are ordered), so assert two *independent* facts and
  // check both committed, with distinct seqnos, and both are visible.
  ASSERT_TRUE(client.SendAssert(1, "s[p(k2 : a -s-> k2)].").ok());
  ASSERT_TRUE(client.SendAssert(2, "s[p(k9 : a -s-> k9)].").ok());

  std::vector<int64_t> seqnos;
  for (int i = 0; i < 2; ++i) {
    Result<Json> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
    ASSERT_NE(resp->Find("id"), nullptr);
    seqnos.push_back(resp->GetInt("seqno"));
  }
  EXPECT_NE(seqnos[0], seqnos[1]);

  for (const char* goal : {"s[p(k2 : a -R-> k2)] << opt",
                           "s[p(k9 : a -R-> k9)] << opt"}) {
    Result<Json> r = client.Query(goal);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->GetInt("count"), 1) << goal;
  }
}

void ServerPipelineTest::ByeDrainsInFlightResponsesFirst() {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  // Queries then bye, all in one burst: every query must still answer
  // (bye is ordered behind the in-flight work), then bye acks, then
  // the server closes.
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendQuery(i, kGoal).ok());
  }
  Json bye = Json::Object();
  bye.Set("cmd", Json::Str("bye"));
  ASSERT_TRUE(client.SendRaw(bye.Serialize()).ok());

  std::set<int64_t> seen;
  for (int i = 0; i < kBurst; ++i) {
    Result<Json> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
    const Json* id = resp->Find("id");
    ASSERT_NE(id, nullptr) << resp->Serialize();
    seen.insert(id->int_value());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kBurst));
  Result<Json> ack = client.ReadResponse();
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_TRUE(ack->GetBool("ok", false));
  // After the ack the server closes its end.
  Result<std::string> eof = client.ReadRaw();
  EXPECT_FALSE(eof.ok());
}

}  // namespace
}  // namespace multilog::server
