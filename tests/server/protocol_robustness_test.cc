// The malformed-input corpus: every hostile byte sequence here must
// produce a structured error (or a clean close) - never a crash, hang,
// or desynchronized response. CI runs this binary under ASan/UBSan and
// TSan, so memory errors surface as failures, not luck.

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server_test_util.h"

namespace multilog::server {
namespace {

constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

class RobustnessTest : public ServerTestBase {
 protected:
  /// Writes raw bytes (no framing) straight onto the socket.
  void SendBytes(Client& client, const std::string& bytes) {
    ASSERT_EQ(::write(client.fd(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads the server's error frame and returns its "code" member.
  std::string ReadErrorCode(Client& client) {
    Result<std::string> frame = client.ReadRaw();
    if (!frame.ok()) return "<closed: " + frame.status().ToString() + ">";
    Result<Json> json = Json::Parse(*frame);
    if (!json.ok()) return "<unparseable>";
    EXPECT_FALSE(json->GetBool("ok", true));
    return json->GetString("code", "<missing>");
  }

  /// The server must still serve correct answers after the abuse.
  void ExpectServerStillHealthy() {
    Client probe = MustConnect();
    ASSERT_TRUE(probe.Hello("s").ok());
    Result<Json> r = probe.Query(kGoal);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->GetInt("count"), 1);
  }
};

TEST_F(RobustnessTest, PayloadTierErrorsKeepTheConnectionOpen) {
  StartServer();
  Client client = MustConnect();
  // Each entry is {payload, expected code}; all are well-framed, so the
  // same connection must absorb every one and then still work.
  const struct {
    const char* payload;
    const char* code;
  } corpus[] = {
      {"junk", "ParseError"},                      // not JSON at all
      {"{\"cmd\":", "ParseError"},                 // truncated JSON
      {"[1,2,3]", "InvalidArgument"},              // not an object
      {"{}", "InvalidArgument"},                   // no cmd
      {"{\"cmd\":42}", "InvalidArgument"},         // cmd wrong type
      {"{\"cmd\":\"warp\"}", "InvalidArgument"},   // unknown command
      {"{\"cmd\":\"hello\"}", "InvalidArgument"},  // missing level
      {"{\"cmd\":\"hello\",\"level\":7}", "InvalidArgument"},
      {"{\"cmd\":\"hello\",\"level\":\"tswift\"}",
       "SecurityViolation"},  // level not in the lattice
      {"{\"cmd\":\"hello\",\"level\":\"s\",\"mode\":\"warp9\"}",
       "InvalidArgument"},  // bad mode
      {"{\"cmd\":\"query\",\"goal\":42}", "InvalidArgument"},
      {"{\"cmd\":\"query\",\"goal\":\"\"}", "InvalidArgument"},
      {"{\"cmd\":\"query\",\"goal\":\"x\",\"deadline_ms\":-5}",
       "InvalidArgument"},
      // One past the one-day ceiling (kMaxRequestMs): larger values
      // overflowed the server's nanosecond deadline arithmetic.
      {"{\"cmd\":\"query\",\"goal\":\"x\",\"deadline_ms\":86400001}",
       "InvalidArgument"},
      {"{\"cmd\":\"query\",\"goal\":\"x\",\"wait_ms\":86400001}",
       "InvalidArgument"},
      {"{\"cmd\":\"query\",\"goal\":\"x\",\"proofs\":\"yes\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"sql\",\"sql\":true}", "InvalidArgument"},
      {"{\"cmd\":\"query\",\"goal\":\"not valid multilog ((\"}",
       "SecurityViolation"},  // parse fails later, but hello comes first
  };
  for (const auto& item : corpus) {
    ASSERT_TRUE(client.SendRaw(item.payload).ok()) << item.payload;
    EXPECT_EQ(ReadErrorCode(client), item.code) << item.payload;
  }
  // After the whole corpus the very same connection still binds and
  // answers.
  ASSERT_TRUE(client.Hello("s").ok());
  EXPECT_TRUE(client.Query(kGoal).ok());
  ExpectServerStillHealthy();
}

TEST_F(RobustnessTest, NonUtf8PayloadIsAParseError) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.SendRaw("{\"cmd\":\"\xc0\xaf\"}").ok());
  EXPECT_EQ(ReadErrorCode(client), "ParseError");
  ASSERT_TRUE(client.SendRaw(std::string("\xff\xfe\x80", 3)).ok());
  EXPECT_EQ(ReadErrorCode(client), "ParseError");
  ASSERT_TRUE(client.Hello("s").ok());  // connection survived
}

TEST_F(RobustnessTest, GoalThatFailsToParseIsAStructuredError) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Hello("s").ok());
  Result<Json> r = client.Query("?- ((((");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError() || r.status().IsInvalidArgument())
      << r.status();
  EXPECT_TRUE(client.Query(kGoal).ok());
}

TEST_F(RobustnessTest, NonNumericFrameHeaderClosesWithParseError) {
  StartServer();
  Client client = MustConnect();
  SendBytes(client, "GET / HTTP/1.1\r\n\r\n");  // someone's browser
  EXPECT_EQ(ReadErrorCode(client), "ParseError");
  Result<std::string> next = client.ReadRaw();
  EXPECT_FALSE(next.ok());  // connection closed
  ExpectServerStillHealthy();
}

TEST_F(RobustnessTest, OversizedDeclaredLengthIsRejectedWithoutReading) {
  ServerOptions options;
  options.max_request_bytes = 1024;
  StartServer(options);
  Client client = MustConnect();
  SendBytes(client, "999999999\n");  // declares ~1 GB, sends nothing
  EXPECT_EQ(ReadErrorCode(client), "ResourceExhausted");
  Result<std::string> next = client.ReadRaw();
  EXPECT_FALSE(next.ok());  // framing is gone; server closed
  ExpectServerStillHealthy();
}

TEST_F(RobustnessTest, AbsurdlyLongHeaderIsRejected) {
  StartServer();
  Client client = MustConnect();
  SendBytes(client, std::string(64, '9'));  // never even sends the '\n'
  EXPECT_EQ(ReadErrorCode(client), "ParseError");
  ExpectServerStillHealthy();
}

TEST_F(RobustnessTest, TruncatedPayloadClosesCleanly) {
  StartServer();
  {
    Client client = MustConnect();
    // Declare 100 bytes, deliver 10, hang up mid-frame.
    SendBytes(client, "100\n0123456789");
  }  // destructor closes the socket
  ExpectServerStillHealthy();
}

TEST_F(RobustnessTest, EmptyFrameIsAPayloadError) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.SendRaw("").ok());  // "0\n" on the wire
  EXPECT_EQ(ReadErrorCode(client), "ParseError");
  ASSERT_TRUE(client.Hello("s").ok());  // still open
}

TEST_F(RobustnessTest, ImmediateDisconnectIsHarmless) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    Client client = MustConnect();  // connect, say nothing, vanish
  }
  ExpectServerStillHealthy();
}

TEST(ParsePortTest, AcceptsTheFullValidRange) {
  for (const auto& [text, want] :
       {std::pair<const char*, uint16_t>{"1", 1},
        {"80", 80},
        {"7690", 7690},
        {"65535", 65535}}) {
    Result<uint16_t> port = ParsePort(text);
    ASSERT_TRUE(port.ok()) << text << ": " << port.status();
    EXPECT_EQ(*port, want) << text;
  }
}

TEST(ParsePortTest, RejectsWhatAtoiWouldMangle) {
  // "70000" used to truncate to 4464 via the uint16_t cast; every one
  // of these must now be an InvalidArgument, not a wrong port.
  for (const char* text : {"", "0", "65536", "70000", "131073", "999999",
                           "-1", "80x", "x80", " 80", "8 0", "0x50"}) {
    Result<uint16_t> port = ParsePort(text);
    EXPECT_FALSE(port.ok()) << text << " -> " << static_cast<int>(*port);
    if (!port.ok()) {
      EXPECT_TRUE(port.status().IsInvalidArgument()) << text;
    }
  }
}

TEST(ParsePortTest, EphemeralZeroIsDaemonOnly) {
  // The daemon keeps "--port 0" = bind an OS-assigned port; everything
  // else that was junk without the flag stays junk with it.
  Result<uint16_t> port = ParsePort("0", /*allow_ephemeral=*/true);
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_EQ(*port, 0);
  for (const char* text : {"", "-0", "65536", "0x0"}) {
    EXPECT_FALSE(ParsePort(text, /*allow_ephemeral=*/true).ok()) << text;
  }
}

}  // namespace
}  // namespace multilog::server
