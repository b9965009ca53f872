// The client library's batch runner: failing lines are reported by
// number, the batch stops there (or continues under keep_going), and a
// Definition 5.4 violation mid-batch behaves exactly like any other
// rejected line.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "multilog/engine.h"
#include "server/client.h"
#include "server_test_util.h"

namespace multilog::server {
namespace {

class ClientBatchTest : public ServerTestBase {
 protected:
  Client HellodClient(const std::string& level) {
    Client c = MustConnect();
    EXPECT_TRUE(c.Hello(level).ok());
    return c;
  }
};

// Line 3 violates Definition 5.4: same (predicate, key, attribute,
// classification) as line 2 with a different value for `b` breaks the
// polyinstantiation FD. It passes the security checks (the fact is at
// the session level), so only integrity validation can catch it.
constexpr char kViolatingBatch[] =
    "% staged writes\n"
    "assert s[p(k9 : a -s-> k9, b -s-> v1)].\n"
    "assert s[p(k9 : a -s-> k9, b -s-> v2)].\n"
    "assert s[p(k8 : a -s-> k8)].\n";

TEST_F(ClientBatchTest, StopsAtTheFailingLineAndReportsItsNumber) {
  StartServer();
  Client c = HellodClient("s");
  std::istringstream in(kViolatingBatch);
  const BatchResult result = RunBatch(c, in);
  EXPECT_EQ(result.applied, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].lineno, 3u);
  EXPECT_TRUE(result.failures[0].status.IsIntegrityViolation())
      << result.failures[0].status;
  // The batch stopped: line 4 never ran, so its fact is absent.
  Result<Json> probe = c.Query("?- s[p(k8 : a -R-> V)] << opt.");
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_TRUE(probe->Find("answers")->array_items().empty());
}

TEST_F(ClientBatchTest, KeepGoingRunsPastFailuresAndReportsEachOne) {
  StartServer();
  Client c = HellodClient("s");
  std::istringstream in(kViolatingBatch);
  std::ostringstream echo;
  const BatchResult result =
      RunBatch(c, in, /*keep_going=*/true, &echo);
  EXPECT_EQ(result.applied, 2u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].lineno, 3u);
  // Line 4 ran despite the failure on line 3.
  Result<Json> probe = c.Query("?- s[p(k8 : a -R-> V)] << opt.");
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(probe->Find("answers")->array_items().size(), 1u);
  // The echo stream names the successful lines by number.
  EXPECT_NE(echo.str().find("2: "), std::string::npos);
  EXPECT_NE(echo.str().find("4: "), std::string::npos);
}

TEST_F(ClientBatchTest, MalformedLinesAreInvalidArgumentAtTheirNumber) {
  StartServer();
  Client c = HellodClient("s");
  std::istringstream in(
      "assert s[p(k7 : a -s-> k7)].\n"
      "\n"
      "frobnicate the database\n");
  const BatchResult result = RunBatch(c, in, /*keep_going=*/true);
  EXPECT_EQ(result.applied, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].lineno, 3u);
  EXPECT_TRUE(result.failures[0].status.IsInvalidArgument());
}

TEST_F(ClientBatchTest, CommentsAndBlanksDoNotShiftLineNumbers) {
  StartServer();
  Client c = HellodClient("s");
  std::istringstream in(
      "# header comment\n"
      "\n"
      "% another comment\n"
      "retract s[p(nosuch : a -s-> x)].\n");
  const BatchResult result = RunBatch(c, in);
  EXPECT_EQ(result.applied, 0u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].lineno, 4u);
  EXPECT_TRUE(result.failures[0].status.IsNotFound())
      << result.failures[0].status;
}

TEST_F(ClientBatchTest, QueriesAndCheckpointsCountAsBatchWork) {
  StartServer();
  Client c = HellodClient("c");
  std::istringstream in(
      "assert c[p(k5 : a -c-> k5)].\n"
      "query ?- c[p(k5 : a -R-> V)] << opt.\n"
      "retract c[p(k5 : a -c-> k5)].\n");
  const BatchResult result = RunBatch(c, in);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.applied, 3u);
  // The summary splits out the writes and times the whole batch; the
  // query warms the c-level cache, so the retract maintains it in
  // place and the maintained-level tally is non-zero.
  EXPECT_EQ(result.writes, 2u);
  EXPECT_GE(result.levels_maintained, 1u);
  EXPECT_GT(result.wall_ms, 0.0);
}

}  // namespace
}  // namespace multilog::server
