// The churn-leak regression test (the headline bugfix of the event-loop
// refactor): a daemon must be able to serve an unbounded sequence of
// short-lived sessions in bounded memory. The pre-refactor server
// leaked one heap-allocated Connection plus one 8 MiB-stack std::thread
// per accepted session into append-only vectors that were only freed at
// Stop(); a few thousand connect/disconnect cycles was enough to pin
// gigabytes of address space and thousands of dead-but-joinable
// threads. This test churns ~5k sequential sessions and asserts
//
//  1. the server *reports* reclamation: the stats surface carries a
//     connections.reaped counter that keeps pace with accepted (the
//     seed server has no such field, so this fails against it),
//  2. the process thread count returns to its baseline (no joinable
//     thread accumulation), and
//  3. virtual memory growth over the whole churn stays far below one
//     leaked thread stack per session.
//
// It runs against both handlers the loop serves: the engine, and the
// router (whose thread-per-connection predecessor had no
// connections.reaped counter either).

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "loop_test_util.h"

namespace multilog::server {
namespace {

constexpr char kGoal[] = "?- c[p(k : a -R-> v)] << opt.";

/// Reads an integer-valued field ("VmSize", "Threads", ...) from
/// /proc/self/status; -1 if absent. Values reported in kB keep the kB.
long ProcStatusValue(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    long value = -1;
    fields >> value;
    return value;
  }
  return -1;
}

class ServerChurnTest : public LoopTest {
 protected:
  using LoopTest::LoopTest;
  void FiveThousandSessionChurnStaysBounded();
};

class RouterChurnTest : public ServerChurnTest {
 protected:
  RouterChurnTest() : ServerChurnTest(Handler::kRouter) {}
};

MULTILOG_LOOP_TEST(ServerChurnTest, RouterChurnTest,
                   FiveThousandSessionChurnStaysBounded)

void ServerChurnTest::FiveThousandSessionChurnStaysBounded() {
  StartServer();
  constexpr int kCycles = 5000;

  // Warm up: let the thread pool, allocator arenas, and lazily built
  // engine structures reach steady state before taking baselines.
  for (int i = 0; i < 100; ++i) {
    Client client = MustConnect();
    ASSERT_TRUE(client.Hello("s").ok());
    ASSERT_TRUE(client.Query(kGoal).ok());
  }
  const long baseline_threads = ProcStatusValue("Threads");
  const long baseline_vm_kb = ProcStatusValue("VmSize");
  ASSERT_GT(baseline_threads, 0);
  ASSERT_GT(baseline_vm_kb, 0);

  for (int i = 0; i < kCycles; ++i) {
    Client client = MustConnect();
    ASSERT_TRUE(client.Hello("s").ok()) << "cycle " << i;
    if (i % 8 == 0) {
      Result<Json> r = client.Query(kGoal);
      ASSERT_TRUE(r.ok()) << "cycle " << i << ": " << r.status();
      ASSERT_EQ(r->GetInt("count"), 1) << "cycle " << i;
    }
    // Half the sessions say goodbye, half just vanish (destructor
    // closes the socket); the server must reclaim both kinds.
    if (i % 2 == 0) client.Bye();
  }

  // (1) The server accounts for every reclaimed session. The seed
  // server's stats have no connections.reaped at all - Find() returns
  // null there - and its open count equals accepted because nothing
  // was ever freed.
  Client observer = MustConnect();
  ASSERT_TRUE(observer.Hello("s").ok());
  Result<Json> stats = observer.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json* conns = stats->Find("stats")->Find("connections");
  ASSERT_NE(conns, nullptr);
  const Json* reaped = conns->Find("reaped");
  ASSERT_NE(reaped, nullptr)
      << "stats report no connections.reaped counter: the server does "
         "not reclaim (or account for) closed sessions";
  const int64_t accepted = conns->GetInt("accepted");
  const int64_t open = conns->GetInt("open");
  EXPECT_GE(accepted, kCycles);
  // Sequential churn: everything but the observer (and at most a few
  // FINs the loop hasn't drained yet) must already be reaped.
  EXPECT_LE(open, 16) << "closed sessions are accumulating as open";
  EXPECT_GE(reaped->int_value(), accepted - open);

  // (2) No thread growth: the leaked-thread-per-session server would
  // sit on ~5000 extra joinable threads here.
  const long threads_now = ProcStatusValue("Threads");
  EXPECT_LE(threads_now, baseline_threads + 4)
      << "thread count grew from " << baseline_threads << " to "
      << threads_now << " over " << kCycles << " sessions";

  // (3) Bounded memory: one leaked 8 MiB thread stack per session
  // would grow VmSize by ~40 GiB; allow generous allocator noise.
  const long vm_now_kb = ProcStatusValue("VmSize");
  EXPECT_LE(vm_now_kb - baseline_vm_kb, 512L * 1024)
      << "VmSize grew by " << (vm_now_kb - baseline_vm_kb) << " kB over "
      << kCycles << " sessions";
}

}  // namespace
}  // namespace multilog::server
