#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace multilog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, FactoriesAndPredicates) {
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::InvalidProgram("x").IsInvalidProgram());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::SecurityViolation("x").IsSecurityViolation());
  EXPECT_TRUE(Status::IntegrityViolation("x").IsIntegrityViolation());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_FALSE(Status::ParseError("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("no such level");
  EXPECT_EQ(s.ToString(), "NotFound: no such level");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::ParseError("bad token").WithContext("line 3");
  EXPECT_EQ(s.message(), "line 3: bad token");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto f = [](bool fail) -> Result<int> {
    auto inner = [fail]() -> Result<int> {
      if (fail) return Status::Internal("boom");
      return 7;
    };
    MULTILOG_ASSIGN_OR_RETURN(int x, inner());
    return x + 1;
  };
  EXPECT_EQ(f(false).value(), 8);
  EXPECT_TRUE(f(true).status().IsInternal());
}

TEST(StrUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StrUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("rel__u", "rel__"));
  EXPECT_FALSE(StartsWith("re", "rel"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith("c", ".cc"));
}

TEST(StrUtilTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("abc_1"));
  EXPECT_TRUE(IsIdentifier("_x"));
  EXPECT_FALSE(IsIdentifier("1abc"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("a-b"));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter p({"Name", "Level"});
  p.AddRow({"Avenger", "s"});
  p.AddRow({"Eagle", "u"});
  std::string out = p.ToString();
  EXPECT_NE(out.find("| Name    | Level |"), std::string::npos) << out;
  EXPECT_NE(out.find("| Avenger | s     |"), std::string::npos) << out;
  EXPECT_EQ(p.row_count(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter p({"A", "B", "C"});
  p.AddRow({"x"});
  std::string out = p.ToString();
  EXPECT_NE(out.find("| x | "), std::string::npos) << out;
}

TEST(TablePrinterTest, EmptyTableRendersHeaderOnly) {
  TablePrinter p({"A"});
  std::string out = p.ToString();
  EXPECT_NE(out.find("| A |"), std::string::npos);
}

/// Submits `tasks` tasks that each block until released, and reports
/// how many threads ran them side by side before the release.
size_t BlockedTasksRunningAtOnce(ThreadPool& pool, int tasks) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> running;
  bool release = false;
  std::atomic<int> finished{0};
  for (int i = 0; i < tasks; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      running.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      finished.fetch_add(1);
    });
  }
  const size_t can_run =
      std::min(static_cast<size_t>(tasks), pool.num_workers());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(5),
              [&] { return running.size() >= can_run; });
  // Give a task that should not have started the chance to.
  cv.wait_for(lock, std::chrono::milliseconds(50), [] { return false; });
  const size_t at_once = running.size();
  release = true;
  cv.notify_all();
  lock.unlock();
  while (finished.load() < tasks) std::this_thread::yield();
  return at_once;
}

TEST(ThreadPoolTest, EveryBlockedTaskGetsAWorkerUpToTheCap) {
  ThreadPool pool(8);
  EXPECT_EQ(BlockedTasksRunningAtOnce(pool, 5), 5u);
}

TEST(ThreadPoolTest, TasksBeyondTheCapWait) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);
  EXPECT_EQ(BlockedTasksRunningAtOnce(pool, 3), 2u);
}

}  // namespace
}  // namespace multilog
