// Group commit: the unsynced-append + SyncTo split that lets N
// concurrent committers share one fdatasync instead of queueing one
// each. Covers ticket monotonicity, the already-durable fast path,
// batching (group_syncs grows sublinearly in committers), durability of
// the unsynced path across reopen, and the engine-level equivalence of
// group-commit on/off (same facts, same seqnos - only the fsync
// schedule differs).

#include "storage/storage.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mls/sample_data.h"
#include "multilog/engine.h"

namespace multilog::storage {
namespace {

std::string TempDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "/group_commit_" + tag + "_" +
      std::to_string(::getpid());
  return dir;
}

std::string Fact(int i) {
  const std::string entity = "gc" + std::to_string(i);
  return "s[p(" + entity + " : a -s-> " + entity + ")].";
}

TEST(GroupCommitTest, TicketsAreMonotonicAndSyncToMakesThemDurable) {
  const std::string dir = TempDir("tickets");
  Result<Storage> st = Storage::Open(dir, mls::D1Source());
  ASSERT_TRUE(st.ok()) << st.status();

  EXPECT_EQ(st->last_append_ticket(), 0u);
  // SyncTo(0): nothing to do, no fsync spent.
  ASSERT_TRUE(st->SyncTo(0).ok());
  EXPECT_EQ(st->group_syncs(), 0u);

  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> seqno = st->AppendAssert("s", Fact(i), /*sync=*/false);
    ASSERT_TRUE(seqno.ok()) << seqno.status();
    EXPECT_EQ(st->last_append_ticket(), static_cast<uint64_t>(i + 1));
  }
  const uint64_t ticket = st->last_append_ticket();
  ASSERT_TRUE(st->SyncTo(ticket).ok());
  EXPECT_GE(st->group_syncs(), 1u);

  // Already durable: a second SyncTo to the same ticket is free.
  const uint64_t syncs_before = st->group_syncs();
  ASSERT_TRUE(st->SyncTo(ticket).ok());
  EXPECT_EQ(st->group_syncs(), syncs_before);
}

TEST(GroupCommitTest, ConcurrentCommittersShareFsyncs) {
  const std::string dir = TempDir("sharing");
  Result<Storage> st = Storage::Open(dir, mls::D1Source());
  ASSERT_TRUE(st.ok()) << st.status();
  Storage* storage = &*st;

  // Appends are serialized (as the engine's db lock does in
  // production); each committer captures its own ticket. Once every
  // append has landed, all eight committers SyncTo concurrently: the
  // first to take leadership covers all 64 buffered records with a
  // single fdatasync, and every follower finds its ticket already
  // durable.
  constexpr int kCommits = 64;
  std::vector<uint64_t> tickets(kCommits, 0);
  {
    std::mutex append_mu;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t * 8; i < (t + 1) * 8; ++i) {
          std::lock_guard<std::mutex> lock(append_mu);
          Result<uint64_t> seqno =
              storage->AppendAssert("s", Fact(i), /*sync=*/false);
          ASSERT_TRUE(seqno.ok()) << seqno.status();
          tickets[static_cast<size_t>(i)] = storage->last_append_ticket();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(storage->last_append_ticket(), static_cast<uint64_t>(kCommits));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t * 8; i < (t + 1) * 8; ++i) {
          ASSERT_TRUE(storage->SyncTo(tickets[static_cast<size_t>(i)]).ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Batching is the point: 64 durable commits, one shared fdatasync
  // (a second only if a leader raced the counter read - never 64).
  EXPECT_GE(storage->group_syncs(), 1u);
  EXPECT_LE(storage->group_syncs(), 2u)
      << "group commit degenerated toward one fsync per commit";
}

TEST(GroupCommitTest, UnsyncedAppendsSurviveReopenAfterSyncTo) {
  const std::string dir = TempDir("reopen");
  constexpr int kRecords = 10;
  {
    Result<Storage> st = Storage::Open(dir, mls::D1Source());
    ASSERT_TRUE(st.ok()) << st.status();
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(st->AppendAssert("s", Fact(i), /*sync=*/false).ok());
    }
    ASSERT_TRUE(st->SyncTo(st->last_append_ticket()).ok());
  }
  Result<Storage> again = Storage::Open(dir, mls::D1Source());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->recovered().records.size(),
            static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(again->recovered().records[static_cast<size_t>(i)].fact,
              Fact(i));
  }
}

TEST(GroupCommitTest, EngineGroupCommitOnAndOffProduceTheSameDatabase) {
  // The same mutation stream through a group-commit engine and a
  // sync-every-write engine must yield identical facts and seqnos;
  // only the fsync schedule may differ.
  auto run = [](bool group_commit, const std::string& dir)
      -> std::vector<std::string> {
    Result<Storage> st = Storage::Open(dir, mls::D1Source());
    EXPECT_TRUE(st.ok()) << st.status();
    ml::EngineOptions options;
    options.group_commit = group_commit;
    Result<ml::Engine> engine = ml::Engine::FromStorage(&*st, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    for (int i = 0; i < 8; ++i) {
      Result<ml::WriteResult> r = engine->Assert(Fact(i), "s");
      EXPECT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->seqno, static_cast<uint64_t>(i + 1));
    }
    const ml::StorageCounters sc = engine->StorageStats();
    if (group_commit) {
      EXPECT_GE(sc.group_syncs, 1u) << "group-commit engine never batched";
    } else {
      EXPECT_EQ(sc.group_syncs, 0u)
          << "sync-per-write engine used the group path";
    }
    // Reopen and collect what recovery sees.
    Result<Storage> again = Storage::Open(dir, mls::D1Source());
    EXPECT_TRUE(again.ok()) << again.status();
    std::vector<std::string> facts;
    for (const WalRecord& rec : again->recovered().records) {
      facts.push_back(std::to_string(rec.seqno) + " " + rec.fact);
    }
    return facts;
  };
  const std::vector<std::string> grouped = run(true, TempDir("eng_on"));
  const std::vector<std::string> ungrouped = run(false, TempDir("eng_off"));
  ASSERT_EQ(grouped.size(), 8u);
  EXPECT_EQ(grouped, ungrouped);
}

}  // namespace
}  // namespace multilog::storage
