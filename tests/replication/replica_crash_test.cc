// Crash-injection corpus for a replica's LOCAL durability: a replica
// that is killed mid-apply (simulated by truncating its WAL copy at
// every byte boundary) must restart on some clean prefix of the
// primary's history, report that prefix's seqno as its resume cursor,
// and - after re-applying the remaining records through the same
// ApplyReplicated path the live stream uses - end byte-identical to
// the primary at every clearance. Records are fed through
// Engine::ApplyReplicated directly (no sockets): that IS the apply
// path, and driving it directly makes the corpus deterministic.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "multilog/engine.h"
#include "storage/storage.h"
#include "storage/wal.h"

namespace multilog::replication {
namespace {

using storage::Storage;
using storage::WalRecord;
using storage::WalRecordType;

constexpr char kBaseSource[] = R"(
level(u).
level(a).
level(b).
level(ts).
order(u, a).
order(u, b).
order(a, ts).
order(b, ts).
u[item(base : id -u-> base, val -u-> seed)].
)";

int g_dir_counter = 0;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/replcrash_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(g_dir_counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Copies a replica data dir, truncating the WAL copy to `wal_bytes` -
/// the kill-9-mid-apply simulation.
std::string CloneDirTruncated(const std::string& src_dir, size_t wal_bytes,
                              const std::string& tag) {
  const std::string dst = FreshDir(tag);
  WriteFile(dst + "/snapshot.mls", ReadFile(src_dir + "/snapshot.mls"));
  WriteFile(dst + "/wal.log",
            ReadFile(src_dir + "/wal.log").substr(0, wal_bytes));
  return dst;
}

/// The primary's history the corpus replays: mixed levels (including
/// both incomparable ones), a retract, and mixed classifications.
std::vector<WalRecord> PrimaryHistory() {
  std::vector<WalRecord> records;
  auto add = [&](WalRecordType type, const char* level, const char* fact) {
    WalRecord r;
    r.type = type;
    r.seqno = records.size() + 1;
    r.level = level;
    r.fact = fact;
    records.push_back(std::move(r));
  };
  add(WalRecordType::kAssert, "u", "u[item(k1 : id -u-> k1, val -u-> red)].");
  add(WalRecordType::kAssert, "a",
      "a[item(k2 : id -a-> k2, val -a-> green)].");
  add(WalRecordType::kAssert, "b", "b[item(k3 : id -b-> k3, val -b-> blue)].");
  add(WalRecordType::kAssert, "ts",
      "ts[item(k4 : id -ts-> k4, val -ts-> black)].");
  add(WalRecordType::kRetract, "a",
      "a[item(k2 : id -a-> k2, val -a-> green)].");
  add(WalRecordType::kAssert, "a",
      "a[item(k5 : id -u-> k5, val -a-> white)].");
  return records;
}

/// Per-clearance query dump: one string covering what each level can
/// see, so "byte-identical at all clearances" is a single compare.
std::string ClearanceDumps(ml::Engine* engine) {
  std::string out;
  for (const char* level : {"u", "a", "b", "ts"}) {
    const std::string goal = "?- " + std::string(level) + "[item(K : id -" +
                             level + "-> K)].";
    Result<ml::QueryResult> r =
        engine->QuerySource(goal, level, ml::ExecMode::kReduced, nullptr);
    EXPECT_TRUE(r.ok()) << level << ": " << r.status();
    out += std::string(level) + ":";
    if (r.ok()) {
      for (const auto& answer : r->answers) out += " " + answer.ToString();
    }
    out += "\n";
  }
  return out;
}

/// The kill-mid-apply sweep. For EVERY byte length the replica's WAL
/// could have been cut at:
///  1. recovery succeeds on a clean prefix (never a half-applied or
///     corrupt state),
///  2. AppliedSeqno() equals the length of that prefix - the exact
///     cursor the replicator resumes the stream from, so nothing is
///     skipped and nothing is double-applied,
///  3. re-applying the missing records through ApplyReplicated lands
///     the replica byte-identical to the primary (full dump AND
///     per-clearance query results).
TEST(ReplicaCrashTest, TruncationSweepResumesFromPersistedSeqno) {
  const std::vector<WalRecord> history = PrimaryHistory();

  // The primary's reference states: dumps[k] after the first k records.
  std::vector<std::string> dumps;
  std::string final_clearances;
  {
    Result<ml::Engine> primary = ml::Engine::FromSource(kBaseSource);
    ASSERT_TRUE(primary.ok()) << primary.status();
    dumps.push_back(primary->DumpSource());
    for (const WalRecord& r : history) {
      ASSERT_TRUE(primary->ApplyReplicated(r).ok()) << r.fact;
      dumps.push_back(primary->DumpSource());
    }
    final_clearances = ClearanceDumps(&*primary);
  }

  // A replica applies the full stream, persisting each record to its
  // own WAL (the apply path's write-ahead discipline).
  const std::string replica_dir = FreshDir("sweep_src");
  {
    Result<Storage> st = Storage::Open(replica_dir, kBaseSource);
    ASSERT_TRUE(st.ok()) << st.status();
    Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
    ASSERT_TRUE(replica.ok()) << replica.status();
    for (const WalRecord& r : history) {
      Result<ml::WriteResult> w = replica->ApplyReplicated(r);
      ASSERT_TRUE(w.ok()) << r.fact << ": " << w.status();
      ASSERT_EQ(w->seqno, r.seqno) << "the primary's seqno must be kept";
    }
    ASSERT_EQ(replica->AppliedSeqno(), history.size());
  }

  const size_t wal_size = ReadFile(replica_dir + "/wal.log").size();
  ASSERT_GT(wal_size, 0u);
  size_t torn_recoveries = 0;
  for (size_t cut = 0; cut <= wal_size; ++cut) {
    const std::string crashed = CloneDirTruncated(replica_dir, cut, "sweep");
    Result<Storage> st = Storage::Open(crashed, kBaseSource);
    ASSERT_TRUE(st.ok()) << "cut=" << cut << ": " << st.status();
    if (!st->recovered().data_loss.ok()) ++torn_recoveries;
    const size_t k = st->recovered().records.size();
    ASSERT_LE(k, history.size()) << "cut=" << cut;

    Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
    ASSERT_TRUE(replica.ok()) << "cut=" << cut << ": " << replica.status();
    // (1)+(2): a clean prefix, and the resume cursor names it exactly.
    EXPECT_EQ(replica->DumpSource(), dumps[k]) << "cut=" << cut;
    EXPECT_EQ(replica->AppliedSeqno(), k) << "cut=" << cut;

    // (3): catch-up = the primary re-ships seqnos > AppliedSeqno().
    for (size_t i = k; i < history.size(); ++i) {
      Result<ml::WriteResult> w = replica->ApplyReplicated(history[i]);
      ASSERT_TRUE(w.ok()) << "cut=" << cut << " record " << i << ": "
                          << w.status();
    }
    EXPECT_EQ(replica->DumpSource(), dumps.back()) << "cut=" << cut;
    EXPECT_EQ(replica->AppliedSeqno(), history.size()) << "cut=" << cut;
    EXPECT_EQ(ClearanceDumps(&*replica), final_clearances) << "cut=" << cut;
  }
  // Most cuts land mid-record; the sweep must have exercised torn
  // frames, not just clean boundaries.
  EXPECT_GT(torn_recoveries, wal_size / 2);
}

/// The snapshot-then-tail handoff can replay the boundary record, and a
/// primary re-shipping from a stale cursor can replay many. Every
/// duplicate must be a no-op - same final bytes, same seqno.
TEST(ReplicaCrashTest, DuplicateRecordsAreIdempotentNoOps) {
  const std::vector<WalRecord> history = PrimaryHistory();
  const std::string dir = FreshDir("dup");
  std::string want;
  {
    Result<Storage> st = Storage::Open(dir, kBaseSource);
    ASSERT_TRUE(st.ok()) << st.status();
    Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
    ASSERT_TRUE(replica.ok()) << replica.status();

    for (const WalRecord& r : history) {
      ASSERT_TRUE(replica->ApplyReplicated(r).ok());
    }
    want = replica->DumpSource();
    const uint64_t wal_records_before = st->wal_records();

    // Re-ship the whole stream, then the last record once more.
    for (const WalRecord& r : history) {
      Result<ml::WriteResult> w = replica->ApplyReplicated(r);
      ASSERT_TRUE(w.ok()) << r.fact << ": " << w.status();
    }
    ASSERT_TRUE(replica->ApplyReplicated(history.back()).ok());

    EXPECT_EQ(replica->DumpSource(), want);
    EXPECT_EQ(replica->AppliedSeqno(), history.size());
    EXPECT_EQ(st->wal_records(), wal_records_before)
        << "duplicate records must not be re-logged to the local WAL";
  }

  // The no-op duplicates did not poison durability: a reopen recovers
  // the same bytes and the same cursor.
  Result<Storage> st = Storage::Open(dir, kBaseSource);
  ASSERT_TRUE(st.ok()) << st.status();
  Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_EQ(replica->DumpSource(), want);
  EXPECT_EQ(replica->AppliedSeqno(), history.size());
}

/// A record whose seqno skips ahead (the stream lost a frame) must be
/// refused, not applied - gaps are divergence, and the replicator's
/// answer to divergence is a snapshot resync, never a silent skip.
TEST(ReplicaCrashTest, SeqnoGapIsRefused) {
  const std::vector<WalRecord> history = PrimaryHistory();
  const std::string dir = FreshDir("gap");
  Result<Storage> st = Storage::Open(dir, kBaseSource);
  ASSERT_TRUE(st.ok()) << st.status();
  Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
  ASSERT_TRUE(replica.ok()) << replica.status();

  ASSERT_TRUE(replica->ApplyReplicated(history[0]).ok());
  WalRecord gap = history[2];  // seqno 3 arriving after seqno 1
  Result<ml::WriteResult> w = replica->ApplyReplicated(gap);
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsInternal()) << w.status();
  EXPECT_EQ(replica->AppliedSeqno(), 1u) << "the gap record must not apply";

  // The in-order record still lands afterwards: refusal is clean.
  ASSERT_TRUE(replica->ApplyReplicated(history[1]).ok());
  EXPECT_EQ(replica->AppliedSeqno(), 2u);
}

/// InstallSnapshot is the resync path: it must replace the database,
/// move the cursor, and persist - a reopen recovers the snapshot state
/// without the pre-snapshot records.
TEST(ReplicaCrashTest, InstallSnapshotPersistsAcrossRestart) {
  const std::vector<WalRecord> history = PrimaryHistory();

  // The primary's state at seqno 4 is what the snapshot ships.
  Result<ml::Engine> primary = ml::Engine::FromSource(kBaseSource);
  ASSERT_TRUE(primary.ok()) << primary.status();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary->ApplyReplicated(history[i]).ok());
  }
  const std::string snapshot_source = primary->DumpSource();

  const std::string dir = FreshDir("snap");
  {
    Result<Storage> st = Storage::Open(dir, kBaseSource);
    ASSERT_TRUE(st.ok()) << st.status();
    Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
    ASSERT_TRUE(replica.ok()) << replica.status();
    // The replica had fallen behind with only 1 record applied.
    ASSERT_TRUE(replica->ApplyReplicated(history[0]).ok());
    ASSERT_TRUE(replica->InstallSnapshot(4, snapshot_source).ok());
    EXPECT_EQ(replica->AppliedSeqno(), 4u);
    EXPECT_EQ(replica->DumpSource(), snapshot_source);
    // The tail after the snapshot applies on top.
    for (size_t i = 4; i < history.size(); ++i) {
      ASSERT_TRUE(replica->ApplyReplicated(history[i]).ok());
    }
  }

  // Restart: local recovery alone (no stream) lands on the full state.
  for (size_t i = 4; i < history.size(); ++i) {
    ASSERT_TRUE(primary->ApplyReplicated(history[i]).ok());
  }
  Result<Storage> st = Storage::Open(dir, kBaseSource);
  ASSERT_TRUE(st.ok()) << st.status();
  Result<ml::Engine> replica = ml::Engine::FromStorage(&*st);
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_EQ(replica->AppliedSeqno(), history.size());
  EXPECT_EQ(replica->DumpSource(), primary->DumpSource());
}

/// A snapshot install rebuilds, before readers resume, the model of
/// every level that had one: the next query at each such level is a
/// cache hit, and it answers like a fresh engine over the snapshot.
TEST(ReplicaCrashTest, InstallSnapshotKeepsWarmLevelsWarm) {
  const std::vector<WalRecord> history = PrimaryHistory();
  Result<ml::Engine> primary = ml::Engine::FromSource(kBaseSource);
  ASSERT_TRUE(primary.ok()) << primary.status();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary->ApplyReplicated(history[i]).ok());
  }
  const std::string snapshot_source = primary->DumpSource();

  // Magic off, so every reduced query is answered from the level's model.
  ml::EngineOptions options;
  options.magic = false;
  Result<ml::Engine> fresh = ml::Engine::FromSource(snapshot_source, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  const std::string dir = FreshDir("warm");
  Result<Storage> st = Storage::Open(dir, kBaseSource);
  ASSERT_TRUE(st.ok()) << st.status();
  Result<ml::Engine> replica = ml::Engine::FromStorage(&*st, options);
  ASSERT_TRUE(replica.ok()) << replica.status();
  ASSERT_TRUE(replica->ApplyReplicated(history[0]).ok());
  ClearanceDumps(&*replica);
  const uint64_t warm_models = replica->Counters().live_models;
  ASSERT_EQ(warm_models, 4u);

  ASSERT_TRUE(replica->InstallSnapshot(4, snapshot_source).ok());
  EXPECT_EQ(replica->Counters().live_models, warm_models);
  const uint64_t misses = replica->Counters().cache_misses;
  EXPECT_EQ(ClearanceDumps(&*replica), ClearanceDumps(&*fresh));
  EXPECT_EQ(replica->Counters().cache_misses, misses);
}

}  // namespace
}  // namespace multilog::replication
