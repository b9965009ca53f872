// Property test for the mutation path: after every step of a mutation
// script, the live engine (with its surviving per-level caches) must
// answer every belief query - fir, opt, and cau, at every level of the
// diamond including the incomparable arms - exactly as a fresh engine
// rebuilt from scratch out of the dumped source. Any unsound cache
// survival (a level whose model should have been invalidated but was
// not) shows up here as an answer mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "multilog/engine.h"

namespace multilog::ml {
namespace {

constexpr char kDiamond[] = R"(
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

const char* const kLevels[] = {"u", "a", "b", "ts"};
const char* const kModes[] = {"fir", "opt", "cau"};

/// The script exercises polyinstantiation (key kc stored at u and at a
/// with different values - the case where fir/opt/cau genuinely
/// diverge), writes on both incomparable arms, and a retract.
struct Step {
  const char* level;
  const char* fact;
  bool retract;
};
constexpr Step kScript[] = {
    {"u", "u[item(k1 : id -u-> k1, val -u-> v1)].", false},
    {"a", "a[item(k2 : id -a-> k2, val -a-> v2)].", false},
    {"b", "b[item(k2 : id -b-> k2, val -b-> w2)].", false},
    {"u", "u[item(kc : id -u-> kc, val -u-> low)].", false},
    {"a", "a[item(kc : id -a-> kc, val -a-> high)].", false},
    {"ts", "ts[item(k3 : id -ts-> k3)].", false},
    {"a", "a[item(k2 : id -a-> k2, val -a-> v2)].", true},
    {"u", "u[item(k4 : id -u-> k4, val -u-> v4)].", false},
};

std::vector<std::string> SortedAnswers(Engine& engine, const std::string& goal,
                                       const std::string& level) {
  // kCheckBoth doubles as a Theorem 6.1 oracle on every probe: the
  // operational and reduced semantics must agree on the mutated state.
  Result<QueryResult> r =
      engine.QuerySource(goal, level, ExecMode::kCheckBoth);
  EXPECT_TRUE(r.ok()) << goal << " @ " << level << ": " << r.status();
  std::vector<std::string> out;
  if (!r.ok()) return out;
  for (const datalog::Substitution& s : r->answers) out.push_back(s.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MutationEquivalenceProperty, LiveEngineMatchesScratchRebuildEverywhere) {
  Result<Engine> live = Engine::FromSource(kDiamond);
  ASSERT_TRUE(live.ok()) << live.status();

  // Warm every level up front so the sweep genuinely tests cache
  // survival, not just cold rebuilds.
  for (const char* level : kLevels) {
    ASSERT_TRUE(live->ReducedModel(level).ok()) << level;
  }

  for (size_t step = 0; step < std::size(kScript); ++step) {
    const Step& s = kScript[step];
    Result<WriteResult> w = s.retract ? live->Retract(s.fact, s.level)
                                      : live->Assert(s.fact, s.level);
    ASSERT_TRUE(w.ok()) << "step " << step << ": " << w.status();

    // A fresh engine from the dumped source is the ground truth: no
    // caches, no history, just the current Sigma.
    Result<Engine> scratch = Engine::FromSource(live->DumpSource());
    ASSERT_TRUE(scratch.ok()) << "step " << step << ": " << scratch.status();

    for (const char* level : kLevels) {
      for (const char* mode : kModes) {
        // Two goal shapes per probe: enumerate all keys, and chase the
        // polyinstantiated key's value bindings.
        for (const std::string goal :
             {std::string(level) + "[item(K : id -C-> K)] << " + mode,
              std::string(level) + "[item(kc : val -C-> V)] << " + mode}) {
          EXPECT_EQ(SortedAnswers(*live, goal, level),
                    SortedAnswers(*scratch, goal, level))
              << "step " << step << " level " << level << " mode " << mode
              << " goal " << goal;
        }
      }
    }
  }
}

/// Raw (unsorted) answer rendering: the byte-identity oracle. The
/// reduced pipeline serves answers in a deterministic sorted order, so
/// a live engine whose maintained state matches a scratch rebuild must
/// reproduce the exact byte sequence, not merely the same set.
std::string RenderedAnswers(Engine& engine, const std::string& goal,
                            const std::string& level) {
  Result<QueryResult> r = engine.QuerySource(goal, level, ExecMode::kCheckBoth);
  EXPECT_TRUE(r.ok()) << goal << " @ " << level << ": " << r.status();
  std::string out;
  if (!r.ok()) return out;
  for (const datalog::Substitution& s : r->answers) {
    out += s.ToString();
    out += '\n';
  }
  return out;
}

/// Randomized interleaved asserts/retracts on the diamond,
/// polyinstantiation-dense (few keys, all four levels, molecular
/// facts), probed for byte-identical answers against a scratch rebuild
/// after every step - single-threaded and with 8 concurrent readers.
/// Runs with incremental maintenance both on and off, so the delta path
/// and the invalidation path are held to the same oracle - and with
/// magic plans off as well, so the two fallback paths are held to it
/// together.
void RunRandomizedInterleaving(bool incremental, size_t probe_threads,
                               bool magic = true) {
  EngineOptions options;
  options.incremental = incremental;
  options.magic = magic;
  Result<Engine> live = Engine::FromSource(kDiamond, options);
  ASSERT_TRUE(live.ok()) << live.status();
  for (const char* level : kLevels) {
    ASSERT_TRUE(live->ReducedModel(level).ok()) << level;
  }

  std::mt19937 rng(20260809u + (incremental ? 1u : 0u) + probe_threads);
  // (key, level) -> the exact stored fact, so every generated op is
  // valid: asserts never collide with a stored version, retracts always
  // name a stored fact.
  std::map<std::pair<std::string, std::string>, std::string> stored;

  for (size_t step = 0; step < 40; ++step) {
    const bool retract = !stored.empty() && rng() % 10 < 4;
    std::string level;
    std::string fact;
    if (retract) {
      auto it = stored.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng() % stored.size()));
      level = it->first.second;
      fact = it->second;
      stored.erase(it);
    } else {
      const std::string key = "k" + std::to_string(rng() % 5);
      level = kLevels[rng() % 4];
      if (stored.count({key, level}) != 0) continue;  // already stored
      fact = level + "[item(" + key + " : id -" + level + "-> " + key +
             ", val -" + level + "-> v" + std::to_string(rng() % 3) + ")].";
      stored.emplace(std::make_pair(key, level), fact);
    }
    Result<WriteResult> w = retract ? live->Retract(fact, level)
                                    : live->Assert(fact, level);
    ASSERT_TRUE(w.ok()) << "step " << step << " " << fact << ": "
                        << w.status();
    if (incremental) {
      // The delta path never falls back on this workload: ground
      // molecular facts splice exactly.
      EXPECT_TRUE(w->invalidated_levels.empty())
          << "step " << step << " " << fact;
    } else {
      EXPECT_TRUE(w->maintained_levels.empty());
    }

    Result<Engine> scratch = Engine::FromSource(live->DumpSource());
    ASSERT_TRUE(scratch.ok()) << "step " << step << ": " << scratch.status();

    // Every probe's expected bytes come from the scratch engine first;
    // the live engine is then probed from `probe_threads` concurrent
    // readers (shared-lock path), each comparing byte-for-byte.
    struct Probe {
      std::string goal;
      std::string level;
      std::string expected;
    };
    std::vector<Probe> probes;
    for (const char* probe_level : kLevels) {
      for (const char* mode : kModes) {
        for (const std::string goal :
             {std::string(probe_level) + "[item(K : id -C-> K)] << " + mode,
              std::string(probe_level) + "[item(K : val -C-> V)] << " +
                  mode}) {
          probes.push_back(
              {goal, probe_level,
               RenderedAnswers(*scratch, goal, probe_level)});
        }
      }
    }
    std::vector<std::thread> readers;
    for (size_t tid = 0; tid < probe_threads; ++tid) {
      readers.emplace_back([&, tid] {
        for (size_t p = tid; p < probes.size(); p += probe_threads) {
          EXPECT_EQ(RenderedAnswers(*live, probes[p].goal, probes[p].level),
                    probes[p].expected)
              << "step " << step << " goal " << probes[p].goal
              << " incremental " << incremental;
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }
}

TEST(MutationEquivalenceProperty, RandomizedInterleavingIncremental) {
  RunRandomizedInterleaving(/*incremental=*/true, /*probe_threads=*/1);
}

TEST(MutationEquivalenceProperty, RandomizedInterleavingInvalidating) {
  RunRandomizedInterleaving(/*incremental=*/false, /*probe_threads=*/1);
}

TEST(MutationEquivalenceProperty, RandomizedInterleavingWithoutOptimizers) {
  RunRandomizedInterleaving(/*incremental=*/false, /*probe_threads=*/1,
                            /*magic=*/false);
}

TEST(MutationEquivalenceProperty, RandomizedInterleavingEightReaders) {
  RunRandomizedInterleaving(/*incremental=*/true, /*probe_threads=*/8);
}

}  // namespace
}  // namespace multilog::ml
