// Goal-directed plan-cache tests: the engine's magic-sets path must be
// an invisible optimization - byte-identical answers to the full
// bottom-up reduced path - while the plan_hits / plan_misses /
// magic_fallbacks counters prove which path actually served each
// query, writes invalidate affected plans, and EngineOptions::magic
// (`multilogd --no-magic`) disables the whole machinery.

#include "multilog/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace multilog::ml {
namespace {

/// Chain lattice u < c < s with a keyed item relation and a derived
/// closure so point queries have real work to skip.
constexpr char kSource[] = R"(
level(u).
level(c).
level(s).
order(u, c).
order(c, s).
u[item(k1 : id -u-> k1, val -u-> red)].
u[item(k2 : id -u-> k2, val -u-> green)].
c[item(k3 : id -c-> k3, val -c-> blue)].
u[next(k1 : to -u-> k2)].
u[next(k2 : to -u-> k3)].
u[reach(X : to -u-> Y)] <- u[next(X : to -u-> Y)].
u[reach(X : to -u-> Z)] <- u[next(X : to -u-> Y)], u[reach(Y : to -u-> Z)].
)";

std::vector<std::string> AnswerStrings(const QueryResult& r) {
  std::vector<std::string> out;
  for (const datalog::Substitution& s : r.answers) out.push_back(s.ToString());
  return out;
}

std::vector<std::string> Ask(Engine& engine, const std::string& goal,
                             const std::string& level) {
  Result<QueryResult> r = engine.QuerySource(goal, level, ExecMode::kReduced);
  EXPECT_TRUE(r.ok()) << goal << " @ " << level << ": " << r.status();
  return r.ok() ? AnswerStrings(*r) : std::vector<std::string>{"<error>"};
}

Engine MakeEngine(bool magic) {
  EngineOptions options;
  options.magic = magic;
  Result<Engine> engine = Engine::FromSource(kSource, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(*engine);
}

TEST(EngineMagicTest, PointQueryIsPlanServedAndIdenticalToFull) {
  Engine magic = MakeEngine(true);
  Engine full = MakeEngine(false);

  const std::string goal = "u[item(k1 : id -C-> V)]";
  const std::vector<std::string> got = Ask(magic, goal, "s");
  EXPECT_EQ(got, Ask(full, goal, "s"));
  EXPECT_FALSE(got.empty());

  EngineCounters c = magic.Counters();
  EXPECT_EQ(c.plan_misses, 1u);
  EXPECT_EQ(c.plan_hits, 0u);

  // Same binding pattern, different constant: served from the cache.
  EXPECT_EQ(Ask(magic, "u[item(k2 : id -C-> V)]", "s"),
            Ask(full, "u[item(k2 : id -C-> V)]", "s"));
  c = magic.Counters();
  EXPECT_EQ(c.plan_misses, 1u);
  EXPECT_EQ(c.plan_hits, 1u);

  // The kill-switch engine never touched the plan machinery.
  c = full.Counters();
  EXPECT_EQ(c.plan_misses, 0u);
  EXPECT_EQ(c.plan_hits, 0u);
  EXPECT_EQ(c.magic_fallbacks, 0u);
}

TEST(EngineMagicTest, RecursivePointQueryMatchesFull) {
  Engine magic = MakeEngine(true);
  Engine full = MakeEngine(false);
  const std::string goal = "u[reach(k1 : to -C-> Y)]";
  const std::vector<std::string> got = Ask(magic, goal, "s");
  EXPECT_EQ(got, Ask(full, goal, "s"));
  EXPECT_EQ(got.size(), 2u);  // k2 and k3
  EXPECT_GE(magic.Counters().plan_misses, 1u);
}

TEST(EngineMagicTest, CachedModelWinsOverPlans) {
  // Once a full query has built the level's model, later point queries
  // are hash lookups against it - the plan machinery must stand down.
  Engine magic = MakeEngine(true);
  Engine full = MakeEngine(false);
  const std::string wide = "u[item(K : id -C-> V)] << opt";  // builds model
  EXPECT_EQ(Ask(magic, wide, "s"), Ask(full, wide, "s"));
  const uint64_t misses = magic.Counters().plan_misses;
  const std::string point = "u[item(k1 : id -C-> V)] << opt";
  EXPECT_EQ(Ask(magic, point, "s"), Ask(full, point, "s"));
  EXPECT_EQ(magic.Counters().plan_misses, misses);
}

TEST(EngineMagicTest, BeliefGoalFallsBack) {
  // Belief goals share the bel predicate with the cautious mode's
  // negation, so the reachable fragment is never magic-safe; the plan
  // path must decline (and remember the rejection) - answers still
  // come from the full path, identically.
  Engine magic = MakeEngine(true);
  Engine full = MakeEngine(false);
  const std::string goal = "u[item(k1 : id -C-> V)] << cau";
  EXPECT_EQ(Ask(magic, goal, "s"), Ask(full, goal, "s"));
  EXPECT_GE(magic.Counters().magic_fallbacks, 1u);

  // Asking again must not recompile: the rejection is cached.
  const uint64_t misses = magic.Counters().plan_misses;
  EXPECT_EQ(Ask(magic, goal, "s"), Ask(full, goal, "s"));
  EXPECT_EQ(magic.Counters().plan_misses, misses);
}

TEST(EngineMagicTest, WritesInvalidatePlansAndAnswersStayIdentical) {
  Engine magic = MakeEngine(true);
  Engine full = MakeEngine(false);
  const std::string point = "u[item(k1 : id -C-> V)]";
  const std::string reach = "u[reach(k1 : to -C-> Y)]";

  EXPECT_EQ(Ask(magic, point, "s"), Ask(full, point, "s"));
  EXPECT_EQ(Ask(magic, reach, "s"), Ask(full, reach, "s"));

  // Interleave asserts and retracts; after every write the plan for the
  // written-to cone is gone, so the next query recompiles against the
  // new Sigma and must agree with the scratch engine byte for byte.
  struct Write {
    bool is_assert;
    std::string level;
    std::string fact;
  };
  const std::vector<Write> writes = {
      {true, "u", "u[item(k9 : id -u-> k9, val -u-> cyan)]."},
      {true, "u", "u[next(k3 : id -u-> k3, to -u-> k9)]."},
      {false, "u", "u[item(k9 : id -u-> k9, val -u-> cyan)]."},
      {true, "c", "c[item(k7 : id -c-> k7, val -c-> mauve)]."},
  };
  for (const auto& [is_assert, at, fact] : writes) {
    for (Engine* e : {&magic, &full}) {
      Result<WriteResult> w =
          is_assert ? e->Assert(fact, at) : e->Retract(fact, at);
      ASSERT_TRUE(w.ok()) << fact << ": " << w.status();
    }
    EXPECT_EQ(Ask(magic, point, "s"), Ask(full, point, "s")) << fact;
    EXPECT_EQ(Ask(magic, reach, "s"), Ask(full, reach, "s")) << fact;
    EXPECT_EQ(Ask(magic, reach, "u"), Ask(full, reach, "u")) << fact;
  }

  // Writes pruned the cached plans, so the point shape was recompiled
  // at least once beyond the two initial compiles.
  EXPECT_GT(magic.Counters().plan_misses, 2u);
}

}  // namespace
}  // namespace multilog::ml
