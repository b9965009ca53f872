#include <gtest/gtest.h>

#include "multilog/engine.h"
#include "multilog/parser.h"
#include "multilog/proof.h"

namespace multilog::ml {
namespace {

TEST(EngineEdgeTest, MoleculeHeadedRulesDeriveAllCells) {
  // A rule whose head is a molecule derives one rel fact per cell.
  const char* src = R"(
    level(u).
    trigger(go).
    u[combo(k1 : a -u-> x, b -u-> y)] :- trigger(go).
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<QueryResult> r = engine->QuerySource(
      "u[combo(k1 : a -C1-> V1, b -C2-> V2)]", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->answers.size(), 1u);
  EXPECT_EQ(r->answers[0].ToString(), "{C1=u, C2=u, V1=x, V2=y}");
}

TEST(EngineEdgeTest, StoredQueriesRunInOrder) {
  const char* src = R"(
    level(u).
    u[p(k : a -u-> v)].
    ?- u[p(k : a -C-> V)].
    ?- u[p(nosuch : a -C-> V)].
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok());
  Result<std::vector<QueryResult>> all =
      engine->RunStoredQueries("u", ExecMode::kCheckBoth);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].answers.size(), 1u);
  EXPECT_TRUE((*all)[1].answers.empty());
}

TEST(EngineEdgeTest, ProofsAreDeterministic) {
  Result<Engine> e1 = Engine::FromSource("level(u). u[p(k : a -u-> v)].");
  Result<Engine> e2 = Engine::FromSource("level(u). u[p(k : a -u-> v)].");
  ASSERT_TRUE(e1.ok() && e2.ok());
  Result<QueryResult> r1 = e1->QuerySource("u[p(k : a -C-> V)] << cau", "u",
                                           ExecMode::kOperational);
  Result<QueryResult> r2 = e2->QuerySource("u[p(k : a -C-> V)] << cau", "u",
                                           ExecMode::kOperational);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->proofs.size(), 1u);
  ASSERT_EQ(r2->proofs.size(), 1u);
  EXPECT_EQ(RenderProof(*r1->proofs[0]), RenderProof(*r2->proofs[0]));
  EXPECT_EQ(ProofSize(*r1->proofs[0]), ProofSize(*r2->proofs[0]));
}

TEST(EngineEdgeTest, DontCareAnswersAreOrderedByTheirOwnText) {
  // With the don't-care classification stripped, "{V=o10}" sorts before
  // "{V=o1}" although "{V=o1, _dc0=u}" sorts before "{V=o10, _dc0=c}":
  // the stripped list must be ordered by its own text, as every answer
  // list is (the router's merge of shard answers produces that order).
  const char* src = R"(
    level(u). level(c). order(u, c).
    u[p(k : a -u-> o1)].
    c[p(k : a -c-> o10)].
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (ExecMode mode : {ExecMode::kOperational, ExecMode::kReduced,
                        ExecMode::kCheckBoth}) {
    Result<QueryResult> r =
        engine->QuerySource("c[p(k : a -> V)] << opt", "c", mode);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->answers.size(), 2u);
    EXPECT_EQ(r->answers[0].ToString(), "{V=o10}");
    EXPECT_EQ(r->answers[1].ToString(), "{V=o1}");
    if (mode != ExecMode::kReduced) {
      ASSERT_EQ(r->proofs.size(), 2u);
      EXPECT_NE(RenderProof(*r->proofs[0]).find("o10"), std::string::npos);
    }
  }
}

TEST(EngineEdgeTest, GoalOnUnknownModeIsEmptyNotError) {
  // A b-atom with an unregistered mode has no native rule and no user
  // clause: both semantics agree on "no".
  Result<Engine> engine =
      Engine::FromSource("level(u). u[p(k : a -u-> v)].");
  ASSERT_TRUE(engine.ok());
  Result<QueryResult> r = engine->QuerySource(
      "u[p(k : a -C-> V)] << nosuchmode", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->answers.empty());
}

TEST(EngineEdgeTest, CrossPredicateJoinThroughPi) {
  const char* src = R"(
    level(u). level(s). order(u, s).
    u[crew(c1 : ship -u-> falcon)].
    s[cargo(g1 : ship -s-> falcon, load -s-> spice)].
    exposed(C) :- u[crew(C : ship -A-> S)], s[cargo(G : ship -B-> S)].
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  // At s the join succeeds; at u the s-level cargo is unreadable.
  Result<QueryResult> at_s =
      engine->QuerySource("exposed(C)", "s", ExecMode::kCheckBoth);
  ASSERT_TRUE(at_s.ok()) << at_s.status();
  EXPECT_EQ(at_s->answers.size(), 1u);
  Result<QueryResult> at_u =
      engine->QuerySource("exposed(C)", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(at_u.ok());
  EXPECT_TRUE(at_u->answers.empty());
}

TEST(EngineEdgeTest, IntegerValuesThroughTheWholeStack) {
  const char* src = R"(
    level(u).
    u[sensor(s1 : reading -u-> 41)].
    hot(K) :- u[sensor(K : reading -C-> N)], N > 40.
    cold(K) :- u[sensor(K : reading -C-> N)], N <= 40.
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<QueryResult> hot =
      engine->QuerySource("hot(K)", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_EQ(hot->answers.size(), 1u);
  Result<QueryResult> cold =
      engine->QuerySource("cold(K)", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->answers.empty());
}

TEST(EngineEdgeTest, ResourceLimitsSurface) {
  EngineOptions options;
  options.interpreter.max_answers = 2;
  const char* src = R"(
    level(u).
    u[p(k1 : a -u-> v1)]. u[p(k2 : a -u-> v2)]. u[p(k3 : a -u-> v3)].
  )";
  Result<Engine> engine = Engine::FromSource(src, options);
  ASSERT_TRUE(engine.ok());
  Result<QueryResult> r = engine->QuerySource("u[p(K : a -C-> V)]", "u",
                                              ExecMode::kOperational);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
}

TEST(EngineEdgeTest, BuiltinsInsideMlQueries) {
  // Goal lists parsed from MSQL-free text cannot carry builtins (the
  // MultiLog surface has no comparison syntax), but Pi rules can route
  // them; this pins that composition.
  const char* src = R"(
    level(u).
    u[account(a1 : balance -u-> 100)].
    u[account(a2 : balance -u-> 5)].
    rich(K) :- u[account(K : balance -C-> N)], N >= 100.
  )";
  Result<Engine> engine = Engine::FromSource(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<QueryResult> r =
      engine->QuerySource("rich(K)", "u", ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->answers.size(), 1u);
  EXPECT_EQ(r->answers[0].ToString(), "{K=a1}");
}

}  // namespace
}  // namespace multilog::ml
