// Model::RemoveFacts under random churn: seeded batches of inserts and
// removals - absent atoms, duplicates within a batch, re-inserts of
// removed facts - over relations of arity 0 to 3, long enough that
// every relation empties and refills many times. After every step the
// churned model must agree with a model built from scratch out of the
// live set: size, membership, equality, rendering, and every
// FactsFor / FactsMatching selection as a multiset (swap-remove may
// reorder a relation, never change what it holds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/model.h"

namespace multilog::datalog {
namespace {

constexpr size_t kValues = 4;  // distinct constants per argument

/// Every atom the churn can touch: p/0, p/1, q/2 and r/3 over kValues
/// symbols (plus one integer per position, so ints and symbols mix).
std::vector<Atom> Universe() {
  std::vector<Term> values;
  for (size_t i = 0; i < kValues; ++i) {
    values.push_back(Term::Sym("v" + std::to_string(i)));
  }
  values.push_back(Term::Int(7));
  std::vector<Atom> out;
  out.push_back(Atom("p", {}));
  for (const Term& a : values) out.push_back(Atom("p", {a}));
  for (const Term& a : values) {
    for (const Term& b : values) out.push_back(Atom("q", {a, b}));
  }
  for (const Term& a : values) {
    for (const Term& b : values) {
      for (const Term& c : values) out.push_back(Atom("r", {a, b, c}));
    }
  }
  return out;
}

std::multiset<std::string> Render(const std::vector<Atom>& facts) {
  std::multiset<std::string> out;
  for (const Atom& a : facts) out.insert(a.ToString());
  return out;
}

std::multiset<std::string> Render(const FactSlice& slice) {
  std::multiset<std::string> out;
  for (const Atom& a : slice) out.insert(a.ToString());
  return out;
}

/// Checks `churned` against a model rebuilt from `live`.
void ExpectMatchesScratch(const Model& churned, const std::set<Atom>& live,
                          const std::vector<Atom>& universe,
                          const std::string& what) {
  Model scratch;
  for (const Atom& a : live) scratch.Insert(a);
  ASSERT_EQ(churned.size(), live.size()) << what;
  EXPECT_EQ(churned.empty(), live.empty()) << what;
  EXPECT_TRUE(churned == scratch) << what;
  EXPECT_TRUE(scratch == churned) << what;
  EXPECT_EQ(churned.ToString(), scratch.ToString()) << what;
  EXPECT_EQ(churned.Predicates(), scratch.Predicates()) << what;
  std::set<PredicateId> preds;
  for (const Atom& a : universe) {
    EXPECT_EQ(churned.Contains(a), live.count(a) > 0)
        << what << " " << a.ToString();
    preds.insert(a.PredicateId());
  }
  for (const PredicateId& id : preds) {
    EXPECT_EQ(Render(churned.FactsFor(id)), Render(scratch.FactsFor(id)))
        << what << " " << id;
  }
  // Every (predicate, position, value) selection, including values the
  // relation no longer holds.
  for (const Atom& a : universe) {
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      const FactSlice got = churned.FactsMatching(a.PredicateId(), pos,
                                                  a.args()[pos]);
      const FactSlice want = scratch.FactsMatching(a.PredicateId(), pos,
                                                   a.args()[pos]);
      const std::string where = what + " " + a.ToString() + "@" +
                                std::to_string(pos);
      EXPECT_EQ(got.size(), want.size()) << where;
      EXPECT_EQ(Render(got), Render(want)) << where;
      for (const Atom& fact : got) {
        EXPECT_EQ(fact.args()[pos], a.args()[pos]) << what;
      }
    }
  }
}

TEST(ModelRemovePropertyTest, ChurnMatchesScratchModel) {
  const std::vector<Atom> universe = Universe();
  for (uint64_t seed : {uint64_t{1}, uint64_t{29}, uint64_t{4242}}) {
    std::mt19937_64 rng(seed);
    Model model;
    std::set<Atom> live;
    for (int step = 0; step < 400; ++step) {
      const std::string what =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      // Phases of growth and decay, so relations fill up, drain to
      // empty (and are dropped) and refill.
      const bool growing = (step / 50) % 2 == 0;
      const size_t batch = 1 + rng() % 12;
      std::vector<Atom> atoms;
      for (size_t i = 0; i < batch; ++i) {
        const Atom& a = universe[rng() % universe.size()];
        atoms.push_back(a);
        if (rng() % 4 == 0) atoms.push_back(a);  // duplicate in the batch
      }
      if (growing ? rng() % 4 != 0 : rng() % 4 == 0) {
        for (const Atom& a : atoms) {
          EXPECT_EQ(model.Insert(a), live.insert(a).second)
              << what << " " << a.ToString();
        }
      } else {
        size_t expected = 0;
        for (const Atom& a : atoms) expected += live.erase(a);
        EXPECT_EQ(model.RemoveFacts(atoms), expected) << what;
      }
      ExpectMatchesScratch(model, live, universe, what);
      if (HasFailure()) return;
    }
  }
}

TEST(ModelRemovePropertyTest, DrainingARelationDropsIt) {
  Model model;
  const Atom a("e", {Term::Sym("a"), Term::Sym("b")});
  const Atom b("e", {Term::Sym("b"), Term::Sym("c")});
  ASSERT_TRUE(model.Insert(a));
  ASSERT_TRUE(model.Insert(b));
  EXPECT_EQ(model.RemoveFacts({a, a, Atom("nosuch", {})}), 1u);
  EXPECT_EQ(model.FactsFor("e/2").size(), 1u);
  EXPECT_EQ(model.FactsMatching("e/2", 0, Term::Sym("b")).size(), 1u);
  EXPECT_TRUE(model.FactsMatching("e/2", 0, Term::Sym("a")).empty());
  EXPECT_EQ(model.RemoveFacts({b}), 1u);
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(model.Predicates().empty());
  EXPECT_TRUE(model.FactsFor("e/2").empty());
  // A removed fact comes back like a new one.
  EXPECT_TRUE(model.Insert(a));
  EXPECT_EQ(model.ToString(), "e(a, b).\n");
}

}  // namespace
}  // namespace multilog::datalog
