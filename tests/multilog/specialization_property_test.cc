#include <gtest/gtest.h>

#include <random>

#include "datalog/eval.h"
#include "multilog/engine.h"
#include "multilog/parser.h"

namespace multilog::ml {
namespace {

/// Random databases over u < c < s. The default variant is belief-free,
/// so both the generic and the level-specialized compilation are
/// runnable. With `belief_rule` its level-variable rule gives way to a
/// rule with a b-atom body: kAuto then specializes, as it does for
/// perfbench's Sigma, and the generic program recurses through negation,
/// so only the specialized compilation can evaluate it. (Both rules
/// together recurse through negation even when specialized.)
std::string RandomDatabase(unsigned seed, bool belief_rule = false) {
  std::mt19937 rng(seed);
  auto pick = [&rng](const std::vector<std::string>& xs) {
    std::uniform_int_distribution<size_t> d(0, xs.size() - 1);
    return xs[d(rng)];
  };
  const std::vector<std::string> levels = {"u", "c", "s"};
  const std::vector<std::string> keys = {"k0", "k1"};
  const std::vector<std::string> attrs = {"a", "b"};
  const std::vector<std::string> values = {"v0", "v1", "v2"};

  std::string src = "level(u). level(c). level(s). order(u, c). order(c, s).\n";
  std::uniform_int_distribution<int> count(4, 10);
  const int facts = count(rng);
  for (int i = 0; i < facts; ++i) {
    std::string level = pick(levels);
    std::string cls = pick(levels);
    if (cls > level) std::swap(cls, level);
    src += level + "[p(" + pick(keys) + " : " + pick(attrs) + " -" + cls +
           "-> " + pick(values) + ")].\n";
  }
  if (belief_rule) {
    src += "s[q(K : b -u-> vetted)] :- c[p(K : a -C-> V)] << cau.\n";
  } else {
    // A rule with a variable level (exercises level-variable expansion
    // in the specialized compilation).
    src += "c[p(k0 : b -c-> derived)] :- L[p(k0 : a -C-> V)].\n";
  }
  return src;
}

/// Decoded-model text of the bel/rel facts under a given specialization
/// policy.
std::string ModelText(const std::string& src,
                      ReductionOptions::Specialization policy,
                      const std::string& level) {
  EngineOptions options;
  options.reduction.specialization = policy;
  Result<Engine> engine = Engine::FromSource(src, options);
  if (!engine.ok()) return "engine: " + engine.status().ToString();
  Result<const datalog::Model*> model = engine->ReducedModel(level);
  if (!model.ok()) return "model: " + model.status().ToString();
  const datalog::Model generic = DecodeModel(**model);
  // Compare only rel/bel (vis/overridden differ structurally: the
  // specialized program prunes statically false dominance combinations).
  std::string out;
  for (const char* pred : {"rel/6", "bel/7"}) {
    std::vector<std::string> lines;
    for (const datalog::Atom& fact : generic.FactsFor(pred)) {
      lines.push_back(fact.ToString());
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& l : lines) out += l + "\n";
  }
  return out;
}

class SpecializationPropertyTest : public ::testing::TestWithParam<unsigned> {
};

// Level specialization is a pure compilation strategy: the decoded
// rel/bel model is identical with and without it, at every session
// level.
TEST_P(SpecializationPropertyTest, GenericEqualsSpecialized) {
  const std::string src = RandomDatabase(GetParam());
  for (const std::string level : {"u", "c", "s"}) {
    std::string generic =
        ModelText(src, ReductionOptions::Specialization::kNever, level);
    std::string specialized =
        ModelText(src, ReductionOptions::Specialization::kAlways, level);
    EXPECT_EQ(generic, specialized) << "level " << level << "\n" << src;
  }
}

/// The answers of `goal` at `level` in `mode`, one answer text per
/// line, or the error.
std::string AnswerText(Engine& engine, const std::string& goal,
                       const std::string& level, ExecMode mode) {
  Result<QueryResult> result = engine.QuerySource(goal, level, mode);
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out;
  for (const datalog::Substitution& answer : result->answers) {
    out += answer.ToString() + "\n";
  }
  return out;
}

// The served path matches goals against the cached fixpoint in the
// program's own form: a specialized goal list per level assignment,
// merged. Its answers must equal, byte for byte, the operational
// answers and - wherever the generic program stratifies - the
// unspecialized engine's. Together the two engines cover kAuto, which
// specializes exactly the belief-rule variant.
TEST_P(SpecializationPropertyTest, ServedAnswersEqualGenericAndOperational) {
  const std::vector<std::string> goals = {
      "L[p(K : A -C-> V)]",
      "L[p(K : A -C-> V)] << fir",
      "L[p(K : A -C-> V)] << opt",
      "L[p(K : A -C-> V)] << cau",
      "L[p(K : a -> V)]",
      "L[p(K : a -C-> V)], M[p(K : b -D-> W)] << opt",
      "s[p(K : A -C-> V)] << cau",
      "L[q(K : b -C-> V)] << cau",
      // A non-level at a level position matches nothing, in every form.
      "bel(p, K, a, V, C, 3, opt)",
      "bel(p, K, a, V, C, f(L), opt)",
  };
  for (const bool belief_rule : {false, true}) {
    const std::string src = RandomDatabase(GetParam(), belief_rule);
    EngineOptions always_options;
    always_options.reduction.specialization =
        ReductionOptions::Specialization::kAlways;
    EngineOptions never_options;
    never_options.reduction.specialization =
        ReductionOptions::Specialization::kNever;
    Result<Engine> always = Engine::FromSource(src, always_options);
    Result<Engine> never = Engine::FromSource(src, never_options);
    ASSERT_TRUE(always.ok() && never.ok()) << src;
    for (const std::string level : {"u", "c", "s"}) {
      // Warm the models, so no goal takes the magic-sets path.
      ASSERT_TRUE(always->ReducedModel(level).ok()) << level << "\n" << src;
      const bool generic_runs = never->ReducedModel(level).ok();
      EXPECT_TRUE(generic_runs || belief_rule) << level << "\n" << src;
      for (const std::string& goal : goals) {
        const std::string served =
            AnswerText(*always, goal, level, ExecMode::kReduced);
        EXPECT_EQ(served.rfind("error: ", 0), std::string::npos)
            << goal << " at " << level << ": " << served;
        EXPECT_EQ(served,
                  AnswerText(*always, goal, level, ExecMode::kOperational))
            << goal << " at " << level << "\n" << src;
        if (generic_runs) {
          EXPECT_EQ(served,
                    AnswerText(*never, goal, level, ExecMode::kReduced))
              << goal << " at " << level << "\n" << src;
        }
      }
    }
    EXPECT_EQ(always->Counters().plan_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SpecializationPropertyTest,
                         ::testing::Range(0u, 15u));

}  // namespace
}  // namespace multilog::ml
