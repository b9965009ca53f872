// ApplyDelta: incremental maintenance of a stratified fixpoint under
// EDB change. Every test's oracle is a scratch Evaluate() of the
// post-mutation program: the maintained model must match it exactly
// (Model::ToString is a sorted rendering, so string equality is set
// equality). The randomized sweep drives interleaved adds/removes over
// a program with recursion *and* negation at 1 and 4 threads.

#include "datalog/eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/parser.h"

namespace multilog::datalog {
namespace {

/// A mutable EDB over a fixed rule set: builds the post-mutation
/// program (rules first, then the surviving fact clauses in insertion
/// order) and drives ApplyDelta against the maintained model and the
/// plan prepared once, at construction.
class DeltaHarness {
 public:
  explicit DeltaHarness(std::string_view rules_source,
                        const EvalOptions& options = {})
      : options_(options) {
    Result<ParsedProgram> parsed = ParseDatalog(rules_source);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    rules_ = parsed->program;
    Result<PreparedProgram> prepared = PrepareProgram(Current(), options_);
    EXPECT_TRUE(prepared.ok()) << prepared.status();
    prepared_ = std::move(prepared).value();
    Result<Model> m = EvaluatePrepared(prepared_, {}, options_);
    EXPECT_TRUE(m.ok()) << m.status();
    model_ = std::move(m).value();
  }

  Program Current() const {
    Program p = rules_;
    for (const Atom& f : facts_) p.AddFact(f);
    return p;
  }

  /// Applies one batch of EDB changes incrementally and checks the
  /// result against a scratch evaluation of the new program.
  void Apply(const std::vector<Atom>& adds, const std::vector<Atom>& removes,
             const char* what) {
    for (const Atom& r : removes) {
      auto it = std::find(facts_.begin(), facts_.end(), r);
      if (it != facts_.end()) facts_.erase(it);
    }
    for (const Atom& a : adds) facts_.push_back(a);

    Program post = Current();
    Result<DeltaChanges> delta =
        ApplyDelta(&prepared_, adds, removes, &model_, options_);
    ASSERT_TRUE(delta.ok()) << what << ": " << delta.status();
    Result<Model> scratch = Evaluate(post, options_);
    ASSERT_TRUE(scratch.ok()) << what << ": " << scratch.status();
    EXPECT_EQ(model_.ToString(), scratch->ToString()) << what;

    // The reported net changes must be exact: disjoint, duplicate-free,
    // and consistent with the model (added present, removed absent).
    for (const Atom& a : delta->added) {
      EXPECT_TRUE(model_.Contains(a)) << what << ": " << a.ToString();
    }
    for (const Atom& r : delta->removed) {
      EXPECT_FALSE(model_.Contains(r)) << what << ": " << r.ToString();
    }
  }

  const Model& model() const { return model_; }
  const std::vector<Atom>& facts() const { return facts_; }

 private:
  EvalOptions options_;
  Program rules_;
  std::vector<Atom> facts_;
  PreparedProgram prepared_;
  Model model_;
};

Atom Edge(const char* a, const char* b) {
  return Atom("edge", {Term::Sym(a), Term::Sym(b)});
}

constexpr char kClosure[] = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- edge(X, Y), path(Y, Z).
)";

TEST(ApplyDeltaTest, AddPropagatesThroughRecursion) {
  DeltaHarness h(kClosure);
  h.Apply({Edge("a", "b")}, {}, "add ab");
  h.Apply({Edge("b", "c"), Edge("c", "d")}, {}, "add bc cd");
  EXPECT_TRUE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("d")})));
}

TEST(ApplyDeltaTest, RemoveDeletesDownstreamAndRederivesAlternatives) {
  DeltaHarness h(kClosure);
  // Two routes a->c; removing one must keep path(a, c) alive, removing
  // both must kill it along with everything only it supported.
  h.Apply({Edge("a", "b"), Edge("b", "c"), Edge("a", "c"), Edge("c", "d")},
          {}, "seed");
  h.Apply({}, {Edge("a", "b")}, "remove ab");
  EXPECT_TRUE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("c")})));
  EXPECT_FALSE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("b")})));
  h.Apply({}, {Edge("a", "c")}, "remove ac");
  EXPECT_FALSE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("d")})));
}

TEST(ApplyDeltaTest, RemovalOfCycleMemberDoesNotStrandSelfSupport) {
  // The classic DRed case: a cycle supports itself; cutting the only
  // external edge must collapse the whole loop's reachability from a.
  DeltaHarness h(kClosure);
  h.Apply({Edge("a", "b"), Edge("b", "c"), Edge("c", "b")}, {}, "seed");
  h.Apply({}, {Edge("a", "b")}, "cut entry");
  EXPECT_FALSE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("c")})));
  EXPECT_TRUE(
      h.model().Contains(Atom("path", {Term::Sym("b"), Term::Sym("c")})));
}

TEST(ApplyDeltaTest, SimultaneousRemovalOfJointSupport) {
  // h :- p, q with both p and q removed in ONE batch: the deletion scan
  // must find the derivation through either literal against the old
  // state, not the half-updated one.
  DeltaHarness h("h(X) :- p(X), q(X).");
  const Atom p = Atom("p", {Term::Sym("a")});
  const Atom q = Atom("q", {Term::Sym("a")});
  h.Apply({p, q}, {}, "seed");
  EXPECT_TRUE(h.model().Contains(Atom("h", {Term::Sym("a")})));
  h.Apply({}, {p, q}, "remove both");
  EXPECT_FALSE(h.model().Contains(Atom("h", {Term::Sym("a")})));
}

TEST(ApplyDeltaTest, DuplicateEdbSupportNetsToNoChange) {
  // Two identical fact clauses back the same atom; removing one leaves
  // the atom rederivable from the other.
  DeltaHarness h(kClosure);
  h.Apply({Edge("a", "b")}, {}, "first copy");
  h.Apply({Edge("a", "b")}, {}, "second copy");
  h.Apply({}, {Edge("a", "b")}, "remove one copy");
  EXPECT_TRUE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("b")})));
  h.Apply({}, {Edge("a", "b")}, "remove last copy");
  EXPECT_FALSE(
      h.model().Contains(Atom("path", {Term::Sym("a"), Term::Sym("b")})));
}

constexpr char kNegation[] = R"(
  hidden(X) :- block(X).
  vis(X) :- item(X), not hidden(X).
)";

TEST(ApplyDeltaTest, AddedFactFalsifiesNegationDownstream) {
  DeltaHarness h(kNegation);
  const Atom item = Atom("item", {Term::Sym("a")});
  const Atom block = Atom("block", {Term::Sym("a")});
  h.Apply({item}, {}, "seed item");
  EXPECT_TRUE(h.model().Contains(Atom("vis", {Term::Sym("a")})));
  // Adding block(a) derives hidden(a), which must *delete* vis(a) in
  // the higher stratum.
  h.Apply({block}, {}, "add block");
  EXPECT_FALSE(h.model().Contains(Atom("vis", {Term::Sym("a")})));
  // And removing it must resurrect vis(a) through the negation.
  h.Apply({}, {block}, "remove block");
  EXPECT_TRUE(h.model().Contains(Atom("vis", {Term::Sym("a")})));
}

TEST(ApplyDeltaTest, MixedBatchAcrossStrata) {
  DeltaHarness h(kNegation);
  h.Apply({Atom("item", {Term::Sym("a")}), Atom("item", {Term::Sym("b")}),
           Atom("block", {Term::Sym("b")})},
          {}, "seed");
  // One batch: unblock b, block a, retire item a, introduce item c.
  h.Apply({Atom("block", {Term::Sym("a")}), Atom("item", {Term::Sym("c")})},
          {Atom("block", {Term::Sym("b")}), Atom("item", {Term::Sym("a")})},
          "mixed batch");
  EXPECT_TRUE(h.model().Contains(Atom("vis", {Term::Sym("b")})));
  EXPECT_TRUE(h.model().Contains(Atom("vis", {Term::Sym("c")})));
  EXPECT_FALSE(h.model().Contains(Atom("vis", {Term::Sym("a")})));
}

TEST(ApplyDeltaTest, AggregateClausesAreRejected) {
  Result<ParsedProgram> parsed =
      ParseDatalog("deg(X, count(Y)) :- edge(X, Y). edge(a, b).");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<PreparedProgram> prepared = PrepareProgram(parsed->program);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<Model> m = EvaluatePrepared(*prepared, {});
  ASSERT_TRUE(m.ok()) << m.status();
  Model model = std::move(m).value();
  Result<DeltaChanges> delta =
      ApplyDelta(&prepared.value(), {Edge("b", "c")}, {}, &model);
  EXPECT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsInvalidProgram()) << delta.status();
}

TEST(ApplyDeltaTest, BudgetExhaustionSurfacesAsResourceExhausted) {
  Result<ParsedProgram> parsed = ParseDatalog(kClosure);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // The rules alone are the pre-mutation program.
  Result<PreparedProgram> prepared = PrepareProgram(parsed->program);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  std::vector<Atom> adds;
  // A chain long enough that the quadratic closure blows a tiny budget.
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (size_t i = 0; i + 1 < std::size(names); ++i) {
    adds.push_back(Edge(names[i], names[i + 1]));
  }
  Model model;  // fixpoint of the empty pre-mutation program
  EvalOptions tight;
  tight.max_facts = 10;
  Result<DeltaChanges> delta =
      ApplyDelta(&prepared.value(), adds, {}, &model, tight);
  EXPECT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsResourceExhausted()) << delta.status();
}

/// Deterministic PRNG (split-mix style) so the sweep is reproducible.
uint64_t NextRand(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(ApplyDeltaTest, RandomizedInterleavingMatchesScratchEvaluate) {
  // Recursion + negation + a join over two strata, toggled randomly.
  constexpr char kRules[] = R"(
    node(a). node(b). node(c). node(d). node(e).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
    unreach(X, Y) :- node(X), node(Y), not path(X, Y).
  )";
  const char* names[] = {"a", "b", "c", "d", "e"};
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint64_t seed : {uint64_t{7}, uint64_t{101}}) {
      EvalOptions options;
      options.num_threads = threads;
      DeltaHarness h(kRules, options);
      uint64_t state = seed;
      for (int step = 0; step < 60; ++step) {
        const Atom e = Edge(names[NextRand(&state) % std::size(names)],
                            names[NextRand(&state) % std::size(names)]);
        const bool present =
            std::find(h.facts().begin(), h.facts().end(), e) !=
            h.facts().end();
        const std::string what = "threads=" + std::to_string(threads) +
                                 " seed=" + std::to_string(seed) +
                                 " step=" + std::to_string(step) + " " +
                                 (present ? "remove " : "add ") + e.ToString();
        if (present) {
          h.Apply({}, {e}, what.c_str());
        } else {
          h.Apply({e}, {}, what.c_str());
        }
        if (HasFatalFailure() || HasNonfatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace multilog::datalog
