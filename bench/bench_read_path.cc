// The read path on a warm engine, in process: a belief listing answered
// from the cached reduced model (QueryModel, then the answers
// deduplicated and ordered by text) and a point proof lookup answered by
// the operational interpreter (clause selection, tabling, proof
// rendering). The database is Mission-shaped like perfbench's
// read_serving: 1000 entities at rotating levels u/c/s/ts, an s-level
// cover story for a quarter of them, and the key-local vetted rule.
//
//   build/bench/bench_read_path
//
// BM_Listing runs ?- L[mission(K : objective -C-> V)] << M. round-robin
// over the 12 (level, mode) pairs; BM_ProofLookup runs the same goal
// for a random key in operational mode and renders every proof. The
// symbols_per_query counter is the growth of the process-wide symbol
// table per proof lookup (fresh variable names of renamed clauses).
//
// BM_WritePair/N is the write side over the same shape at N entities:
// with the u, c and s models warm, one iteration asserts a new u-level
// entity and retracts it, and each write maintains the three models
// (incremental maintenance). The assert_us and retract_us counters
// time the two writes apart.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/symbol.h"
#include "multilog/engine.h"
#include "multilog/proof.h"

namespace {

using namespace multilog;
using namespace multilog::ml;

constexpr size_t kEntities = 1000;
const char* const kLevels[] = {"u", "c", "s", "ts"};
const char* const kModes[] = {"fir", "opt", "cau"};

std::string MissionSource(size_t entities) {
  std::mt19937_64 rng(3);
  std::string src =
      "level(u). level(c). level(s). level(ts).\n"
      "order(u, c). order(c, s). order(s, ts).\n";
  for (size_t i = 0; i < entities; ++i) {
    const std::string l = kLevels[i % 4];
    const std::string key = "k" + std::to_string(i);
    src += l + "[mission(" + key + " : starship -" + l + "-> " + key +
           ", objective -" + l + "-> o" + std::to_string(rng() % 64) +
           ", destin -" + l + "-> d" + std::to_string(rng() % 32) + ")].\n";
    // Every second entity based at u or c: a quarter of all entities.
    if (i % 4 < 2 && (i / 4) % 2 == 0) {
      src += "s[mission(" + key + " : starship -" + l + "-> " + key +
             ", objective -s-> x" + std::to_string(rng() % 64) +
             ", destin -s-> y" + std::to_string(rng() % 32) + ")].\n";
    }
  }
  src +=
      "s[mission(K : vetted -u-> yes)] :- "
      "c[mission(K : starship -C-> K)] << cau.\n";
  return src;
}

std::string Goal(const std::string& level, const std::string& key,
                 const std::string& mode) {
  return level + "[mission(" + key + " : objective -C-> V)] << " + mode;
}

Engine& WarmEngine() {
  static Engine* engine = [] {
    Result<Engine> e = Engine::FromSource(MissionSource(kEntities));
    if (!e.ok()) {
      std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
      std::abort();
    }
    auto* warm = new Engine(std::move(*e));
    for (const char* l : kLevels) {
      for (const char* m : kModes) {
        if (!warm->QuerySource(Goal(l, "K", m), l).ok() ||
            !warm->QuerySource(Goal(l, "k1", m), l, ExecMode::kOperational)
                 .ok()) {
          std::abort();
        }
      }
    }
    return warm;
  }();
  return *engine;
}

void BM_Listing(benchmark::State& state) {
  Engine& engine = WarmEngine();
  size_t turn = 0;
  size_t answers = 0;
  for (auto _ : state) {
    const char* l = kLevels[turn % 4];
    const char* m = kModes[(turn / 4) % 3];
    ++turn;
    Result<QueryResult> r = engine.QuerySource(Goal(l, "K", m), l);
    if (!r.ok()) std::abort();
    answers += r->answers.size();
  }
  state.counters["answers_per_query"] =
      static_cast<double>(answers) / static_cast<double>(turn);
}
BENCHMARK(BM_Listing)->Unit(benchmark::kMicrosecond);

void BM_ProofLookup(benchmark::State& state) {
  Engine& engine = WarmEngine();
  std::mt19937_64 rng(9);
  size_t turn = 0;
  const size_t symbols_before = SymbolTable::Global().size();
  for (auto _ : state) {
    const char* l = kLevels[turn % 4];
    const char* m = kModes[(turn / 4) % 3];
    ++turn;
    const std::string key = "k" + std::to_string(rng() % kEntities);
    Result<QueryResult> r =
        engine.QuerySource(Goal(l, key, m), l, ExecMode::kOperational);
    if (!r.ok()) std::abort();
    size_t rendered = 0;
    for (const ProofPtr& p : r->proofs) rendered += RenderProof(*p).size();
    benchmark::DoNotOptimize(rendered);
  }
  state.counters["symbols_per_query"] =
      static_cast<double>(SymbolTable::Global().size() - symbols_before) /
      static_cast<double>(turn);
}
BENCHMARK(BM_ProofLookup)->Unit(benchmark::kMicrosecond);

/// An engine over `entities` entities with the u, c and s models built.
Engine& WriteEngine(size_t entities) {
  static std::map<size_t, Engine*> engines;
  Engine*& engine = engines[entities];
  if (engine == nullptr) {
    Result<Engine> e = Engine::FromSource(MissionSource(entities));
    if (!e.ok()) {
      std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
      std::abort();
    }
    engine = new Engine(std::move(*e));
    for (const char* l : {"u", "c", "s"}) {
      if (!engine->QuerySource(Goal(l, "K", "cau"), l).ok()) std::abort();
    }
  }
  return *engine;
}

void BM_WritePair(benchmark::State& state) {
  Engine& engine = WriteEngine(static_cast<size_t>(state.range(0)));
  const std::string fact =
      "u[mission(w0 : starship -u-> w0, objective -u-> o1, "
      "destin -u-> d1)].";
  using Clock = std::chrono::steady_clock;
  Clock::duration asserting{}, retracting{};
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    if (!engine.Assert(fact, "u").ok()) std::abort();
    const Clock::time_point mid = Clock::now();
    if (!engine.Retract(fact, "u").ok()) std::abort();
    asserting += mid - start;
    retracting += Clock::now() - mid;
  }
  auto mean_us = [&state](Clock::duration total) {
    return std::chrono::duration<double, std::micro>(total).count() /
           static_cast<double>(state.iterations());
  };
  state.counters["assert_us"] = mean_us(asserting);
  state.counters["retract_us"] = mean_us(retracting);
}
BENCHMARK(BM_WritePair)
    ->Arg(60)
    ->Arg(250)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
