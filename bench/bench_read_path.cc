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

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
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

std::string MissionSource() {
  std::mt19937_64 rng(3);
  std::string src =
      "level(u). level(c). level(s). level(ts).\n"
      "order(u, c). order(c, s). order(s, ts).\n";
  for (size_t i = 0; i < kEntities; ++i) {
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
    Result<Engine> e = Engine::FromSource(MissionSource());
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

}  // namespace

BENCHMARK_MAIN();
