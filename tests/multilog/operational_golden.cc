#include "operational_golden.h"

#include <cstdint>
#include <random>
#include <vector>

#include "multilog/engine.h"
#include "multilog/proof.h"

namespace multilog::ml {
namespace {

constexpr int kEntities = 16;
constexpr uint64_t kSeed = 15;
const char* const kLevels[] = {"u", "c", "s", "ts"};
const char* const kModes[] = {"fir", "opt", "cau", "peer"};

/// One Mission tuple per entity at a rotating level; an s-level cover
/// story (same key, s-classified objective and destin cells) for about
/// half of the entities based at u or c; the key-local vetted rule; and
/// a user belief mode "peer" (cells at one's own level or the level
/// immediately below) as Pi clauses over bel/7.
std::string MissionSource() {
  std::mt19937_64 rng(kSeed);
  std::string src =
      "level(u). level(c). level(s). level(ts).\n"
      "order(u, c). order(c, s). order(s, ts).\n";
  for (int i = 0; i < kEntities; ++i) {
    const std::string l = kLevels[i % 4];
    const std::string key = "k" + std::to_string(i);
    src += l + "[mission(" + key + " : starship -" + l + "-> " + key +
           ", objective -" + l + "-> o" + std::to_string(rng() % 8) +
           ", destin -" + l + "-> d" + std::to_string(rng() % 4) + ")].\n";
    if (i % 4 < 2 && rng() % 2 == 0) {
      src += "s[mission(" + key + " : starship -" + l + "-> " + key +
             ", objective -s-> x" + std::to_string(rng() % 8) +
             ", destin -s-> y" + std::to_string(rng() % 4) + ")].\n";
    }
  }
  src +=
      "s[mission(K : vetted -u-> yes)] :- "
      "c[mission(K : starship -C-> K)] << cau.\n"
      "bel(P, K, A, V, C, H, peer) :- rel(P, K, A, V, C, H).\n"
      "bel(P, K, A, V, C, H, peer) :- order(L, H), rel(P, K, A, V, C, L).\n";
  return src;
}

/// The goals run at session level `level`: per belief mode, point
/// lookups with and without a don't-care classification, listings with
/// the key a variable, and the rule-derived vetted cell; then plain
/// m-atom lookups at the session level.
std::vector<std::string> Goals(const std::string& level) {
  std::vector<std::string> goals;
  for (const char* mode : kModes) {
    const std::string m = mode;
    for (int i = 0; i < 8; ++i) {
      const std::string key = "k" + std::to_string(i);
      goals.push_back(level + "[mission(" + key +
                      " : objective -C-> V)] << " + m + ".");
      goals.push_back(level + "[mission(" + key + " : destin -> V)] << " +
                      m + ".");
    }
    goals.push_back(level + "[mission(K : objective -C-> V)] << " + m + ".");
    goals.push_back(level + "[mission(K : destin -> V)] << " + m + ".");
    goals.push_back(level + "[mission(k4 : vetted -C-> V)] << " + m + ".");
  }
  for (int i = 0; i < 8; ++i) {
    goals.push_back(level + "[mission(k" + std::to_string(i) +
                    " : objective -C-> V)].");
  }
  return goals;
}

}  // namespace

std::string RenderOperationalGolden() {
  Result<Engine> engine = Engine::FromSource(MissionSource());
  if (!engine.ok()) return "error: " + engine.status().ToString() + "\n";
  std::string out;
  for (const char* level : kLevels) {
    for (const std::string& goal : Goals(level)) {
      out += "== " + std::string(level) + " ?- " + goal + "\n";
      Result<QueryResult> r =
          engine->QuerySource(goal, level, ExecMode::kCheckBoth);
      if (!r.ok()) {
        out += "error: " + r.status().ToString() + "\n";
        continue;
      }
      out += std::to_string(r->answers.size()) + " answers\n";
      for (size_t i = 0; i < r->answers.size(); ++i) {
        out += r->answers[i].ToString() + "\n";
        if (i < r->proofs.size() && r->proofs[i] != nullptr) {
          out += RenderProof(*r->proofs[i]);
        }
      }
    }
  }
  return out;
}

}  // namespace multilog::ml
