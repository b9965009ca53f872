#include "perfbench/gen.h"

#include <algorithm>
#include <cmath>

#include "server/json.h"

namespace perfbench {

using multilog::server::Json;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Sigma BuildSigma(uint64_t seed, size_t entities) {
  std::mt19937_64 rng(MixSeed(seed, 1));
  Sigma sigma;
  sigma.entities = entities;
  sigma.source =
      "level(u). level(c). level(s). level(ts).\n"
      "order(u, c). order(c, s). order(s, ts).\n";
  // Exactly round(kCoverShare * entities) cover stories, on entities
  // based at u or c: every seed serves a Sigma of the same shape.
  std::vector<size_t> eligible;
  for (size_t i = 0; i < entities; ++i) {
    if (i % 4 < 2) eligible.push_back(i);
  }
  std::shuffle(eligible.begin(), eligible.end(), rng);
  const size_t covers =
      std::min(eligible.size(),
               static_cast<size_t>(std::lround(
                   kCoverShare * static_cast<double>(entities))));
  sigma.covered.assign(entities, false);
  for (size_t i = 0; i < covers; ++i) sigma.covered[eligible[i]] = true;
  for (size_t i = 0; i < entities; ++i) {
    const int level = static_cast<int>(i % 4);
    const std::string l = kLevels[level];
    const std::string key = "k" + std::to_string(i);
    sigma.source += l + "[mission(" + key + " : starship -" + l + "-> " + key +
                    ", objective -" + l + "-> o" + std::to_string(rng() % 64) +
                    ", destin -" + l + "-> d" + std::to_string(rng() % 32) +
                    ")].\n";
    ++sigma.facts;
    sigma.base_level.push_back(level);
    if (sigma.covered[i]) {
      sigma.source += "s[mission(" + key + " : starship -" + l + "-> " + key +
                      ", objective -s-> x" + std::to_string(rng() % 64) +
                      ", destin -s-> y" + std::to_string(rng() % 32) + ")].\n";
      ++sigma.facts;
    }
  }
  sigma.source +=
      "s[mission(K : vetted -u-> yes)] :- "
      "c[mission(K : starship -C-> K)] << cau.\n";
  return sigma;
}

std::string RequestFrame(const Op& op, int64_t id, bool trace) {
  Json j = Json::Object();
  j.Set("id", Json::Int(id));
  switch (op.kind) {
    case kWrite:
      j.Set("cmd", Json::Str(op.write->retract ? "retract" : "assert"));
      j.Set("fact", Json::Str(op.write->fact));
      break;
    case kCheckpoint:
      j.Set("cmd", Json::Str("checkpoint"));
      break;
    default:
      j.Set("cmd", Json::Str("query"));
      j.Set("goal", Json::Str(op.goal));
      if (op.operational) j.Set("mode", Json::Str("operational"));
      if (op.proofs) j.Set("proofs", Json::Bool(true));
      if (trace) j.Set("trace", Json::Bool(true));
      if (op.min_seqno > 0) {
        j.Set("min_seqno", Json::Int(static_cast<int64_t>(op.min_seqno)));
        j.Set("wait_ms", Json::Int(30000));
      }
      break;
  }
  const std::string payload = j.Serialize();
  return std::to_string(payload.size()) + "\n" + payload;
}

std::string ObjectiveGoal(const std::string& level, const std::string& key,
                          const char* mode) {
  return "?- " + level + "[mission(" + key + " : objective -C-> V)] << " +
         mode + ".";
}

Source::Source(const Spec& spec, const Sigma& sigma, int level_index, int conn,
               uint64_t seed)
    : spec_(spec),
      sigma_(sigma),
      level_index_(level_index),
      level_(kLevels[level_index]),
      conn_(conn),
      rng_(MixSeed(seed, 100 + static_cast<uint64_t>(conn))) {
  // Read-your-writes queries follow acknowledged writes on the replica
  // connection; they are not drawn here.
  double total = 0;
  for (const auto& [name, share] : spec.shares) {
    if (name != "ryw") total += share;
  }
  for (int k = 0; k < kNumKinds; ++k) {
    auto it = spec.shares.find(kKindNames[k]);
    if (it == spec.shares.end() || k == kRyw) continue;
    shares_.emplace_back(static_cast<Kind>(k), it->second / total);
  }
}

Op Source::Next() {
  if (checkpoint_due_) {
    checkpoint_due_ = false;
    Op op;
    op.kind = kCheckpoint;
    op.level = level_;
    return op;
  }
  // The kind with the largest deficit against its share: every run
  // sends the same mix, so a percentile never moves because one run drew
  // more of a costly kind than another.
  ++drawn_total_;
  Kind kind = shares_.front().first;
  double best = -1e300;
  for (const auto& [k, share] : shares_) {
    const double deficit = share * static_cast<double>(drawn_total_) -
                           static_cast<double>(drawn_[k]);
    if (deficit > best) {
      best = deficit;
      kind = k;
    }
  }
  ++drawn_[kind];
  switch (kind) {
    case kWide:
      return Wide();
    case kProof:
      return Proof();
    case kWrite:
      return Write();
    default:
      if (spec_.name == "write_mix") {
        written_point_next_ = !written_point_next_;
        if (written_point_next_) return WrittenPoint();
      }
      return Point();
  }
}

std::vector<Op> Source::Warmup() {
  std::vector<Op> ops;
  for (const auto& [kind, share] : shares_) {
    (void)share;
    switch (kind) {
      case kWide:
        ops.push_back(Wide());
        break;
      case kProof:
        ops.push_back(Proof());
        break;
      case kWrite:
        ops.push_back(Write());
        break;
      default:
        ops.push_back(Point());
        break;
    }
  }
  return ops;
}

const char* Source::NextMode(Kind kind) {
  return kBeliefModes[mode_turn_[kind]++ % 3];
}

Op Source::Point() {
  Op op;
  op.kind = kPoint;
  op.level = level_;
  const size_t entity = rng_() % sigma_.entities;
  op.goal = ObjectiveGoal(level_, "k" + std::to_string(entity),
                          NextMode(kPoint));
  op.memo = spec_.name != "write_mix";
  return op;
}

Op Source::Wide() {
  Op op;
  op.kind = kWide;
  op.level = level_;
  op.goal = ObjectiveGoal(level_, "K", NextMode(kWide));
  op.memo = spec_.name != "write_mix";
  return op;
}

Op Source::Proof() {
  Op op = Point();
  op.kind = kProof;
  op.operational = true;
  op.proofs = true;
  return op;
}

Op Source::WrittenPoint() {
  // The newest write this connection has seen acknowledged, as a user
  // rereads what they just wrote; a base key until there is one.
  for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
    if (!(*it)->acked.load()) continue;
    Op op;
    op.kind = kPoint;
    op.level = level_;
    op.goal = ObjectiveGoal(level_, (*it)->key, "opt");
    op.expect = *it;
    return op;
  }
  return Point();
}

Op Source::Write() {
  Op op;
  op.kind = kWrite;
  op.level = level_;
  auto rec = std::make_shared<WriteRec>();
  rec->level = level_;
  ++writes_;
  if (spec_.checkpoint_every > 0 && conn_ == 0 &&
      writes_ % spec_.checkpoint_every == 0) {
    checkpoint_due_ = true;
  }
  if (live_.size() >= kLiveWrites) {
    // Retract the oldest live write: |Sigma| stays constant, so the
    // O(|Sigma|) write cost cannot drift within a run.
    std::shared_ptr<WriteRec> oldest = live_.front();
    live_.pop_front();
    rec->retract = true;
    if (oldest->entity >= 0) {
      // The entity takes a new cover story only once this retract is
      // acked: pipelined writes may run in any order.
      covered_by_me_[static_cast<size_t>(oldest->entity)] = rec;
    }
    rec->fact = oldest->fact;
    rec->key = oldest->key;
    rec->undoes = oldest;
    op.needs = oldest;
    op.write = rec;
    return op;
  }
  const std::string value =
      "z" + std::to_string(conn_) + "x" + std::to_string(serial_++);
  rec->expect = "{C=" + level_ + ", V=" + value + "}";
  const bool destin_only = spec_.name == "sharded";
  // A cover-story cell: the same key as an entity based below this
  // level, with the objective/destin cells classified here.
  cover_next_ = !cover_next_;
  if (!destin_only && level_index_ > 0 && cover_next_) {
    // Eight candidates drawn up front, so the stream after this write
    // does not depend on which of them is still waiting for a retract.
    size_t candidates[8];
    for (size_t& e : candidates) e = rng_() % sigma_.entities;
    for (const size_t e : candidates) {
      if (sigma_.base_level[e] >= level_index_ ||
          (level_ == "s" && sigma_.covered[e])) {
        continue;
      }
      if (auto it = covered_by_me_.find(e); it != covered_by_me_.end()) {
        const WriteRec& last = *it->second;
        if (!last.retract || !(last.acked.load() || last.failed.load())) {
          continue;
        }
      }
      covered_by_me_[e] = rec;
      rec->entity = static_cast<int64_t>(e);
      const std::string base = kLevels[sigma_.base_level[e]];
      rec->key = "k" + std::to_string(e);
      rec->fact = level_ + "[mission(" + rec->key + " : starship -" + base +
                  "-> " + rec->key + ", objective -" + level_ + "-> " +
                  value + ", destin -" + level_ + "-> " + value + ")].";
      break;
    }
  }
  if (rec->fact.empty()) {
    rec->key = "n" + value;
    rec->fact = level_ + "[mission(" + rec->key + " : starship -" + level_ +
                "-> " + rec->key +
                (destin_only ? "" : ", objective -" + level_ + "-> " + value) +
                ", destin -" + level_ + "-> " + value + ")].";
  }
  live_.push_back(rec);
  op.write = rec;
  return op;
}

}  // namespace perfbench
