// Seeded input generation for perfbench: the Mission-style Sigma every
// workload serves, and the per-connection operation streams.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// The paper's four-level chain u < c < s < ts.
inline constexpr const char* kLevels[] = {"u", "c", "s", "ts"};
inline constexpr const char* kBeliefModes[] = {"fir", "opt", "cau"};

/// splitmix64: derives independent generator seeds from (seed, salt).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Share of the entities given an s-level cover story.
inline constexpr double kCoverShare = 0.25;
/// Live asserts a connection keeps before each write retracts its oldest.
inline constexpr size_t kLiveWrites = 8;

/// The parameters that differ by workload, read from
/// perfbench/workloads.json (every field required).
struct Spec {
  std::string name;
  size_t entities = 0;
  double offered_rate = 0;  // ops/s over all connections
  size_t depth = 0;         // closed-loop requests in flight per connection
  double p99_limit_ms = 0;
  size_t checkpoint_every = 0;  // 0: no checkpoints
  std::map<std::string, double> shares;
};

struct Sigma {
  std::string source;
  size_t entities = 0;
  size_t facts = 0;               // stored Sigma facts
  std::vector<int> base_level;    // entity -> index into kLevels
  std::vector<bool> covered;      // entity has an s-level cover story
};

/// One tuple per entity at a rotating level, an s cover story for
/// kCoverShare of the entities (drawn from those based at u or c), and
/// one key-local anchored rule with a belief body.
Sigma BuildSigma(uint64_t seed, size_t entities);

enum Kind { kPoint, kWide, kProof, kWrite, kRyw, kCheckpoint, kNumKinds };
inline constexpr const char* kKindNames[] = {"point", "wide",  "proof",
                                             "write", "ryw", "checkpoint"};

/// One assert or retract, shared between the connection that sends it
/// and the operations that depend on its acknowledgement.
struct WriteRec {
  std::string level;
  std::string fact;
  std::string key;     // entity key
  int64_t entity = -1;  // Sigma entity index of a cover-story write
  std::string expect;  // the answer an objective lookup shows for it
  bool retract = false;
  std::shared_ptr<WriteRec> undoes;  // retract: the assert it removes
  std::atomic<bool> acked{false};
  std::atomic<bool> failed{false};
  std::atomic<bool> retract_sent{false};  // assert: its retract was sent
  std::atomic<uint64_t> seqno{0};
};

struct Op {
  Kind kind = kPoint;
  std::string level;  // session clearance that must send it
  std::string goal;
  bool operational = false;
  bool proofs = false;
  /// Answers are byte-compared with every other answer to the same
  /// request and with the reference engine.
  bool memo = false;
  std::shared_ptr<WriteRec> write;   // kWrite
  std::shared_ptr<WriteRec> needs;   // sent only once this write is acked
  std::shared_ptr<WriteRec> expect;  // answers must show (or not) this write
  uint64_t min_seqno = 0;
};

/// The request frame for `op`, tagged with `id`.
std::string RequestFrame(const Op& op, int64_t id, bool trace);

/// The objective-lookup goal a read-your-writes check sends for `key`
/// at goal level `level`.
std::string ObjectiveGoal(const std::string& level, const std::string& key,
                          const char* mode);

/// One connection's operation stream: deterministic in (seed, workload,
/// connection), independent of timing.
class Source {
 public:
  Source(const Spec& spec, const Sigma& sigma, int level_index, int conn,
         uint64_t seed);

  /// The next operation of the workload's mix.
  Op Next();
  /// One operation of every kind this connection uses.
  std::vector<Op> Warmup();

 private:
  Op Point();
  Op Wide();
  Op Proof();
  Op Write();
  Op WrittenPoint();
  /// Belief modes rotate per op kind instead of being drawn.
  const char* NextMode(Kind kind);

  const Spec& spec_;
  const Sigma& sigma_;
  int level_index_;
  std::string level_;
  int conn_;
  std::mt19937_64 rng_;
  std::vector<std::pair<Kind, double>> shares_;  // normalized, no ryw
  uint64_t drawn_[kNumKinds] = {};
  uint64_t drawn_total_ = 0;
  uint64_t mode_turn_[kNumKinds] = {};
  bool written_point_next_ = false;
  bool cover_next_ = false;
  std::deque<std::shared_ptr<WriteRec>> live_;  // own live asserts
  /// Entities this connection gave a cover story, with the last write
  /// that touched it (the assert, then its retract).
  std::map<size_t, std::shared_ptr<WriteRec>> covered_by_me_;
  uint64_t serial_ = 0;
  uint64_t writes_ = 0;
  bool checkpoint_due_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
