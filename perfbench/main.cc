// perfbench: the repository benchmark. Builds the MultiLog system
// in-process from a seeded generator, drives one workload over loopback
// sockets, checks every answer, and prints its metrics.
//
//   perfbench --workload read_serving|write_mix|sharded --seed N
//             --seconds S --trace 0|1 [--config perfbench/workloads.json]
//             [--data-dir DIR] [--source-id ID] [--smoke]
//
// --trace 0 measures in five child processes one after another and
// prints each end-to-end metric over them (the median; capacity, the
// best process's). --trace 1 makes one
// untraced run and then a traced run with the same seed and rates, and
// prints the per-layer metrics. The last stdout line is the result
// object; the lines before it list every metric with its unit and sample
// count. perfbench/workloads.json defines and documents the workloads.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "perfbench/gen.h"
#include "perfbench/loadgen.h"
#include "perfbench/system.h"
#include "server/json.h"

namespace perfbench {
namespace {

namespace trace = multilog::trace;
using server::Json;

constexpr size_t kConnections = 4;
constexpr size_t kProbeScattersPerLevel = 8;
/// The untimed ramp at the offered rate between warm-up and timing.
constexpr double kRampS = 1.0;
constexpr double kSmokeRampS = 0.5;
/// A run whose generator sent its p99 request later than this after its
/// due time is refused, not reported.
constexpr double kMaxSendLagP99Ms = 20.0;
/// Share of a measurement spent in the closed-loop capacity phase. The
/// --trace 0 processes report capacity and give it most of their time:
/// in 1.3 s windows one process's throughput differed 2x from the next
/// one's, in 3 s windows far less. The untraced run of --trace 1 reports
/// fixed-rate percentiles and gives those most.
constexpr double kEndToEndCapacityShare = 0.75;
constexpr double kClientCapacityShare = 1.0 / 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string config = "perfbench/workloads.json";
  std::string data_dir = ".bench_build/perfbench-data";
  std::string source_id = "unknown";
};

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) { return Pct(std::move(v), 50); }

/// A fixed-rate percentile of one op kind for the limit checks: every
/// failed or timed-out op of the kind counts as infinitely late.
double PctCountingLate(const Stats& st, Kind k, double p) {
  std::vector<double> v = st.lat[k];
  v.insert(v.end(), st.late[k], std::numeric_limits<double>::infinity());
  return Pct(std::move(v), p);
}

Stages StageDelta(const Stages& before, const Stages& after) {
  Stages d{};
  for (size_t i = 0; i < trace::kNumStages; ++i) {
    d[i].count = after[i].count - before[i].count;
    d[i].total_micros = after[i].total_micros - before[i].total_micros;
  }
  return d;
}

const trace::StageTotal& At(const Stages& s, trace::Stage stage) {
  return s[static_cast<size_t>(stage)];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

Result<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str());
}

/// Reads the workload's parameters. Every field is required: a missing
/// or malformed one fails the run instead of falling back to a default.
Result<Spec> LoadSpec(const Json& config, const std::string& name) {
  const Json* workloads = config.Find("workloads");
  const Json* w = workloads != nullptr ? workloads->Find(name) : nullptr;
  if (w == nullptr) return Status::InvalidArgument("unknown workload " + name);
  std::map<std::string, double> num;
  for (const char* key : {"entities", "offered_rate", "depth", "p99_limit_ms",
                          "checkpoint_every"}) {
    const Json* v = w->Find(key);
    if (v == nullptr || !v->is_number() || v->number_value() < 0) {
      return Status::InvalidArgument("workload " + name + ": " + key +
                                     " must be a non-negative number");
    }
    num[key] = v->number_value();
  }
  Spec spec;
  spec.name = name;
  spec.entities = static_cast<size_t>(num["entities"]);
  spec.offered_rate = num["offered_rate"];
  spec.depth = static_cast<size_t>(num["depth"]);
  spec.p99_limit_ms = num["p99_limit_ms"];
  spec.checkpoint_every = static_cast<size_t>(num["checkpoint_every"]);
  const Json* shares = w->Find("shares");
  if (shares == nullptr || !shares->is_object()) {
    return Status::InvalidArgument("workload " + name + ": shares missing");
  }
  for (const auto& [kind, share] : shares->object_items()) {
    if (!share.is_number()) {
      return Status::InvalidArgument("workload " + name + ": share " + kind +
                                     " is not a number");
    }
    spec.shares[kind] = share.number_value();
  }
  if (spec.entities == 0 || spec.offered_rate <= 0 || spec.depth == 0 ||
      spec.p99_limit_ms <= 0 || spec.shares.empty()) {
    return Status::InvalidArgument("workload " + name +
                                   ": entities, offered_rate, depth, "
                                   "p99_limit_ms and shares must be positive");
  }
  return spec;
}

/// One measured run: set-up (possibly repeated), ramp, fixed-rate
/// phase, optional closed-loop phase, then the correctness checks.
struct Measured {
  Stats st;
  double setup_s = 0;
  double fixed_s = 0;
  double capacity_s = 0;
  double peak_rss_mb = 0;
  Stages warm_stages{};
  Stages stages{};  // over the fixed-rate phase
  /// The serving role's share of the two: the aggregates, except on
  /// write_mix, where they also hold the replica's work and the primary's
  /// own request trees are used instead.
  Stages serving_warm{};
  Stages serving{};
  ml::EngineCounters engine{};  // delta over the fixed-rate phase
  uint64_t fsyncs = 0;
  double wal_bytes_per_record = 0;
  uint64_t server_rejected = 0;
  sharding::RouterCounters router{};
  replication::Replicator::Stats replication{};
  double start_ms = 0;
  double catchup_s = 0;
  DurabilityReport durability;
  uint64_t reference_mismatches = 0;
  ScatterProbe probe;
  std::vector<std::string> errors;

  uint64_t Failures() const {
    return st.Failures() + durability.mismatches + reference_mismatches;
  }
  /// Any failed, refused, timed-out or wrong op, abandoned connection or
  /// failed check makes the run incorrect.
  bool Correct() const { return Failures() == 0; }
};

ml::EngineCounters SumCounters(const System& sys) {
  ml::EngineCounters sum;
  for (ml::Engine* e : sys.ServingEngines()) {
    const ml::EngineCounters c = e->Counters();
    sum.cache_hits += c.cache_hits;
    sum.cache_misses += c.cache_misses;
    sum.writes_rejected += c.writes_rejected;
    sum.deltas_applied += c.deltas_applied;
    sum.fallback_recomputes += c.fallback_recomputes;
  }
  return sum;
}

uint64_t Rejected(const System& sys) {
  uint64_t n = 0;
  for (const server::Server* s :
       {sys.server.get(), sys.replica_server.get()}) {
    if (s != nullptr) n += s->metrics().rejected_overloaded.load();
  }
  for (const auto& s : sys.shard_servers) {
    n += s->metrics().rejected_overloaded.load();
  }
  return n;
}

/// One measurement of `opt.seconds`: the fixed-rate phase, then the
/// closed-loop capacity phase for `capacity_share` of the time.
Result<Measured> Measure(const Options& opt, const Spec& spec,
                         const Sigma& sigma, bool traced,
                         double capacity_share) {
  Measured m;
  m.capacity_s = opt.seconds * capacity_share;
  m.fixed_s = opt.seconds - m.capacity_s;

  const Stages before = trace::AggregatedStages();
  Result<std::unique_ptr<System>> built =
      Setup(spec, sigma, opt.seed, opt.data_dir, traced, &m.st);
  if (!built.ok()) return built.status();
  std::unique_ptr<System> sys = std::move(built).value();
  m.warm_stages = StageDelta(before, trace::AggregatedStages());
  m.setup_s = sys->setup_s;
  m.start_ms = sys->start_ms;
  m.catchup_s = sys->catchup_s;

  RunCtx ctx;
  ctx.traced = traced;
  ctx.via_router = sys->router != nullptr;
  if (sys->inbox) {
    ctx.ryw_inbox = sys->inbox.get();
    ctx.ryw_level = kLevels[3];
    System* s = sys.get();
    ctx.sample_lag = [s] {
      const uint64_t primary = s->engine->AppliedSeqno();
      const uint64_t replica = s->replica->AppliedSeqno();
      return static_cast<double>(primary > replica ? primary - replica : 0);
    };
  }
  if (traced && spec.shares.count("write") > 0) {
    System* s = sys.get();
    ctx.direct_write = [s](const WriteRec& rec) -> Result<ml::WriteResult> {
      ml::Engine* engine = s->engine.get();
      if (s->map) {
        Result<std::string> key = ml::RoutingKeyOfFact(rec.fact);
        if (!key.ok()) return key.status();
        engine = s->shards[s->map->ShardOfKeyText(*key)].get();
      }
      return rec.retract ? engine->Retract(rec.fact, rec.level)
                         : engine->Assert(rec.fact, rec.level);
    };
  }
  size_t producers = 0;
  for (const auto& c : sys->conns) producers += c->inbox_only ? 0 : 1;
  const double ryw_share =
      spec.shares.count("ryw") > 0 ? spec.shares.at("ryw") : 0;
  const double rate =
      spec.offered_rate * (1 - ryw_share) / static_cast<double>(producers);

  auto open_phase = [&](Phase phase, double seconds) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    RunPhase(ctx, *sys,
             [&](Conn& c, Stats& st) {
               DriveOpen(ctx, c, phase, start, end, rate, st);
             },
             &m.st);
  };
  open_phase(Phase::kRamp, opt.smoke ? kSmokeRampS : kRampS);

  const ml::EngineCounters engine_before = SumCounters(*sys);
  const Stages stages_before = trace::AggregatedStages();
  const uint64_t rejected_before = Rejected(*sys);
  const uint64_t syncs_before =
      sys->primary_store ? sys->engine->StorageStats().group_syncs : 0;
  open_phase(Phase::kFixed, m.fixed_s);
  m.stages = StageDelta(stages_before, trace::AggregatedStages());
  const ml::EngineCounters engine_after = SumCounters(*sys);
  m.engine.cache_hits = engine_after.cache_hits - engine_before.cache_hits;
  m.engine.cache_misses =
      engine_after.cache_misses - engine_before.cache_misses;
  m.engine.writes_rejected =
      engine_after.writes_rejected - engine_before.writes_rejected;
  m.engine.deltas_applied =
      engine_after.deltas_applied - engine_before.deltas_applied;
  m.engine.fallback_recomputes =
      engine_after.fallback_recomputes - engine_before.fallback_recomputes;
  if (sys->primary_store) {
    const ml::StorageCounters storage = sys->engine->StorageStats();
    m.fsyncs = storage.group_syncs - syncs_before;
    m.wal_bytes_per_record = Ratio(static_cast<double>(storage.wal_bytes),
                                   static_cast<double>(storage.wal_records));
  }

  if (m.capacity_s > 0) {
    ctx.cap_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(m.capacity_s));
    RunPhase(ctx, *sys,
             [&](Conn& c, Stats& st) {
               DriveClosed(ctx, c, Phase::kCapacity, ctx.cap_end, spec.depth,
                           true, st);
             },
             &m.st);
  }
  m.server_rejected = Rejected(*sys) - rejected_before;
  const bool replica = sys->replica != nullptr;
  m.serving_warm = replica ? m.st.trace.warm_stages : m.warm_stages;
  m.serving = replica ? m.st.trace.stages : m.stages;
  m.peak_rss_mb = PeakRssMb();
  if (sys->router) m.router = sys->router->Counters();
  if (sys->replicator) m.replication = sys->replicator->GetStats();

  if (spec.name == "write_mix") {
    m.durability = CheckWriteMix(*sys, sigma, m.st.acked);
    m.errors = m.durability.errors;
  } else {
    m.reference_mismatches =
        CheckAgainstReference(*sys, spec, sigma, m.st, &m.errors);
    if (traced && sys->router) {
      sys->conns.clear();
      Result<ScatterProbe> probe =
          ProbeScatters(*sys, opt.seed, kProbeScattersPerLevel, &m.st.trace);
      if (!probe.ok()) return probe.status();
      m.probe = std::move(probe).value();
    }
  }
  sys.reset();
  return m;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  int64_t samples;  // -1: not a sample statistic
};

class Report {
 public:
  void Put(std::string name, std::string unit, double value,
           int64_t samples = -1) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), std::move(unit), value, samples});
  }
  void Pcts(const std::string& stem, const std::string& unit,
            const std::vector<double>& v, std::initializer_list<int> ps) {
    // Layer metrics read "layer.stage_us_p50"; end-to-end ones
    // "point_p50_ms".
    const bool layer = stem.find('.') != std::string::npos;
    for (int p : ps) {
      const std::string pct = "p" + std::to_string(p);
      Put(layer ? stem + "_" + unit + "_" + pct : stem + "_" + pct + "_" + unit,
          unit, Pct(v, p), static_cast<int64_t>(v.size()));
    }
  }
  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("# %-38s %14.6f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples >= 0) {
        std::printf(" n=%lld", static_cast<long long>(m.samples));
      }
      std::printf("\n");
    }
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
      out += (i ? ", " : "") + Json::Str(metrics_[i].name).Serialize() +
             ": {\"value\": " + value + ", \"unit\": " +
             Json::Str(metrics_[i].unit).Serialize() + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// The bounded metrics: the ones that stayed steady across seeds on a
/// 4-vCPU virtual machine. Latencies are client figures (ClientFigures).
void EndToEnd(const Measured& m, Report* r) {
  r->Put("setup_s", "s", m.setup_s);
  r->Put("capacity_ops_s", "ops/s",
         Ratio(static_cast<double>(m.st.cap_completed), m.capacity_s),
         static_cast<int64_t>(m.st.cap_completed));
  r->Put("peak_rss_mb", "MiB", m.peak_rss_mb);
}

/// Client-observed latencies. They are per-layer figures (no bound):
/// some exist only on some workloads, and the rest spread across seeds
/// by more than any bound allows on a 4-vCPU virtual machine (0 with
/// n=0 where the op kind is absent).
void ClientFigures(const Measured& m, Report* r) {
  const Stats& st = m.st;
  r->Pcts("point", "ms", st.lat[kPoint], {50, 99});
  r->Pcts("wide", "ms", st.lat[kWide], {50, 90});
  r->Pcts("proof", "ms", st.lat[kProof], {50});
  r->Pcts("write", "ms", st.lat[kWrite], {50, 90});
  r->Pcts("repl_lag", "ms", st.lat[kRyw], {50, 90});
  r->Put("error_frac", "ratio",
         Ratio(static_cast<double>(m.Failures()),
               static_cast<double>(st.attempted)),
         static_cast<int64_t>(st.attempted));
}

void PerLayer(const Measured& base, const Measured& tr, Report* r) {
  const TraceAcc& t = tr.st.trace;
  auto us = [&](const std::string& key) -> const std::vector<double>& {
    static const std::vector<double> empty;
    auto it = t.us.find(key);
    return it == t.us.end() ? empty : it->second;
  };
  // server
  r->Pcts("server.parse", "us", us("server.parse"), {50});
  r->Pcts("server.queue_wait", "us", us("server.queue_wait"), {50, 99});
  r->Pcts("server.serialize", "us", us("server.serialize"), {50, 99});
  r->Pcts("server.wire", "us", us("server.wire"), {50, 99});
  r->Put("server.self_share", "ratio",
         Ratio(t.server_self_us, t.server_rtt_us));
  r->Put("server.rejected", "count", static_cast<double>(tr.server_rejected));
  // multilog
  r->Pcts("multilog.execute_self", "us", us("multilog.execute_self"), {50});
  r->Pcts("multilog.lock_wait", "us", us("multilog.lock_wait"), {50, 99});
  r->Pcts("multilog.write_hold", "us", us("multilog.write_hold"), {50, 99});
  r->Pcts("multilog.validate", "us", us("multilog.validate"), {50});
  r->Pcts("multilog.delta_reduce", "us", us("multilog.delta_reduce"), {50});
  r->Pcts("multilog.regroup", "us", us("multilog.regroup"), {50, 99});
  r->Pcts("multilog.solve", "us", us("multilog.solve"), {50});
  r->Put("multilog.reduce_count", "count",
         static_cast<double>(At(tr.serving, trace::Stage::kReduce).count));
  r->Put("multilog.cache_hit_ratio", "ratio",
         Ratio(static_cast<double>(tr.engine.cache_hits),
               static_cast<double>(tr.engine.cache_hits +
                                   tr.engine.cache_misses)));
  r->Put("multilog.maintained_ratio", "ratio",
         Ratio(static_cast<double>(tr.engine.deltas_applied),
               static_cast<double>(tr.engine.deltas_applied +
                                   tr.engine.fallback_recomputes)));
  r->Put("multilog.writes_rejected", "count",
         static_cast<double>(tr.engine.writes_rejected));
  // datalog
  const trace::StageTotal& eval = At(tr.serving, trace::Stage::kEvalModel);
  r->Pcts("datalog.query_model", "us", us("datalog.query_model"), {50, 99});
  r->Pcts("datalog.delta_eval", "us", us("datalog.delta_eval"), {50, 99});
  r->Put("datalog.eval_count", "count", static_cast<double>(eval.count));
  r->Put("datalog.eval_us_total", "us", static_cast<double>(eval.total_micros));
  const uint64_t rounds = At(tr.serving, trace::Stage::kEvalRound).count;
  const uint64_t deltas = At(tr.serving, trace::Stage::kDeltaEval).count;
  r->Put("datalog.rounds_per_eval", "ratio",
         Ratio(static_cast<double>(rounds),
               static_cast<double>(eval.count + deltas)));
  r->Put("datalog.join_us_total", "us",
         static_cast<double>(
             At(tr.serving, trace::Stage::kEvalJoin).total_micros));
  r->Put("datalog.merge_us_total", "us",
         static_cast<double>(
             At(tr.serving, trace::Stage::kEvalMerge).total_micros));
  r->Put("datalog.warm_s", "s",
         static_cast<double>(
             At(tr.serving_warm, trace::Stage::kEvalModel).total_micros) /
             1e6);
  // storage
  r->Pcts("storage.wal_write", "us", us("storage.wal_write"), {50});
  r->Pcts("storage.fsync", "us", us("storage.fsync"), {50, 99});
  r->Put("storage.fsyncs", "count", static_cast<double>(tr.fsyncs));
  r->Pcts("storage.commit_wait", "us", us("storage.commit_wait"), {50, 99});
  r->Put("storage.writes_per_fsync", "ratio",
         Ratio(static_cast<double>(tr.st.lat[kWrite].size()),
               static_cast<double>(tr.fsyncs)));
  r->Put("storage.wal_bytes_per_write", "bytes", tr.wal_bytes_per_record);
  r->Put("storage.disk_bytes_per_sigma_byte", "ratio",
         tr.durability.disk_bytes_per_sigma_byte);
  r->Pcts("storage.checkpoint", "ms", tr.st.lat[kCheckpoint], {50});
  r->Put("storage.recovery_s", "s", tr.durability.recovery_s);
  // replication
  const trace::StageTotal& apply = At(tr.stages, trace::Stage::kReplicaApply);
  r->Put("replication.apply_us_mean", "us",
         Ratio(static_cast<double>(apply.total_micros),
               static_cast<double>(apply.count)),
         static_cast<int64_t>(apply.count));
  r->Pcts("replication.min_seqno_wait", "us",
          us("replication.min_seqno_wait"), {50, 99});
  r->Put("replication.records_applied", "count",
         static_cast<double>(tr.replication.records_applied));
  r->Put("replication.reconnects", "count",
         static_cast<double>(tr.replication.reconnects));
  r->Put("replication.snapshots_installed", "count",
         static_cast<double>(tr.replication.snapshots_installed));
  r->Put("replication.lag_records_max", "records",
         tr.st.lag_records.empty()
             ? 0
             : *std::max_element(tr.st.lag_records.begin(),
                                 tr.st.lag_records.end()));
  r->Put("replication.catchup_s", "s", tr.catchup_s);
  // sharding
  r->Pcts("sharding.route_overhead", "us", us("sharding.route_overhead"),
          {50, 99});
  r->Pcts("sharding.scatter_overhead", "us", tr.probe.overhead_us, {50, 99});
  r->Put("sharding.shard_skew_p50", "ratio", Pct(tr.probe.skew, 50),
         static_cast<int64_t>(tr.probe.skew.size()));
  r->Put("sharding.shard_errors", "count",
         static_cast<double>(tr.router.shard_errors));
  r->Put("sharding.refused", "count",
         static_cast<double>(tr.router.refused_queries));
  r->Put("sharding.start_ms", "ms", tr.start_ms);
  // loadgen: validity of the untraced run, and the cost of tracing
  r->Put("loadgen.send_lag_ms_p99", "ms", Pct(base.st.send_lag, 99),
         static_cast<int64_t>(base.st.send_lag.size()));
  r->Put("loadgen.capacity_p99_ms", "ms", Pct(base.st.cap_lat, 99),
         static_cast<int64_t>(base.st.cap_lat.size()));
  r->Put("loadgen.trace_overhead_frac", "ratio",
         Ratio(Median(tr.st.lat[kPoint]), Median(base.st.lat[kPoint])) - 1);
  r->Put("loadgen.trace_coverage", "ratio", Ratio(t.attributed_us, t.rtt_us));
  for (Kind k : {kPoint, kWide, kProof, kWrite, kRyw}) {
    r->Put(std::string("loadgen.samples.") + kKindNames[k], "count",
           static_cast<double>(base.st.lat[k].size()));
  }
  ClientFigures(base, r);
}

/// Refuses the untraced run of --trace 1 when its generator fell
/// behind, its fixed-rate phase missed the latency limit, or its tail
/// percentiles lack samples.
bool Valid(const Options& opt, const Spec& spec, const Measured& m) {
  if (opt.smoke) return true;
  bool ok = true;
  auto refuse = [&](const std::string& why) {
    std::fprintf(stderr, "perfbench: run refused: %s\n", why.c_str());
    ok = false;
  };
  const double lag = Pct(m.st.send_lag, 99);
  if (lag > kMaxSendLagP99Ms) {
    refuse("generator send lag p99 " + std::to_string(lag) + " ms exceeds " +
           std::to_string(kMaxSendLagP99Ms) + " ms");
  }
  const double p99 = PctCountingLate(m.st, kPoint, 99);
  if (p99 > spec.p99_limit_ms) {
    refuse("point p99 " + std::to_string(p99) + " ms misses the limit of " +
           std::to_string(spec.p99_limit_ms) + " ms");
  }
  auto need = [&](Kind k, size_t n) {
    if (spec.shares.count(kKindNames[k]) > 0 && m.st.lat[k].size() < n) {
      refuse(std::string(kKindNames[k]) + " has " +
             std::to_string(m.st.lat[k].size()) + " samples, needs " +
             std::to_string(n));
    }
  };
  // Ten samples beyond every percentile: p99 of points, p90 of the rest.
  need(kPoint, 1000);
  need(kWide, 100);
  if (spec.shares.count("ryw") > 0) {  // write and lag p90s
    need(kWrite, 100);
    need(kRyw, 100);
  }
  return ok;
}

void PrintInfo(const Options& opt, const Spec& spec, const Sigma& sigma,
               unsigned nproc, const Measured& m) {
  Json info = Json::Object();
  info.Set("workload", Json::Str(spec.name));
  info.Set("seed", Json::Int(static_cast<int64_t>(opt.seed)));
  info.Set("source_id", Json::Str(opt.source_id));
  info.Set("trace", Json::Bool(opt.trace));
  info.Set("smoke", Json::Bool(opt.smoke));
  info.Set("nproc", Json::Int(nproc));
  info.Set("generator_threads", Json::Int(static_cast<int64_t>(kConnections)));
  info.Set("connections", Json::Int(static_cast<int64_t>(kConnections)));
  info.Set("sigma_entities", Json::Int(static_cast<int64_t>(sigma.entities)));
  info.Set("sigma_facts", Json::Int(static_cast<int64_t>(sigma.facts)));
  Json shares = Json::Object();
  for (const auto& [kind, share] : spec.shares) {
    shares.Set(kind, Json::Double(share));
  }
  info.Set("shares", std::move(shares));
  info.Set("offered_rate", Json::Double(spec.offered_rate));
  info.Set("depth", Json::Int(static_cast<int64_t>(spec.depth)));
  info.Set("p99_limit_ms", Json::Double(spec.p99_limit_ms));
  info.Set("fixed_s", Json::Double(m.fixed_s));
  info.Set("capacity_s", Json::Double(m.capacity_s));
  info.Set("ramp_s", Json::Double(opt.smoke ? kSmokeRampS : kRampS));
  info.Set("attempted", Json::Int(static_cast<int64_t>(m.st.attempted)));
  info.Set("failed", Json::Int(static_cast<int64_t>(m.st.failed)));
  info.Set("refused", Json::Int(static_cast<int64_t>(m.st.refused)));
  info.Set("timed_out", Json::Int(static_cast<int64_t>(m.st.timed_out)));
  info.Set("broken_connections", Json::Int(static_cast<int64_t>(m.st.broken)));
  info.Set("trace_stalled",
           Json::Int(static_cast<int64_t>(m.st.trace.stalled)));
  info.Set("wrong", Json::Int(static_cast<int64_t>(
                        m.st.wrong + m.durability.mismatches +
                        m.reference_mismatches)));
  std::printf("# perfbench %s\n", info.Serialize().c_str());
  for (const std::string& e : m.st.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  for (const std::string& e : m.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
}

/// The untraced run: kProcesses child processes one after another, each
/// a fresh set-up measured for seconds / kProcesses. Every metric is the
/// median over the processes, except capacity, the best process's, so
/// one process whose threads landed badly on the CPUs does not set the
/// run's figure. Must be called while this process runs no other thread
/// (fork copies only the caller).
constexpr int kProcesses = 5;
/// Set-ups timed in processes of their own before each measuring
/// process: setup_s is the median over these and the measuring
/// processes' own. Spreading them over the run, instead of timing them
/// all at its start, keeps one stretch of slow machine time (set-up
/// speed comes and goes for seconds at a time) from setting the figure.
constexpr int kSetupsPerProcess = 3;

/// Runs `body` in a child process and returns what it wrote to its pipe,
/// or the child's non-zero exit code. Must be called while this process
/// runs no other thread (fork copies only the caller).
Result<std::string> InChild(const std::function<int(std::string*)>& body,
                            int* exit_code) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    const int code = body(&out);
    for (size_t off = 0; off < out.size();) {
      const ssize_t w = ::write(fds[1], out.data() + off, out.size() - off);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  return text;
}

int RunEndToEnd(const Options& opt, const Spec& spec, const Sigma& sigma,
                unsigned nproc) {
  std::vector<std::vector<Metric>> runs;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> setups, lags, p99s;
  for (int i = 0; i < kProcesses; ++i) {
    for (int j = 0; j < kSetupsPerProcess; ++j) {
      int code = 0;
      Result<std::string> text = InChild(
          [&](std::string* out) {
            Stats warm;
            Result<std::unique_ptr<System>> built =
                Setup(spec, sigma, opt.seed, opt.data_dir, false, &warm);
            if (!built.ok() || warm.Failures() > 0) return 1;
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", (*built)->setup_s);
            *out = value;
            return 0;
          },
          &code);
      if (!text.ok() || code != 0) {
        std::fprintf(stderr, "perfbench: a set-up failed\n");
        return code != 0 ? code : 1;
      }
      setups.push_back(std::stod(*text));
    }
    int code = 0;
    Result<std::string> text = InChild(
        [&](std::string* out) {
          Options one = opt;
          one.seconds = opt.seconds / kProcesses;
          Result<Measured> m =
              Measure(one, spec, sigma, false, kEndToEndCapacityShare);
          if (!m.ok()) {
            std::fprintf(stderr, "perfbench: %s\n",
                         m.status().ToString().c_str());
            return 1;
          }
          PrintInfo(one, spec, sigma, nproc, *m);
          Report report;
          EndToEnd(*m, &report);
          // The header line: correctness, then the validity figures,
          // judged on their median over the processes so that one
          // process's few samples cannot refuse the run.
          char head[256];
          std::snprintf(head, sizeof(head), "%d %llu %llu %.17g %.17g\n",
                        m->Correct() ? 1 : 0,
                        static_cast<unsigned long long>(m->st.attempted),
                        static_cast<unsigned long long>(m->Failures()),
                        Pct(m->st.send_lag, 99),
                        PctCountingLate(m->st, kPoint, 99));
          *out = head;
          for (const Metric& x : report.metrics()) {
            char line[256];
            std::snprintf(line, sizeof(line), "%s %s %.17g %lld\n",
                          x.name.c_str(), x.unit.c_str(), x.value,
                          static_cast<long long>(x.samples));
            *out += line;
          }
          return 0;
        },
        &code);
    if (!text.ok()) return 1;
    if (code != 0) return code;
    std::istringstream in(*text);
    std::string head;
    std::getline(in, head);
    std::istringstream fields(head);
    int child_correct = 0;
    uint64_t child_attempted = 0, child_failed = 0;
    std::string lag, p99;  // may read "inf", which >> double rejects
    fields >> child_correct >> child_attempted >> child_failed >> lag >> p99;
    correct = correct && child_correct != 0;
    attempted += child_attempted;
    failed += child_failed;
    lags.push_back(std::strtod(lag.c_str(), nullptr));
    p99s.push_back(std::strtod(p99.c_str(), nullptr));
    std::vector<Metric> metrics;
    Metric x;
    long long samples = 0;
    while (in >> x.name >> x.unit >> x.value >> samples) {
      x.samples = samples;
      metrics.push_back(x);
    }
    runs.push_back(std::move(metrics));
  }
  Report report;
  for (size_t j = 0; j < runs[0].size(); ++j) {
    std::vector<double> values;
    int64_t samples = 0;
    for (const std::vector<Metric>& run : runs) {
      values.push_back(run[j].value);
      samples += std::max<int64_t>(0, run[j].samples);
    }
    if (runs[0][j].name == "setup_s") {
      values.insert(values.end(), setups.begin(), setups.end());
    }
    // Capacity is the best process's: on a shared VM a process whose
    // threads land on contended CPUs runs up to 3x slower, the median
    // over five spread by more than any bound allows, and interference
    // never makes one faster.
    const double value = runs[0][j].name == "capacity_ops_s"
                             ? *std::max_element(values.begin(), values.end())
                             : Median(values);
    report.Put(runs[0][j].name, runs[0][j].unit, value,
               runs[0][j].samples < 0 ? static_cast<int64_t>(values.size())
                                      : samples);
  }
  report.PrintTable();
  const double lag = Median(lags);
  const double p99 = Median(p99s);
  if (!opt.smoke && lag > kMaxSendLagP99Ms) {
    std::fprintf(stderr,
                 "perfbench: run refused: generator send lag p99 %.3f ms "
                 "exceeds %.3f ms\n",
                 lag, kMaxSendLagP99Ms);
    return 3;
  }
  if (!opt.smoke && p99 > spec.p99_limit_ms) {
    std::fprintf(stderr,
                 "perfbench: run refused: point p99 %.3f ms misses the limit "
                 "of %.3f ms\n",
                 p99, spec.p99_limit_ms);
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              report.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--config") {
      opt.config = next();
    } else if (arg == "--data-dir") {
      opt.data_dir = next();
    } else if (arg == "--source-id") {
      opt.source_id = next();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  Result<Json> config = ReadJsonFile(opt.config);
  if (!config.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", config.status().ToString().c_str());
    return 2;
  }
  Result<Spec> spec = LoadSpec(*config, opt.workload);
  if (!spec.ok() || opt.seconds <= 0) {
    std::fprintf(stderr, "perfbench: %s\n",
                 spec.ok() ? "--seconds must be positive"
                           : spec.status().ToString().c_str());
    return 2;
  }
  if (opt.smoke) spec->entities = std::max<size_t>(40, spec->entities / 8);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (kConnections > nproc) {
    std::fprintf(stderr,
                 "perfbench: needs %zu generator threads but nproc is %u\n",
                 kConnections, nproc);
    return 2;
  }
  const Sigma sigma = BuildSigma(opt.seed, spec->entities);

  if (!opt.trace) return RunEndToEnd(opt, *spec, sigma, nproc);

  Result<Measured> base =
      Measure(opt, *spec, sigma, false, kClientCapacityShare);
  if (!base.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", base.status().ToString().c_str());
    return 1;
  }
  PrintInfo(opt, *spec, sigma, nproc, *base);

  Report report;
  bool correct = base->Correct();
  uint64_t attempted = base->st.attempted;
  uint64_t failed = base->Failures();
  {
    if (!Valid(opt, *spec, *base)) return 3;
    trace::ResetAggregates();
    trace::SetEnabled(true);
    Result<Measured> traced = Measure(opt, *spec, sigma, true, 0);
    trace::SetEnabled(false);
    if (!traced.ok()) {
      std::fprintf(stderr, "perfbench: traced run: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    PrintInfo(opt, *spec, sigma, nproc, *traced);
    PerLayer(*base, *traced, &report);
    report.PrintTable();
    correct = correct && traced->Correct();
    attempted += traced->st.attempted;
    failed += traced->Failures();
    const double coverage = Ratio(traced->st.trace.attributed_us,
                                  traced->st.trace.rtt_us);
    if (coverage < 0.9 && !opt.smoke) {
      std::fprintf(stderr,
                   "perfbench: traced run refused: stages cover %.3f of "
                   "client time, below 0.9\n",
                   coverage);
      return 4;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              report.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
