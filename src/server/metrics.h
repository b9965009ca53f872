#ifndef MULTILOG_SERVER_METRICS_H_
#define MULTILOG_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/json.h"

namespace multilog::server {

/// A lock-free latency histogram: powers-of-two microsecond buckets
/// (bucket i covers [2^i, 2^(i+1)) µs, bucket 0 covers [0, 2) µs).
/// Percentiles are read as the upper bound of the bucket containing the
/// requested rank - at most 2x off, which is the right trade for a hot
/// path that must never lock. Record and Snapshot may race freely; a
/// concurrent snapshot sees some recent recordings and misses others,
/// never torn values.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // 2^40 us ~ 12.7 days: plenty

  void Record(uint64_t micros);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t total_micros = 0;
    uint64_t max_micros = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Upper bound (µs) of the bucket holding the p-th percentile
    /// recording, p in [0, 100]. 0 when nothing was recorded.
    uint64_t PercentileMicros(double p) const;
    double MeanMicros() const {
      return count == 0 ? 0.0
                        : static_cast<double>(total_micros) /
                              static_cast<double>(count);
    }
  };
  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

/// The server's observability surface: monotonic counters plus the
/// query latency histogram, all updated with relaxed atomics on the
/// request path and exported as one JSON object by the STATS command.
///
/// Per-(level, mode) query counters are preallocated from the
/// database's lattice at construction, so recording is an array index -
/// no lock, no allocation - and unknown levels (which never get past
/// HELLO validation) are simply not counted.
class ServerMetrics {
 public:
  /// `levels` comes from the engine's lattice (TopologicalOrder, so the
  /// STATS output lists lower levels first).
  explicit ServerMetrics(const std::vector<std::string>& levels);

  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  // -- connection lifecycle --
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};  // admission control
  std::atomic<uint64_t> connections_open{0};      // gauge
  /// Sessions whose state the event loop has freed (on close or on
  /// hand-off to a replication stream). Open sessions ==
  /// accepted - reaped: under connection churn this counter must keep
  /// pace with accepted, or the server is leaking session state - the
  /// exact bug the churn regression test pins.
  std::atomic<uint64_t> sessions_reaped{0};

  // -- request accounting --
  std::atomic<uint64_t> requests_total{0};     // well-framed requests
  std::atomic<uint64_t> rejected_oversized{0};  // frame larger than limit
  std::atomic<uint64_t> rejected_malformed{0};  // bad framing/JSON/schema
  std::atomic<uint64_t> rejected_overloaded{0};  // in-flight cap hit

  // -- query outcomes --
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> query_errors{0};        // engine-reported errors
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> rows_returned{0};

  // -- write outcomes (assert / retract / checkpoint) --
  std::atomic<uint64_t> writes_ok{0};
  std::atomic<uint64_t> write_errors{0};  // rejected or failed mutations

  /// Response frames the loop failed to deliver (send() error on a
  /// session's socket). Each failure also closes the session: a peer
  /// that cannot take responses must not keep submitting work.
  std::atomic<uint64_t> response_write_errors{0};

  /// Records one completed engine query. `mode_index` is the ExecMode's
  /// integer value (operational/reduced/check-both).
  void RecordQuery(const std::string& level, size_t mode_index,
                   uint64_t micros);

  LatencyHistogram& latency() { return latency_; }

  /// The whole surface as JSON; see DESIGN.md §11 for the schema.
  Json ToJson() const;

  /// The whole surface in Prometheus text exposition format 0.0.4
  /// (counters, the connections_open gauge, per-(level, mode) query
  /// counters as labels, and the latency histogram with cumulative
  /// `le` buckets in seconds). The server appends engine, storage, and
  /// trace-stage families before serving it; see DESIGN.md §13.
  std::string PrometheusText() const;

  /// The serving loop's own families - connections and requests, the
  /// start of PrometheusText(). The router serves these with its
  /// routing families.
  std::string LoopPrometheusText() const;

 private:
  static constexpr size_t kModes = 3;
  struct LevelCounters {
    std::array<std::atomic<uint64_t>, kModes> by_mode{};
  };

  std::vector<std::string> level_names_;
  /// Parallel to level_names_; stable storage, sized at construction.
  std::vector<LevelCounters> by_level_;
  std::map<std::string, size_t> level_index_;
  LatencyHistogram latency_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_METRICS_H_
