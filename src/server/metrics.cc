#include "server/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace multilog::server {

namespace {

/// Index of the histogram bucket covering `micros`: floor(log2) capped.
size_t BucketOf(uint64_t micros) {
  size_t b = 0;
  while (micros > 1 && b + 1 < LatencyHistogram::kBuckets) {
    micros >>= 1;
    ++b;
  }
  return b;
}

const char* kModeNames[] = {"operational", "reduced", "check_both"};

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.total_micros = total_micros_.load(std::memory_order_relaxed);
  s.max_micros = max_micros_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

uint64_t LatencyHistogram::Snapshot::PercentileMicros(double p) const {
  if (count == 0) return 0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Rank of the requested recording, 1-based, ceiling - p100 is the max
  // recording's bucket, p0 the min's. The old truncating rank both
  // floored p100 into the wrong bucket and let rounding push the rank
  // past the last recording; ceil + the two clamps pin every edge.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;      // p = 0 still addresses the first recording
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen < rank) continue;
    // The last bucket is open-ended ([2^39, inf): BucketOf caps there),
    // so its only honest upper bound is the observed maximum; for the
    // others, never report a bound above it either (a lone 5 us
    // recording reads as 5 us, not its bucket's 8 us ceiling).
    if (i + 1 >= buckets.size()) return max_micros;
    return std::min(uint64_t{1} << (i + 1), max_micros);
  }
  // Racing Record calls can leave a snapshot whose count is ahead of
  // its bucket sums; fall back to the maximum rather than overrun.
  return max_micros;
}

ServerMetrics::ServerMetrics(const std::vector<std::string>& levels)
    : level_names_(levels), by_level_(levels.size()) {
  for (size_t i = 0; i < level_names_.size(); ++i) {
    level_index_[level_names_[i]] = i;
  }
}

void ServerMetrics::RecordQuery(const std::string& level, size_t mode_index,
                                uint64_t micros) {
  auto it = level_index_.find(level);
  if (it != level_index_.end() && mode_index < kModes) {
    by_level_[it->second].by_mode[mode_index].fetch_add(
        1, std::memory_order_relaxed);
  }
  latency_.Record(micros);
}

Json ServerMetrics::ToJson() const {
  Json root = Json::Object();
  root.Set("uptime_ms",
           Json::Int(std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count()));

  Json conns = Json::Object();
  conns.Set("accepted", Json::Int(static_cast<int64_t>(
                            connections_accepted.load())));
  conns.Set("rejected", Json::Int(static_cast<int64_t>(
                            connections_rejected.load())));
  conns.Set("open", Json::Int(static_cast<int64_t>(
                        connections_open.load())));
  conns.Set("reaped", Json::Int(static_cast<int64_t>(
                          sessions_reaped.load())));
  root.Set("connections", std::move(conns));

  Json reqs = Json::Object();
  reqs.Set("total", Json::Int(static_cast<int64_t>(requests_total.load())));
  reqs.Set("oversized",
           Json::Int(static_cast<int64_t>(rejected_oversized.load())));
  reqs.Set("malformed",
           Json::Int(static_cast<int64_t>(rejected_malformed.load())));
  reqs.Set("overloaded",
           Json::Int(static_cast<int64_t>(rejected_overloaded.load())));
  reqs.Set("response_write_errors",
           Json::Int(static_cast<int64_t>(response_write_errors.load())));
  root.Set("requests", std::move(reqs));

  Json queries = Json::Object();
  queries.Set("ok", Json::Int(static_cast<int64_t>(queries_ok.load())));
  queries.Set("errors", Json::Int(static_cast<int64_t>(query_errors.load())));
  queries.Set("deadline_exceeded",
              Json::Int(static_cast<int64_t>(deadline_exceeded.load())));
  queries.Set("rows_returned",
              Json::Int(static_cast<int64_t>(rows_returned.load())));

  Json by_level = Json::Object();
  for (size_t i = 0; i < level_names_.size(); ++i) {
    Json per_mode = Json::Object();
    for (size_t m = 0; m < kModes; ++m) {
      per_mode.Set(kModeNames[m],
                   Json::Int(static_cast<int64_t>(
                       by_level_[i].by_mode[m].load())));
    }
    by_level.Set(level_names_[i], std::move(per_mode));
  }
  queries.Set("by_level", std::move(by_level));

  const LatencyHistogram::Snapshot snap = latency_.Snap();
  Json lat = Json::Object();
  lat.Set("count", Json::Int(static_cast<int64_t>(snap.count)));
  lat.Set("mean_ms", Json::Double(snap.MeanMicros() / 1000.0));
  lat.Set("p50_ms",
          Json::Double(static_cast<double>(snap.PercentileMicros(50)) /
                       1000.0));
  lat.Set("p95_ms",
          Json::Double(static_cast<double>(snap.PercentileMicros(95)) /
                       1000.0));
  lat.Set("p99_ms",
          Json::Double(static_cast<double>(snap.PercentileMicros(99)) /
                       1000.0));
  lat.Set("max_ms",
          Json::Double(static_cast<double>(snap.max_micros) / 1000.0));
  queries.Set("latency", std::move(lat));
  root.Set("queries", std::move(queries));

  Json writes = Json::Object();
  writes.Set("ok", Json::Int(static_cast<int64_t>(writes_ok.load())));
  writes.Set("errors", Json::Int(static_cast<int64_t>(write_errors.load())));
  root.Set("writes", std::move(writes));
  return root;
}

namespace {

/// Formats a double the way Prometheus expects (no exponent surprises;
/// enough digits to round-trip microsecond sums).
std::string PromDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Backslash, double quote, and newline must be escaped inside label
/// values (exposition format 0.0.4).
std::string PromLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void PromFamily(std::string* out, const char* name, const char* help,
                const char* type) {
  out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void PromCounter(std::string* out, const char* name, const char* help,
                 uint64_t value, const char* type = "counter") {
  PromFamily(out, name, help, type);
  out->append(name).append(" ").append(std::to_string(value)).append("\n");
}

}  // namespace

std::string ServerMetrics::LoopPrometheusText() const {
  std::string out;
  PromCounter(&out, "multilog_connections_accepted_total",
              "Connections accepted.", connections_accepted.load());
  PromCounter(&out, "multilog_connections_rejected_total",
              "Connections refused by admission control.",
              connections_rejected.load());
  PromCounter(&out, "multilog_connections_open",
              "Connections currently open.", connections_open.load(),
              "gauge");
  PromCounter(&out, "multilog_sessions_reaped_total",
              "Session states freed by the event loop.",
              sessions_reaped.load());
  PromCounter(&out, "multilog_requests_total",
              "Well-framed requests received.", requests_total.load());
  PromCounter(&out, "multilog_requests_rejected_oversized_total",
              "Frames over the request size limit.",
              rejected_oversized.load());
  PromCounter(&out, "multilog_requests_rejected_malformed_total",
              "Requests with broken framing, JSON, or schema.",
              rejected_malformed.load());
  PromCounter(&out, "multilog_requests_rejected_overloaded_total",
              "Requests refused at the in-flight cap.",
              rejected_overloaded.load());
  PromCounter(&out, "multilog_response_write_errors_total",
              "Response frames that failed to send (session closed).",
              response_write_errors.load());
  return out;
}

std::string ServerMetrics::PrometheusText() const {
  std::string out = LoopPrometheusText();
  PromCounter(&out, "multilog_queries_ok_total", "Queries answered.",
              queries_ok.load());
  PromCounter(&out, "multilog_query_errors_total",
              "Queries that returned an error.", query_errors.load());
  PromCounter(&out, "multilog_query_deadline_exceeded_total",
              "Queries cancelled by their deadline.",
              deadline_exceeded.load());
  PromCounter(&out, "multilog_query_rows_returned_total",
              "Answer rows returned.", rows_returned.load());
  PromCounter(&out, "multilog_writes_ok_total",
              "Mutations (assert/retract/checkpoint) committed.",
              writes_ok.load());
  PromCounter(&out, "multilog_write_errors_total",
              "Mutations rejected or failed.", write_errors.load());

  PromFamily(&out, "multilog_queries_by_level_total",
             "Queries answered, by session level and exec mode.", "counter");
  for (size_t i = 0; i < level_names_.size(); ++i) {
    for (size_t m = 0; m < kModes; ++m) {
      out.append("multilog_queries_by_level_total{level=\"")
          .append(PromLabelValue(level_names_[i]))
          .append("\",mode=\"")
          .append(kModeNames[m])
          .append("\"} ")
          .append(std::to_string(by_level_[i].by_mode[m].load()))
          .append("\n");
    }
  }

  // Histogram: cumulative le buckets in seconds. Bucket i of the
  // power-of-two µs histogram has upper bound 2^(i+1) µs.
  const LatencyHistogram::Snapshot snap = latency_.Snap();
  PromFamily(&out, "multilog_query_latency_seconds",
             "End-to-end engine query latency.", "histogram");
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    cumulative += snap.buckets[i];
    const double upper =
        static_cast<double>(uint64_t{1} << (i + 1)) / 1e6;
    out.append("multilog_query_latency_seconds_bucket{le=\"")
        .append(PromDouble(upper))
        .append("\"} ")
        .append(std::to_string(cumulative))
        .append("\n");
  }
  // A snapshot racing Record may see a bucket increment before the
  // count increment; +Inf must still be the largest bucket, and _count
  // must equal it.
  const uint64_t total = std::max(snap.count, cumulative);
  out.append("multilog_query_latency_seconds_bucket{le=\"+Inf\"} ")
      .append(std::to_string(total))
      .append("\n");
  out.append("multilog_query_latency_seconds_sum ")
      .append(PromDouble(static_cast<double>(snap.total_micros) / 1e6))
      .append("\n");
  out.append("multilog_query_latency_seconds_count ")
      .append(std::to_string(total))
      .append("\n");
  return out;
}

}  // namespace multilog::server
