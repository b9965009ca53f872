// multilog_client: one-shot command-line client for multilogd.
//
//   $ multilog_client --port 7690 --level s query '?- s[intel(K : source -C-> V)] << cau.'
//   $ multilog_client --port 7690 --level c sql 'select * from mission'
//   $ multilog_client --port 7690 --level s assert 's[intel(k7 : source -s-> k7, grade -s-> a)].'
//   $ multilog_client --port 7690 --level s retract 's[intel(k7 : source -s-> k7, grade -s-> a)].'
//   $ multilog_client --port 7690 --level s checkpoint
//   $ multilog_client --port 7690 --level s --file writes.mlog
//   $ multilog_client --port 7690 --level s --trace query '?- s[intel(K : source -C-> V)] << cau.'
//   $ multilog_client --port 7690 stats
//   $ multilog_client --port 7690 metrics
//
// Prints the server's JSON response; for `query`, the answers are also
// listed one per line (handy in shell pipelines and the demo script),
// and `--trace` attaches the server's per-stage span tree to the
// response. `metrics` prints the raw Prometheus text exposition.
//
// `--connect-retries N` retries a refused connection with exponential
// backoff (`--retry-backoff-ms` seeds the delay) - spawn-then-connect
// scripts use it instead of sleeping. `--min-seqno N [--wait-ms M]`
// makes a query wait until the server has applied sequence number N
// (read-your-writes against a replica).
//
// `--connect HOST:PORT[,HOST:PORT...]` replaces `--port` with a
// failover list: each round tries every endpoint in order before
// backing off, and `--connect-retries` counts rounds - so a client can
// name a primary and its replica (or several routers) and keep working
// while one of them is down:
//
//   $ multilog_client --connect 7690,127.0.0.1:7691 --level s \
//       --connect-retries 5 query '?- s[intel(K : source -C-> V)] << cau.'
//
// `shardmap` asks a router for its versioned shard map.
//
// `--file` runs a batch over one connection: each non-empty line of the
// file is `assert <fact>`, `retract <fact>`, `checkpoint`, or
// `query <goal>` ('%' and '#' start comments). The batch stops at the
// first failing line - reported as `file:lineno: error` - and exits
// non-zero, so a script can stage writes and trust that either all of
// them landed or the exit code says where it stopped. `--keep-going`
// instead runs every line and reports each failure.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"

namespace {

using namespace multilog;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--port N | --connect HOST:PORT[,HOST:PORT...])\n"
      "          [--level L] [--mode M] [--deadline-ms N] "
      "[--proofs] [--trace]\n          [--connect-retries N] "
      "[--retry-backoff-ms N] [--min-seqno N] [--wait-ms N]\n          "
      "(query GOAL | sql STMT | assert FACT "
      "| retract FACT | checkpoint | stats | metrics | ping | shardmap)\n"
      "       %s --port N --level L --file BATCH [--keep-going]\n",
      argv0, argv0);
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return status.IsDeadlineExceeded() ? 3 : 1;
}

/// Runs a batch file over the open (hello'd) connection. Returns the
/// process exit code.
int RunBatchFile(server::Client& client, const std::string& path,
                 bool keep_going) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open batch file '%s'\n", path.c_str());
    return 2;
  }
  const server::BatchResult result =
      server::RunBatch(client, in, keep_going, &std::cout);
  for (const server::BatchFailure& failure : result.failures) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), failure.lineno,
                 failure.status.ToString().c_str());
  }
  if (!result.failures.empty()) {
    std::fprintf(stderr, "batch failed: %zu applied, %zu failed\n",
                 result.applied, result.failures.size());
    return 1;
  }
  std::printf(
      "batch ok: %zu operation(s) applied (%zu write(s): %zu level(s) "
      "delta-maintained, %zu invalidated) in %.1f ms\n",
      result.applied, result.writes, result.levels_maintained,
      result.levels_invalidated, result.wall_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7690;
  std::vector<server::Endpoint> endpoints;
  std::string level;
  std::string mode;
  std::string batch_file;
  int64_t deadline_ms = -1;
  bool proofs = false;
  bool trace = false;
  bool keep_going = false;
  int connect_retries = 1;
  int64_t retry_backoff_ms = 100;
  int64_t min_seqno = 0;
  int64_t wait_ms = 0;
  std::string command;
  std::string operand;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: digits only, within [min, max]. Junk or an
    // out-of-range value is refused rather than read as 0 by atol.
    auto number = [&](uint64_t min, uint64_t max, auto* out) -> bool {
      const char* v = next();
      if (v == nullptr) return false;
      Result<uint64_t> n = server::ParseUnsigned(v, min, max, arg);
      if (!n.ok()) {
        std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return true;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      Result<uint16_t> parsed = server::ParsePort(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      port = *parsed;
    } else if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      Result<std::vector<server::Endpoint>> parsed =
          server::ParseEndpointList(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--connect: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      endpoints = *std::move(parsed);
    } else if (arg == "--level") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      level = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mode = v;
    } else if (arg == "--file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      batch_file = v;
    } else if (arg == "--deadline-ms") {
      if (!number(0, server::kMaxRequestMs, &deadline_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--connect-retries") {
      if (!number(1, std::numeric_limits<int32_t>::max(), &connect_retries)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--retry-backoff-ms") {
      if (!number(0, server::kMaxRequestMs, &retry_backoff_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--min-seqno") {
      if (!number(0, std::numeric_limits<int64_t>::max(), &min_seqno)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--wait-ms") {
      if (!number(0, server::kMaxRequestMs, &wait_ms)) return Usage(argv[0]);
    } else if (arg == "--proofs") {
      proofs = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--keep-going") {
      keep_going = true;
    } else if (command.empty()) {
      command = arg;
    } else if (operand.empty()) {
      operand = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (command.empty() == batch_file.empty()) return Usage(argv[0]);
  const bool needs_operand = command == "query" || command == "sql" ||
                             command == "assert" || command == "retract";
  if (needs_operand && operand.empty()) return Usage(argv[0]);
  const bool needs_level =
      needs_operand || command == "checkpoint" || !batch_file.empty();

  // --connect-retries waits out a daemon that is still binding (demo
  // and test scripts spawn multilogd and connect immediately); with a
  // --connect list each retry round walks the whole list (failover).
  if (endpoints.empty()) endpoints.push_back({"127.0.0.1", port});
  Result<server::Client> client = server::Client::ConnectAnyWithRetry(
      endpoints, connect_retries, retry_backoff_ms);
  if (!client.ok()) return Fail(client.status());

  if (!level.empty() || needs_level) {
    if (level.empty()) {
      std::fprintf(stderr, "error: %s requires --level\n",
                   batch_file.empty() ? command.c_str() : "--file");
      return 2;
    }
    Result<server::Json> hello = client->Hello(level, mode);
    if (!hello.ok()) return Fail(hello.status());
  }

  if (!batch_file.empty()) {
    const int code = RunBatchFile(*client, batch_file, keep_going);
    client->Bye();
    return code;
  }

  if (command == "metrics") {
    Result<std::string> body = client->Metrics();
    if (!body.ok()) return Fail(body.status());
    std::fputs(body->c_str(), stdout);
    client->Bye();
    return 0;
  }

  Result<server::Json> response = Status::Internal("unreached");
  if (command == "query") {
    response = client->Query(operand, deadline_ms, /*mode=*/"", proofs, trace,
                             static_cast<uint64_t>(min_seqno), wait_ms);
  } else if (command == "sql") {
    response = client->Sql(operand);
  } else if (command == "assert") {
    response = client->Assert(operand);
  } else if (command == "retract") {
    response = client->Retract(operand);
  } else if (command == "checkpoint") {
    response = client->Checkpoint();
  } else if (command == "stats") {
    response = client->Stats();
  } else if (command == "ping") {
    response = client->Ping();
  } else if (command == "shardmap") {
    response = client->ShardMap();
  } else {
    return Usage(argv[0]);
  }
  if (!response.ok()) return Fail(response.status());

  std::printf("%s\n", response->Serialize().c_str());
  if (command == "query") {
    if (const server::Json* answers = response->Find("answers");
        answers != nullptr && answers->is_array()) {
      for (const server::Json& answer : answers->array_items()) {
        std::printf("  %s\n", answer.string_value().c_str());
      }
    }
  }
  client->Bye();
  return 0;
}
