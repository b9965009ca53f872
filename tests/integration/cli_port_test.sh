#!/usr/bin/env bash
# Bad --port values, and bad values of the other numeric flags of the
# daemon and the client, must fail fast with a diagnostic. Before the
# ParsePort helper, "70000" silently truncated through a uint16_t cast
# to 4464 and the daemon served on the wrong port.
#
# Usage: cli_port_test.sh <build-dir>
set -u
bin="$1"
fail=0

check() {
  local desc="$1"
  shift
  local out
  if out=$("$@" 2>&1); then
    echo "FAIL($desc): expected a non-zero exit, got: $out"
    fail=1
  elif ! grep -q "invalid port" <<<"$out"; then
    echo "FAIL($desc): missing 'invalid port' diagnostic, got: $out"
    fail=1
  fi
}

check "daemon overflow" "$bin/src/server/multilogd" --sample --port 70000
check "daemon junk" "$bin/src/server/multilogd" --sample --port 80x
check "client overflow" "$bin/src/server/multilog_client" --port 70000 ping
check "client junk" "$bin/src/server/multilog_client" --port abc ping
# Port 0 means "OS-assigned" for the daemon (the demo scripts use it),
# but a client has nothing to dial at 0.
check "client zero" "$bin/src/server/multilog_client" --port 0 ping

# A good port must still parse: the client should get past argument
# parsing and fail at connect time (nothing listens on this port), with
# no port diagnostic.
out=$("$bin/src/server/multilog_client" --port 65535 ping 2>&1)
if [ $? -eq 0 ] || grep -q "invalid port" <<<"$out"; then
  echo "FAIL(valid port): $out"
  fail=1
fi

# The daemon's numeric flags go through the same digits-only parser.
# Under atol, junk read as 0, and "--workers 0" started a daemon that
# answered HELLO but never a query. Each bad value must now be a usage
# error naming the flag; `timeout` turns a daemon that starts anyway
# into a failure instead of a hang.
check_flag() {
  local flag="$1" value="$2"
  local out rc
  out=$(timeout 5 "$bin/src/server/multilogd" --sample --port 0 \
          "$flag" "$value" 2>&1)
  rc=$?
  if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ] ||
     ! grep -q -- "invalid $flag '$value'" <<<"$out"; then
    echo "FAIL($flag $value): exit $rc, got: $out"
    fail=1
  fi
}
for flag in --workers --max-conns --max-inflight --max-request-bytes; do
  for value in 0 abc 8x -1 99999999999; do
    check_flag "$flag" "$value"
  done
done
# --deadline-ms 0 means "no default deadline"; past one day
# (86400000 ms) is refused, as the wire refuses such a deadline_ms.
# --slow-query-ms has the same ceiling; under atol "abc" read as 0 and
# logged every query as slow.
for flag in --deadline-ms --slow-query-ms; do
  for value in abc 8x -1 86400001; do
    check_flag "$flag" "$value"
  done
done

# The client's numeric flags are parsed before it dials anything, so a
# bad value is a usage error (exit 2) naming the flag. Under atol,
# "--deadline-ms abc" sent deadline_ms 0 and failed with
# DeadlineExceeded.
check_client_flag() {
  local flag="$1" value="$2"
  local out rc
  out=$(timeout 5 "$bin/src/server/multilog_client" --port 65535 --level u \
          "$flag" "$value" query '?- level(u).' 2>&1)
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "invalid $flag '$value'" <<<"$out"; then
    echo "FAIL(client $flag $value): exit $rc, got: $out"
    fail=1
  fi
}
for flag in --deadline-ms --retry-backoff-ms --wait-ms; do
  for value in abc 8x -1 86400001; do
    check_client_flag "$flag" "$value"
  done
done
for value in abc 0 -1 2147483648; do
  check_client_flag --connect-retries "$value"
done
for value in abc -1 9223372036854775808; do
  check_client_flag --min-seqno "$value"
done

# Good client values must still parse: the client gets past argument
# parsing and fails at connect time (exit 1), with no diagnostic.
out=$("$bin/src/server/multilog_client" --port 65535 --level u \
        --deadline-ms 86400000 --connect-retries 1 --retry-backoff-ms 0 \
        --min-seqno 9223372036854775807 --wait-ms 0 query '?- level(u).' 2>&1)
rc=$?
if [ "$rc" -ne 1 ] || grep -q "invalid" <<<"$out"; then
  echo "FAIL(valid client flags): exit $rc, got: $out"
  fail=1
fi

# Good values must still parse: the daemon starts and is still serving
# when `timeout` stops it.
out=$(timeout 2 "$bin/src/server/multilogd" --sample --port 0 --workers 2 \
        --max-conns 8 --max-inflight 8 --max-request-bytes 4096 \
        --deadline-ms 86400000 --slow-query-ms 86400000 2>&1)
rc=$?
if [ "$rc" -ne 124 ] || grep -q "invalid" <<<"$out"; then
  echo "FAIL(valid flags): exit $rc, got: $out"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "cli port validation: ok"
fi
exit $fail
