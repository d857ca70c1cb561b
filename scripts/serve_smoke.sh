#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the gbcd daemon.
#
# Builds gbcd, starts it on an OS-assigned port, uploads a generated graph,
# runs a top-K query, asserts the JSON response shape, and checks the
# daemon drains cleanly on SIGTERM. Run via `make serve-smoke` (part of
# `make ci`).
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

TMP="$(mktemp -d)"
GBCD_PID=""
cleanup() {
    [ -n "$GBCD_PID" ] && kill "$GBCD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- gbcd output ---" >&2
    cat "$TMP/gbcd.log" >&2 || true
    exit 1
}

go build -o "$TMP/gbcd" ./cmd/gbcd

"$TMP/gbcd" -addr 127.0.0.1:0 -drain-grace 5s >"$TMP/gbcd.log" 2>&1 &
GBCD_PID=$!

# The daemon prints "gbcd: listening on http://127.0.0.1:PORT" once bound.
URL=""
for _ in $(seq 1 100); do
    URL="$(sed -n 's/^gbcd: listening on \(http:\/\/[^ ]*\)$/\1/p' "$TMP/gbcd.log")"
    [ -n "$URL" ] && break
    kill -0 "$GBCD_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
[ -n "$URL" ] || fail "daemon never reported its listen URL"

curl -fsS "$URL/healthz" >"$TMP/health.json" || fail "healthz unreachable"
grep -q '"status":"ok"' "$TMP/health.json" || fail "healthz not ok: $(cat "$TMP/health.json")"

# Readiness is a separate gate: poll /readyz until the daemon reports ready
# (200), the signal a load balancer would route on.
READY=0
for _ in $(seq 1 50); do
    if curl -fsS "$URL/readyz" >"$TMP/ready.json" 2>/dev/null; then READY=1; break; fi
    sleep 0.1
done
[ "$READY" = 1 ] || fail "daemon never became ready: $(cat "$TMP/ready.json" 2>/dev/null)"
grep -q '"status":"ready"' "$TMP/ready.json" || fail "readyz not ready: $(cat "$TMP/ready.json")"

curl -fsS -X POST "$URL/v1/graphs" \
    -d '{"name":"smoke","generator":"ba","n":2000,"degree":4,"seed":1}' \
    >"$TMP/graph.json" || fail "graph upload failed"
grep -q '"name":"smoke"' "$TMP/graph.json" || fail "graph response malformed: $(cat "$TMP/graph.json")"
grep -q '"nodes":2000' "$TMP/graph.json" || fail "graph size wrong: $(cat "$TMP/graph.json")"

curl -fsS -X POST "$URL/v1/topk" \
    -d '{"graph":"smoke","k":10,"epsilon":0.2,"seed":1}' \
    >"$TMP/topk.json" || fail "topk query failed"
for key in '"graph":"smoke"' '"algorithm":"AdaAlg"' '"k":10' '"group":\[' \
    '"estimate":' '"samples":' '"stopReason":' '"converged":' '"partial":'; do
    grep -q "$key" "$TMP/topk.json" || fail "topk response missing $key: $(cat "$TMP/topk.json")"
done

# A plain repeat of a converged query is answered from its family's memo.
curl -fsS -X POST "$URL/v1/topk" \
    -d '{"graph":"smoke","k":10,"epsilon":0.2,"seed":1}' \
    >"$TMP/repeat.json" || fail "repeated topk query failed"
grep -q '"servedFrom":"cache"' "$TMP/repeat.json" \
    || fail "repeated query was not served from the memo: $(cat "$TMP/repeat.json")"

# An exact-freshness repeat solves again on the family's stored samples.
curl -fsS -X POST "$URL/v1/topk" \
    -d '{"graph":"smoke","k":10,"epsilon":0.2,"seed":1,"freshness":"exact"}' \
    >"$TMP/exact.json" || fail "exact repeat topk query failed"
grep -q '"servedFrom":"solve"' "$TMP/exact.json" \
    || fail "exact repeat did not solve: $(cat "$TMP/exact.json")"
curl -fsS "$URL/v1/stats" >"$TMP/stats.json" || fail "stats unreachable"
grep -q '"registryHits":[1-9]' "$TMP/stats.json" \
    || fail "exact repeat did not reuse the family's sample sets: $(cat "$TMP/stats.json")"
grep -q '"requestsCompleted":[1-9]' "$TMP/stats.json" \
    || fail "overload accounting did not count the completed runs: $(cat "$TMP/stats.json")"

kill -TERM "$GBCD_PID"
DRAINED=0
for _ in $(seq 1 100); do
    if ! kill -0 "$GBCD_PID" 2>/dev/null; then DRAINED=1; break; fi
    sleep 0.1
done
[ "$DRAINED" = 1 ] || fail "daemon did not exit after SIGTERM"
wait "$GBCD_PID" 2>/dev/null || fail "daemon exited non-zero after SIGTERM"
grep -q "drained, exiting" "$TMP/gbcd.log" || fail "daemon did not report a clean drain"
GBCD_PID=""

echo "serve-smoke: PASS ($URL)"
