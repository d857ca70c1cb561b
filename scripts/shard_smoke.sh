#!/bin/sh
# shard_smoke.sh — end-to-end smoke test of the sharded serving topology.
#
# Builds gengraph + gbc + gbcd, writes a dataset stand-in to .gbcsr, starts
# two shard workers (`gbcd -shard`) and one coordinator (`gbcd -shards ...`)
# over real TCP, registers the .gbcsr path, runs a deterministic top-K
# query, and diffs the result byte-for-byte against a single-node
# `cmd/gbc -json` solve of the same file: sharded growth must be invisible
# in the output. Also asserts that a worker refuses epoch keys escaping
# its -shard-root ("../" and a symlink), that /v1/cluster shows the
# samples really were drawn remotely, and that all three processes drain
# cleanly on SIGTERM.
#
# Run via `make shard-smoke` (part of `make ci`).
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "shard-smoke: FAIL: $1" >&2
    for log in "$TMP"/*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

go build -o "$TMP/gengraph" ./cmd/gengraph
go build -o "$TMP/gbc" ./cmd/gbc
go build -o "$TMP/gbcd" ./cmd/gbcd

# The workers' shard root is $TMP/data. A copy of the graph outside it,
# reachable through "../" and through a symlink inside it, must stay shut.
mkdir "$TMP/data"
"$TMP/gengraph" -dataset GrQc -scale 0.1 -seed 1 \
    -format gbcsr -out "$TMP/data/g.gbcsr" 2>"$TMP/gengraph.log" \
    || fail "gengraph -format gbcsr failed: $(cat "$TMP/gengraph.log")"
cp "$TMP/data/g.gbcsr" "$TMP/outside.gbcsr"
ln -s ../outside.gbcsr "$TMP/data/link.gbcsr"

# The single-node reference: a deterministic solve of the same .gbcsr file.
"$TMP/gbc" -input "$TMP/data/g.gbcsr" -k 8 -seed 1 -json >"$TMP/single.json" \
    || fail "single-node gbc solve failed"

# start_gbcd LOGNAME ARGS... — start a daemon and leave its base URL in
# $URL (every gbcd mode prints "gbcd: listening on http://HOST:PORT" once
# bound). Runs in the current shell so $PIDS accumulates for the drain.
start_gbcd() {
    log="$TMP/$1.log"
    shift
    "$TMP/gbcd" "$@" >"$log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    URL=""
    for _ in $(seq 1 100); do
        URL="$(sed -n 's/^gbcd: listening on \(http:\/\/[^ ]*\)$/\1/p' "$log")"
        [ -n "$URL" ] && break
        kill -0 "$pid" 2>/dev/null || fail "$log: daemon exited during startup"
        sleep 0.1
    done
    [ -n "$URL" ] || fail "$log: daemon never reported its listen URL"
}

start_gbcd shard1 -shard -shard-root "$TMP/data" -addr 127.0.0.1:0 -drain-grace 5s
SHARD1="$URL"
start_gbcd shard2 -shard -shard-root "$TMP/data" -addr 127.0.0.1:0 -drain-grace 5s
SHARD2="$URL"
start_gbcd coord -addr 127.0.0.1:0 -drain-grace 5s -shards "$SHARD1,$SHARD2"
COORD="$URL"

curl -fsS "$SHARD1/healthz" >/dev/null || fail "shard 1 healthz unreachable"
curl -fsS "$SHARD2/healthz" >/dev/null || fail "shard 2 healthz unreachable"

# A key escaping the shard root is a typed 400 naming it.
for escape in "$TMP/data/../outside.gbcsr" "$TMP/data/link.gbcsr"; do
    code="$(curl -sS -o "$TMP/escape.json" -w '%{http_code}' -X POST "$SHARD1/v1/shard/epoch" \
        -d "{\"protocol\":1,\"graph\":\"$escape\",\"sampler\":\"bidirectional\",\"count\":1}")"
    [ "$code" = 400 ] && grep -qF "$escape" "$TMP/escape.json" \
        || fail "epoch request for $escape answered $code: $(cat "$TMP/escape.json")"
done

# Register the graph by path: a .gbcsr path plus a live shard cluster is
# exactly the topology the coordinator dispatches growth for.
curl -fsS -X POST "$COORD/v1/graphs" \
    -d "{\"name\":\"g\",\"path\":\"$TMP/data/g.gbcsr\"}" >"$TMP/graph.json" \
    || fail "graph registration failed"
grep -q '"name":"g"' "$TMP/graph.json" || fail "graph response malformed: $(cat "$TMP/graph.json")"

curl -fsS -X POST "$COORD/v1/topk" \
    -d '{"graph":"g","k":8,"seed":1,"sampling":"deterministic","freshness":"exact"}' \
    >"$TMP/sharded.json" || fail "sharded topk query failed"

# Both surfaces nest the frozen wire result under "result"; elapsedMillis
# is wall clock, everything else must be byte-identical.
extract_result() {
    python3 -c 'import json, sys
r = json.load(open(sys.argv[1]))["result"]
r.pop("elapsedMillis", None)
json.dump(r, open(sys.argv[2], "w"), indent=1, sort_keys=True)' "$1" "$2"
}
extract_result "$TMP/single.json" "$TMP/single.cmp"
extract_result "$TMP/sharded.json" "$TMP/sharded.cmp"
diff -u "$TMP/single.cmp" "$TMP/sharded.cmp" \
    || fail "sharded solve differs from single-node solve"

# The cluster surface must show both workers alive and actually used — a
# silent local fallback would also pass the diff above.
curl -fsS "$COORD/v1/cluster" >"$TMP/cluster.json" || fail "/v1/cluster unreachable"
grep -q '"protocol":1' "$TMP/cluster.json" || fail "cluster missing protocol: $(cat "$TMP/cluster.json")"
grep -q '"live":2' "$TMP/cluster.json" || fail "cluster not reporting 2 live shards: $(cat "$TMP/cluster.json")"
python3 -c 'import json, sys
c = json.load(open(sys.argv[1]))
assert len(c["shards"]) == 2, c
for s in c["shards"]:
    assert s["alive"] and s["epochs"] > 0 and s["samples"] > 0, s' "$TMP/cluster.json" \
    || fail "shards drew no samples — growth did not go remote: $(cat "$TMP/cluster.json")"
curl -fsS "$COORD/v1/stats" >"$TMP/stats.json" || fail "/v1/stats unreachable"
grep -q '"shards":2' "$TMP/stats.json" || fail "stats missing shard gauge: $(cat "$TMP/stats.json")"

# All three processes must drain cleanly on SIGTERM.
for pid in $PIDS; do kill -TERM "$pid"; done
for pid in $PIDS; do
    drained=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$pid" 2>/dev/null; then drained=1; break; fi
        sleep 0.1
    done
    [ "$drained" = 1 ] || fail "pid $pid did not exit after SIGTERM"
    wait "$pid" 2>/dev/null || fail "pid $pid exited non-zero after SIGTERM"
done
PIDS=""
grep -q "drained, exiting" "$TMP/coord.log" || fail "coordinator did not report a clean drain"
grep -q "shard drained, exiting" "$TMP/shard1.log" || fail "shard 1 did not report a clean drain"
grep -q "shard drained, exiting" "$TMP/shard2.log" || fail "shard 2 did not report a clean drain"

echo "shard-smoke: PASS (coordinator + 2 shards bit-identical to single node; $COORD)"
