package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"gbc/internal/wire"
)

// topk posts a /v1/topk request that must succeed and decodes its response.
func topk(t *testing.T, url string, req map[string]any) topkResponse {
	t.Helper()
	status, body := post(t, url+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("topk %v: %d %s", req, status, body)
	}
	var r topkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// sameAnswer compares two wire results ignoring the solve's wall time.
func sameAnswer(t *testing.T, what string, got, want wire.Result) {
	t.Helper()
	got.ElapsedMillis, want.ElapsedMillis = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result %+v, want %+v", what, got, want)
	}
}

// TestTopKSamplingMode pins the /v1/topk sampling surface: every answer
// reports samplingMode "deterministic"; "fast", a deprecated alias, is
// answered deterministically and shares the plain request's cache entry;
// any other mode is a typed 400 naming the field.
func TestTopKSamplingMode(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	plain := topk(t, ts.URL, map[string]any{"graph": "g", "k": 3, "seed": 5})
	if plain.ServedFrom != "solve" || plain.Result.SamplingMode != "deterministic" {
		t.Fatalf("plain request: servedFrom %q, samplingMode %q", plain.ServedFrom, plain.Result.SamplingMode)
	}

	fast := topk(t, ts.URL, map[string]any{"graph": "g", "k": 3, "seed": 5, "sampling": "fast"})
	if fast.ServedFrom != "cache" || m.Snapshot().ResultCacheHits != 1 {
		t.Fatalf("fast alias: servedFrom %q, cache hits %d; want the plain request's cache entry",
			fast.ServedFrom, m.Snapshot().ResultCacheHits)
	}
	sameAnswer(t, "fast alias from cache", fast.Result, plain.Result)

	fresh := topk(t, ts.URL, map[string]any{
		"graph": "g", "k": 3, "seed": 5, "sampling": "fast", "freshness": "exact",
	})
	if fresh.ServedFrom != "solve" {
		t.Fatalf("fresh fast alias: servedFrom %q, want solve", fresh.ServedFrom)
	}
	sameAnswer(t, "fresh fast alias", fresh.Result, plain.Result)

	status, body := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3, "sampling": "warp"})
	var e errorResponse
	if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Field != "sampling" {
		t.Fatalf("unknown mode: %d %s, want a 400 naming sampling", status, body)
	}
}

// TestTopKWorkersShareCache: the answer is bit-identical at every worker
// count, so the worker count is not part of the result-cache key — a
// workers:4 request is served from a workers:0 solve, and a fresh
// workers:4 solve returns the same result.
func TestTopKWorkersShareCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	seq := topk(t, ts.URL, map[string]any{"graph": "g", "k": 4, "seed": 3, "workers": 0})
	cached := topk(t, ts.URL, map[string]any{"graph": "g", "k": 4, "seed": 3, "workers": 4, "freshness": "any"})
	if cached.ServedFrom != "cache" {
		t.Fatalf("workers:4 request: servedFrom %q, want cache", cached.ServedFrom)
	}
	sameAnswer(t, "workers:4 from cache", cached.Result, seq.Result)

	par := topk(t, ts.URL, map[string]any{"graph": "g", "k": 4, "seed": 3, "workers": 4, "freshness": "exact"})
	if par.ServedFrom != "solve" {
		t.Fatalf("fresh workers:4 request: servedFrom %q, want solve", par.ServedFrom)
	}
	sameAnswer(t, "fresh workers:4 solve", par.Result, seq.Result)
}
