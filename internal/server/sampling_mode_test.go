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
// reports samplingMode "deterministic", and naming it explicitly is the
// same request as leaving it out (it shares the plain request's cache
// entry). Any other mode, "fast" included, is a typed 400 naming the
// field.
func TestTopKSamplingMode(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	plain := topk(t, ts.URL, map[string]any{"graph": "g", "k": 3, "seed": 5})
	if plain.ServedFrom != "solve" || plain.Result.SamplingMode != "deterministic" {
		t.Fatalf("plain request: servedFrom %q, samplingMode %q", plain.ServedFrom, plain.Result.SamplingMode)
	}

	named := topk(t, ts.URL, map[string]any{"graph": "g", "k": 3, "seed": 5, "sampling": "deterministic"})
	if named.ServedFrom != "cache" || m.Snapshot().ResultCacheHits != 1 {
		t.Fatalf("named mode: servedFrom %q, cache hits %d; want the plain request's cache entry",
			named.ServedFrom, m.Snapshot().ResultCacheHits)
	}
	sameAnswer(t, "named mode from cache", named.Result, plain.Result)

	for _, mode := range []string{"fast", "warp"} {
		status, body := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3, "sampling": mode})
		var e errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Field != "sampling" {
			t.Fatalf("mode %q: %d %s, want a 400 naming sampling", mode, status, body)
		}
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
