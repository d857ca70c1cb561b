package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gbc/internal/core"
	"gbc/internal/obs"
	"gbc/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Metrics) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.Metrics{}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts, cfg.Metrics
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func addGeneratedGraph(t *testing.T, url, name string, n int) {
	t.Helper()
	status, body := post(t, url+"/v1/graphs", map[string]any{
		"name": name, "generator": "ba", "n": n, "degree": 3,
	})
	if status != http.StatusCreated {
		t.Fatalf("add graph: %d %s", status, body)
	}
}

func TestGraphEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Upload via generator, edge list and dataset.
	addGeneratedGraph(t, ts.URL, "ba", 500)
	status, body := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "tri", "edgeList": "0 1\n1 2\n2 0\n0 3\n",
	})
	if status != http.StatusCreated {
		t.Fatalf("edge list upload: %d %s", status, body)
	}
	status, body = post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "grqc", "dataset": "GrQc", "scale": 0.05,
	})
	if status != http.StatusCreated {
		t.Fatalf("dataset: %d %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 3 {
		t.Fatalf("want 3 graphs, got %+v", list.Graphs)
	}
	if list.Graphs[0].Name != "ba" || list.Graphs[0].Nodes != 500 {
		t.Fatalf("graph info wrong: %+v", list.Graphs[0])
	}

	// Error paths: duplicate, bad name, bad params, no source, two sources.
	for _, tc := range []struct {
		name string
		req  map[string]any
		want int
	}{
		{"duplicate", map[string]any{"name": "ba", "generator": "ba", "n": 100, "degree": 2}, http.StatusConflict},
		{"bad name", map[string]any{"name": "no spaces!", "generator": "ba", "n": 100, "degree": 2}, http.StatusBadRequest},
		{"no source", map[string]any{"name": "x"}, http.StatusBadRequest},
		{"two sources", map[string]any{"name": "x", "dataset": "GrQc", "generator": "ba", "n": 100, "degree": 2}, http.StatusBadRequest},
		{"bad ba degree", map[string]any{"name": "x", "generator": "ba", "n": 10, "degree": 10}, http.StatusBadRequest},
		{"bad ws p", map[string]any{"name": "x", "generator": "ws", "n": 100, "degree": 2, "p": 1.5}, http.StatusBadRequest},
		{"unknown generator", map[string]any{"name": "x", "generator": "zzz", "n": 100}, http.StatusBadRequest},
		{"unknown dataset", map[string]any{"name": "x", "dataset": "NotReal"}, http.StatusBadRequest},
		{"bad scale", map[string]any{"name": "x", "dataset": "GrQc", "scale": 2.0}, http.StatusBadRequest},
		{"bad edge list", map[string]any{"name": "x", "edgeList": "0 not-a-node\n"}, http.StatusBadRequest},
	} {
		status, body := post(t, ts.URL+"/v1/graphs", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, body)
		}
	}
}

func TestTopKValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 300)

	for _, tc := range []struct {
		name  string
		req   map[string]any
		want  int
		field string
	}{
		{"unknown graph", map[string]any{"graph": "nope", "k": 3}, http.StatusNotFound, "graph"},
		{"bad algorithm", map[string]any{"graph": "g", "k": 3, "algorithm": "Magic"}, http.StatusBadRequest, "algorithm"},
		{"k too small", map[string]any{"graph": "g", "k": 0}, http.StatusBadRequest, "K"},
		{"bad epsilon", map[string]any{"graph": "g", "k": 3, "epsilon": 0.99}, http.StatusBadRequest, "Epsilon"},
		{"bad gamma", map[string]any{"graph": "g", "k": 3, "gamma": 1.5}, http.StatusBadRequest, "Gamma"},
	} {
		status, body := post(t, ts.URL+"/v1/topk", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, body)
			continue
		}
		if e.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%s)", tc.name, e.Field, tc.field, body)
		}
	}
}

// TestTopKWarmReuse is the serving acceptance test: a second identical
// query against the same graph reuses its sample family's sets
// (registry-hit metric moves) and returns the same result.
func TestTopKWarmReuse(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	// freshness "exact" forces a solve on both runs; the default "any"
	// would answer the repeat from the family's memo without ever touching
	// its sets (see TestTopKServedFromCache).
	req := map[string]any{"graph": "g", "k": 5, "seed": 7, "freshness": "exact"}
	status, body1 := post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("first topk: %d %s", status, body1)
	}
	s1 := m.Snapshot()
	if s1.RegistryMisses == 0 || s1.RegistryHits != 0 {
		t.Fatalf("first run must build fresh sets: %+v", s1)
	}
	status, body2 := post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("second topk: %d %s", status, body2)
	}
	s2 := m.Snapshot()
	if s2.RegistryHits != s1.RegistryMisses {
		t.Fatalf("second run must reuse every warm set: hits=%d, first-run misses=%d",
			s2.RegistryHits, s1.RegistryMisses)
	}

	var r1, r2 topkResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatalf("decode: %v (%s)", err, body1)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	r1.Result.ElapsedMillis, r2.Result.ElapsedMillis = 0, 0
	aj, _ := json.Marshal(r1)
	bj, _ := json.Marshal(r2)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("warm rerun changed the result:\n  %s\n  %s", aj, bj)
	}
	if len(r1.Result.Group) != 5 || r1.Result.Algorithm != core.AlgAdaAlg {
		t.Fatalf("unexpected result: %+v", r1.Result)
	}
}

// TestTopKCoalescing: concurrent identical requests share one solver run —
// the coalesced counter advances by N-1 and every waiter receives
// bit-identical bytes. The run is pinned to ~400ms by a deadline the tiny
// epsilon cannot meet, giving the joiners a wide window to arrive in.
func TestTopKCoalescing(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 4000)

	req := map[string]any{
		"graph": "g", "k": 10, "epsilon": 0.02, "seed": 3,
		"timeoutMillis": 400,
	}
	const n = 8
	before := m.Snapshot().RunsCoalesced
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = post(t, ts.URL+"/v1/topk", req)
		}(i)
	}
	wg.Wait()

	served := map[string]int{}
	var canon []byte
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		var r topkResponse
		if err := json.Unmarshal(bodies[i], &r); err != nil {
			t.Fatal(err)
		}
		served[r.ServedFrom]++
		// Apart from servedFrom (leader vs follower), every waiter must
		// receive the identical shared result.
		r.ServedFrom = ""
		norm, _ := json.Marshal(r)
		if canon == nil {
			canon = norm
		} else if !bytes.Equal(norm, canon) {
			t.Fatalf("request %d received a different result:\n  %s\n  %s", i, norm, canon)
		}
	}
	if served["solve"] != 1 || served["coalesced"] != n-1 {
		t.Fatalf("servedFrom split %v, want 1 solve + %d coalesced", served, n-1)
	}
	if got := m.Snapshot().RunsCoalesced - before; got != n-1 {
		t.Fatalf("coalesced %d runs, want %d", got, n-1)
	}
}

// TestTopKDeadlinePartial: a deadline the run cannot meet yields HTTP 200
// with partial:true and stop reason Deadline — a result, not an error.
func TestTopKDeadlinePartial(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 4000)

	status, body := post(t, ts.URL+"/v1/topk", map[string]any{
		"graph": "g", "k": 10, "epsilon": 0.02, "seed": 1,
		"timeoutMillis": 200,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var r topkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Result.Partial || r.Result.Converged {
		t.Fatalf("run under an unmeetable deadline must be partial: %+v", r.Result)
	}
	if r.Result.StopReason != core.StopDeadline {
		t.Fatalf("stop reason %v, want Deadline", r.Result.StopReason)
	}
	if len(r.Result.Group) != 10 {
		t.Fatalf("partial result still carries the best-so-far group: %+v", r.Result)
	}
	if r.TimeoutMillis != 200 {
		t.Fatalf("effective timeout not echoed: %+v", r)
	}
}

// TestTopKQueueFull: with one worker and a one-slot queue, three slow
// non-identical requests exceed capacity — at least one must be rejected
// with 429 while at least one completes.
func TestTopKQueueFull(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	addGeneratedGraph(t, ts.URL, "g", 4000)

	const n = 3
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat coalescing so each request needs its
			// own scheduler slot.
			statuses[i], _ = post(t, ts.URL+"/v1/topk", map[string]any{
				"graph": "g", "k": 5, "epsilon": 0.02, "seed": i + 1,
				"timeoutMillis": 300,
			})
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	for _, s := range statuses {
		counts[s]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no request was rejected with 429: %v", statuses)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request completed: %v", statuses)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 300)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Graphs != 1 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	if status, _ := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3}); status != http.StatusOK {
		t.Fatalf("topk: %d", status)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats obs.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Samples == 0 || stats.RegistryMisses == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}

	// Draining: liveness stays 200 (restarting a draining process loses the
	// in-flight partials), readiness flips to 503, new runs are rejected.
	s.Shutdown(context.Background())
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hd struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hd.Status != "draining" {
		t.Fatalf("draining healthz: %d %+v, want 200 draining", resp.StatusCode, hd)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", resp.StatusCode)
	}
	// The identical request was served (and converged) before the drain, so
	// the default freshness answers straight from the result cache — no
	// scheduler involvement, so draining doesn't matter.
	status, body := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3})
	if status != http.StatusOK {
		t.Fatalf("topk while draining with a cached dominator: %d %s", status, body)
	}
	var hit topkResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.ServedFrom != "cache" || hit.Degraded {
		t.Fatalf("draining cache answer: servedFrom=%q degraded=%v, want cache/false", hit.ServedFrom, hit.Degraded)
	}
	// Demanding a fresh solve hits the draining scheduler; the shed falls
	// back to the ε-dominance cache: 200 with degraded:true.
	status, body = post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3, "freshness": "exact"})
	if status != http.StatusOK {
		t.Fatalf("exact topk while draining with a cached dominator: %d %s", status, body)
	}
	var deg topkResponse
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatalf("draining answer must be marked degraded: %s", body)
	}
	// A request with no cached dominator (fresh seed) sheds hard with 503.
	if status, _ := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3, "seed": 99}); status != http.StatusServiceUnavailable {
		t.Fatalf("uncached topk while draining: %d, want 503", status)
	}
}

// TestReadyzStates: ready when idle, saturated (503) while the normal
// lane's queue is full, ready again once it drains.
func TestReadyzStates(t *testing.T) {
	_, ts, m := newTestServer(t, Config{Workers: 1, QueueDepth: 1, FastLaneThreshold: -1})
	addGeneratedGraph(t, ts.URL, "g", 4000)

	getReady := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r.Status
	}
	if code, status := getReady(); code != http.StatusOK || status != "ready" {
		t.Fatalf("idle readyz: %d %q, want 200 ready", code, status)
	}

	// Wedge the worker with a slow run, then fill the one queue slot with a
	// second — staggered so the two don't race for the single slot.
	slow := func(seed int) {
		post(t, ts.URL+"/v1/topk", map[string]any{
			"graph": "g", "k": 5, "epsilon": 0.02, "seed": seed,
			"timeoutMillis": 400,
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); slow(1) }()
	waitFor(t, "first run to start", func() bool { return m.Snapshot().ActiveRuns == 1 })
	go func() { defer wg.Done(); slow(2) }()
	waitFor(t, "readyz to report saturated", func() bool {
		code, status := getReady()
		return code == http.StatusServiceUnavailable && status == "saturated"
	})
	wg.Wait()
	waitFor(t, "readyz to recover", func() bool {
		code, status := getReady()
		return code == http.StatusOK && status == "ready"
	})
}

// TestTopKDegraded pins graceful degradation: a converged run populates the
// ε-dominance cache, and once the scheduler sheds (here: tenant quota with
// burst 1), an identical request is answered from the cache with 200 and
// degraded:true instead of a 429 — and the overload counters balance.
func TestTopKDegraded(t *testing.T) {
	_, ts, m := newTestServer(t, Config{TenantRPS: 0.001, TenantBurst: 1})
	addGeneratedGraph(t, ts.URL, "g", 600)

	req := map[string]any{"graph": "g", "k": 5, "seed": 7}
	status, body := post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("warmup topk: %d %s", status, body)
	}
	var warm topkResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Degraded || !warm.Result.Converged {
		t.Fatalf("warmup must be a fresh converged run: %+v", warm)
	}

	// The tenant's single burst token is spent: an exact-freshness repeat
	// (the default would answer from the cache before the quota check) is
	// shed, but the cached converged result at the same ε dominates it.
	req["freshness"] = "exact"
	status, body = post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("degraded topk: %d %s", status, body)
	}
	var deg topkResponse
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || deg.DegradedEpsilon != 0.3 {
		t.Fatalf("want degraded:true at cached eps 0.3, got %+v", deg)
	}
	aj, _ := json.Marshal(warm.Result.Group)
	bj, _ := json.Marshal(deg.Result.Group)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("degraded answer differs from the cached run:\n  %s\n  %s", aj, bj)
	}
	if len(deg.Result.Trace) != 0 {
		t.Fatalf("degraded answer must not carry a trace: %+v", deg.Result)
	}

	// A tighter-ε request is NOT dominated by the 0.3 cache entry: it sheds
	// with a plain 429 + Retry-After.
	tight := map[string]any{"graph": "g", "k": 5, "seed": 7, "epsilon": 0.1}
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", jsonBody(t, tight))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tighter-eps shed: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}

	st := m.Snapshot()
	if st.RequestsAdmitted != st.RequestsCompleted+st.RequestsShed+st.RequestsFailed {
		t.Fatalf("overload accounting broken: %+v", st)
	}
	if st.RequestsShed != 2 || st.RequestsDegraded != 1 || st.RequestsCompleted != 1 {
		t.Fatalf("want completed=1 shed=2 degraded=1, got %+v", st)
	}
}

// TestTenantQuotaIsolation: tenant quotas are per-tenant — one tenant
// exhausting its bucket must not affect another.
func TestTenantQuotaIsolation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{TenantRPS: 0.001, TenantBurst: 1})
	addGeneratedGraph(t, ts.URL, "g", 300)

	doAs := func(tenant string, seed int) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/topk",
			jsonBody(t, map[string]any{"graph": "g", "k": 3, "seed": seed}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := doAs("alice", 1); got != http.StatusOK {
		t.Fatalf("alice's first request: %d", got)
	}
	// Distinct seed defeats both coalescing and the dominance cache, so the
	// quota rejection surfaces as a 429.
	if got := doAs("alice", 2); got != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: %d, want 429", got)
	}
	if got := doAs("bob", 3); got != http.StatusOK {
		t.Fatalf("bob must not share alice's bucket: %d", got)
	}
}

// TestTopKBodyLimit: an oversized /v1/topk body fails with a typed 400,
// not a connection reset or a panic.
func TestTopKBodyLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"graph":"g","k":3,"pad":%q}`, bytes.Repeat([]byte("x"), 1024))
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("oversized-body error is not typed JSON: %v", err)
	}
	if e.Error == "" {
		t.Fatal("empty error message")
	}
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// TestTopKForwardSampler: the forward-ablation flag routes through and
// is a family of its own.
func TestTopKForwardSampler(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	base := map[string]any{"graph": "g", "k": 4, "seed": 5}
	if status, body := post(t, ts.URL+"/v1/topk", base); status != http.StatusOK {
		t.Fatalf("bidirectional: %d %s", status, body)
	}
	misses := m.Snapshot().RegistryMisses
	fwd := map[string]any{"graph": "g", "k": 4, "seed": 5, "forward": true}
	if status, body := post(t, ts.URL+"/v1/topk", fwd); status != http.StatusOK {
		t.Fatalf("forward: %d %s", status, body)
	}
	s := m.Snapshot()
	if s.RegistryHits != 0 || s.RegistryMisses <= misses {
		t.Fatalf("forward run must not reuse bidirectional sets: %+v", s)
	}
}

// TestWireSharedShape: the /v1/topk result decodes as wire.Result — the
// same frozen shape cmd/gbc -json emits.
func TestWireSharedShape(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 300)
	status, body := post(t, ts.URL+"/v1/topk", map[string]any{"graph": "g", "k": 3, "trace": true})
	if status != http.StatusOK {
		t.Fatalf("topk: %d %s", status, body)
	}
	var outer struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &outer); err != nil {
		t.Fatal(err)
	}
	var r wire.Result
	if err := json.Unmarshal(outer.Result, &r); err != nil {
		t.Fatalf("result is not a wire.Result: %v\n%s", err, outer.Result)
	}
	if r.Samples == 0 || len(r.Trace) == 0 {
		t.Fatalf("wire result incomplete: %+v", r)
	}
	rt, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var r2 wire.Result
	if err := json.Unmarshal(rt, &r2); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(r2)
	if !bytes.Equal(rt, aj) {
		t.Fatalf("wire result does not round-trip:\n  %s\n  %s", rt, aj)
	}
}

// TestDefaultTimeoutClamp: requests above the server's MaxTimeout are
// clamped to it (observable through the echoed effective timeout).
func TestDefaultTimeoutClamp(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxTimeout: 50 * 1e6}) // 50ms
	addGeneratedGraph(t, ts.URL, "g", 300)
	status, body := post(t, ts.URL+"/v1/topk", map[string]any{
		"graph": "g", "k": 3, "timeoutMillis": 60000,
	})
	if status != http.StatusOK {
		t.Fatalf("topk: %d %s", status, body)
	}
	var r topkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.TimeoutMillis != 50 {
		t.Fatalf("timeout not clamped to server max: %+v", fmt.Sprint(r.TimeoutMillis))
	}
}
