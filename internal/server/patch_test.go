package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gbc/internal/core"
	"gbc/internal/graph"
	"gbc/internal/obs"
)

// patchJSON issues a PATCH with a JSON body and returns status and body.
func patchJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// ringEdgeList builds an n-node ring as an edge-list upload, so tests know
// exactly which edges exist.
func ringEdgeList(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%n)
	}
	return sb.String()
}

// TestGraphPatchEndpoint drives PATCH /v1/graphs/{name} and
// GET /v1/graphs/{name} end to end: versions advance, listings reflect
// them, optimistic concurrency 409s carry the current version, and invalid
// deltas fail typed.
func TestGraphPatchEndpoint(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	const n = 40
	if status, body := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "ring", "edgeList": ringEdgeList(n),
	}); status != http.StatusCreated {
		t.Fatalf("add: %d %s", status, body)
	}

	// Insert a chord and delete a ring edge.
	status, body := patchJSON(t, ts.URL+"/v1/graphs/ring", map[string]any{
		"insert": []map[string]any{{"u": 0, "v": 20}},
		"delete": []map[string]any{{"u": 5, "v": 6}},
	})
	if status != http.StatusOK {
		t.Fatalf("patch: %d %s", status, body)
	}
	var pr patchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.FromVersion != 1 || pr.Version != 2 || pr.Nodes != n || pr.Edges != n {
		t.Fatalf("patch response %+v, want v1->v2 with %d nodes and %d edges", pr, n, n)
	}
	if got := m.Snapshot().GraphPatches; got != 1 {
		t.Fatalf("GraphPatches = %d, want 1", got)
	}

	// The detail resource reflects the chain.
	resp, err := http.Get(ts.URL + "/v1/graphs/ring")
	if err != nil {
		t.Fatal(err)
	}
	var detail graphDetail
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.Version != 2 || detail.Nodes != n || detail.Edges != n {
		t.Fatalf("detail %+v, want version 2", detail)
	}
	if len(detail.Versions) != 2 || detail.Versions[1].Inserted != 1 || detail.Versions[1].Deleted != 1 {
		t.Fatalf("version history wrong: %+v", detail.Versions)
	}

	// The listing carries the current version too.
	resp, err = http.Get(ts.URL + "/v1/graphs")
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
	if len(list.Graphs) != 1 || list.Graphs[0].Version != 2 {
		t.Fatalf("listing version: %+v", list.Graphs)
	}

	// Optimistic concurrency: a patch against a superseded version 409s
	// and names the current one.
	status, body = patchJSON(t, ts.URL+"/v1/graphs/ring", map[string]any{
		"insert":    []map[string]any{{"u": 1, "v": 30}},
		"ifVersion": 1,
	})
	if status != http.StatusConflict {
		t.Fatalf("stale ifVersion: %d %s, want 409", status, body)
	}
	var conflict errorResponse
	if err := json.Unmarshal(body, &conflict); err != nil {
		t.Fatal(err)
	}
	if conflict.CurrentVersion != 2 || conflict.Field != "ifVersion" {
		t.Fatalf("conflict body %+v, want currentVersion 2", conflict)
	}
	// Matching ifVersion succeeds.
	if status, body = patchJSON(t, ts.URL+"/v1/graphs/ring", map[string]any{
		"insert":    []map[string]any{{"u": 1, "v": 30}},
		"ifVersion": 2,
	}); status != http.StatusOK {
		t.Fatalf("matching ifVersion: %d %s", status, body)
	}

	// Typed failure modes.
	for _, tc := range []struct {
		name string
		req  map[string]any
		want int
	}{
		{"empty", map[string]any{}, http.StatusBadRequest},
		{"dup insert", map[string]any{"insert": []map[string]any{{"u": 0, "v": 20}}}, http.StatusBadRequest},
		{"absent delete", map[string]any{"delete": []map[string]any{{"u": 5, "v": 6}}}, http.StatusBadRequest},
		{"self loop", map[string]any{"insert": []map[string]any{{"u": 3, "v": 3}}}, http.StatusBadRequest},
		{"out of range", map[string]any{"insert": []map[string]any{{"u": 0, "v": 4000}}}, http.StatusBadRequest},
		{"weight on unweighted", map[string]any{"insert": []map[string]any{{"u": 2, "v": 30, "w": 1.5}}}, http.StatusBadRequest},
	} {
		status, body := patchJSON(t, ts.URL+"/v1/graphs/ring", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: untyped error body: %s", tc.name, body)
		}
	}

	// Unknown graph 404s.
	if status, _ := patchJSON(t, ts.URL+"/v1/graphs/nope", map[string]any{
		"insert": []map[string]any{{"u": 0, "v": 1}},
	}); status != http.StatusNotFound {
		t.Fatalf("patch unknown graph: %d, want 404", status)
	}
	if resp, err := http.Get(ts.URL + "/v1/graphs/nope"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("get unknown graph: %d, want 404", resp.StatusCode)
		}
	}

	// A solve against the patched graph works and reports its version.
	status, body = post(t, ts.URL+"/v1/topk", map[string]any{"graph": "ring", "k": 3})
	if status != http.StatusOK {
		t.Fatalf("topk after patch: %d %s", status, body)
	}
	var r topkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.GraphVersion != 3 || r.ServedFrom != "solve" {
		t.Fatalf("post-patch solve: version %d servedFrom %q, want 3/solve", r.GraphVersion, r.ServedFrom)
	}
}

// TestTopKServedFromCache pins the first-class reuse path: a repeat of a
// converged request answers from its family's memo — no solver work, no
// scheduler slot — unless the client demands freshness "exact", which
// solves again on the family's stored samples.
func TestTopKServedFromCache(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	addGeneratedGraph(t, ts.URL, "g", 600)

	req := map[string]any{"graph": "g", "k": 5, "seed": 7}
	status, body := post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("first topk: %d %s", status, body)
	}
	var first topkResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.ServedFrom != "solve" || first.GraphVersion != 1 || !first.Result.Converged {
		t.Fatalf("first response: %+v, want a converged solve on version 1", first)
	}
	s1 := m.Snapshot()

	status, body = post(t, ts.URL+"/v1/topk", req)
	if status != http.StatusOK {
		t.Fatalf("repeat topk: %d %s", status, body)
	}
	var hit topkResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.ServedFrom != "cache" || hit.GraphVersion != 1 {
		t.Fatalf("repeat response: %+v, want servedFrom cache on version 1", hit)
	}
	aj, _ := json.Marshal(first.Result.Group)
	bj, _ := json.Marshal(hit.Result.Group)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("cache served a different group:\n  %s\n  %s", aj, bj)
	}
	s2 := m.Snapshot()
	if s2.ResultCacheHits != s1.ResultCacheHits+1 {
		t.Fatalf("ResultCacheHits %d -> %d, want +1", s1.ResultCacheHits, s2.ResultCacheHits)
	}
	// No solver work ran: no samples drawn, no family sets touched, and
	// the overload accounting counts the hit as completed.
	if s2.Samples != s1.Samples || s2.RegistryHits != s1.RegistryHits {
		t.Fatalf("cache hit did solver work: %+v -> %+v", s1, s2)
	}
	if s2.RequestsCompleted != s1.RequestsCompleted+1 || s2.RequestsShed != s1.RequestsShed {
		t.Fatalf("cache hit accounting: %+v -> %+v", s1, s2)
	}

	// A looser-ε request is dominated by the cached run too.
	loose := map[string]any{"graph": "g", "k": 5, "seed": 7, "epsilon": 0.5}
	status, body = post(t, ts.URL+"/v1/topk", loose)
	if status != http.StatusOK {
		t.Fatalf("loose topk: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.ServedFrom != "cache" {
		t.Fatalf("loose-eps repeat not served from cache: %+v", hit)
	}

	// freshness "exact" forces a solve, which re-admits the family's
	// stored samples instead of drawing any.
	exact := map[string]any{"graph": "g", "k": 5, "seed": 7, "freshness": "exact"}
	status, body = post(t, ts.URL+"/v1/topk", exact)
	if status != http.StatusOK {
		t.Fatalf("exact topk: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.ServedFrom != "solve" {
		t.Fatalf("exact repeat served from %q, want solve", hit.ServedFrom)
	}
	if s3 := m.Snapshot(); s3.Samples != s2.Samples || s3.SamplesReused-s2.SamplesReused != int64(first.Result.Samples) {
		t.Fatalf("exact repeat drew %d and re-admitted %d samples, want 0 and %d",
			s3.Samples-s2.Samples, s3.SamplesReused-s2.SamplesReused, first.Result.Samples)
	}
	sameAnswer(t, "exact repeat", hit.Result, first.Result)

	// Trace requests bypass the cache (cached results are trace-stripped).
	traced := map[string]any{"graph": "g", "k": 5, "seed": 7, "trace": true}
	status, body = post(t, ts.URL+"/v1/topk", traced)
	if status != http.StatusOK {
		t.Fatalf("traced topk: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.ServedFrom != "solve" || len(hit.Result.Trace) == 0 {
		t.Fatalf("traced repeat must solve fresh with a trace: servedFrom=%q trace=%d",
			hit.ServedFrom, len(hit.Result.Trace))
	}
}

// TestTopKCacheInvalidatedByPatch is the staleness guarantee: a PATCH
// moves the graph to a new version, and the repeat that would have been a
// cache hit must solve fresh — the old version's results can never answer
// again. The trailing stress loop races requests against patches and
// asserts no response ever reports a version older than the one observed
// before the request was sent; run under -race in CI.
func TestTopKCacheInvalidatedByPatch(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	const n = 40
	if status, body := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "ring", "edgeList": ringEdgeList(n),
	}); status != http.StatusCreated {
		t.Fatalf("add: %d %s", status, body)
	}

	req := map[string]any{"graph": "ring", "k": 3, "seed": 5}
	serve := func() topkResponse {
		t.Helper()
		status, body := post(t, ts.URL+"/v1/topk", req)
		if status != http.StatusOK {
			t.Fatalf("topk: %d %s", status, body)
		}
		var r topkResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := serve(); r.ServedFrom != "solve" || r.GraphVersion != 1 {
		t.Fatalf("warmup: %+v", r)
	}
	if r := serve(); r.ServedFrom != "cache" || r.GraphVersion != 1 {
		t.Fatalf("cached repeat: %+v", r)
	}
	if status, body := patchJSON(t, ts.URL+"/v1/graphs/ring", map[string]any{
		"insert": []map[string]any{{"u": 0, "v": 20}},
	}); status != http.StatusOK {
		t.Fatalf("patch: %d %s", status, body)
	}
	if r := serve(); r.ServedFrom != "solve" || r.GraphVersion != 2 {
		t.Fatalf("post-patch repeat must solve fresh on v2, got %+v", r)
	}
	if r := serve(); r.ServedFrom != "cache" || r.GraphVersion != 2 {
		t.Fatalf("post-patch second repeat: %+v", r)
	}

	// Stress: one goroutine patches (toggling a chord), requesters race.
	reg := s.Registry()
	version := func() int {
		e, ok := reg.Get("ring")
		if !ok {
			t.Error("ring disappeared")
			return 0
		}
		defer e.Release()
		return e.CurrentVersion()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		present := false // chord (1, 25) state
		for i := 0; i < 40; i++ {
			op := "insert"
			if present {
				op = "delete"
			}
			status, body := patchJSON(t, ts.URL+"/v1/graphs/ring", map[string]any{
				op: []map[string]any{{"u": 1, "v": 25}},
			})
			if status != http.StatusOK {
				t.Errorf("stress patch %d: %d %s", i, status, body)
				return
			}
			present = !present
		}
		close(stop)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := version()
				status, body := post(t, ts.URL+"/v1/topk", map[string]any{
					"graph": "ring", "k": 3, "seed": seed,
				})
				if status != http.StatusOK {
					t.Errorf("stress topk: %d %s", status, body)
					return
				}
				var r topkResponse
				if err := json.Unmarshal(body, &r); err != nil {
					t.Error(err)
					return
				}
				if r.GraphVersion < before {
					t.Errorf("stale answer: graphVersion %d < version %d observed before the request (servedFrom %q)",
						r.GraphVersion, before, r.ServedFrom)
					return
				}
			}
		}(w + 1)
	}
	wg.Wait()
}

// TestEntrySolveRepairAfterPatch is the serving half of the repair
// guarantee: family sets left behind by a patch are repaired forward at the
// next solve (registry hits, not misses; repair counters move) and the
// response is bit-identical to a cold solve on the patched graph.
func TestEntrySolveRepairAfterPatch(t *testing.T) {
	g := testGraph(t, 3)
	opts := core.Options{K: 5, Seed: 7, Epsilon: 0.2}
	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	e, err := r.Add("g", "", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Solve(context.Background(), opts, m); err != nil {
		t.Fatal(err)
	}
	misses := m.Snapshot().RegistryMisses

	// Build a delta the test controls: delete an existing edge, insert a
	// chord that is not present.
	u0 := int32(0)
	v0 := g.OutNeighbors(u0)[0]
	var cu, cv int32 = 1, 2
	pick := func() bool {
		for cu = 0; cu < int32(g.N()); cu++ {
			for cv = cu + 2; cv < int32(g.N()); cv++ {
				found := false
				for _, w := range g.OutNeighbors(cu) {
					if w == cv {
						found = true
						break
					}
				}
				if !found && !(cu == u0 && cv == v0) {
					return true
				}
			}
		}
		return false
	}
	if !pick() {
		t.Fatal("no absent edge found")
	}
	delta := &graph.Delta{
		Insert: []graph.DeltaEdge{{U: cu, V: cv}},
		Delete: []graph.DeltaEdge{{U: u0, V: v0}},
	}
	info, err := e.Patch(delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("patch info %+v, want version 2", info)
	}

	warm, ver, err := e.Solve(context.Background(), opts, m)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("solved on version %d, want 2", ver)
	}
	st := m.Snapshot()
	if st.RegistryHits == 0 || st.RegistryMisses != misses {
		t.Fatalf("post-patch solve rebuilt instead of repairing: %+v", st)
	}
	if st.RepairRuns == 0 || st.SamplesRepaired == 0 {
		t.Fatalf("repair counters did not move: %+v", st)
	}

	// Bit-identical to a cold solve on the patched graph.
	pg, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Solve(context.Background(), pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripElapsed(cold), stripElapsed(warm)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repaired warm solve differs from cold solve on the patched graph:\n  %+v\n  %+v", a, b)
	}
}

// TestPatchRetiresMappedVersion pins the per-version refcount: the mmap of
// a file-backed base version must survive a patch for exactly as long as
// something uses it — here the sample family's version binding — and
// unmap the moment the binding moves forward.
func TestPatchRetiresMappedVersion(t *testing.T) {
	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	fg, err := graph.OpenCSR(writeCSRGraph(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !fg.Mapped() {
		t.Skip("platform loads .gbcsr on the heap; nothing to unmap")
	}
	mapped := fg.MappedBytes()
	e, err := r.Add("file", "gbcsr", fg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{K: 4, Seed: 9}
	if _, _, err := e.Solve(context.Background(), opts, m); err != nil {
		t.Fatal(err)
	}

	// Patch: the old mapped version is retired but the family still
	// bind it, so the mapping must survive.
	v0 := fg.OutNeighbors(0)[0]
	if _, err := e.Patch(&graph.Delta{Delete: []graph.DeltaEdge{{U: 0, V: v0}}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().GraphBytesMapped; got != mapped {
		t.Fatalf("mapping released while warm sets bind it: gauge %d, want %d", got, mapped)
	}

	// The next solve repairs the sets onto version 2 and releases the
	// binding: now the mapping goes.
	if _, ver, err := e.Solve(context.Background(), opts, m); err != nil || ver != 2 {
		t.Fatalf("post-patch solve: ver=%d err=%v", ver, err)
	}
	if got := m.Snapshot().GraphBytesMapped; got != 0 {
		t.Fatalf("old version still mapped after rebinding: gauge %d, want 0", got)
	}
}
