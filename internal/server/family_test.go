package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gbc/internal/core"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/wire"
)

// coldAnswer is what a served answer must equal: gbc.Solve of the same
// options on the same graph version, in the wire shape.
func coldAnswer(t *testing.T, g *graph.Graph, opts core.Options) wire.Result {
	t.Helper()
	res, err := core.Solve(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wire.FromResult(opts.Algorithm, opts.K, res, nil)
}

// TestFamilyKSweepDrawsLongestRun is the family's reuse guarantee: a K
// sweep on one (graph, seed) solves every K, yet draws only as many
// samples as its longest run — each later run re-admits what earlier runs
// drew — and every answer equals a cold solve.
func TestFamilyKSweepDrawsLongestRun(t *testing.T) {
	s, ts, m := newTestServer(t, Config{})
	g := testGraph(t, 5)
	if _, err := s.Registry().Add("g", "", g); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	longest := 0
	for _, k := range []int{5, 10, 20, 50} {
		r := topk(t, ts.URL, map[string]any{"graph": "g", "k": k, "epsilon": 0.2, "seed": 9})
		if r.ServedFrom != "solve" || !r.Result.Converged {
			t.Fatalf("K=%d: servedFrom %q converged %v, want a converged solve", k, r.ServedFrom, r.Result.Converged)
		}
		sameAnswer(t, fmt.Sprintf("K=%d", k), r.Result, coldAnswer(t, g, core.Options{K: k, Epsilon: 0.2, Seed: 9}))
		longest = max(longest, r.Result.Samples)
	}
	after := m.Snapshot()
	if drawn := after.Samples - before.Samples; drawn != int64(longest) {
		t.Fatalf("the sweep drew %d samples, want %d (its longest run)", drawn, longest)
	}
	if after.SamplesReused == before.SamplesReused {
		t.Fatal("no stored samples were re-admitted")
	}
}

// TestTopKMemoKeyedOnGamma: an answer converged at a loose γ carries no
// 1−γ guarantee for a stricter request, so it must not answer one. The
// memo is keyed on the effective γ, with 0 meaning the default 0.01.
func TestTopKMemoKeyedOnGamma(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	g := testGraph(t, 5)
	if _, err := s.Registry().Add("g", "", g); err != nil {
		t.Fatal(err)
	}
	loose := topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "seed": 3, "gamma": 0.5})
	if loose.ServedFrom != "solve" || !loose.Result.Converged {
		t.Fatalf("γ=0.5 warm-up: %+v", loose)
	}
	if r := topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "seed": 3, "gamma": 0.5}); r.ServedFrom != "cache" {
		t.Fatalf("γ=0.5 repeat served from %q, want cache", r.ServedFrom)
	}
	strict := topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "seed": 3, "gamma": 0.001})
	if strict.ServedFrom != "solve" {
		t.Fatalf("γ=0.001 request served from %q by a γ=0.5 answer, want solve", strict.ServedFrom)
	}
	sameAnswer(t, "γ=0.001", strict.Result, coldAnswer(t, g, core.Options{K: 5, Seed: 3, Gamma: 0.001}))

	// The default γ and an explicit 0.01 share one memo entry.
	topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "seed": 3})
	if r := topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "seed": 3, "gamma": 0.01}); r.ServedFrom != "cache" {
		t.Fatalf("explicit γ=0.01 after a default-γ solve served from %q, want cache", r.ServedFrom)
	}
}

// TestFamilyConcurrentSweeps races K sweeps on several families of one
// entry (run under -race, -count=10 by make race): families solve
// concurrently, runs on one family serialize, and every answer stays
// bit-identical to a cold solve.
func TestFamilyConcurrentSweeps(t *testing.T) {
	g := testGraph(t, 5)
	m := &obs.Metrics{}
	e, err := NewRegistry(1, 0, m).Add("g", "", g)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{3, 8, 5}
	seeds := []uint64{1, 2}
	want := map[[2]int]core.Result{}
	for _, seed := range seeds {
		for _, k := range ks {
			res, err := core.Solve(context.Background(), g, core.Options{K: k, Epsilon: 0.3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{int(seed), k}] = stripElapsed(res)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := seeds[w%len(seeds)]
			for i := range ks {
				k := ks[(i+w)%len(ks)]
				res, _, err := e.Solve(context.Background(), core.Options{K: k, Epsilon: 0.3, Seed: seed, Workers: 1 + w%2}, m)
				if err != nil {
					t.Error(err)
					return
				}
				if got := stripElapsed(res); !reflect.DeepEqual(got, want[[2]int{int(seed), k}]) {
					t.Errorf("seed %d K=%d: concurrent family solve differs from a cold solve", seed, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := e.FamilyCount(); n != len(seeds) {
		t.Fatalf("entry holds %d families, want %d", n, len(seeds))
	}
}

// TestFamilyBudgetEvicts: with a byte budget smaller than one family, every
// family is dropped once idle — the eviction counter moves, the retained
// bytes return to zero, the dropped families release their version
// bindings — and requests keep answering correctly while families are
// evicted under them.
func TestFamilyBudgetEvicts(t *testing.T) {
	s, ts, m := newTestServer(t, Config{SampleBytes: 1})
	g := testGraph(t, 5)
	e, err := s.Registry().Add("g", "", g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				seed := uint64(1 + (w+i)%3)
				status, body := post(t, ts.URL+"/v1/topk", map[string]any{
					"graph": "g", "k": 4, "seed": seed, "freshness": "exact",
				})
				if status != 200 {
					t.Errorf("topk: %d %s", status, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A handler lets go of its family just after writing the response, so
	// wait for the last release: then no family may survive over budget,
	// and none may still hold a version binding.
	waitFor(t, "idle families to be dropped", func() bool {
		e.cur.mu.Lock()
		refs := e.cur.refs
		e.cur.mu.Unlock()
		return m.Snapshot().FamilyBytes == 0 && e.FamilyCount() == 0 && refs == 0
	})
	if m.Snapshot().FamilyEvictions == 0 {
		t.Fatal("no family was evicted under a 1-byte budget")
	}
	r := topk(t, ts.URL, map[string]any{"graph": "g", "k": 4, "seed": 2})
	sameAnswer(t, "after eviction", r.Result, coldAnswer(t, g, core.Options{K: 4, Seed: 2}))
}

// TestFamilyRepairUnderPatches races solves on one family against PATCHes
// (under -race, -count=10 by make race). Every answer must equal a cold
// solve on the version it reports: the family's stored samples are
// repaired forward, tail included, before a run re-admits them.
func TestFamilyRepairUnderPatches(t *testing.T) {
	g := testGraph(t, 5)
	m := &obs.Metrics{}
	e, err := NewRegistry(1, 0, m).Add("g", "", g)
	if err != nil {
		t.Fatal(err)
	}
	versions := []*graph.Graph{g}
	var deltas []*graph.Delta
	for i := 0; i < 4; i++ {
		cur := versions[len(versions)-1]
		u := int32(10 * (i + 1))
		d := &graph.Delta{Delete: []graph.DeltaEdge{{U: u, V: cur.OutNeighbors(u)[0]}}}
		ng, err := graph.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		versions, deltas = append(versions, ng), append(deltas, d)
	}
	type answer struct {
		ver int
		k   int
		res core.Result
	}
	var mu sync.Mutex
	var answers []answer
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := []int{3, 10, 6}[(w+i)%3]
				res, ver, err := e.Solve(context.Background(), core.Options{K: k, Epsilon: 0.3, Seed: 4}, m)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{ver, k, stripElapsed(res)})
				mu.Unlock()
			}
		}(w)
	}
	for _, d := range deltas {
		if _, err := e.Patch(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, a := range answers {
		res, err := core.Solve(context.Background(), versions[a.ver-1], core.Options{K: a.k, Epsilon: 0.3, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.res, stripElapsed(res)) {
			t.Fatalf("K=%d on version %d differs from a cold solve of that version", a.k, a.ver)
		}
	}
}
