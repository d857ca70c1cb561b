package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"gbc"
	"gbc/internal/core"
	"gbc/internal/exact"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/sampling"
	"gbc/internal/server/client"
	"gbc/internal/shard"
	"gbc/internal/xrand"
)

// TestTopKLaneBudgetHelperLanes: a solve that draws while the server's
// lane budget has free tokens borrows them, and /v1/stats counts the
// borrowed lanes as helperLanes; "workers":1 caps a solve at its own lane,
// so the counter stays put. Either way the answer equals gbc.Solve and
// every token is back afterwards.
func TestTopKLaneBudgetHelperLanes(t *testing.T) {
	s, ts, m := newTestServer(t, Config{})
	s.reg.lanes = sampling.NewLaneBudget(2)
	g := testGraph(t, 8)
	if _, err := s.Registry().Add("g", "", g); err != nil {
		t.Fatal(err)
	}
	stats := func() (samples, helpers int64) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct{ Samples, HelperLanes int64 }
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Samples, st.HelperLanes
	}

	for _, tc := range []struct {
		seed, workers int
		borrows       bool
	}{
		{seed: 3, workers: 1, borrows: false},
		{seed: 4, workers: 0, borrows: true},
		{seed: 5, workers: 8, borrows: true},
	} {
		samples, helpers := stats()
		r := topk(t, ts.URL, map[string]any{"graph": "g", "k": 5, "epsilon": 0.2, "seed": tc.seed, "workers": tc.workers})
		sameAnswer(t, fmt.Sprintf("workers %d", tc.workers), r.Result,
			coldAnswer(t, g, core.Options{K: 5, Epsilon: 0.2, Seed: uint64(tc.seed)}))
		samplesAfter, helpersAfter := stats()
		if samplesAfter == samples {
			t.Fatalf("workers %d: the solve drew no samples", tc.workers)
		}
		if borrowed := helpersAfter > helpers; borrowed != tc.borrows {
			t.Fatalf("workers %d: helperLanes %d → %d, want borrowing %v", tc.workers, helpers, helpersAfter, tc.borrows)
		}
		if n := s.reg.lanes.InUse(); n != 0 {
			t.Fatalf("workers %d: %d lanes still in use after the solve", tc.workers, n)
		}
	}
	if m.Snapshot().HelperLanes == 0 {
		t.Fatal("the metrics sink counted no helper lanes")
	}
}

// TestServedAnswersConformAcrossLaneBudgets is served-path conformance
// across lane counts and growth topologies. On the graphs of core's
// TestApproximationGuaranteeSuccessRate, small enough for
// exact.BruteForceOptimal, gbcd answers every request from the solve,
// coalesced and memo paths with lane budgets of 1 and GOMAXPROCS, and with
// version-1 growth through two shard workers; request workers are 0, 1
// and 8. Each graph is then patched, and every seed is answered again on
// version 2: from its family's repaired samples on the unweighted graphs,
// and from a cold rebuild on the weighted one, whose Dijkstra samples
// carry no observation bounds. Each answer must equal gbc.Solve on the
// same version and seed bit for bit and reach (1−1/e−ε)·OPT of that
// version, with failures per cell within that test's binomial bound of γ.
func TestServedAnswersConformAcrossLaneBudgets(t *testing.T) {
	r := xrand.New(301)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyiGNM(22, 55, false, r.Split())},
		{"directed", gen.ErdosRenyiGNM(20, 70, true, r.Split())},
		{"weighted", weightedConformanceGraph(20, 302)},
	}
	const (
		k           = 2
		eps         = 0.3
		gamma       = 0.1
		runs        = 15
		maxFailures = 3 // of runs, as in TestApproximationGuaranteeSuccessRate
		followers   = 2
	)
	thresh := 1 - 1/math.E - eps
	// versions[gi][0] is graph gi as registered, versions[gi][1] after its
	// patch; each with OPT and gbc.Solve's answer per seed.
	type version struct {
		g    *graph.Graph
		opt  float64
		want []gbc.WireResult
	}
	versions := make([][2]version, len(graphs))
	patches := make([]*graph.Delta, len(graphs))
	for gi, c := range graphs {
		patches[gi] = conformancePatch(c.g)
		ng, err := graph.ApplyDelta(c.g, patches[gi])
		if err != nil {
			t.Fatal(err)
		}
		for vi, g := range []*graph.Graph{c.g, ng} {
			v := version{g: g}
			_, v.opt = exact.BruteForceOptimal(g, k)
			for i := 0; i < runs; i++ {
				res, err := gbc.Solve(context.Background(), g, gbc.Options{K: k, Epsilon: eps, Gamma: gamma, Seed: uint64(1000 + i)})
				if err != nil {
					t.Fatal(err)
				}
				v.want = append(v.want, gbc.NewWireResult(gbc.AdaAlg, k, res, nil))
			}
			versions[gi][vi] = v
		}
	}

	procs := runtime.GOMAXPROCS(0)
	for _, topo := range []struct {
		name          string
		lanes, shards int
	}{
		{"lanes=1", 1, 0},
		{fmt.Sprintf("lanes=%d", procs), procs, 0},
		{"shards=2", procs, 2},
	} {
		t.Run(topo.name, func(t *testing.T) {
			// Shard workers resolve every graph in memory under its
			// registered name, standing in for shared .gbcsr storage.
			var urls []string
			for range topo.shards {
				w := shard.NewWorker(nil, false)
				for _, c := range graphs {
					for _, workers := range []int{0, 1, 8} {
						w.AddGraph(fmt.Sprintf("%s-w%d", c.name, workers), c.g)
					}
				}
				srv := httptest.NewServer(w.Handler())
				t.Cleanup(srv.Close)
				urls = append(urls, srv.URL)
			}
			s, ts, m := newTestServer(t, Config{Shards: urls})
			s.reg.lanes = sampling.NewLaneBudget(topo.lanes)
			for gi, c := range graphs {
				for _, workers := range []int{0, 1, 8} {
					// A graph per workers value, so each value's first
					// solve on a seed draws its samples under its own cap.
					name := fmt.Sprintf("%s-w%d", c.name, workers)
					e, err := s.Registry().Add(name, "", c.g)
					if err != nil {
						t.Fatal(err)
					}
					if topo.shards > 0 {
						e.Shard, e.ShardKey = s.Cluster(), name
					}
					before := m.Snapshot()
					for vi := range versions[gi] {
						v := versions[gi][vi]
						if vi == 1 {
							// Every family on the graph now holds version-1
							// samples; the next solve on each repairs them,
							// or rebuilds them cold on the weighted graph.
							epochs := before.ShardEpochs
							before = m.Snapshot()
							if topo.shards > 0 && c.g.Weighted() && before.ShardEpochs == epochs {
								t.Fatalf("%s: version-1 growth did not go through the shard workers", name)
							}
							del, ins := patches[gi].Delete[0], patches[gi].Insert[0]
							insert := map[string]any{"u": ins.U, "v": ins.V}
							if c.g.Weighted() {
								insert["w"] = ins.W
							}
							if status, body := patchJSON(t, ts.URL+"/v1/graphs/"+name, map[string]any{
								"delete": []map[string]any{{"u": del.U, "v": del.V}},
								"insert": []map[string]any{insert},
							}); status != http.StatusOK {
								t.Fatalf("%s: patch: %d %s", name, status, body)
							}
						}
						failures := map[string]int{}
						for i := 0; i < runs; i++ {
							seed := 1000 + i
							req := map[string]any{
								"graph": name, "k": k, "epsilon": eps, "gamma": gamma,
								"seed": seed, "workers": workers,
							}
							exactReq := map[string]any{"freshness": "exact"}
							maps.Copy(exactReq, req)
							check := func(path string, r topkResponse) {
								t.Helper()
								what := fmt.Sprintf("%s v%d seed %d %s", name, vi+1, seed, path)
								if r.ServedFrom != path || r.GraphVersion != vi+1 {
									t.Fatalf("%s: servedFrom %q on version %d", what, r.ServedFrom, r.GraphVersion)
								}
								sameAnswer(t, what, r.Result, v.want[i])
								if exact.GBC(v.g, groupOf(r)) < thresh*v.opt {
									failures[path]++
								}
							}
							if vi == 0 {
								for _, r := range coalescedSolve(t, s, ts.URL, exactReq, uint64(seed), followers) {
									check(r.ServedFrom, r)
								}
							}
							// On version 2 the first request solves: the
							// patch dropped the version-1 memo answers.
							check("solve", topk(t, ts.URL, exactReq))
							check("cache", topk(t, ts.URL, req))
						}
						for path, n := range failures {
							if n > maxFailures {
								t.Fatalf("%s v%d: %d/%d %s answers below the (1-1/e-ε) guarantee", name, vi+1, n, runs, path)
							}
						}
					}
					after := m.Snapshot()
					switch {
					case !c.g.Weighted() && after.SamplesRepaired == before.SamplesRepaired:
						t.Fatalf("%s: the version-2 solves redrew no repaired samples", name)
					case c.g.Weighted() && (after.RepairRuns != before.RepairRuns || after.Samples == before.Samples):
						t.Fatalf("%s: version 2 ran %d repairs and drew %d samples; want a cold rebuild",
							name, after.RepairRuns-before.RepairRuns, after.Samples-before.Samples)
					}
				}
			}
			if n := s.reg.lanes.InUse(); n != 0 {
				t.Fatalf("%d lanes still in use after the traffic", n)
			}
			st := m.Snapshot()
			if topo.shards > 0 {
				if st.ShardEpochs == 0 {
					t.Fatal("no sample growth went through the shard workers")
				}
			} else if (topo.lanes > 1) != (st.HelperLanes > 0) {
				t.Fatalf("lane budget %d granted %d helper lanes", topo.lanes, st.HelperLanes)
			}
		})
	}
}

// weightedConformanceGraph is an n-node connected undirected graph with
// integer weights 1..4: a random tree plus one random edge per node, as
// core's randomWeighted builds it.
func weightedConformanceGraph(n int, seed uint64) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddWeightedEdge(int32(v), int32(r.Intn(v)), float64(1+r.Intn(4)))
		if v > 2 {
			u, w := r.IntnPair(v)
			b.AddWeightedEdge(int32(u), int32(w), float64(1+r.Intn(4)))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// conformancePatch is a two-edge delta for g: it deletes the first edge of
// the first node that has one and inserts the first edge absent from the
// last node, with weight 2 on a weighted graph.
func conformancePatch(g *graph.Graph) *graph.Delta {
	u := int32(0)
	for g.OutDegree(u) == 0 {
		u++
	}
	del := graph.DeltaEdge{U: u, V: g.OutNeighbors(u)[0]}
	a := int32(g.N() - 1)
	b := int32(0)
	for b == a || g.HasEdge(a, b) {
		b++
	}
	ins := graph.DeltaEdge{U: a, V: b}
	if g.Weighted() {
		ins.W = 2
	}
	return &graph.Delta{Delete: []graph.DeltaEdge{del}, Insert: []graph.DeltaEdge{ins}}
}

// coalescedSolve sends 1+followers copies of a freshness-"exact" request
// on seed while holding their family's run lock, so the leader waits
// inside its solve until every follower has joined it; it returns all
// responses (one "solve", the rest "coalesced").
func coalescedSolve(t *testing.T, s *Server, url string, req map[string]any, seed uint64, followers int) []topkResponse {
	t.Helper()
	entry, ok := s.Registry().Get(req["graph"].(string))
	if !ok {
		t.Fatalf("graph %v not registered", req["graph"])
	}
	defer entry.Release()
	fam := entry.acquireFamily(familyKeyFor(core.Options{Seed: seed}))
	defer entry.releaseFamily(fam)
	statuses := make([]int, 1+followers)
	bodies := make([][]byte, len(statuses))
	var wg sync.WaitGroup
	func() {
		fam.run.Lock()
		defer fam.run.Unlock()
		before := s.metrics.Snapshot().RunsCoalesced
		c := &client.Client{MaxRetries: -1}
		for i := range statuses {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if statuses[i], bodies[i], err = c.PostJSON(context.Background(), url+"/v1/topk", req); err != nil {
					t.Error(err)
				}
			}()
		}
		waitFor(t, "followers to join the leader's run", func() bool {
			return s.metrics.Snapshot().RunsCoalesced-before == int64(followers)
		})
	}()
	wg.Wait()
	out := make([]topkResponse, len(statuses))
	served := map[string]int{}
	for i := range out {
		if statuses[i] != http.StatusOK || json.Unmarshal(bodies[i], &out[i]) != nil {
			t.Fatalf("request %d: %d %s", i, statuses[i], bodies[i])
		}
		served[out[i].ServedFrom]++
	}
	if served["solve"] != 1 || served["coalesced"] != followers {
		t.Fatalf("servedFrom split %v, want 1 solve and %d coalesced", served, followers)
	}
	return out
}

// groupOf is a response's group as node ids.
func groupOf(r topkResponse) []int32 {
	group := make([]int32, len(r.Result.Group))
	for i, v := range r.Result.Group {
		group[i] = int32(v)
	}
	return group
}
