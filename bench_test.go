// Benchmarks regenerating the paper's evaluation, one per table and figure
// (§VI, Table I and Figs. 1-5), plus ablations for the design choices
// called out in DESIGN.md and micro-benchmarks of the substrates.
//
// The figure benchmarks run the experiment harness at a reduced "quick"
// scale so `go test -bench=.` finishes on one CPU; cmd/experiments runs the
// full-size sweeps and EXPERIMENTS.md records their outputs. Shape-relevant
// quantities (sample counts, β, quality ratios) are reported as custom
// metrics next to the timings.
package gbc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/core"
	"gbc/internal/coverage"
	"gbc/internal/dataset"
	"gbc/internal/exact"
	"gbc/internal/experiments"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = 9
	return cfg
}

// BenchmarkTable1Datasets regenerates Table I: every stand-in at its quick
// scale.
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = dataset.Names()
	cfg.Scale = 0.02
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFig1RelativeError regenerates Fig. 1 (β vs L) at quick scale and
// reports the last point's average β.
func BenchmarkFig1RelativeError(b *testing.B) {
	cfg := benchConfig()
	var beta float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		beta = points[len(points)-1].AvgBeta
	}
	b.ReportMetric(beta, "finalAvgBeta")
}

// BenchmarkFig2GBCvsK regenerates Fig. 2 (normalized GBC vs K, ε = 0.3).
func BenchmarkFig2GBCvsK(b *testing.B) {
	cfg := benchConfig()
	var q float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Algorithm == "AdaAlg" {
				q = p.NormalizedGBC
			}
		}
	}
	b.ReportMetric(q, "adaNormGBC")
}

// BenchmarkFig3GBCvsEps regenerates Fig. 3 (normalized GBC vs ε).
func BenchmarkFig3GBCvsEps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SamplesVsK regenerates Fig. 4 (samples vs K, ε = 0.3) and
// reports the CentRa/AdaAlg sample ratio at the largest K.
func BenchmarkFig4SamplesVsK(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		kMax := cfg.KValues[len(cfg.KValues)-1]
		var ada, cen float64
		for _, p := range points {
			if p.K == kMax && p.Dataset == "GrQc" {
				switch p.Algorithm {
				case "AdaAlg":
					ada = p.Samples
				case "CentRa":
					cen = p.Samples
				}
			}
		}
		ratio = cen / ada
	}
	b.ReportMetric(ratio, "centraOverAda")
}

// BenchmarkFig5SamplesVsEps regenerates Fig. 5 (samples vs ε).
func BenchmarkFig5SamplesVsEps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md "Design choices worth ablating") ---

// BenchmarkAblationBaseChoice compares AdaAlg's sample count under the
// paper's Eq. 13 base against fixed bases.
func BenchmarkAblationBaseChoice(b *testing.B) {
	g := BarabasiAlbert(1500, 3, 3)
	for _, tc := range []struct {
		name string
		base float64
	}{{"Eq13", 0}, {"b1.1", 1.1}, {"b1.5", 1.5}, {"b2.0", 2.0}} {
		b.Run(tc.name, func(b *testing.B) {
			var samples int
			for i := 0; i < b.N; i++ {
				res, err := Solve(context.Background(), g, Options{K: 20, Seed: uint64(i + 1), FixedBase: tc.base})
				if err != nil {
					b.Fatal(err)
				}
				samples = res.Samples
			}
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

// BenchmarkAblationGreedy compares the lazy (CELF) greedy against the
// reference quadratic greedy on the same sampled coverage instance.
func BenchmarkAblationGreedy(b *testing.B) {
	g := BarabasiAlbert(2000, 3, 4)
	set := sampling.NewBidirectionalSet(g, xrand.New(5))
	set.GrowTo(20000)
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set.Coverage().Greedy(50)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set.Coverage().GreedyReference(50)
		}
	})
}

// BenchmarkAblationSampler compares the balanced bidirectional sampler
// against the truncated forward-BFS sampler, reporting edges scanned per
// sampled path.
func BenchmarkAblationSampler(b *testing.B) {
	g := BarabasiAlbert(20000, 4, 5)
	r := xrand.New(6)
	b.Run("bidirectional", func(b *testing.B) {
		s := bfs.NewBidirectional(g)
		for i := 0; i < b.N; i++ {
			u, v := r.IntnPair(g.N())
			s.Sample(int32(u), int32(v), r)
		}
		b.ReportMetric(float64(s.EdgesScanned)/float64(b.N), "edges/path")
	})
	b.Run("forward", func(b *testing.B) {
		s := bfs.NewForward(g)
		for i := 0; i < b.N; i++ {
			u, v := r.IntnPair(g.N())
			s.Sample(int32(u), int32(v), r)
		}
		b.ReportMetric(float64(s.EdgesScanned)/float64(b.N), "edges/path")
	})
}

// BenchmarkAblationValidationSet contrasts AdaAlg's independent validation
// set T with reusing S's estimate (no unbiased check): the β it would see.
func BenchmarkAblationValidationSet(b *testing.B) {
	g := BarabasiAlbert(2000, 3, 7)
	r := xrand.New(8)
	var betaIndep, betaReuse float64
	for i := 0; i < b.N; i++ {
		setS := sampling.NewBidirectionalSet(g, r.Split())
		setT := sampling.NewBidirectionalSet(g, r.Split())
		setS.GrowTo(2000)
		setT.GrowTo(2000)
		group, covered := setS.Greedy(20)
		biased := setS.Estimate(covered)
		betaIndep = 1 - setT.EstimateGroup(group)/biased
		betaReuse = 1 - setS.EstimateGroup(group)/biased // always 0: no signal
	}
	b.ReportMetric(betaIndep, "betaIndependentT")
	b.ReportMetric(betaReuse, "betaReusedS")
}

// BenchmarkAblationPairVsPath compares path sampling (AdaAlg's substrate)
// against Yoshida-style pair sampling on the same instance: total samples
// needed and wall time (the 1/μ_opt² factor of the pair bound).
func BenchmarkAblationPairVsPath(b *testing.B) {
	g, err := Dataset("GrQc", 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{K: 10, Epsilon: 0.3, Seed: 3, MaxSamples: 300000}
	b.Run("path-AdaAlg", func(b *testing.B) {
		var samples int
		for i := 0; i < b.N; i++ {
			res, err := Solve(context.Background(), g, opts)
			if err != nil {
				b.Fatal(err)
			}
			samples = res.Samples
		}
		b.ReportMetric(float64(samples), "samples")
	})
	b.Run("pair-Yoshida", func(b *testing.B) {
		var samples int
		for i := 0; i < b.N; i++ {
			popts := opts
			popts.Algorithm = PairSampling
			res, err := Solve(context.Background(), g, popts)
			if err != nil {
				b.Fatal(err)
			}
			samples = res.Samples
		}
		b.ReportMetric(float64(samples), "samples")
	})
}

// BenchmarkAblationWorkers measures multi-worker sampling throughput (the
// results are identical by construction; see the sampling tests).
func BenchmarkAblationWorkers(b *testing.B) {
	g := BarabasiAlbert(20000, 4, 8)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set := sampling.NewBidirectionalSet(g, xrand.New(uint64(i+1)))
				set.Workers = workers
				set.GrowTo(20000)
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// benchPaths draws a deterministic multiset of simple paths over n nodes
// (plus ~5% null samples) for the coverage-engine micro-benchmarks.
func benchPaths(n, count int, seed uint64) [][]int32 {
	r := xrand.New(seed)
	paths := make([][]int32, count)
	for i := range paths {
		if r.Float64() < 0.05 {
			continue // null sample
		}
		length := 2 + r.Intn(10)
		seen := make(map[int32]bool, length)
		p := make([]int32, 0, length)
		for len(p) < length {
			v := int32(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				p = append(p, v)
			}
		}
		paths[i] = p
	}
	return paths
}

// BenchmarkCoverageAdd measures building a coverage instance from scratch:
// Add for every path plus the index work needed before the first query (the
// probe CoveredBy forces it in either layout).
func BenchmarkCoverageAdd(b *testing.B) {
	paths := benchPaths(2000, 10000, 21)
	probe := []int32{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coverage.New(2000)
		for _, p := range paths {
			c.Add(p)
		}
		c.CoveredBy(probe)
	}
}

// BenchmarkCoverageGreedyRerun measures Greedy re-executed on a grown
// instance — AdaAlg's per-iteration hot path. The instance and (in the flat
// engine) its workspace persist across iterations.
func BenchmarkCoverageGreedyRerun(b *testing.B) {
	g := BarabasiAlbert(5000, 3, 22)
	set := sampling.NewBidirectionalSet(g, xrand.New(23))
	set.GrowTo(50000)
	c := set.Coverage()
	c.Greedy(100) // warm: index committed, workspace sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Greedy(100)
	}
}

// BenchmarkCoverageGreedyAfterGrowth interleaves growth with greedy
// re-runs: each iteration appends a fresh batch of paths and re-solves,
// the exact grow→greedy cadence of the adaptive loop.
func BenchmarkCoverageGreedyAfterGrowth(b *testing.B) {
	batches := make([][][]int32, 64)
	for i := range batches {
		batches[i] = benchPaths(2000, 500, uint64(100+i))
	}
	c := coverage.New(2000)
	for _, p := range benchPaths(2000, 20000, 24) {
		c.Add(p)
	}
	c.Greedy(50) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range batches[i%len(batches)] {
			c.Add(p)
		}
		c.Greedy(50)
	}
}

// BenchmarkCoverageCoveredBy measures CoveredBy on a grown instance —
// called by AdaAlg on the validation set T every iteration.
func BenchmarkCoverageCoveredBy(b *testing.B) {
	g := BarabasiAlbert(5000, 3, 25)
	set := sampling.NewBidirectionalSet(g, xrand.New(26))
	set.GrowTo(50000)
	group, _ := set.Greedy(50)
	set.CoveredBy(group) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.CoveredBy(group)
	}
}

// BenchmarkServedSolveStoredSamples times an AdaAlg solve on the served
// sample-family path: the SamplerSet hook hands back Reset sets that
// already hold every sample the solve needs, so the solve draws nothing
// and pays for re-admitting stored samples (Extend and the index Commit),
// greedy on S and the estimate on T. A stored-K=a/K=b case stores the
// sets with a K=a solve and times K=b solves on them, as a family a K
// sweep grew serves: a larger K converges on fewer samples than the family
// stores, so every greedy runs at a length below Stored. After each solve its
// calls are replayed, untimed, on the same sets to split the time:
// commit-ns/op is what the Reset and GrowTo calls (re-admission and
// Commit) took, and greedy-ns/op what Greedy took.
func BenchmarkServedSolveStoredSamples(b *testing.B) {
	for _, c := range []struct {
		name, dataset string
		scale         float64
	}{
		{"GrQc", "GrQc", 1},
		{"DBLP-2011@0.015", "DBLP-2011", 0.015},
		{"Coauthor@0.1", "Coauthor", 0.1},
	} {
		spec, err := dataset.Lookup(c.dataset)
		if err != nil {
			b.Fatal(err)
		}
		g := spec.Generate(c.scale, 1)
		for _, ks := range []struct{ store, k int }{{5, 5}, {50, 50}, {5, 10}, {5, 20}, {5, 50}} {
			name := fmt.Sprintf("%s/K=%d", c.name, ks.k)
			if ks.store != ks.k {
				name = fmt.Sprintf("%s/stored-K=%d/K=%d", c.name, ks.store, ks.k)
			}
			b.Run(name, func(b *testing.B) {
				k := ks.k
				var sets []*sampling.Set
				calls := 0
				opts := core.Options{K: ks.store, Epsilon: 0.2, Seed: 1, CollectTrace: true,
					SamplerSet: func(g *Graph, r *xrand.Rand) *sampling.Set {
						slot := calls
						calls++
						if slot < len(sets) {
							sets[slot].Reset()
							return sets[slot]
						}
						s := sampling.NewBidirectionalSet(g, r)
						sets = append(sets, s)
						return s
					}}
				solve := func() *core.Result {
					calls = 0
					res, err := core.AdaAlg(g, opts)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				solve() // draws and stores the samples the family serves
				opts.K = k
				solve() // warm: draws whatever K alone needs past them
				var commit, greedy time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := solve()
					b.StopTimer()
					setS, setT := sets[0], sets[1]
					t0 := time.Now()
					setS.Reset()
					setT.Reset()
					commit += time.Since(t0)
					for _, it := range res.Trace {
						t0 = time.Now()
						setS.GrowTo(it.L)
						t1 := time.Now()
						setS.Greedy(k)
						t2 := time.Now()
						setT.GrowTo(it.L)
						commit += t1.Sub(t0) + time.Since(t2)
						greedy += t2.Sub(t1)
						setT.CoveredBy(it.Group)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "commit-ns/op")
				b.ReportMetric(float64(greedy.Nanoseconds())/float64(b.N), "greedy-ns/op")
			})
		}
	}
}

// BenchmarkSamplingGrow measures end-to-end sampling throughput (draw +
// commit into the coverage engine), sequential and parallel.
func BenchmarkSamplingGrow(b *testing.B) {
	g := BarabasiAlbert(5000, 3, 27)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set := sampling.NewBidirectionalSet(g, xrand.New(uint64(i+1)))
				set.Workers = workers
				set.GrowTo(10000)
			}
		})
	}
}

// BenchmarkSamplingGrowWarm measures steady-state growth on a long-lived
// set: the per-lane samplers and arenas are warm, so each op is pure
// drawing plus the bulk arena append — the zero-allocation regime the
// pipeline targets.
func BenchmarkSamplingGrowWarm(b *testing.B) {
	g := BarabasiAlbert(5000, 3, 27)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			set := sampling.NewBidirectionalSet(g, xrand.New(1))
			set.Workers = workers
			set.GrowTo(10000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.GrowTo(set.Len() + 10000)
			}
		})
	}
}

// BenchmarkBidirectionalSamplePath times one bidirectional draw (pair
// choice, search, crossing-edge selection and path walk) the way a sampling
// lane makes it: AppendSample into a reused buffer. The shapes are sparse
// and dense preferential attachment (m/n ≈ 4 and ≈ 13), directed
// preferential attachment with unreachable pairs, and a Watts–Strogatz
// ring; edges/path is the adjacency entries the search expanded per draw.
func BenchmarkBidirectionalSamplePath(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"ba-sparse", BarabasiAlbert(50000, 4, 9)},
		{"ba-dense", BarabasiAlbert(10000, 13, 9)},
		{"dpa", DirectedPreferential(50000, 4, 0.3, 9)},
		{"ws", WattsStrogatz(50000, 5, 0.05, 9)},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := bfs.NewBidirectional(c.g)
			r := xrand.New(10)
			var buf []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, v := r.IntnPair(c.g.N())
				_, buf = s.AppendSample(buf[:0], int32(u), int32(v), r)
			}
			b.ReportMetric(float64(s.EdgesScanned)/float64(b.N), "edges/path")
		})
	}
}

// withWeights is g with each edge weighted uniformly from 1..8, the
// weights of gbcbench's solve-mix weighted instance.
func withWeights(g *Graph, seed uint64) *Graph {
	r := xrand.New(seed)
	bld := NewBuilder(g.N(), g.Directed())
	g.Edges(func(u, v int32) bool {
		bld.AddWeightedEdge(u, v, float64(1+r.Intn(8)))
		return true
	})
	wg, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return wg
}

// BenchmarkDijkstraSamplePath times one weighted draw (pair choice, the
// bidirectional Dijkstra, crossing-edge selection and path walk) the way a
// sampling lane makes it: AppendSample into a reused buffer. The shapes are
// preferential attachment with weights 1..8 at n = 400 (the shape of
// solve-mix's weighted graph) and n = 5,000, and directed preferential
// attachment with unreachable pairs; edges/path is the adjacency entries
// the settles scanned per draw.
func BenchmarkDijkstraSamplePath(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"ba-400", withWeights(BarabasiAlbert(400, 3, 9), 10)},
		{"ba-5000", withWeights(BarabasiAlbert(5000, 3, 9), 10)},
		{"dpa-5000", withWeights(DirectedPreferential(5000, 3, 0.3, 9), 10)},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := bfs.NewDijkstra(c.g)
			r := xrand.New(11)
			var buf []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, v := r.IntnPair(c.g.N())
				_, buf = s.AppendSample(buf[:0], int32(u), int32(v), r)
			}
			b.ReportMetric(float64(s.EdgesScanned)/float64(b.N), "edges/path")
		})
	}
}

func BenchmarkGreedyCoverage50k(b *testing.B) {
	g := BarabasiAlbert(5000, 3, 11)
	set := sampling.NewBidirectionalSet(g, xrand.New(12))
	set.GrowTo(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Greedy(100)
	}
}

func BenchmarkExactGBC(b *testing.B) {
	g := BarabasiAlbert(2000, 3, 13)
	group := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.GBC(g, group)
	}
}

func BenchmarkBrandesCentrality(b *testing.B) {
	g := BarabasiAlbert(1000, 3, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NodeBetweenness(g)
	}
}

func BenchmarkAdaAlgGrQcScale(b *testing.B) {
	spec, err := dataset.Lookup("GrQc")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(0.5, 15)
	var samples int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.AdaAlg(g, core.Options{K: 50, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		samples = res.Samples
	}
	b.ReportMetric(float64(samples), "samples")
}

func BenchmarkGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(10000, 4, uint64(i+1))
	}
}
