package bfs

import (
	"fmt"
	"math"
	"testing"

	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// weighted builds a weighted graph from (u, v, w) triples.
func weighted(n int, directed bool, edges [][3]float64) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for _, e := range edges {
		b.AddWeightedEdge(int32(e[0]), int32(e[1]), e[2])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestDijkstraSSSPBasic(t *testing.T) {
	// 0 -1- 1 -1- 2, and a direct 0-2 edge of weight 3: two tied paths.
	g := weighted(3, false, [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 2}})
	dist, sigma, order := DijkstraSSSP(g, 0)
	if dist[2] != 2 || sigma[2] != 2 {
		t.Fatalf("dist=%g sigma=%g, want 2, 2", dist[2], sigma[2])
	}
	if order[0] != 0 {
		t.Fatalf("order %v", order)
	}
}

func TestDijkstraSSSPUnreachable(t *testing.T) {
	g := weighted(3, true, [][3]float64{{0, 1, 1}})
	dist, _, _ := DijkstraSSSP(g, 0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist to unreachable = %g", dist[2])
	}
}

func TestDijkstraWeightsChangeRouting(t *testing.T) {
	// Hop-wise 0-2 direct is shortest; weight-wise the detour wins.
	g := weighted(3, false, [][3]float64{{0, 2, 10}, {0, 1, 1}, {1, 2, 1}})
	dj := NewDijkstra(g)
	sigma, dist, ok := dj.SigmaDist(0, 2)
	if !ok || dist != 2 || sigma != 1 {
		t.Fatalf("σ=%g d=%g ok=%v; want 1, 2, true", sigma, dist, ok)
	}
	smp := dj.Sample(0, 2, xrand.New(1))
	if len(smp.Path) != 3 || smp.Path[1] != 1 {
		t.Fatalf("path %v should detour via 1", smp.Path)
	}
	if dj.WeightedDist != 2 {
		t.Fatalf("WeightedDist = %g", dj.WeightedDist)
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	// With all weights 1 the weighted machinery must agree with BFS.
	r := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		directed := trial%2 == 0
		bu := graph.NewBuilder(30, directed)
		bw := graph.NewBuilder(30, directed)
		for i := 0; i < 70; i++ {
			u, v := r.IntnPair(30)
			bu.AddEdge(int32(u), int32(v))
			bw.AddWeightedEdge(int32(u), int32(v), 1)
		}
		gu, err := bu.Build()
		if err != nil {
			t.Fatal(err)
		}
		gw, err := bw.Build()
		if err != nil {
			t.Fatal(err)
		}
		dj := NewDijkstra(gw)
		fw := NewForward(gu)
		for pair := 0; pair < 60; pair++ {
			a, b := r.IntnPair(30)
			s, tt := int32(a), int32(b)
			sw, dw, okw := dj.SigmaDist(s, tt)
			su, du, oku := fw.SigmaDist(s, tt)
			if okw != oku {
				t.Fatalf("reachability mismatch at (%d,%d)", s, tt)
			}
			if !okw {
				continue
			}
			if math.Abs(sw-su) > 1e-9 || int32(dw) != du {
				t.Fatalf("pair (%d,%d): dijkstra σ=%g d=%g, bfs σ=%g d=%d", s, tt, sw, dw, su, du)
			}
		}
	}
}

func TestDijkstraSampleValidity(t *testing.T) {
	r := xrand.New(3)
	b := graph.NewBuilder(60, false)
	for i := 0; i < 200; i++ {
		u, v := r.IntnPair(60)
		b.AddWeightedEdge(int32(u), int32(v), float64(1+r.Intn(5)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dj := NewDijkstra(g)
	for i := 0; i < 200; i++ {
		a, bb := r.IntnPair(60)
		s, tt := int32(a), int32(bb)
		sigma, dist, ok := dj.SigmaDist(s, tt)
		if !ok {
			continue
		}
		smp := dj.Sample(s, tt, r)
		if !smp.Reachable || smp.Path[0] != s || smp.Path[len(smp.Path)-1] != tt {
			t.Fatalf("bad endpoints %v", smp.Path)
		}
		var length float64
		for j := 0; j+1 < len(smp.Path); j++ {
			w, exists := g.Weight(smp.Path[j], smp.Path[j+1])
			if !exists {
				t.Fatalf("path uses missing edge (%d,%d)", smp.Path[j], smp.Path[j+1])
			}
			length += w
		}
		if !SameWeightedDist(length, dist) {
			t.Fatalf("sampled path length %g != shortest %g", length, dist)
		}
		if smp.Sigma != sigma {
			t.Fatalf("σ mismatch %g vs %g", smp.Sigma, sigma)
		}
	}
}

func TestDijkstraSampleUniformOverTiedPaths(t *testing.T) {
	// Two tied weighted paths 0→3: via 1 (1+2) and via 2 (2+1).
	g := weighted(4, false, [][3]float64{{0, 1, 1}, {1, 3, 2}, {0, 2, 2}, {2, 3, 1}})
	dj := NewDijkstra(g)
	r := xrand.New(4)
	via1 := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		smp := dj.Sample(0, 3, r)
		if smp.Path[1] == 1 {
			via1++
		}
	}
	if f := float64(via1) / trials; math.Abs(f-0.5) > 0.03 {
		t.Fatalf("tied paths not sampled uniformly: via-1 fraction %g", f)
	}

	// A 4×4 grid of unit edges with three weight-2 diagonal bypasses: the
	// tied corner-to-corner paths differ in hop count and cross the cut on
	// different edges. A chi-square test compares the sampled paths with
	// the uniform distribution over the paths DijkstraSSSP's DAG holds.
	var edges [][3]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := float64(4*i + j)
			if j < 3 {
				edges = append(edges, [3]float64{v, v + 1, 1})
			}
			if i < 3 {
				edges = append(edges, [3]float64{v, v + 4, 1})
			}
		}
	}
	edges = append(edges, [3]float64{0, 5, 2}, [3]float64{6, 11, 2}, [3]float64{9, 14, 2})
	grid := weighted(16, false, edges)
	dj = NewDijkstra(grid)
	for _, pair := range [][2]int32{{0, 15}, {15, 0}, {1, 14}} {
		s, tt := pair[0], pair[1]
		paths := dagPaths(grid, s, tt)
		sigma, _, _ := dj.SigmaDist(s, tt)
		if sigma != float64(len(paths)) {
			t.Fatalf("(%d,%d): σ = %g, DAG holds %d paths", s, tt, sigma, len(paths))
		}
		crossings := map[[2]int32]bool{}
		for _, e := range dj.cross {
			crossings[[2]int32{e.u, e.v}] = true
		}
		hops := map[int]bool{}
		for _, p := range paths {
			hops[len(p)] = true
		}
		if len(crossings) < 2 || len(hops) < 2 {
			t.Fatalf("(%d,%d): %d crossing edges and %d hop counts; the case must have several of each",
				s, tt, len(crossings), len(hops))
		}
		const perPath = 400
		counts := map[string]int{}
		for i := 0; i < perPath*len(paths); i++ {
			counts[fmt.Sprint(dj.Sample(s, tt, r).Path)]++
		}
		var chi2 float64
		for _, p := range paths {
			d := float64(counts[fmt.Sprint(p)] - perPath)
			chi2 += d * d / perPath
			delete(counts, fmt.Sprint(p))
		}
		if len(counts) > 0 {
			t.Fatalf("(%d,%d): sampled paths outside the DAG: %v", s, tt, counts)
		}
		crit := chiSquareCritical(len(paths) - 1)
		t.Logf("(%d,%d): %d paths, %d crossing edges, χ² = %.1f (critical %.1f)",
			s, tt, len(paths), len(crossings), chi2, crit)
		if chi2 > crit {
			t.Fatalf("(%d,%d): χ² = %.1f over %d paths exceeds %.1f (p = 0.001)", s, tt, chi2, len(paths), crit)
		}
	}
}

// dagPaths enumerates every shortest s–t path of a weighted graph by
// walking DijkstraSSSP's shortest-path DAG back from t.
func dagPaths(g *graph.Graph, s, t int32) [][]int32 {
	dist, _, _ := DijkstraSSSP(g, s)
	var paths [][]int32
	var walk func(cur int32, rev []int32)
	walk = func(cur int32, rev []int32) {
		rev = append(rev, cur)
		if cur == s {
			p := make([]int32, len(rev))
			for i, v := range rev {
				p[len(rev)-1-i] = v
			}
			paths = append(paths, p)
			return
		}
		wts := g.InWeights(cur)
		for i, w := range g.InNeighbors(cur) {
			if dist[w] < dist[cur] && SameWeightedDist(dist[w]+wts[i], dist[cur]) {
				walk(w, rev)
			}
		}
	}
	walk(t, nil)
	return paths
}

// chiSquareCritical is the Wilson–Hilferty approximation of the χ²
// quantile at p = 0.001 for df degrees of freedom.
func chiSquareCritical(df int) float64 {
	const z = 3.090 // standard normal quantile at 0.999
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// sameDistMathMax is sameDist as first written, with math.Max: the
// reference the inlinable version must reproduce on every input.
func sameDistMathMax(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= weightTol*math.Max(1, m)
}

// TestSameDistTable pins the tie test on equal values, near-ties at the
// 1e-9 relative tolerance, values below 1, ±Inf and NaN, in both argument
// orders, against the math.Max formulation it replaced.
func TestSameDistTable(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{3, 3, true},
		{0, 0, true},
		{0, math.Copysign(0, -1), true},
		{-3, -3, true},
		{0.1 + 0.2, 0.3, true},
		{0.1 + 0.7, 0.8, true},
		{1e6, 1e6 + 5e-4, true},  // 0.5e-9 relative
		{1e6, 1e6 + 2e-3, false}, // 2e-9 relative
		{-1e6, -1e6 - 5e-4, true},
		{1, 1 + 2e-9, false},
		{0.5, 0.5 + 5e-10, true}, // below 1 the tolerance is absolute
		{0.5, 0.5 + 2e-9, false},
		{1e-12, 0, true},
		{1e-8, 0, false},
		{math.MaxFloat64, math.MaxFloat64, true},
		{inf, inf, true},
		{inf, 5, false},
		{inf, math.MaxFloat64, false},
		{-inf, 5, true}, // |−Inf − 5| = Inf <= 1e-9·Inf
		{-inf, -inf, false},
		{inf, -inf, false},
		{nan, nan, false},
		{nan, 1, false},
		{nan, 0, false},
		{nan, inf, false},
		{nan, -inf, false},
	} {
		for _, ab := range [][2]float64{{c.a, c.b}, {c.b, c.a}} {
			got, ref := sameDist(ab[0], ab[1]), sameDistMathMax(ab[0], ab[1])
			if got != c.want || ref != c.want {
				t.Errorf("sameDist(%g, %g) = %v, math.Max formulation %v, want %v", ab[0], ab[1], got, ref, c.want)
			}
		}
	}
}

func TestNewDijkstraPanicsOnUnweighted(t *testing.T) {
	g := graph.MustFromEdges(3, false, [][2]int32{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDijkstra(g)
}

func TestBidirectionalPanicsOnWeighted(t *testing.T) {
	g := weighted(3, false, [][3]float64{{0, 1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBidirectional(g)
}
