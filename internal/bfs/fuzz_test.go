package bfs

import (
	"math"
	"testing"

	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// fuzzMaxNodes caps the fuzzed graphs: small enough that σ stays an exact
// float64 integer on every path, so the bidirectional and forward counts
// must agree bit for bit.
const fuzzMaxNodes = 24

// fuzzGraph decodes a graph from fuzz bytes: the first byte picks the node
// count (2..fuzzMaxNodes), every following byte pair is one edge (a, b),
// both taken modulo n. The builder drops self-loops and duplicates.
func fuzzGraph(directed bool, data []byte) *graph.Graph {
	n := 2
	if len(data) > 0 {
		n += int(data[0]) % (fuzzMaxNodes - 1)
		data = data[1:]
	}
	b := graph.NewBuilder(n, directed)
	for ; len(data) >= 2; data = data[2:] {
		b.AddEdge(int32(int(data[0])%n), int32(int(data[1])%n))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// fuzzBytes encodes an n-node edge list the way fuzzGraph decodes it.
func fuzzBytes(n int, edges ...[2]byte) []byte {
	data := []byte{byte(n - 2)}
	for _, e := range edges {
		data = append(data, e[0], e[1])
	}
	return data
}

// FuzzBidirectionalSample checks the bidirectional sampler against the
// forward reference on small arbitrary graphs: reachability, d(s,t) and
// σ_st from SigmaDist and Sample equal Forward.SigmaDist, the sampled path
// runs from s to t over existing edges in exactly Dist hops, and
// AppendSample reproduces Sample (path, metadata, observation bounds and
// RNG consumption). The seeds cover adjacent pairs, unreachable pairs, and
// searches whose last expansion is forward and backward.
func FuzzBidirectionalSample(f *testing.F) {
	path5 := fuzzBytes(5, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 3}, [2]byte{3, 4})
	// s = 0 has four neighbours and t = 6 hangs off a two-edge tail, so
	// the backward side expands every level, the last one included.
	broom := fuzzBytes(7, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{0, 3}, [2]byte{0, 4},
		[2]byte{1, 5}, [2]byte{5, 6})
	// Two diamonds in series: σ = 4 between 0 and 6.
	diamonds := fuzzBytes(7, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{1, 3}, [2]byte{2, 3},
		[2]byte{3, 4}, [2]byte{3, 5}, [2]byte{4, 6}, [2]byte{5, 6})
	// σ = 4 between 0 and 7, and node 3's extra leaves make the forward
	// frontier dearer, so the backward side meets it at forward depth 2.
	kite := fuzzBytes(10, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{1, 3}, [2]byte{2, 3},
		[2]byte{3, 4}, [2]byte{3, 5}, [2]byte{3, 8}, [2]byte{3, 9},
		[2]byte{4, 6}, [2]byte{5, 6}, [2]byte{6, 7})
	twoComponents := fuzzBytes(4, [2]byte{0, 1}, [2]byte{2, 3})
	for _, seed := range []struct {
		directed bool
		s, t     uint8
		seed     uint64
		data     []byte
	}{
		{false, 1, 2, 1, path5},          // adjacent, d = 1
		{true, 2, 3, 2, path5},           // adjacent, directed
		{false, 0, 4, 3, path5},          // last expansion forward
		{true, 0, 4, 4, path5},           // last expansion forward, directed
		{false, 0, 6, 5, broom},          // last expansion backward
		{true, 0, 6, 6, broom},           // last expansion backward, directed
		{false, 0, 6, 7, diamonds},       // σ > 1 at the meeting level
		{false, 6, 0, 8, diamonds},       // σ > 1, reversed
		{false, 0, 7, 12, kite},          // last expansion backward, σ > 1
		{true, 0, 7, 13, kite},           // the same, directed
		{true, 4, 0, 9, path5},           // unreachable against the edges
		{false, 0, 3, 10, twoComponents}, // unreachable, two components
		{false, 0, 1, 11, nil},           // no edges at all
	} {
		f.Add(seed.directed, seed.s, seed.t, seed.seed, seed.data)
	}
	f.Fuzz(func(t *testing.T, directed bool, s8, t8 uint8, seed uint64, data []byte) {
		g := fuzzGraph(directed, data)
		n := g.N()
		s, tt := int32(int(s8)%n), int32(int(t8)%n)
		if s == tt {
			tt = (s + 1) % int32(n)
		}
		wantSigma, wantDist, wantOK := NewForward(g).SigmaDist(s, tt)

		bd := NewBidirectional(g)
		sigma, dist, ok := bd.SigmaDist(s, tt)
		if ok != wantOK || dist != wantDist || sigma != wantSigma {
			t.Fatalf("SigmaDist(%d,%d) = (%g, %d, %v), forward (%g, %d, %v)",
				s, tt, sigma, dist, ok, wantSigma, wantDist, wantOK)
		}

		r1, r2 := xrand.New(seed), xrand.New(seed)
		smp := bd.Sample(s, tt, r1)
		if smp.Reachable != wantOK || smp.Dist != wantDist || smp.Sigma != wantSigma {
			t.Fatalf("Sample(%d,%d): (%v, %d, %g), forward (%v, %d, %g)",
				s, tt, smp.Reachable, smp.Dist, smp.Sigma, wantOK, wantDist, wantSigma)
		}
		if !wantOK {
			if smp.Path != nil {
				t.Fatalf("unreachable pair (%d,%d) returned path %v", s, tt, smp.Path)
			}
		} else {
			p := smp.Path
			if len(p) != int(wantDist)+1 || p[0] != s || p[len(p)-1] != tt {
				t.Fatalf("path %v for (%d,%d) at distance %d", p, s, tt, wantDist)
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					t.Fatalf("path %v uses missing edge (%d,%d)", p, p[i], p[i+1])
				}
			}
		}

		const sentinel = -7
		app, buf := NewBidirectional(g).AppendSample([]int32{sentinel}, s, tt, r2)
		if app.Reachable != smp.Reachable || app.Dist != smp.Dist || app.Sigma != smp.Sigma ||
			app.ObsF != smp.ObsF || app.ObsB != smp.ObsB {
			t.Fatalf("AppendSample %+v differs from Sample %+v", app, smp)
		}
		if buf[0] != sentinel || len(buf) != 1+len(smp.Path) {
			t.Fatalf("AppendSample buffer %v for path %v", buf, smp.Path)
		}
		for i, v := range smp.Path {
			if buf[1+i] != v || app.Path[i] != v {
				t.Fatalf("AppendSample path %v, Sample path %v", app.Path, smp.Path)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("Sample and AppendSample consumed different RNG draws")
		}
	})
}

// fuzzWeight maps a byte to an edge weight: k, k/4 or k/10 for k in 1..8.
// The first two classes are dyadic, so path sums are exact; k/10 is not.
func fuzzWeight(c byte) (w float64, dyadic bool) {
	k := float64(1 + c%8)
	switch c / 8 % 3 {
	case 0:
		return k, true
	case 1:
		return k / 4, true
	default:
		return k / 10, false
	}
}

// fuzzWeightedGraph decodes a weighted graph from fuzz bytes: the first
// byte picks the node count (2..fuzzMaxNodes), every following byte
// triple is one edge (a, b, weight byte), a and b taken modulo n. It also
// reports whether every weight is dyadic. The builder drops self-loops and
// keeps the smallest weight of duplicates.
func fuzzWeightedGraph(directed bool, data []byte) (g *graph.Graph, dyadic bool) {
	n := 2
	if len(data) > 0 {
		n += int(data[0]) % (fuzzMaxNodes - 1)
		data = data[1:]
	}
	b := graph.NewBuilder(n, directed)
	// An edgeless builder would build an unweighted graph.
	b.AddWeightedEdge(0, 1, 8)
	dyadic = true
	for ; len(data) >= 3; data = data[3:] {
		w, dy := fuzzWeight(data[2])
		dyadic = dyadic && dy
		b.AddWeightedEdge(int32(int(data[0])%n), int32(int(data[1])%n), w)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, dyadic
}

// fuzzWeightedBytes encodes an n-node weighted edge list the way
// fuzzWeightedGraph decodes it; each edge is (a, b, weight byte).
func fuzzWeightedBytes(n int, edges ...[3]byte) []byte {
	data := []byte{byte(n - 2)}
	for _, e := range edges {
		data = append(data, e[0], e[1], e[2])
	}
	return data
}

// FuzzDijkstraSample checks the bidirectional Dijkstra against
// DijkstraSSSP on small arbitrary weighted graphs: reachability and σ_st
// from SigmaDist and Sample equal DijkstraSSSP's, and d(s,t) is bit-equal
// on dyadic weights and ties it under the tolerance otherwise; the
// sampled path runs from s to t over existing edges in Dist hops with a
// weight sum tying d; and AppendSample reproduces Sample, RNG consumption
// included. Every graph carries the edge 0→1 of weight 8, so it is never
// unweighted. The seeds cover adjacent pairs, unreachable pairs and pairs
// with many tied paths, some of them tied only under the tolerance.
func FuzzDijkstraSample(f *testing.F) {
	const w1, w2, w3, quarter, tenth = 0, 1, 2, 8, 16 // weight bytes: 1, 2, 3, k/4, k/10
	// A 3×3 grid of unit weights: σ = 6 corner to corner.
	grid := fuzzWeightedBytes(9,
		[3]byte{0, 1, w1}, [3]byte{1, 2, w1}, [3]byte{3, 4, w1}, [3]byte{4, 5, w1},
		[3]byte{6, 7, w1}, [3]byte{7, 8, w1}, [3]byte{0, 3, w1}, [3]byte{3, 6, w1},
		[3]byte{1, 4, w1}, [3]byte{4, 7, w1}, [3]byte{2, 5, w1}, [3]byte{5, 8, w1})
	// Three tied paths of length 2 from 2 to 5, of 1 to 3 hops: 2→5,
	// 2→4→5 (5/4 + 3/4) and 2→3→4→5 (1/2 + 3/4 + 3/4).
	hops := fuzzWeightedBytes(6,
		[3]byte{2, 5, w2}, [3]byte{2, 4, quarter + 4}, [3]byte{4, 5, quarter + 2},
		[3]byte{2, 3, quarter + 1}, [3]byte{3, 4, quarter + 2}, [3]byte{1, 2, w3})
	// 0.1 + 0.7 = 0.7999999999999999 ties the direct 0.8 only under the
	// tolerance: σ = 2 between 2 and 4.
	tenths := fuzzWeightedBytes(5,
		[3]byte{2, 3, tenth}, [3]byte{3, 4, tenth + 6}, [3]byte{2, 4, tenth + 7})
	chain := fuzzWeightedBytes(5, [3]byte{1, 2, w2}, [3]byte{2, 3, w1}, [3]byte{3, 4, w3})
	twoComponents := fuzzWeightedBytes(5, [3]byte{2, 3, w1}, [3]byte{3, 4, w2})
	for _, seed := range []struct {
		directed bool
		s, t     uint8
		seed     uint64
		data     []byte
	}{
		{false, 2, 3, 1, chain},         // adjacent
		{true, 3, 4, 2, chain},          // adjacent, directed
		{false, 0, 4, 3, chain},         // a path of four edges
		{true, 4, 1, 4, chain},          // unreachable against the edges
		{false, 0, 4, 5, twoComponents}, // unreachable, two components
		{false, 0, 8, 6, grid},          // σ = 6
		{true, 0, 8, 7, grid},           // σ = 6, directed
		{false, 8, 1, 8, grid},          // σ = 3, reversed
		{false, 2, 5, 9, hops},          // three tied paths, 1 to 3 hops
		{true, 1, 5, 10, hops},          // the same behind one more edge
		{false, 2, 4, 11, tenths},       // tied under the tolerance
		{true, 2, 4, 12, tenths},        // the same, directed
		{false, 0, 1, 13, nil},          // the fixed edge only
	} {
		f.Add(seed.directed, seed.s, seed.t, seed.seed, seed.data)
	}
	f.Fuzz(func(t *testing.T, directed bool, s8, t8 uint8, seed uint64, data []byte) {
		g, dyadic := fuzzWeightedGraph(directed, data)
		n := g.N()
		s, tt := int32(int(s8)%n), int32(int(t8)%n)
		if s == tt {
			tt = (s + 1) % int32(n)
		}
		dist, sig, _ := DijkstraSSSP(g, s)
		wantOK, wantSigma, wantDist := !math.IsInf(dist[tt], 1), sig[tt], dist[tt]
		sameD := func(d float64) bool {
			if dyadic {
				return d == wantDist
			}
			return sameDist(d, wantDist)
		}

		dj := NewDijkstra(g)
		sigma, d, ok := dj.SigmaDist(s, tt)
		if ok != wantOK || (ok && (sigma != wantSigma || !sameD(d))) {
			t.Fatalf("SigmaDist(%d,%d) = (%g, %g, %v), DijkstraSSSP (%g, %g, %v)",
				s, tt, sigma, d, ok, wantSigma, wantDist, wantOK)
		}

		r1, r2 := xrand.New(seed), xrand.New(seed)
		smp := dj.Sample(s, tt, r1)
		if smp.Reachable != wantOK {
			t.Fatalf("Sample(%d,%d) reachable %v, DijkstraSSSP %v", s, tt, smp.Reachable, wantOK)
		}
		if !wantOK {
			if smp.Path != nil || smp.Dist != -1 {
				t.Fatalf("unreachable pair (%d,%d) returned %+v", s, tt, smp)
			}
		} else {
			if smp.Sigma != wantSigma || dj.WeightedDist != d {
				t.Fatalf("Sample(%d,%d): σ %g, weighted length %g; want %g, %g",
					s, tt, smp.Sigma, dj.WeightedDist, wantSigma, d)
			}
			p := smp.Path
			if len(p) != int(smp.Dist)+1 || p[0] != s || p[len(p)-1] != tt {
				t.Fatalf("path %v for (%d,%d) with Dist %d", p, s, tt, smp.Dist)
			}
			var length float64
			for i := 0; i+1 < len(p); i++ {
				w, exists := g.Weight(p[i], p[i+1])
				if !exists {
					t.Fatalf("path %v uses missing edge (%d,%d)", p, p[i], p[i+1])
				}
				length += w
			}
			if !sameDist(length, wantDist) {
				t.Fatalf("path %v has length %g, shortest %g", p, length, wantDist)
			}
		}

		const sentinel = -7
		app, buf := NewDijkstra(g).AppendSample([]int32{sentinel}, s, tt, r2)
		if app.Reachable != smp.Reachable || app.Dist != smp.Dist || app.Sigma != smp.Sigma ||
			app.ObsF != 0 || app.ObsB != 0 || smp.ObsF != 0 || smp.ObsB != 0 {
			t.Fatalf("AppendSample %+v differs from Sample %+v", app, smp)
		}
		if buf[0] != sentinel || len(buf) != 1+len(smp.Path) {
			t.Fatalf("AppendSample buffer %v for path %v", buf, smp.Path)
		}
		for i, v := range smp.Path {
			if buf[1+i] != v || app.Path[i] != v {
				t.Fatalf("AppendSample path %v, Sample path %v", app.Path, smp.Path)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("Sample and AppendSample consumed different RNG draws")
		}
	})
}
