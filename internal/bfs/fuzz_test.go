package bfs

import (
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
