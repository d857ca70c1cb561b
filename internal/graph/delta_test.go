package graph

import (
	"path/filepath"
	"testing"

	"gbc/internal/xrand"
)

// edgeSet collects a graph's edges as directed (u,v) pairs, undirected
// edges reported once with u <= v.
func edgeSet(g *Graph) map[[2]int32]float64 {
	set := make(map[[2]int32]float64)
	g.Edges(func(u, v int32) bool {
		w, _ := g.Weight(u, v)
		set[[2]int32{u, v}] = w
		return true
	})
	return set
}

// rebuild constructs a fresh graph from an edge set through the Builder —
// the oracle ApplyDelta must match CSR-for-CSR.
func rebuild(t *testing.T, n int, directed, weighted bool, set map[[2]int32]float64) *Graph {
	t.Helper()
	b := NewBuilder(n, directed)
	for e, w := range set {
		if weighted {
			b.AddWeightedEdge(e[0], e[1], w)
		} else {
			b.AddEdge(e[0], e[1])
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return g
}

func sameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Directed() != want.Directed() {
		t.Fatalf("shape mismatch: got n=%d m=%d dir=%v, want n=%d m=%d dir=%v",
			got.N(), got.M(), got.Directed(), want.N(), want.M(), want.Directed())
	}
	for v := int32(0); int(v) < got.N(); v++ {
		ga, wa := got.OutNeighbors(v), want.OutNeighbors(v)
		if len(ga) != len(wa) {
			t.Fatalf("node %d: out-degree %d != %d", v, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("node %d: out-neighbor %d: %d != %d", v, i, ga[i], wa[i])
			}
		}
		gi, wi := got.InNeighbors(v), want.InNeighbors(v)
		if len(gi) != len(wi) {
			t.Fatalf("node %d: in-degree %d != %d", v, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Fatalf("node %d: in-neighbor %d: %d != %d", v, i, gi[i], wi[i])
			}
		}
		if got.Weighted() {
			gw, ww := got.OutWeights(v), want.OutWeights(v)
			for i := range gw {
				if gw[i] != ww[i] {
					t.Fatalf("node %d: out-weight %d: %g != %g", v, i, gw[i], ww[i])
				}
			}
			gw, ww = got.InWeights(v), want.InWeights(v)
			for i := range gw {
				if gw[i] != ww[i] {
					t.Fatalf("node %d: in-weight %d: %g != %g", v, i, gw[i], ww[i])
				}
			}
		}
	}
}

// randomDelta draws k inserts of absent edges and k deletes of present
// edges from g.
func randomDelta(g *Graph, k int, r *xrand.Rand) *Delta {
	n := int32(g.N())
	d := &Delta{}
	used := make(map[[2]int32]bool)
	canon := func(u, v int32) [2]int32 {
		if !g.Directed() && v < u {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	for len(d.Insert) < k {
		u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
		if u == v || g.HasEdge(u, v) || used[canon(u, v)] {
			continue
		}
		used[canon(u, v)] = true
		e := DeltaEdge{U: u, V: v}
		if g.Weighted() {
			e.W = 1 + r.Float64()*4
		}
		d.Insert = append(d.Insert, e)
	}
	var present [][2]int32
	g.Edges(func(u, v int32) bool {
		present = append(present, [2]int32{u, v})
		return true
	})
	for len(d.Delete) < k && len(present) > 0 {
		i := r.Intn(len(present))
		e := present[i]
		present[i] = present[len(present)-1]
		present = present[:len(present)-1]
		if used[canon(e[0], e[1])] {
			continue
		}
		used[canon(e[0], e[1])] = true
		d.Delete = append(d.Delete, DeltaEdge{U: e[0], V: e[1]})
	}
	return d
}

// deltaShapes are the graph modes every ApplyDelta test covers.
var deltaShapes = []struct {
	name     string
	directed bool
	weighted bool
}{
	{"undirected", false, false},
	{"directed", true, false},
	{"weighted", false, true},
	{"directed-weighted", true, true},
}

// randomGraph builds a graph of n nodes from about 3n random edges, with
// weights from [1, 5) when weighted and labels when labels is non-nil.
func randomGraph(t *testing.T, n int, directed, weighted bool, labels []int64, r *xrand.Rand) *Graph {
	t.Helper()
	b := NewBuilder(n, directed)
	b.SetLabels(labels)
	for i := 0; i < 3*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		if weighted {
			b.AddWeightedEdge(u, v, 1+r.Float64()*4)
		} else {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// applyToSet returns g's edge set (see edgeSet) with d applied: the edge
// set of the version ApplyDelta(g, d) must build.
func applyToSet(g *Graph, d *Delta) map[[2]int32]float64 {
	set := edgeSet(g)
	key := func(e DeltaEdge) [2]int32 {
		if !g.Directed() && e.V < e.U {
			return [2]int32{e.V, e.U}
		}
		return [2]int32{e.U, e.V}
	}
	for _, e := range d.Delete {
		delete(set, key(e))
	}
	for _, e := range d.Insert {
		w := e.W
		if !g.Weighted() {
			w = 1
		}
		set[key(e)] = w
	}
	return set
}

func TestApplyDeltaDifferential(t *testing.T) {
	for _, tc := range deltaShapes {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(42)
			const n = 60
			g := randomGraph(t, n, tc.directed, tc.weighted, nil, r)
			for trial := 0; trial < 20; trial++ {
				d := randomDelta(g, 4, r)
				ng, err := ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				sameCSR(t, ng, rebuild(t, n, tc.directed, tc.weighted, applyToSet(g, d)))
				g = ng // chain deltas: versions compose
			}
		})
	}
}

// TestApplyDeltaOwnsItsArrays pins that a version outlives its base: the
// serving layer unmaps a retired .gbcsr base once its last reader is done,
// so no array of ApplyDelta's result, labels included, may alias the
// base's. It applies a delta to a mapped base, closes the base, and then
// reads every row and label of the result.
func TestApplyDeltaOwnsItsArrays(t *testing.T) {
	for _, tc := range deltaShapes {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(7)
			const n = 60
			labels := make([]int64, n)
			for v := range labels {
				labels[v] = 1000 + 7*int64(v)
			}
			path := filepath.Join(t.TempDir(), "base"+CSRFileExt)
			if err := randomGraph(t, n, tc.directed, tc.weighted, labels, r).WriteCSRFile(path); err != nil {
				t.Fatal(err)
			}
			base, err := OpenCSR(path)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Mapped() {
				base.Close()
				t.Skip("platform loads .gbcsr on the heap; nothing to unmap")
			}
			d := randomDelta(base, 4, r)
			ng, err := ApplyDelta(base, d)
			if err != nil {
				t.Fatal(err)
			}
			want := rebuild(t, n, tc.directed, tc.weighted, applyToSet(base, d))
			if err := base.Close(); err != nil {
				t.Fatal(err)
			}
			sameCSR(t, ng, want)
			for v := int32(0); v < n; v++ {
				if got := ng.Label(v); got != labels[v] {
					t.Fatalf("node %d: label %d, want %d", v, got, labels[v])
				}
			}
		})
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := MustFromEdges(4, false, [][2]int32{{0, 1}, {1, 2}})
	for _, tc := range []struct {
		name string
		d    Delta
	}{
		{"insert existing", Delta{Insert: []DeltaEdge{{U: 1, V: 0}}}},
		{"delete missing", Delta{Delete: []DeltaEdge{{U: 0, V: 3}}}},
		{"self loop", Delta{Insert: []DeltaEdge{{U: 2, V: 2}}}},
		{"out of range", Delta{Insert: []DeltaEdge{{U: 0, V: 9}}}},
		{"negative", Delta{Delete: []DeltaEdge{{U: -1, V: 1}}}},
		{"weight on unweighted", Delta{Insert: []DeltaEdge{{U: 0, V: 2, W: 2}}}},
		{"weight on delete", Delta{Delete: []DeltaEdge{{U: 0, V: 1, W: 1}}}},
		{"duplicate op", Delta{Insert: []DeltaEdge{{U: 0, V: 2}, {U: 2, V: 0}}}},
		{"insert then delete", Delta{Insert: []DeltaEdge{{U: 0, V: 2}}, Delete: []DeltaEdge{{U: 0, V: 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ApplyDelta(g, &tc.d); err == nil {
				t.Fatalf("wanted *DeltaError, got nil")
			} else if _, ok := err.(*DeltaError); !ok {
				t.Fatalf("wanted *DeltaError, got %T: %v", err, err)
			}
		})
	}
	// The original graph is untouched by both failures and successes.
	ng, err := ApplyDelta(g, &Delta{Insert: []DeltaEdge{{U: 0, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !ng.HasEdge(0, 2) || g.HasEdge(0, 2) {
		t.Fatalf("immutability violated: g.M=%d", g.M())
	}
	if ng.Mapped() || ng.MappedBytes() != 0 {
		t.Fatalf("delta result should be heap-built")
	}
}

func TestDeltaTouched(t *testing.T) {
	d := &Delta{
		Insert: []DeltaEdge{{U: 3, V: 1}},
		Delete: []DeltaEdge{{U: 1, V: 2}, {U: 5, V: 3}},
	}
	got := d.Touched()
	want := []int32{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Touched() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Touched() = %v, want %v", got, want)
		}
	}
	var empty Delta
	if !empty.Empty() || empty.Size() != 0 || len(empty.Touched()) != 0 {
		t.Fatal("zero Delta should be empty")
	}
}
