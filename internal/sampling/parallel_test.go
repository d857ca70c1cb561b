package sampling

import (
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// samplesEqual compares two sets sample-by-sample via coverage behaviour.
func setsIdentical(t *testing.T, a, b *Set) {
	t.Helper()
	if a.Len() != b.Len() || a.Unreachable != b.Unreachable {
		t.Fatalf("shape differs: (%d,%d) vs (%d,%d)", a.Len(), a.Unreachable, b.Len(), b.Unreachable)
	}
	// Equal greedy outcomes at several K plus equal per-node coverage is a
	// strong fingerprint of identical sample multisets.
	for _, k := range []int{1, 3, 8} {
		ga, ca := a.Greedy(k)
		gb, cb := b.Greedy(k)
		if ca != cb {
			t.Fatalf("greedy(%d) coverage differs: %d vs %d", k, ca, cb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("greedy(%d) groups differ: %v vs %v", k, ga, gb)
			}
		}
	}
	for v := int32(0); int(v) < a.g.N(); v++ {
		if a.CoveredBy([]int32{v}) != b.CoveredBy([]int32{v}) {
			t.Fatalf("node %d coverage differs", v)
		}
	}
}

func TestParallelGrowMatchesSequential(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, xrand.New(101))
	seq := NewBidirectionalSet(g, xrand.New(7))
	seq.GrowTo(2000)
	for _, workers := range []int{2, 3, 8} {
		par := NewBidirectionalSet(g, xrand.New(7))
		par.Workers = workers
		par.GrowTo(2000)
		setsIdentical(t, seq, par)
	}
}

func TestParallelIncrementalGrowth(t *testing.T) {
	// Growing in stages with different worker counts must still match.
	g := gen.BarabasiAlbert(300, 2, xrand.New(102))
	seq := NewBidirectionalSet(g, xrand.New(9))
	seq.GrowTo(1500)
	par := NewBidirectionalSet(g, xrand.New(9))
	par.Workers = 4
	par.GrowTo(300)
	par.Workers = 2
	par.GrowTo(900)
	par.Workers = 6
	par.GrowTo(1500)
	setsIdentical(t, seq, par)
}

// TestParallelGrowGreedyRegrowCycles drives the adaptive loop's exact
// cadence — parallel growth (arena feed + chunk-boundary index commit),
// greedy, CoveredBy, regrow — for several rounds. Under -race this is the
// regression test for the parallel-draw scratch reuse and the incremental
// index commits; functionally every round must match a sequential twin.
func TestParallelGrowGreedyRegrowCycles(t *testing.T) {
	g := gen.BarabasiAlbert(350, 3, xrand.New(103))
	seq := NewBidirectionalSet(g, xrand.New(11))
	par := NewBidirectionalSet(g, xrand.New(11))
	par.Workers = 4
	sizes := []int{500, 1300, 2100, GrowChunk + 100, GrowChunk*2 + 77}
	for round, L := range sizes {
		seq.GrowTo(L)
		par.GrowTo(L)
		gs, cs := seq.Greedy(5)
		gp, cp := par.Greedy(5)
		if cs != cp {
			t.Fatalf("round %d: greedy coverage %d vs %d", round, cs, cp)
		}
		for i := range gs {
			if gs[i] != gp[i] {
				t.Fatalf("round %d: groups %v vs %v", round, gs, gp)
			}
		}
		if seq.CoveredBy(gp) != par.CoveredBy(gs) {
			t.Fatalf("round %d: CoveredBy mismatch", round)
		}
	}
}

func TestParallelForwardSet(t *testing.T) {
	g := gen.DirectedPreferential(300, 3, 0.2, xrand.New(103))
	seq := NewForwardSet(g, xrand.New(11))
	seq.GrowTo(800)
	for _, workers := range []int{1, 4} {
		par := NewForwardSet(g, xrand.New(11))
		par.Workers = workers
		par.GrowTo(800)
		setsIdentical(t, seq, par)
	}
}

// TestParallelWeightedSet pins the Dijkstra sampler's parallel determinism:
// a weighted set grown on lanes at workers ∈ {1, 4} must be
// indistinguishable from a sequential twin, including the reused per-worker
// heap and backward-walk scratch.
func TestParallelWeightedSet(t *testing.T) {
	r := xrand.New(106)
	b := graph.NewBuilder(200, false)
	for v := 1; v < 200; v++ {
		b.AddWeightedEdge(int32(v), int32(r.Intn(v)), float64(1+r.Intn(3)))
		if v > 2 {
			u, w := r.IntnPair(v)
			b.AddWeightedEdge(int32(u), int32(w), float64(1+r.Intn(3)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seq := NewWeightedSet(g, xrand.New(17))
	seq.GrowTo(GrowChunk + 500) // cross a chunk boundary
	for _, workers := range []int{1, 4} {
		par := NewWeightedSet(g, xrand.New(17))
		par.Workers = workers
		par.GrowTo(GrowChunk + 500)
		setsIdentical(t, seq, par)
	}
}

func TestCoreWorkersOptionDeterministic(t *testing.T) {
	// End-to-end: the Workers option must not change any result.
	g := gen.BarabasiAlbert(300, 3, xrand.New(105))
	seq := NewBidirectionalSet(g, xrand.New(15))
	seq.Workers = 1
	par := NewBidirectionalSet(g, xrand.New(15))
	par.Workers = 4
	seq.GrowTo(3000)
	par.GrowTo(3000)
	setsIdentical(t, seq, par)
}
