package sampling

import (
	"runtime"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemoryFootprintMatchesHeap checks that MemoryFootprint, which the
// family byte budget sums, counts what a set really holds: within 15% of
// the live-heap growth that building, growing and querying the set causes,
// for both sampler kinds the serving layer keeps.
func TestMemoryFootprintMatchesHeap(t *testing.T) {
	weighted := func(g *graph.Graph) *graph.Graph {
		r := xrand.New(93)
		b := graph.NewBuilder(g.N(), false)
		g.Edges(func(u, v int32) bool {
			b.AddWeightedEdge(u, v, float64(1+r.Intn(8)))
			return true
		})
		wg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return wg
	}
	ba := gen.BarabasiAlbert(5000, 3, xrand.New(91))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"bidirectional", ba},
		{"dijkstra", weighted(ba)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			s := NewSetFor(tc.g, xrand.New(92))
			for _, l := range []int{500, 1200, 2600, 4400} {
				s.GrowTo(l)
				group, _ := s.Greedy(10)
				s.CoveredBy(group)
			}
			grown := liveHeap() - before
			fp := s.MemoryFootprint()
			runtime.KeepAlive(s)
			if ratio := float64(fp) / float64(grown); ratio < 0.85 || ratio > 1.15 {
				t.Errorf("footprint %d bytes, live heap grew %d bytes (ratio %.3f), want within 15%%",
					fp, grown, ratio)
			}
		})
	}
}

// TestReadmissionAllocatesOnlyTheGroup pins the served re-admission path:
// a family set grown along AdaAlg's schedule, then Reset, regrown to half
// or all of its stored length and queried, allocates nothing but Greedy's
// group — the index covers every stored sample, so re-admission moves only
// the length cursor and the queries read the rows' live prefixes.
func TestReadmissionAllocatesOnlyTheGroup(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, xrand.New(94))
	s := NewBidirectionalSet(g, xrand.New(95))
	s.Budget = NewLaneBudget(2)
	for l := 500.0; l < 6000; l *= 1.1 {
		s.GrowTo(int(l))
		s.Greedy(10)
	}
	stored := s.Coverage().Stored()
	for _, l := range []int{stored / 2, stored} {
		readmit := func() {
			s.Reset()
			s.GrowTo(l)
			group, _ := s.Greedy(10)
			s.CoveredBy(group)
		}
		readmit() // warm: the workspace is sized for the live samples
		if allocs := testing.AllocsPerRun(20, readmit); allocs > 1 {
			t.Fatalf("Reset, GrowTo(%d), Greedy, CoveredBy: %g allocs, want <= 1 (the group)", l, allocs)
		}
		if s.Len() != l || s.Coverage().Stored() != stored {
			t.Fatalf("regrew to %d of %d stored samples, want %d of %d", s.Len(), s.Coverage().Stored(), l, stored)
		}
	}
}
