package sampling

import (
	"math"
	"testing"

	"gbc/internal/exact"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

func TestGrowTo(t *testing.T) {
	g := gen.Cycle(10)
	s := NewBidirectionalSet(g, xrand.New(1))
	s.GrowTo(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	s.GrowTo(50) // shrink request is a no-op
	if s.Len() != 100 {
		t.Fatalf("Len after no-op grow = %d", s.Len())
	}
	s.GrowTo(150)
	if s.Len() != 150 {
		t.Fatalf("Len = %d, want 150", s.Len())
	}
}

func TestUnreachableSamplesAreNull(t *testing.T) {
	// Two disconnected cliques: ~half of ordered pairs are unreachable.
	g := graph.MustFromEdges(6, false, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	s := NewBidirectionalSet(g, xrand.New(2))
	s.GrowTo(2000)
	frac := float64(s.Unreachable) / 2000
	// P(unreachable) = 18/30 = 0.6 for ordered pairs across the cliques.
	if math.Abs(frac-0.6) > 0.05 {
		t.Fatalf("unreachable fraction = %g, want ~0.6", frac)
	}
	// Null samples depress every estimate: the whole node set covers only
	// the reachable fraction.
	all := []int32{0, 1, 2, 3, 4, 5}
	est := s.EstimateGroup(all) / (6 * 5)
	if math.Abs(est-0.4) > 0.05 {
		t.Fatalf("normalized estimate of V = %g, want ~0.4", est)
	}
}

// The unbiased estimator must converge to the exact GBC for a fixed group.
func TestEstimateConvergesToExact(t *testing.T) {
	r := xrand.New(3)
	g := gen.BarabasiAlbert(150, 2, r.Split())
	group := []int32{0, 5, 17}
	want := exact.GBC(g, group)
	s := NewBidirectionalSet(g, r.Split())
	s.GrowTo(30000)
	got := s.EstimateGroup(group)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("estimate %g vs exact %g (rel err %g)", got, want, math.Abs(got-want)/want)
	}
}

func TestEstimateConvergesToExactDirected(t *testing.T) {
	r := xrand.New(4)
	g := gen.DirectedPreferential(150, 3, 0.2, r.Split())
	group := []int32{1, 2, 3}
	want := exact.GBC(g, group)
	s := NewBidirectionalSet(g, r.Split())
	s.GrowTo(30000)
	got := s.EstimateGroup(group)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("estimate %g vs exact %g", got, want)
	}
}

func TestForwardAndBidirectionalSetsAgree(t *testing.T) {
	r := xrand.New(5)
	g := gen.BarabasiAlbert(120, 2, r.Split())
	group := []int32{0, 3}
	sb := NewBidirectionalSet(g, r.Split())
	sf := NewForwardSet(g, r.Split())
	sb.GrowTo(20000)
	sf.GrowTo(20000)
	eb, ef := sb.EstimateGroup(group), sf.EstimateGroup(group)
	if math.Abs(eb-ef)/math.Max(eb, ef) > 0.1 {
		t.Fatalf("samplers disagree: bidir %g vs forward %g", eb, ef)
	}
}

func TestGreedyOnSamplesFindsCentralNode(t *testing.T) {
	r := xrand.New(6)
	g := gen.Star(50)
	s := NewBidirectionalSet(g, r.Split())
	s.GrowTo(500)
	group, covered := s.Greedy(1)
	if group[0] != 0 {
		t.Fatalf("greedy on star samples picked %v, want center", group)
	}
	if covered != 500 {
		t.Fatalf("center covers %d/500 samples", covered)
	}
}

func TestEstimatePanicsOnEmpty(t *testing.T) {
	g := gen.Path(3)
	s := NewBidirectionalSet(g, xrand.New(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Estimate(0)
}

func TestNewSetPanicsOnTinyGraph(t *testing.T) {
	g := gen.Path(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBidirectionalSet(g, xrand.New(8))
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, xrand.New(9))
	s1 := NewBidirectionalSet(g, xrand.New(42))
	s2 := NewBidirectionalSet(g, xrand.New(42))
	s1.GrowTo(500)
	s2.GrowTo(500)
	g1, c1 := s1.Greedy(5)
	g2, c2 := s2.Greedy(5)
	if c1 != c2 {
		t.Fatalf("same seed different coverage: %d vs %d", c1, c2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("same seed different groups: %v vs %v", g1, g2)
		}
	}
}

// The endpoint-inclusion convention: a sampled path always contains its two
// endpoints, so a group holding a frequent endpoint gets credit.
func TestEndpointsCounted(t *testing.T) {
	g := gen.Path(2) // single edge: every sample is the path 0-1
	s := NewBidirectionalSet(g, xrand.New(10))
	s.GrowTo(50)
	if got := s.CoveredBy([]int32{1}); got != 50 {
		t.Fatalf("endpoint coverage = %d, want 50", got)
	}
	if est := s.EstimateGroup([]int32{1}); est != 2 {
		t.Fatalf("estimate = %g, want n(n-1) = 2", est)
	}
}

func TestNewSetForPicksDijkstraForWeighted(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(0, 2, 10)
	b.AddWeightedEdge(2, 3, 1)
	wg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSetFor(wg, xrand.New(31))
	s.GrowTo(300)
	// The 0-2 edge (weight 10) is never on a weighted shortest path, so
	// samples between 0 and 2 must route via 1: node 1's coverage exceeds
	// the direct edge's witness count.
	if s.CoveredBy([]int32{1}) == 0 {
		t.Fatal("weighted sampler never used the cheap detour")
	}
	ug := gen.Path(3)
	if su := NewSetFor(ug, xrand.New(32)); su == nil {
		t.Fatal("unweighted NewSetFor failed")
	}
}

func TestWeightedSetEstimateConverges(t *testing.T) {
	r := xrand.New(33)
	b := graph.NewBuilder(80, false)
	for v := 1; v < 80; v++ {
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
	group := []int32{0, 5}
	want := exact.GBC(g, group)
	s := NewWeightedSet(g, r.Split())
	s.GrowTo(20000)
	got := s.EstimateGroup(group)
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("weighted estimate %g vs exact %g", got, want)
	}
}
