package sampling

import (
	"reflect"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// resetTestGraphs covers all three sampler kinds the registry's warm cache
// serves: bidirectional and forward on the unweighted graph, Dijkstra on
// the weighted one.
func resetTestGraphs(t *testing.T) (unweighted, weighted *graph.Graph) {
	t.Helper()
	unweighted = gen.BarabasiAlbert(300, 3, xrand.New(11))
	b := graph.NewBuilder(50, false)
	r := xrand.New(12)
	for i := int32(0); i < 49; i++ {
		b.AddWeightedEdge(i, i+1, 1+r.Float64())
		b.AddWeightedEdge(i, (i+7)%50, 1+r.Float64())
	}
	var err error
	weighted, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return
}

// assertRegrowsIdentically grows a set, Resets it, regrows, and requires
// the regrown state to match a fresh set built from the same seed draw —
// the property the server's warm registry relies on for bit-identical
// repeated queries.
func assertRegrowsIdentically(t *testing.T, build func(*xrand.Rand) *Set, L int) {
	t.Helper()
	warm := build(xrand.New(77))
	warm.GrowTo(L)
	firstLen, firstUnreachable := warm.Len(), warm.Unreachable
	warm.Reset()
	if warm.Len() != 0 {
		t.Fatalf("Reset left %d samples", warm.Len())
	}
	warm.GrowTo(L)

	fresh := build(xrand.New(77))
	fresh.GrowTo(L)

	if warm.Len() != fresh.Len() || warm.Len() != firstLen {
		t.Fatalf("lengths diverged: warm %d, fresh %d, first growth %d",
			warm.Len(), fresh.Len(), firstLen)
	}
	if warm.Unreachable != fresh.Unreachable || warm.Unreachable != firstUnreachable {
		t.Fatalf("unreachable diverged: warm %d, fresh %d, first growth %d",
			warm.Unreachable, fresh.Unreachable, firstUnreachable)
	}
	wg, wc := warm.Greedy(5)
	fg, fc := fresh.Greedy(5)
	if !reflect.DeepEqual(wg, fg) || wc != fc {
		t.Fatalf("greedy diverged: warm %v/%d, fresh %v/%d", wg, wc, fg, fc)
	}
	group := []int32{1, 2, 3}
	if we, fe := warm.EstimateGroup(group), fresh.EstimateGroup(group); we != fe {
		t.Fatalf("estimates diverged: warm %g, fresh %g", we, fe)
	}
}

func TestResetRegrowsBitIdentically(t *testing.T) {
	unweighted, weighted := resetTestGraphs(t)
	cases := []struct {
		name  string
		build func(*xrand.Rand) *Set
	}{
		{"bidirectional", func(r *xrand.Rand) *Set { return NewBidirectionalSet(unweighted, r) }},
		{"forward", func(r *xrand.Rand) *Set { return NewForwardSet(unweighted, r) }},
		{"weighted", func(r *xrand.Rand) *Set { return NewWeightedSet(weighted, r) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertRegrowsIdentically(t, tc.build, 500)
		})
	}
}

// TestResetRegrowsWithWorkers: determinism across Reset holds for parallel
// growth too (the lanes and arenas are retained by Reset).
func TestResetRegrowsWithWorkers(t *testing.T) {
	unweighted, _ := resetTestGraphs(t)
	build := func(r *xrand.Rand) *Set {
		s := NewBidirectionalSet(unweighted, r)
		s.Workers = 4
		return s
	}
	assertRegrowsIdentically(t, build, 2000)
}

// TestResetThenLargerGrowth: a regrow past the original length must match a
// fresh set of the larger length (the registry reuses warm sets for runs
// that may need more samples than any previous run drew).
func TestResetThenLargerGrowth(t *testing.T) {
	unweighted, _ := resetTestGraphs(t)
	warm := NewBidirectionalSet(unweighted, xrand.New(5))
	warm.GrowTo(200)
	warm.Reset()
	warm.GrowTo(900)

	fresh := NewBidirectionalSet(unweighted, xrand.New(5))
	fresh.GrowTo(900)
	wg, wc := warm.Greedy(4)
	fg, fc := fresh.Greedy(4)
	if !reflect.DeepEqual(wg, fg) || wc != fc || warm.Len() != fresh.Len() {
		t.Fatalf("regrow past original length diverged: %v/%d vs %v/%d", wg, wc, fg, fc)
	}
}
