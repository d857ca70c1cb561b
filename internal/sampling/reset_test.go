package sampling

import (
	"fmt"
	"reflect"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// resetTestGraphs covers all three sampler kinds the serving layer's
// sample families hold: bidirectional and forward on the unweighted graph,
// Dijkstra on the weighted one.
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
// the property the server's sample families rely on for bit-identical
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
// fresh set of the larger length (a family's sets serve runs that may need
// more samples than any previous run drew).
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

// growthLog records the growth events of a set.
type growthLog []obs.GrowthEvent

func (l *growthLog) OnGrowth(e obs.GrowthEvent) { *l = append(*l, e) }

// TestRewindReplaysStoredSamples pins the rewind path: a set grown to
// `stored`, Reset, then regrown to a shorter and then a longer target
// equals a fresh set grown along the same targets — paths, Unreachable,
// observation bounds and growth events — while drawing only the samples
// past the stored ones. The stored length ends mid-chunk of the longer
// growth, so one chunk is part re-admitted, part drawn.
func TestRewindReplaysStoredSamples(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, xrand.New(13))
	const (
		stored = 2*GrowChunk + 700
		short  = GrowChunk + 300
		long   = 3*GrowChunk + 50
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			build := func() (*Set, *growthLog) {
				s := NewBidirectionalSet(g, xrand.New(21))
				s.Workers = workers
				s.Label = "S"
				log := &growthLog{}
				s.Observer = log
				return s, log
			}
			rewound, rlog := build()
			rewound.GrowTo(stored)
			rewound.Reset()
			*rlog = nil
			rewound.Metrics = &obs.Metrics{}
			fresh, flog := build()
			for _, L := range []int{short, long} {
				rewound.GrowTo(L)
				fresh.GrowTo(L)
				sameSets(t, rewound, fresh, 5)
				if !reflect.DeepEqual(*rlog, *flog) {
					t.Fatalf("growth to %d: events %+v, want %+v", L, *rlog, *flog)
				}
			}
			if m := rewound.Metrics.Snapshot(); m.Samples != long-stored || m.SamplesReused != stored {
				t.Fatalf("drew %d and re-admitted %d samples, want %d and %d",
					m.Samples, m.SamplesReused, long-stored, stored)
			}
		})
	}
}
