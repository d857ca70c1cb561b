package sampling

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/coverage"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// sleepySampler sleeps before every draw, so the lane holding it is a
// straggler that claims few blocks.
type sleepySampler struct{ inner PairSampler }

func (s *sleepySampler) Sample(a, b int32, r *xrand.Rand) bfs.Sample {
	time.Sleep(50 * time.Microsecond)
	return s.inner.Sample(a, b, r)
}

// stragglerSet is a four-lane bidirectional set whose lane 1 is a
// straggler on every graph it is bound to: the factory builds lane 0's
// sampler first and then the others in lane order, at construction, as
// draws add lanes, and again when Repair rebinds the lanes.
func stragglerSet(g *graph.Graph, seed uint64) *Set {
	built := map[*graph.Graph]int{}
	s := NewFactorySet(g, func(g *graph.Graph) PairSampler {
		built[g]++
		if built[g] == 2 {
			return &sleepySampler{inner: bfs.NewBidirectional(g)}
		}
		return bfs.NewBidirectional(g)
	}, xrand.New(seed))
	s.Workers = 4
	return s
}

// drawIDs runs one draw of ids on s and stitches its blocks in order, the
// way Repair does.
func drawIDs(t *testing.T, s *Set, ids []int) *coverage.PathArena {
	t.Helper()
	if err := s.draw(context.Background(), drawList{n: len(ids), ids: ids}); err != nil {
		t.Fatal(err)
	}
	patch := &coverage.PathArena{}
	patch.Reset()
	for _, b := range s.blocks {
		patch.AppendRange(&s.lanes[b.lane].arena, int(b.from), int(b.to))
	}
	return patch
}

// TestDrawClaimEdges runs the block-claiming drawer at the edges of its
// claim loop: fewer samples than one block, one below and one above a
// multiple of drawBlock, on four lanes and with a straggler among them.
// Growth to that length and a draw of that many repair ids must each give
// exactly what one lane gives, and a draw must never run more lanes than
// it has blocks.
func TestDrawClaimEdges(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, xrand.New(81))
	const seed = 82
	for _, tc := range []struct {
		name  string
		build func() *Set
	}{
		{"four lanes", func() *Set {
			s := NewBidirectionalSet(g, xrand.New(seed))
			s.Workers = 4
			return s
		}},
		{"straggler", func() *Set { return stragglerSet(g, seed) }},
	} {
		for _, n := range []int{1, drawBlock / 2, drawBlock - 1, drawBlock + 1,
			4*drawBlock - 1, 4*drawBlock + 1, 9*drawBlock + 1} {
			blocks := (n + drawBlock - 1) / drawBlock
			grown := tc.build()
			grown.GrowTo(n)
			if len(grown.lanes) != min(4, blocks) {
				t.Fatalf("%s, %d samples: drew on %d lanes, want %d", tc.name, n, len(grown.lanes), min(4, blocks))
			}
			one := NewBidirectionalSet(g, xrand.New(seed))
			one.GrowTo(n)
			sameRun(t, tc.name+" growth", &budgetRun{set: grown}, &budgetRun{set: one})

			ids := make([]int, n)
			for k := range ids {
				ids[k] = 5 + 3*k
			}
			got := drawIDs(t, tc.build(), ids)
			want := drawIDs(t, NewBidirectionalSet(g, xrand.New(seed)), ids)
			if got.Len() != n || !slices.Equal(got.Nodes, want.Nodes) ||
				!slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Obs, want.Obs) {
				t.Fatalf("%s: a draw of %d repair ids differs from one lane's", tc.name, n)
			}
		}
	}
}

// TestClaimRuns: the runs lanes claim tile a draw's blocks in order. A
// lone lane takes them all in one claim; several take at most drawRun
// blocks a claim, down to single blocks at the end.
func TestClaimRuns(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		for _, nb := range []int{1, 3, 64} {
			s := &Set{blocks: make([]block, nb)}
			next, claims, last := 0, 0, 0
			for {
				b, end := s.claim(lanes)
				if b == end {
					break
				}
				if b != next || end > nb || (lanes > 1 && end-b > drawRun) {
					t.Fatalf("lanes=%d, %d blocks: claimed [%d, %d) after block %d", lanes, nb, b, end, next)
				}
				next, claims, last = end, claims+1, end-b
			}
			if next != nb {
				t.Fatalf("lanes=%d, %d blocks: claims stopped at block %d", lanes, nb, next)
			}
			if lanes == 1 && claims != 1 {
				t.Fatalf("a lone lane took %d claims for %d blocks, want one", claims, nb)
			}
			if lanes > 1 && last != 1 {
				t.Fatalf("lanes=%d, %d blocks: the last claim took %d blocks, want one", lanes, nb, last)
			}
		}
	}
}

// TestRepairOnStragglerLanes: Repair re-draws its flagged samples on the
// set's lanes, one of them a straggler, and still matches a cold one-lane
// regrow on the patched graph bit for bit.
func TestRepairOnStragglerLanes(t *testing.T) {
	g := randomGraph(t, 300, 900, false, 7)
	delta := randomRepairDelta(g, 3, xrand.New(99))
	ng, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	const L = 2*GrowChunk + 37
	s := stragglerSet(g, 77)
	s.GrowTo(L)
	st, err := s.Repair(ng, delta)
	if err != nil {
		t.Fatal(err)
	}
	if st.Regenerated <= 4*drawBlock || len(s.lanes) != 4 {
		t.Fatalf("repair redrew %d samples on %d lanes, want several blocks on four", st.Regenerated, len(s.lanes))
	}
	cold := NewBidirectionalSet(ng, xrand.New(77))
	cold.GrowTo(L)
	sameSets(t, s, cold, 10)
}

// TestRepairPanicLeavesSetUnchanged pins Repair's error rule for a sampler
// that panics only on the patched graph: Repair returns the *PanicError
// instead of panicking, the set is still bound to the old graph with every
// stored path, null count and bound as before, and it grows on
// bit-identically to a twin that never saw the patch.
func TestRepairPanicLeavesSetUnchanged(t *testing.T) {
	g := randomGraph(t, 300, 900, false, 7)
	delta := randomRepairDelta(g, 3, xrand.New(99))
	ng, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		build := func() *Set {
			s := NewFactorySet(g, func(h *graph.Graph) PairSampler {
				if h == ng {
					return &panicAfter{n: 1}
				}
				return bfs.NewBidirectional(h)
			}, xrand.New(77))
			s.Workers = workers
			s.GrowTo(1500)
			return s
		}
		s, twin := build(), build()
		st, err := s.Repair(ng, delta)
		var pe *PanicError
		if !errors.As(err, &pe) || st.Regenerated == 0 {
			t.Fatalf("workers=%d: Repair = %+v, %v (%T), want a *PanicError", workers, st, err, err)
		}
		if s.g != g {
			t.Fatalf("workers=%d: a failed repair left the set bound to the patched graph", workers)
		}
		sameRun(t, "after the failed repair", &budgetRun{set: s}, &budgetRun{set: twin})
		s.GrowTo(2*GrowChunk + 5)
		twin.GrowTo(2*GrowChunk + 5)
		sameRun(t, "grown after the failed repair", &budgetRun{set: s}, &budgetRun{set: twin})
	}
}
