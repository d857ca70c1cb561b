package sampling

import (
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// randomGraph builds a random multigraph-free graph with n nodes and about
// m edges.
func randomGraph(t testing.TB, n, m int, directed bool, seed uint64) *graph.Graph {
	t.Helper()
	r := xrand.New(seed)
	b := graph.NewBuilder(n, directed)
	for i := 0; i < m; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomRepairDelta draws k inserts of absent edges and k deletes of
// present edges.
func randomRepairDelta(g *graph.Graph, k int, r *xrand.Rand) *graph.Delta {
	d := &graph.Delta{}
	used := make(map[[2]int32]bool)
	canon := func(u, v int32) [2]int32 {
		if !g.Directed() && v < u {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	for len(d.Insert) < k {
		u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
		if u == v || g.HasEdge(u, v) || used[canon(u, v)] {
			continue
		}
		used[canon(u, v)] = true
		d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v})
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
		d.Delete = append(d.Delete, graph.DeltaEdge{U: e[0], V: e[1]})
	}
	return d
}

// sameSets asserts two sets are bit-identical: length, null count, every
// live path byte-for-byte with its observation bounds, and the greedy
// top-K they induce. Stored samples past Len (kept by a Reset) are not
// compared, but their bounds must stay aligned.
func sameSets(t *testing.T, got, want *Set, k int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: %d != %d", got.Len(), want.Len())
	}
	if got.Unreachable != want.Unreachable {
		t.Fatalf("Unreachable: %d != %d", got.Unreachable, want.Unreachable)
	}
	gc, wc := got.Coverage(), want.Coverage()
	for p := 0; p < got.Len(); p++ {
		gp, wp := gc.PathView(p), wc.PathView(p)
		if len(gp) != len(wp) {
			t.Fatalf("path %d: length %d != %d", p, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("path %d: node %d: %d != %d", p, i, gp[i], wp[i])
			}
		}
	}
	if gs, ws := got.cov.Stored(), want.cov.Stored(); len(got.obs) != 2*gs || len(want.obs) != 2*ws {
		t.Fatalf("obs length: %d and %d for %d and %d stored samples",
			len(got.obs), len(want.obs), gs, ws)
	}
	for i := range 2 * got.Len() {
		if got.obs[i] != want.obs[i] {
			t.Fatalf("obs[%d]: %d != %d", i, got.obs[i], want.obs[i])
		}
	}
	gg, gcov := got.Greedy(k)
	wg, wcov := want.Greedy(k)
	if gcov != wcov {
		t.Fatalf("Greedy covered: %d != %d", gcov, wcov)
	}
	for i := range gg {
		if gg[i] != wg[i] {
			t.Fatalf("Greedy group[%d]: %d != %d", i, gg[i], wg[i])
		}
	}
	if ge, we := got.Estimate(gcov), want.Estimate(wcov); ge != we {
		t.Fatalf("Estimate: %g != %g", ge, we)
	}
}

// TestRepairDifferential is the acceptance test of the tentpole: after a
// random delta, a repaired set must be bit-identical to a cold regrow on
// the patched graph — across worker counts, both sampler kinds and both
// graph orientations, and also after further growth on the patched graph.
func TestRepairDifferential(t *testing.T) {
	const (
		n = 300
		m = 900
		L = 1500
		k = 10
	)
	for _, tc := range []struct {
		name     string
		directed bool
		forward  bool
		workers  int
	}{
		{"undirected/w1/det", false, false, 1},
		{"undirected/w4/det", false, false, 4},
		{"directed/w1/det", true, false, 1},
		{"directed/w4/det", true, false, 4},
		{"forward/w1/det", false, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, n, m, tc.directed, 7)
			dr := xrand.New(99)
			for trial := 0; trial < 3; trial++ {
				delta := randomRepairDelta(g, 3, dr)
				ng, err := graph.ApplyDelta(g, delta)
				if err != nil {
					t.Fatal(err)
				}

				build := func(gr *graph.Graph) *Set {
					var s *Set
					if tc.forward {
						s = NewForwardSet(gr, xrand.New(12345))
					} else {
						s = NewBidirectionalSet(gr, xrand.New(12345))
					}
					s.Workers = tc.workers
					return s
				}

				repaired := build(g)
				repaired.GrowTo(L)
				stats, err := repaired.Repair(ng, delta)
				if err != nil {
					t.Fatalf("Repair: %v", err)
				}
				if stats.Samples != repaired.Len() || stats.Touched == 0 {
					t.Fatalf("odd stats: %+v", stats)
				}
				if stats.Regenerated == 0 {
					t.Logf("trial %d: delta perturbed no samples (legal, weak)", trial)
				}

				// Cold oracle: same seeds, grown on the patched graph to
				// the repaired length.
				cold := build(ng)
				cold.GrowTo(repaired.Len())
				sameSets(t, repaired, cold, k)

				// The repaired set must keep growing correctly on ng.
				grownL := repaired.Len() + 700
				repaired.GrowTo(grownL)
				cold.GrowTo(repaired.Len())
				sameSets(t, repaired, cold, k)

				g = ng // chain: repair compounds across versions
			}
		})
	}
}

// TestRepairEmptyDelta: an empty delta still rebinds the set to the new
// graph (the caller may pass a semantically equal rebuilt graph).
func TestRepairEmptyDelta(t *testing.T) {
	g := randomGraph(t, 100, 300, false, 3)
	s := NewBidirectionalSet(g, xrand.New(1))
	s.GrowTo(500)
	ng, err := graph.ApplyDelta(g, &graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Repair(ng, &graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regenerated != 0 || stats.Touched != 0 {
		t.Fatalf("empty delta repaired something: %+v", stats)
	}
	if s.g != ng {
		t.Fatal("set not rebound to the new graph")
	}
}

// TestRepairUnsupported: sets without a graph-parameterized factory and
// sets containing bounds-blind samples refuse repair and stay usable.
func TestRepairUnsupported(t *testing.T) {
	g := randomGraph(t, 100, 300, false, 3)
	delta := &graph.Delta{Insert: []graph.DeltaEdge{{U: 0, V: 50}}}
	ng, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}

	custom := NewSet(g, &blindSampler{}, xrand.New(1))
	custom.GrowTo(10)
	if _, err := custom.Repair(ng, delta); err != ErrRepairUnsupported {
		t.Fatalf("custom sampler: err = %v, want ErrRepairUnsupported", err)
	}

	factory := NewFactorySet(g, func() PairSampler { return &blindSampler{} }, xrand.New(1))
	factory.GrowTo(10)
	if _, err := factory.Repair(ng, delta); err != ErrRepairUnsupported {
		t.Fatalf("factory sampler: err = %v, want ErrRepairUnsupported", err)
	}

	// Shape mismatch: different node count.
	small := randomGraph(t, 50, 100, false, 4)
	set := NewBidirectionalSet(g, xrand.New(1))
	set.GrowTo(10)
	if _, err := set.Repair(small, &graph.Delta{}); err == nil || err == ErrRepairUnsupported {
		t.Fatalf("shape mismatch: err = %v, want a shape error", err)
	}
}

// blindSampler is a PairSampler that records no observation bounds.
type blindSampler struct{}

func (b *blindSampler) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	return bfs.Sample{Dist: -1}
}

// TestRepairSpeedupGuard is the in-tree benchmark guard behind the BENCH_9
// acceptance criterion: on a large sparse graph with a tiny edge delta
// (≤1% of edges), Repair must beat a cold regrow by at least 5×. The graph
// is sized so each sample's observed region is a vanishing fraction of the
// graph, which is the regime dynamic serving cares about.
func TestRepairSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	const (
		n = 60000
		m = 120000
		L = 20000
	)
	base := randomGraph(t, n, m, false, 11)
	dr := xrand.New(5)
	delta := randomRepairDelta(base, 1, dr) // 2 edge ops ≪ 1% of m
	ng, err := graph.ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}

	var best float64
	for attempt := 0; attempt < 3; attempt++ {
		warm := NewBidirectionalSet(base, xrand.New(77))
		warm.GrowTo(L)

		t0 := time.Now()
		cold := NewBidirectionalSet(ng, xrand.New(77))
		cold.GrowTo(L)
		coldDur := time.Since(t0)

		t1 := time.Now()
		stats, err := warm.Repair(ng, delta)
		repairDur := time.Since(t1)
		if err != nil {
			t.Fatal(err)
		}
		sameSets(t, warm, cold, 10)

		ratio := float64(coldDur) / float64(repairDur)
		t.Logf("attempt %d: cold %v, repair %v (%.1fx), regenerated %d/%d",
			attempt, coldDur, repairDur, ratio, stats.Regenerated, stats.Samples)
		if ratio > best {
			best = ratio
		}
		if best >= 5 {
			return
		}
	}
	t.Fatalf("repair speedup %.1fx < 5x over cold regrow", best)
}

// BenchmarkColdRegrow and BenchmarkRepair produce the BENCH_9 numbers:
// the cost of reacting to a small edge delta by cold regrow vs by
// incremental repair, same graph and sample count as the guard test.
func BenchmarkColdRegrow(b *testing.B) {
	const (
		n = 60000
		m = 120000
		L = 20000
	)
	base := randomGraph(b, n, m, false, 11)
	delta := randomRepairDelta(base, 1, xrand.New(5))
	ng, err := graph.ApplyDelta(base, delta)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh set every iteration: a Reset set would re-admit its
		// stored samples instead of drawing them.
		s := NewBidirectionalSet(ng, xrand.New(77))
		s.GrowTo(L)
	}
}

func BenchmarkRepair(b *testing.B) {
	const (
		n = 60000
		m = 120000
		L = 20000
	)
	base := randomGraph(b, n, m, false, 11)
	delta := randomRepairDelta(base, 1, xrand.New(5))
	ng, err := graph.ApplyDelta(base, delta)
	if err != nil {
		b.Fatal(err)
	}
	back := &graph.Delta{Insert: delta.Delete, Delete: delta.Insert}
	s := NewBidirectionalSet(base, xrand.New(77))
	s.GrowTo(L)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the delta and its inverse so every iteration repairs a
		// real change.
		if i%2 == 0 {
			if _, err := s.Repair(ng, delta); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := s.Repair(base, back); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestRepairRewoundSet: Repair on a rewound set migrates every stored
// sample, not just the live ones — the live prefix equals a cold regrow on
// the patched graph, and regrowing into the stored tail re-admits migrated
// samples (drawing none) that equal a cold regrow at the full stored
// length.
func TestRepairRewoundSet(t *testing.T) {
	const (
		stored = 1500
		live   = 600
		k      = 10
	)
	g := randomGraph(t, 300, 900, false, 7)
	delta := randomRepairDelta(g, 3, xrand.New(99))
	ng, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		s := NewBidirectionalSet(g, xrand.New(77))
		s.Workers = workers
		s.GrowTo(stored)
		s.Reset()
		s.GrowTo(live)
		st, err := s.Repair(ng, delta)
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != stored || st.Regenerated == 0 {
			t.Fatalf("workers=%d: repair checked %d samples (regenerated %d), want all %d stored",
				workers, st.Samples, st.Regenerated, stored)
		}
		cold := NewBidirectionalSet(ng, xrand.New(77))
		cold.GrowTo(live)
		sameSets(t, s, cold, k)

		s.Metrics = &obs.Metrics{}
		s.GrowTo(stored)
		cold.GrowTo(stored)
		sameSets(t, s, cold, k)
		if m := s.Metrics.Snapshot(); m.Samples != 0 || m.SamplesReused != stored-live {
			t.Fatalf("workers=%d: regrowth into the stored tail drew %d and re-admitted %d, want 0 and %d",
				workers, m.Samples, m.SamplesReused, stored-live)
		}
	}
}
