package coverage

import (
	"math"
	"testing"

	"gbc/internal/xrand"
)

func inst(n int, paths ...[]int32) *Instance {
	c := New(n)
	for _, p := range paths {
		c.Add(p)
	}
	return c
}

func TestGreedySimple(t *testing.T) {
	// Node 2 covers three paths; optimal single pick.
	c := inst(5, []int32{0, 2}, []int32{2, 3}, []int32{2, 4}, []int32{1})
	group, covered := c.Greedy(1)
	if group[0] != 2 || covered != 3 {
		t.Fatalf("greedy(1) = %v covering %d, want node 2 covering 3", group, covered)
	}
}

func TestGreedyTwoSteps(t *testing.T) {
	c := inst(5, []int32{0, 2}, []int32{2, 3}, []int32{2, 4}, []int32{1}, []int32{1, 4})
	group, covered := c.Greedy(2)
	if group[0] != 2 || group[1] != 1 || covered != 5 {
		t.Fatalf("greedy(2) = %v covering %d, want [2 1] covering 5", group, covered)
	}
}

func TestGreedyTieBreaksBySmallerID(t *testing.T) {
	c := inst(4, []int32{1}, []int32{3})
	group, _ := c.Greedy(1)
	if group[0] != 1 {
		t.Fatalf("tie should pick smaller id, got %v", group)
	}
}

func TestGreedyPadsToK(t *testing.T) {
	c := inst(5, []int32{2})
	group, covered := c.Greedy(3)
	if len(group) != 3 || covered != 1 {
		t.Fatalf("greedy(3) = %v covering %d", group, covered)
	}
	seen := map[int32]bool{}
	for _, v := range group {
		if seen[v] {
			t.Fatalf("duplicate node in %v", group)
		}
		seen[v] = true
	}
	if !seen[2] {
		t.Fatalf("useful node missing from %v", group)
	}
}

func TestGreedyEmptyInstance(t *testing.T) {
	c := New(4)
	group, covered := c.Greedy(2)
	if len(group) != 2 || covered != 0 {
		t.Fatalf("greedy on empty = %v, %d", group, covered)
	}
}

func TestNullPathsNeverCovered(t *testing.T) {
	c := inst(3, nil, nil, []int32{1})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	group, covered := c.Greedy(3)
	if covered != 1 {
		t.Fatalf("covered = %d, want 1 (nulls uncoverable); group %v", covered, group)
	}
}

func TestCoveredBy(t *testing.T) {
	c := inst(5, []int32{0, 1}, []int32{1, 2}, []int32{3}, nil)
	if got := c.CoveredBy([]int32{1}); got != 2 {
		t.Fatalf("CoveredBy({1}) = %d, want 2", got)
	}
	if got := c.CoveredBy([]int32{1, 3}); got != 3 {
		t.Fatalf("CoveredBy({1,3}) = %d, want 3", got)
	}
	if got := c.CoveredBy(nil); got != 0 {
		t.Fatalf("CoveredBy(∅) = %d, want 0", got)
	}
	// Overlapping group members must not double count.
	if got := c.CoveredBy([]int32{0, 1, 2}); got != 2 {
		t.Fatalf("CoveredBy({0,1,2}) = %d, want 2", got)
	}
}

func TestGreedyCoveredMatchesCoveredBy(t *testing.T) {
	r := xrand.New(31)
	c := randomInstance(r, 40, 300, 6)
	group, covered := c.Greedy(5)
	if check := c.CoveredBy(group); check != covered {
		t.Fatalf("greedy reported %d covered, CoveredBy says %d", covered, check)
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	r := xrand.New(32)
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(40)
		c := randomInstance(r, n, 20+r.Intn(300), 1+r.Intn(8))
		k := 1 + r.Intn(6)
		g1, c1 := c.Greedy(k)
		g2, c2 := c.GreedyReference(k)
		if c1 != c2 {
			t.Fatalf("trial %d: lazy covered %d, reference %d", trial, c1, c2)
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("trial %d: lazy %v vs reference %v", trial, g1, g2)
			}
		}
	}
}

func TestGreedyApproximationGuarantee(t *testing.T) {
	// Greedy >= (1-1/e)·opt; verify against brute force on small instances.
	r := xrand.New(33)
	for trial := 0; trial < 10; trial++ {
		n := 8
		c := randomInstance(r, n, 40, 3)
		k := 2
		_, greedyCov := c.Greedy(k)
		best := 0
		for a := int32(0); int(a) < n; a++ {
			for b := a + 1; int(b) < n; b++ {
				if cov := c.CoveredBy([]int32{a, b}); cov > best {
					best = cov
				}
			}
		}
		if float64(greedyCov) < (1-1/2.718281828)*float64(best)-1e-9 {
			t.Fatalf("trial %d: greedy %d below guarantee vs opt %d", trial, greedyCov, best)
		}
	}
}

func TestGrowThenRerunGreedy(t *testing.T) {
	c := inst(4, []int32{0})
	if g, _ := c.Greedy(1); g[0] != 0 {
		t.Fatalf("first greedy = %v", g)
	}
	// After growth a different node dominates; greedy must reflect it.
	c.Add([]int32{3})
	c.Add([]int32{3})
	c.Add([]int32{3, 0})
	g, covered := c.Greedy(1)
	if g[0] != 3 || covered != 3 {
		t.Fatalf("after growth greedy = %v covering %d, want node 3 covering 3", g, covered)
	}
}

func TestGreedyPanicsOnBadK(t *testing.T) {
	c := New(3)
	for _, k := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Greedy(%d) did not panic", k)
				}
			}()
			c.Greedy(k)
		}()
	}
}

func randomInstance(r *xrand.Rand, n, paths, maxLen int) *Instance {
	c := New(n)
	for i := 0; i < paths; i++ {
		if r.Float64() < 0.05 {
			c.Add(nil)
			continue
		}
		length := 1 + r.Intn(maxLen)
		seen := map[int32]bool{}
		var p []int32
		for len(p) < length {
			v := int32(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				p = append(p, v)
			}
		}
		c.Add(p)
	}
	return c
}

func TestNReturnsUniverse(t *testing.T) {
	if New(7).N() != 7 {
		t.Fatal("N wrong")
	}
}

func TestGreedyReferencePadsAndStops(t *testing.T) {
	c := inst(4, []int32{1})
	group, covered := c.GreedyReference(3)
	if len(group) != 3 || covered != 1 {
		t.Fatalf("reference greedy pad: %v %d", group, covered)
	}
	if group[0] != 1 {
		t.Fatalf("useful node must come first: %v", group)
	}
}

func TestGreedyReferencePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).GreedyReference(5)
}

// TestIncrementalCommitMatchesOneShot grows an instance in many small
// batches with queries interleaved (forcing repeated incremental index
// rebuilds) and checks every query against a twin built in one shot.
func TestIncrementalCommitMatchesOneShot(t *testing.T) {
	r := xrand.New(77)
	n := 50
	var all [][]int32
	grown := New(n)
	for batch := 0; batch < 12; batch++ {
		fresh := randomInstance(r, n, 40, 5)
		for p := 0; p < fresh.Len(); p++ {
			path := append([]int32(nil), fresh.path(int32(p))...)
			if len(path) == 0 {
				path = nil
			}
			all = append(all, path)
			grown.Add(path)
		}
		oneShot := New(n)
		for _, p := range all {
			oneShot.Add(p)
		}
		k := 1 + batch%5
		g1, c1 := grown.Greedy(k)
		g2, c2 := oneShot.Greedy(k)
		if c1 != c2 {
			t.Fatalf("batch %d: incremental covered %d, one-shot %d", batch, c1, c2)
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("batch %d: incremental %v, one-shot %v", batch, g1, g2)
			}
		}
		if cb1, cb2 := grown.CoveredBy(g1), oneShot.CoveredBy(g2); cb1 != cb2 {
			t.Fatalf("batch %d: CoveredBy %d vs %d", batch, cb1, cb2)
		}
	}
}

// TestIndexRowsSortedAfterCommits checks the index invariant the greedy
// relies on: every node's id row stays ascending across incremental
// commits, matching the append order of the old per-node slices.
func TestIndexRowsSortedAfterCommits(t *testing.T) {
	r := xrand.New(78)
	c := New(30)
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 25; i++ {
			length := 1 + r.Intn(4)
			seen := map[int32]bool{}
			var p []int32
			for len(p) < length {
				v := int32(r.Intn(30))
				if !seen[v] {
					seen[v] = true
					p = append(p, v)
				}
			}
			c.Add(p)
		}
		c.Commit()
		for v := int32(0); int(v) < c.n; v++ {
			row := c.row(v)
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					t.Fatalf("batch %d: row %d not ascending: %v", batch, v, row)
				}
			}
		}
	}
}

// TestQueriesAllocateNothingWarm pins the workspace contract: on a
// committed, warmed instance CoveredBy allocates nothing and Greedy
// allocates only the returned group.
func TestQueriesAllocateNothingWarm(t *testing.T) {
	r := xrand.New(79)
	c := randomInstance(r, 60, 2000, 6)
	group, _ := c.Greedy(10) // warm: commit + workspace sizing
	if allocs := testing.AllocsPerRun(50, func() {
		c.CoveredBy(group)
	}); allocs != 0 {
		t.Fatalf("CoveredBy allocates %v/op on a warm instance, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		c.Greedy(10)
	}); allocs > 2 {
		t.Fatalf("Greedy allocates %v/op on a warm instance, want <= 2 (the group)", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		c.GreedyReference(10)
	}); allocs > 2 {
		t.Fatalf("GreedyReference allocates %v/op on a warm instance, want <= 2", allocs)
	}
}

// TestEpochWrapClearsMarks forces the epoch counter to its wrap point and
// checks queries stay correct across the reset.
func TestEpochWrapClearsMarks(t *testing.T) {
	c := inst(5, []int32{0, 2}, []int32{2, 3}, []int32{2, 4}, []int32{1})
	before, coveredBefore := c.Greedy(2)
	c.ws.epoch = math.MaxInt32 - 1
	for i := 0; i < 4; i++ { // queries straddle the wrap
		group, covered := c.Greedy(2)
		if covered != coveredBefore || group[0] != before[0] || group[1] != before[1] {
			t.Fatalf("after wrap step %d: %v covering %d, want %v covering %d",
				i, group, covered, before, coveredBefore)
		}
		if cb := c.CoveredBy(group); cb != covered {
			t.Fatalf("after wrap step %d: CoveredBy %d != covered %d", i, cb, covered)
		}
	}
	if c.ws.epoch >= math.MaxInt32-1 || c.ws.epoch < 1 {
		t.Fatalf("epoch did not wrap cleanly: %d", c.ws.epoch)
	}
}

// TestAddThenQueryAutoCommits checks a query right after Add sees the new
// paths without an explicit Commit (lazy self-commit).
func TestAddThenQueryAutoCommits(t *testing.T) {
	c := New(3)
	c.Add([]int32{1})
	if got := c.CoveredBy([]int32{1}); got != 1 {
		t.Fatalf("CoveredBy before explicit Commit = %d, want 1", got)
	}
	c.Add([]int32{1, 2})
	if got := c.CoveredBy([]int32{1}); got != 2 {
		t.Fatalf("CoveredBy after second Add = %d, want 2", got)
	}
}

// TestReadmissionMovesNoRow pins what Reset keeps: on a warm instance
// grown along a geometric schedule, Reset → Extend → Commit refills every
// row where Reset laid it out — no row moves, the index buffer neither
// grows nor gains abandoned slots — and allocates nothing, for a partial
// and a full re-admission alike.
func TestReadmissionMovesNoRow(t *testing.T) {
	r := xrand.New(80)
	src := randomInstance(r, 60, 3000, 6)
	c := New(60)
	for l := 100.0; int(l) < src.Len(); l *= 1.1 {
		for p := c.Len(); p < int(l); p++ {
			c.Add(src.PathView(p))
		}
		c.Greedy(5)
	}
	stored := c.Stored()
	laidOut := make([]row, len(c.rows))
	for _, l := range []int{stored / 2, stored, stored} {
		c.Reset()
		copy(laidOut, c.rows)
		idxLen, idxCap := len(c.idx), cap(c.idx)
		c.Extend(l)
		c.Commit()
		for v, rw := range c.rows {
			if rw.off != laidOut[v].off || rw.cap != laidOut[v].cap {
				t.Fatalf("re-admitting %d paths moved row %d: %+v, laid out at %+v", l, v, rw, laidOut[v])
			}
		}
		if len(c.idx) != idxLen || cap(c.idx) != idxCap || c.dead != 0 {
			t.Fatalf("re-admitting %d paths changed the index buffer: len %d cap %d dead %d, was len %d cap %d",
				l, len(c.idx), cap(c.idx), c.dead, idxLen, idxCap)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		c.Reset()
		c.Extend(stored)
		c.Commit()
	}); allocs != 0 {
		t.Fatalf("Reset, Extend, Commit: %g allocs on a warm instance, want 0", allocs)
	}
}
