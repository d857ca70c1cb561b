package coverage

import (
	"slices"
	"testing"

	"gbc/internal/xrand"
)

// blockPaths fills one arena per entry of sizes with that many
// deterministic paths (about a fifth of them null), in order, returning the
// arenas and the paths in global index order — the contiguous-block split
// the sampling lanes produce.
func blockPaths(t *testing.T, n int, sizes []int, seed uint64) ([]*PathArena, [][]int32) {
	t.Helper()
	r := xrand.New(seed)
	arenas := make([]*PathArena, len(sizes))
	var paths [][]int32
	for i, size := range sizes {
		a := &PathArena{}
		a.Reset()
		arenas[i] = a
		for j := 0; j < size; j++ {
			if r.Float64() < 0.2 { // null sample
				a.EndPath()
				paths = append(paths, nil)
				continue
			}
			length := 1 + r.Intn(6)
			p := make([]int32, 0, length)
			for len(p) < length {
				v := int32(r.Intn(n))
				p = append(p, v)
				a.Nodes = append(a.Nodes, v)
			}
			a.EndPath()
			paths = append(paths, p)
		}
	}
	return arenas, paths
}

// TestAddArenasMatchesAdd checks the block bulk append against the
// one-path-at-a-time reference over uneven block sizes, including empty
// blocks and null samples (empty ranges, which must be counted).
func TestAddArenasMatchesAdd(t *testing.T) {
	const n = 50
	for i, sizes := range [][]int{
		{}, {0}, {1}, {97}, {3, 0, 5}, {1, 2, 3, 4}, {40, 1, 0, 17, 9, 30, 2},
	} {
		arenas, paths := blockPaths(t, n, sizes, uint64(31+i))
		bulk := New(n)
		nulls := bulk.AddArenas(arenas)
		ref := New(n)
		wantNulls := 0
		for _, p := range paths {
			ref.Add(p)
			if p == nil {
				wantNulls++
			}
		}
		if nulls != wantNulls {
			t.Fatalf("sizes %v: nulls %d, want %d", sizes, nulls, wantNulls)
		}
		if bulk.Len() != ref.Len() {
			t.Fatalf("sizes %v: Len %d vs %d", sizes, bulk.Len(), ref.Len())
		}
		for v := int32(0); int(v) < n; v++ {
			if bulk.CoveredBy([]int32{v}) != ref.CoveredBy([]int32{v}) {
				t.Fatalf("sizes %v: node %d coverage differs", sizes, v)
			}
		}
		// Per-path arena contents must match exactly, not just coverage.
		for j, p := range paths {
			if got := bulk.path(int32(j)); !slices.Equal(got, p) {
				t.Fatalf("sizes %v path %d: %v vs %v", sizes, j, got, p)
			}
		}
	}
}

// TestAddArenasThenGrowAgain interleaves block bulk appends with plain Adds,
// Commits and greedy queries — the adaptive loop's cadence — to check
// Commit's incremental rebuild sees both entry points identically.
func TestAddArenasThenGrowAgain(t *testing.T) {
	const n = 40
	bulk := New(n)
	ref := New(n)
	for round := 0; round < 4; round++ {
		arenas, paths := blockPaths(t, n, []int{25, 0, 31, 4}, uint64(100+round))
		bulk.AddArenas(arenas)
		for _, p := range paths {
			ref.Add(p)
		}
		// A few plain Adds on both sides between the block appends.
		for _, p := range [][]int32{{int32(round), 7}, nil, {3}} {
			bulk.Add(p)
			ref.Add(p)
		}
		if round%2 == 1 {
			bulk.Commit()
		}
		gb, cb := bulk.Greedy(4)
		gr, cr := ref.Greedy(4)
		if cb != cr || !slices.Equal(gb, gr) {
			t.Fatalf("round %d: greedy %v (%d) vs %v (%d)", round, gb, cb, gr, cr)
		}
	}
}

func TestPathArenaReset(t *testing.T) {
	var a PathArena
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("fresh arena Len = %d", a.Len())
	}
	a.Nodes = append(a.Nodes, 1, 2, 3)
	a.EndPath()
	a.EndPath() // null
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	a.Reset()
	if a.Len() != 0 || len(a.Nodes) != 0 {
		t.Fatalf("reset left %d paths, %d nodes", a.Len(), len(a.Nodes))
	}
	a.Nodes = append(a.Nodes, 9)
	a.EndPath()
	if a.Len() != 1 || a.Offsets[1] != 1 {
		t.Fatalf("arena after reset misrecorded: %+v", a)
	}
}

// TestResetExtendReadmitsStoredPaths pins the rewind contract: after Reset,
// Extend re-admits stored paths in order with their null count, and the
// rebuilt index answers like a fresh instance fed the same prefix; an Add
// after a partial re-admission drops the stored tail and lands at Len.
func TestResetExtendReadmitsStoredPaths(t *testing.T) {
	const n = 40
	arenas, paths := blockPaths(t, n, []int{30, 50}, 7)
	c := New(n)
	c.AddArenas(arenas)
	c.Greedy(3)
	c.Reset()
	if c.Len() != 0 || c.Stored() != len(paths) {
		t.Fatalf("Reset: Len %d Stored %d, want 0 and %d", c.Len(), c.Stored(), len(paths))
	}
	fresh := New(n)
	prefix := 0
	for _, l := range []int{0, 12, 12, 45, len(paths)} {
		wantNulls := 0
		for _, p := range paths[prefix:l] {
			fresh.Add(p)
			if p == nil {
				wantNulls++
			}
		}
		if nulls := c.Extend(l); nulls != wantNulls {
			t.Fatalf("Extend(%d): %d nulls, want %d", l, nulls, wantNulls)
		}
		prefix = l
		gc, cc := c.Greedy(4)
		gf, cf := fresh.Greedy(4)
		if c.Len() != l || cc != cf || !slices.Equal(gc, gf) {
			t.Fatalf("Extend(%d): Len %d greedy %v (%d), fresh %v (%d)", l, c.Len(), gc, cc, gf, cf)
		}
	}

	c.Reset()
	c.Extend(10)
	c.Add([]int32{1, 2})
	if c.Len() != 11 || c.Stored() != 11 || !slices.Equal(c.PathView(10), []int32{1, 2}) {
		t.Fatalf("Add after a partial Extend: Len %d Stored %d path %v", c.Len(), c.Stored(), c.PathView(10))
	}
	if !slices.Equal(c.PathView(9), paths[9]) {
		t.Fatalf("Add disturbed the re-admitted prefix: %v vs %v", c.PathView(9), paths[9])
	}
}
