package coverage

import (
	"slices"
	"testing"

	"gbc/internal/xrand"
)

// Op codes of FuzzInstanceOps: the low four bits of an op byte pick the
// step (values past opAddRange only check); opDefer (bit 4) skips that
// step's query check, so an uncommitted tail carries into the next step.
const (
	opAdd = iota
	opAddArenas
	opExtend
	opReset
	opSplice
	opCommit
	opGrow
	opQuery
	opAddRange
	opDefer = 16
)

// opStream hands out the fuzz bytes; an exhausted stream reads zeros.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// path reads one simple path: a length byte (0 = null sample), then one
// byte per node, duplicates dropped.
func (s *opStream) path(n int) []int32 {
	var p []int32
	for i := int(s.next() % 7); i > 0; i-- {
		if v := int32(s.next()) % int32(n); !slices.Contains(p, v) {
			p = append(p, v)
		}
	}
	return p
}

// FuzzInstanceOps drives an Instance of at most 40 nodes through byte-chosen
// interleavings of Add, AddArenas, a Grow and AddRange of a sub-range of
// an arena (copied through PathArena.AppendRange first), Extend, Reset,
// Splice and Commit. After
// every step it checks the stored paths, every row of the index, its
// bounded view at Len, the row layout and the greedy candidate order
// against a model kept as plain path lists, then (unless the
// step defers it) compares Greedy, GreedyReference, GreedyBudgeted and
// CoveredBy with an instance built in one shot from the live paths.
func FuzzInstanceOps(f *testing.F) {
	// Reset, then a partial Extend, then an Add past Stored: the Add drops
	// the stored tail and lands at Len.
	f.Add([]byte{12, opGrow, 7, 30, opReset, opExtend, 9, opAdd, 3, 1, 2, 3, opQuery})
	// Splice past Len: ids beyond the live prefix rewrite kept paths, which
	// a full Extend then re-admits.
	f.Add([]byte{20, opGrow, 3, 40, opReset, opExtend, 15,
		opSplice, 3, 200, 1, 2, 4, 5, 6, 7, 0, 2, 9, 10, 0, opExtend, 26})
	// Growth in many small committed steps on few nodes, until a row move
	// finds the buffer full with more than a quarter of it abandoned and
	// compacts it; then an uncommitted tail is carried through a deferred
	// step into a Reset and a re-admission.
	f.Add([]byte{6, opGrow, 1, 60, opGrow, 2, 60, opGrow, 3, 60, opGrow, 4, 60,
		opGrow, 5, 60, opGrow, 6, 60, opGrow | opDefer, 7, 60, opReset, opExtend, 255})
	// Reset, a partial Extend and Greedy on the bounded view at Len <
	// Stored, then growth past Len: its first Add trims the indexed stored
	// tail from the rows.
	f.Add([]byte{16, opGrow, 11, 48, opReset, opExtend, 20, opQuery, opGrow, 12, 9, opQuery})
	// An uncommitted tail carried into a Reset: the query after a partial
	// Extend indexes every stored path, live or not, and an AddArenas past
	// Len then trims the ones beyond Len.
	f.Add([]byte{16, opGrow, 11, 30, opGrow | opDefer, 12, 20, opReset, opExtend, 35,
		opAddArenas, 0, 2, 3, 1, 2, 3, 0, opQuery})
	// An AddArenas with nothing to add after a Reset still drops the stored
	// paths: the fuzzer found a rewrite of AddArenas that skipped that.
	f.Add([]byte{9, opGrow, 48, 48, opReset, opAddArenas | opDefer})
	// Ranged appends past a partial Extend: the middle of an arena with a
	// null sample, then a range that is empty.
	f.Add([]byte{12, opGrow, 5, 20, opReset, opExtend, 7, opAddRange, 5, 1, 3,
		2, 4, 5, 0, 3, 1, 2, 3, 1, 6, opAddRange, 2, 1, 1, 1, 2, 2, 7, 8, opQuery})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		s := opStream(data)
		n := 2 + int(s.next())%39
		c := New(n)
		var stored [][]int32
		length := 0
		add := func(p []int32) {
			stored = append(stored[:length], p)
			length++
		}
		for step := 0; len(s) > 0; step++ {
			op := s.next()
			switch op & 15 {
			case opAdd:
				p := s.path(n)
				c.Add(p)
				add(p)
			case opAddArenas:
				arenas := make([]*PathArena, 1+s.next()%3)
				var paths [][]int32
				for i := range arenas {
					a := &PathArena{}
					a.Reset()
					for j := s.next() % 5; j > 0; j-- {
						p := s.path(n)
						a.Nodes = append(a.Nodes, p...)
						a.EndPath()
						paths = append(paths, p)
					}
					arenas[i] = a
				}
				stored = stored[:length] // even with no paths to add
				wantNulls := 0
				for _, p := range paths {
					add(p)
					if len(p) == 0 {
						wantNulls++
					}
				}
				if nulls := c.AddArenas(arenas); nulls != wantNulls {
					t.Fatalf("step %d: AddArenas counted %d nulls, want %d", step, nulls, wantNulls)
				}
			case opExtend:
				l := length + int(s.next())%(len(stored)-length+1)
				wantNulls := 0
				for _, p := range stored[length:l] {
					if len(p) == 0 {
						wantNulls++
					}
				}
				if nulls := c.Extend(l); nulls != wantNulls {
					t.Fatalf("step %d: Extend(%d) counted %d nulls, want %d", step, l, nulls, wantNulls)
				}
				length = l
			case opReset:
				c.Reset()
				length = 0
			case opSplice:
				var ids []int
				if len(stored) > 0 {
					for i := s.next() % 4; i > 0; i-- {
						ids = append(ids, int(s.next())%len(stored))
					}
				}
				slices.Sort(ids)
				ids = slices.Compact(ids)
				patch := &PathArena{}
				patch.Reset()
				wantOld, wantNew := 0, 0
				for _, id := range ids {
					p := s.path(n)
					patch.Nodes = append(patch.Nodes, p...)
					patch.EndPath()
					if id < length && len(stored[id]) == 0 {
						wantOld++
					}
					if id < length && len(p) == 0 {
						wantNew++
					}
					stored[id] = p
				}
				if o, nw := c.Splice(ids, patch); o != wantOld || nw != wantNew {
					t.Fatalf("step %d: Splice nulls %d→%d, want %d→%d", step, o, nw, wantOld, wantNew)
				}
			case opAddRange:
				src := &PathArena{}
				src.Reset()
				var paths [][]int32
				for j := s.next() % 9; j > 0; j-- {
					p := s.path(n)
					src.Nodes = append(src.Nodes, p...)
					src.EndPath()
					src.Obs = append(src.Obs, int32(len(p)), 1)
					paths = append(paths, p)
				}
				from := int(s.next()) % (len(paths) + 1)
				to := from + int(s.next())%(len(paths)-from+1)
				a := &PathArena{}
				a.AppendRange(src, from, to)
				if a.Len() != to-from || !slices.Equal(a.Obs, src.Obs[2*from:2*to]) {
					t.Fatalf("step %d: AppendRange(%d, %d) holds %d paths, bounds %v", step, from, to, a.Len(), a.Obs)
				}
				stored = stored[:length]
				wantNulls := 0
				for k, p := range paths[from:to] {
					if got := a.Nodes[a.Offsets[k]:a.Offsets[k+1]]; !slices.Equal(got, p) {
						t.Fatalf("step %d: AppendRange path %d is %v, want %v", step, k, got, p)
					}
					add(p)
					if len(p) == 0 {
						wantNulls++
					}
				}
				c.Grow(a.Len(), len(a.Nodes))
				if nulls := c.AddRange(a, 0, a.Len()); nulls != wantNulls {
					t.Fatalf("step %d: AddRange counted %d nulls, want %d", step, nulls, wantNulls)
				}
			case opCommit:
				c.Commit()
			case opGrow:
				src := randomInstance(xrand.New(uint64(s.next())), n, 1+int(s.next())%64, min(6, n))
				for p := range src.Len() {
					c.Add(src.PathView(p))
					add(src.PathView(p))
				}
			case opQuery:
			}
			checkAgainstModel(t, step, c, stored, length)
			if op&opDefer == 0 {
				checkQueries(t, step, c, stored[:length])
			}
		}
	})
}

// checkAgainstModel compares c's stored paths, lengths, index rows and row
// layout with the model, without committing: the raw rows must hold
// exactly the indexed prefix of the stored paths, live or not, ascending,
// inside disjoint regions of idx whose abandoned remainder is what dead
// counts; row() must return the part of them below Len; and a sorted
// greedy candidate order must rank the current rows.
func checkAgainstModel(t *testing.T, step int, c *Instance, stored [][]int32, length int) {
	t.Helper()
	if c.Len() != length || c.Stored() != len(stored) {
		t.Fatalf("step %d: Len %d Stored %d, want %d and %d", step, c.Len(), c.Stored(), length, len(stored))
	}
	for p, want := range stored {
		if got := c.PathView(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: stored path %d is %v, want %v", step, p, got, want)
		}
	}
	if c.indexed > len(stored) {
		t.Fatalf("step %d: %d paths indexed, only %d stored", step, c.indexed, len(stored))
	}
	want := make([][]int32, c.n)
	for p, path := range stored[:c.indexed] {
		for _, v := range path {
			want[v] = append(want[v], int32(p))
		}
	}
	used := 0
	for v, rw := range c.rows {
		if rw.len > rw.cap || rw.off < 0 || int(rw.off)+int(rw.cap) > len(c.idx) {
			t.Fatalf("step %d: row %d %+v outside idx of length %d", step, v, rw, len(c.idx))
		}
		used += int(rw.cap)
		if got := c.idx[rw.off : rw.off+rw.len]; !slices.Equal(got, want[v]) {
			t.Fatalf("step %d: raw row %d is %v, want %v", step, v, got, want[v])
		}
		live := want[v]
		for len(live) > 0 && int(live[len(live)-1]) >= length {
			live = live[:len(live)-1]
		}
		if got := c.row(int32(v)); !slices.Equal(got, live) {
			t.Fatalf("step %d: live row %d is %v, want %v", step, v, got, live)
		}
	}
	if c.ordered {
		var order []int32
		for v, ids := range want {
			if len(ids) > 0 {
				order = append(order, int32(v))
			}
		}
		slices.SortStableFunc(order, func(a, b int32) int { return len(want[b]) - len(want[a]) })
		if !slices.Equal(c.order, order) {
			t.Fatalf("step %d: candidate order %v, want %v", step, c.order, order)
		}
	}
	if used+c.dead != len(c.idx) {
		t.Fatalf("step %d: rows own %d slots and %d are abandoned, idx has %d", step, used, c.dead, len(c.idx))
	}
	// Regions are disjoint: sorted by offset, each ends before the next starts.
	order := make([]int, 0, len(c.rows))
	for v, rw := range c.rows {
		if rw.cap > 0 {
			order = append(order, v)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return int(c.rows[a].off) - int(c.rows[b].off) })
	for i := 1; i < len(order); i++ {
		a, b := c.rows[order[i-1]], c.rows[order[i]]
		if a.off+a.cap > b.off {
			t.Fatalf("step %d: rows %d %+v and %d %+v overlap", step, order[i-1], a, order[i], b)
		}
	}
}

// checkQueries compares every query on c with an instance built in one
// shot from the live paths and with a direct count of covered paths.
func checkQueries(t *testing.T, step int, c *Instance, live [][]int32) {
	t.Helper()
	ref := New(c.n)
	for _, p := range live {
		ref.Add(p)
	}
	covered := func(group []int32) int {
		count := 0
		for _, p := range live {
			for _, v := range p {
				if slices.Contains(group, v) {
					count++
					break
				}
			}
		}
		return count
	}
	costs := make([]float64, c.n)
	for v := range costs {
		costs[v] = float64(1 + v%3)
	}
	for _, k := range []int{1, min(3, c.n), min(7, c.n)} {
		g, cov := c.Greedy(k)
		rg, rcov := ref.Greedy(k)
		if !slices.Equal(g, rg) || cov != rcov {
			t.Fatalf("step %d: Greedy(%d) = %v/%d, one-shot %v/%d", step, k, g, cov, rg, rcov)
		}
		if gg, gcov := c.GreedyReference(k); !slices.Equal(gg, g) || gcov != cov {
			t.Fatalf("step %d: GreedyReference(%d) = %v/%d, Greedy %v/%d", step, k, gg, gcov, g, cov)
		}
		if got, want := c.CoveredBy(g), covered(g); got != want || got != cov {
			t.Fatalf("step %d: CoveredBy(%v) = %d, direct count %d, Greedy %d", step, g, got, want, cov)
		}
	}
	bg, bcov := c.GreedyBudgeted(costs, 4)
	rbg, rbcov := ref.GreedyBudgeted(costs, 4)
	if !slices.Equal(bg, rbg) || bcov != rbcov || bcov != covered(bg) {
		t.Fatalf("step %d: GreedyBudgeted = %v/%d, one-shot %v/%d, direct %d", step, bg, bcov, rbg, rbcov, covered(bg))
	}
	probe := []int32{0, int32(c.n - 1)}
	if got, want := c.CoveredBy(probe), covered(probe); got != want {
		t.Fatalf("step %d: CoveredBy(%v) = %d, direct count %d", step, probe, got, want)
	}
}
