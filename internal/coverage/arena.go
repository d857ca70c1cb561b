package coverage

// PathArena is a flat, append-only sequence of sampled paths: path p is
// Nodes[Offsets[p]:Offsets[p+1]], and a null sample (unreachable pair) is an
// empty range. It is the per-worker scratch of the sampling pipeline —
// workers append raw nodes straight out of the samplers and seal each path
// with EndPath, so a chunk of samples costs no per-path allocations, and
// the buffers are reused across chunks once they reach steady capacity.
type PathArena struct {
	Nodes   []int32
	Offsets []int32 // len = Len()+1, Offsets[0] = 0, non-decreasing
	// Obs optionally carries two observation-bound values per sealed path
	// (bfs.Sample.ObsF, ObsB), appended by the sampling workers alongside
	// EndPath. Arenas that never record bounds leave it nil; all arena
	// operations keep it aligned at 2·Len() entries when present.
	Obs []int32
}

// Reset empties the arena, keeping both buffers' capacity.
func (a *PathArena) Reset() {
	a.Nodes = a.Nodes[:0]
	if len(a.Offsets) == 0 {
		a.Offsets = append(a.Offsets, 0)
	} else {
		a.Offsets = a.Offsets[:1]
	}
	a.Obs = a.Obs[:0]
}

// Len returns the number of sealed paths.
func (a *PathArena) Len() int {
	if len(a.Offsets) == 0 {
		return 0
	}
	return len(a.Offsets) - 1
}

// EndPath seals the current path: every node appended to Nodes since the
// previous EndPath (or Reset) becomes one path. Sealing with no new nodes
// records a null sample.
func (a *PathArena) EndPath() {
	a.Offsets = append(a.Offsets, int32(len(a.Nodes)))
}

// AppendArena appends every path of src to a, preserving order. Both
// arenas keep their capacity across reuse, so steady-state appends copy
// bytes without allocating.
func (a *PathArena) AppendArena(src *PathArena) {
	a.AppendRange(src, 0, src.Len())
}

// AppendRange appends paths [from, to) of src to a, in order, with their
// bound records when src carries them.
func (a *PathArena) AppendRange(src *PathArena, from, to int) {
	if len(a.Offsets) == 0 {
		a.Offsets = append(a.Offsets, 0)
	}
	base := int32(len(a.Nodes)) - src.Offsets[from]
	a.Nodes = append(a.Nodes, src.Nodes[src.Offsets[from]:src.Offsets[to]]...)
	for _, off := range src.Offsets[from+1 : to+1] {
		a.Offsets = append(a.Offsets, base+off)
	}
	if len(src.Obs) > 0 {
		a.Obs = append(a.Obs, src.Obs[2*from:2*to]...)
	}
}

// AddArenas drops the stored paths beyond Len, then appends every path of
// every arena in arena order — the blocks a remote grower returns, which
// concatenate to global index order — and returns how many are null.
func (c *Instance) AddArenas(arenas []*PathArena) (nulls int) {
	c.dropStored()
	for _, a := range arenas {
		if a.Len() > 0 {
			nulls += c.AddRange(a, 0, a.Len())
		}
	}
	return nulls
}

// AddRange appends paths [from, to) of a, in order: one bulk copy of their
// nodes and one pass rebasing their offsets, which also counts the empty
// ranges among them. Those are null samples, and their count is returned
// so the caller can maintain its unreachable count. Like Add, AddRange
// never touches the inverted index — Commit folds the new paths in at the
// next growth boundary — and discards stored paths beyond Len first.
func (c *Instance) AddRange(a *PathArena, from, to int) (nulls int) {
	c.dropStored()
	base := int64(len(c.nodes)) - int64(a.Offsets[from])
	c.nodes = append(c.nodes, a.Nodes[a.Offsets[from]:a.Offsets[to]]...)
	for i, off := range a.Offsets[from+1 : to+1] {
		if off == a.Offsets[from+i] {
			nulls++
		}
		c.offsets = append(c.offsets, base+int64(off))
	}
	c.length += to - from
	return nulls
}

// Grow makes room for paths more paths of nodes more nodes, so a commit of
// many small AddRange calls grows each arena array once, as one append
// would. Stored paths beyond Len are discarded first, as AddRange would.
func (c *Instance) Grow(paths, nodes int) {
	c.dropStored()
	c.nodes = Reserve(c.nodes, nodes)
	c.offsets = Reserve(c.offsets, paths)
}

// Reserve returns s with room for n more elements, moving a short slice to
// the larger of what it needs and 5/4 of its capacity. It copies into a
// new slice because slices.Grow appends a made slice, which under the race
// detector is a second allocation.
func Reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, max(len(s)+n, cap(s)+cap(s)/4)), s...)
}
