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
	base := int32(len(a.Nodes))
	a.Nodes = append(a.Nodes, src.Nodes...)
	if len(a.Offsets) == 0 {
		a.Offsets = append(a.Offsets, 0)
	}
	for _, off := range src.Offsets[1:] {
		a.Offsets = append(a.Offsets, base+off)
	}
	a.Obs = append(a.Obs, src.Obs...)
}

// AddArenas bulk-appends every path of every arena, in arena order — the
// contiguous-block split the EWMA-sized sampling lanes produce (lane w
// draws one contiguous index range, so concatenating the arenas in lane
// order reproduces exact global index order). Empty ranges are appended as
// null samples; their count is returned so the caller can maintain its
// unreachable count. Like Add, AddArenas never touches the inverted index
// — Commit folds the new paths in at the next growth boundary — and
// discards stored paths beyond Len first.
func (c *Instance) AddArenas(arenas []*PathArena) (nulls int) {
	c.dropStored()
	for _, a := range arenas {
		for k := 0; k < a.Len(); k++ {
			lo, hi := a.Offsets[k], a.Offsets[k+1]
			if lo == hi {
				nulls++
			}
			c.nodes = append(c.nodes, a.Nodes[lo:hi]...)
			c.offsets = append(c.offsets, int64(len(c.nodes)))
		}
		c.length += a.Len()
	}
	return nulls
}
