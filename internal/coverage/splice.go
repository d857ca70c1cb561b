package coverage

import "math"

// PathView returns the nodes of stored path p (empty for a null sample).
// The slice aliases the arena and is valid until the next mutation;
// callers must not modify it. It is the read surface of the repair layer
// and of differential tests comparing two instances path-for-path.
func (c *Instance) PathView(p int) []int32 {
	return c.nodes[c.offsets[p]:c.offsets[p+1]]
}

// Splice replaces the stored paths at the given ascending ids with the
// paths of patch (patch path k replaces ids[k]; len(ids) must equal
// patch.Len()) and rebuilds the inverted index. Ids may reach past Len
// into the paths a Reset kept. It returns how many of the replaced live
// paths (id < Len) were null before and after the splice, so the caller
// can maintain its unreachable count. Len and Stored are unchanged —
// repair rewrites sample content in place, it never adds or removes
// samples.
//
// The arena is rebuilt in one pass into buffers that are then swapped in,
// so the cost is one memcpy of the arena plus a full index rebuild (see
// rebuild) — independent of how expensive the replaced samples were to
// draw, which is what makes repair profitable: re-deriving a sample means
// a BFS, splicing it means copying a few dozen bytes.
func (c *Instance) Splice(ids []int, patch *PathArena) (oldNulls, newNulls int) {
	if len(ids) != patch.Len() {
		panic("coverage: Splice ids/patch length mismatch")
	}
	if len(ids) == 0 {
		return 0, 0
	}
	total := c.Stored()
	newNodes := make([]int32, 0, len(c.nodes)+len(patch.Nodes))
	newOffsets := make([]int64, 1, total+1)
	k := 0
	for p := 0; p < total; p++ {
		var seg []int32
		if k < len(ids) && ids[k] == p {
			seg = patch.Nodes[patch.Offsets[k]:patch.Offsets[k+1]]
			if p < c.length && c.offsets[p] == c.offsets[p+1] {
				oldNulls++
			}
			if p < c.length && len(seg) == 0 {
				newNulls++
			}
			k++
		} else {
			seg = c.path(int32(p))
		}
		newNodes = append(newNodes, seg...)
		newOffsets = append(newOffsets, int64(len(newNodes)))
	}
	if k != len(ids) {
		panic("coverage: Splice ids out of range or unsorted")
	}
	c.nodes, c.offsets = newNodes, newOffsets
	c.rebuild()
	return oldNulls, newNulls
}

// rebuild lays the inverted index out afresh, each row with room for
// exactly the stored paths through its node, and fills in the live ones:
// re-admitting the stored paths after a Reset then moves no row.
func (c *Instance) rebuild() {
	for v := range c.rows {
		c.rows[v] = row{}
	}
	for _, v := range c.nodes {
		c.rows[v].cap++
	}
	if len(c.nodes) > math.MaxInt32 {
		panic("coverage: inverted index exceeds 2^31 entries")
	}
	buf := c.idx[:cap(c.idx)]
	if len(buf) < len(c.nodes) {
		buf = make([]int32, len(c.nodes))
	}
	c.indexed = 0
	c.layout(buf, true)
	c.Commit()
}
