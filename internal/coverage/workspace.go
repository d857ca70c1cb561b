package coverage

import "math"

// workspace holds the reusable query state of an Instance. Chosen marks
// are epoch stamps: bumping the epoch invalidates every mark in O(1), so a
// query "clears" them without touching memory. Covered marks are a packed
// bitset — one bit per sample instead of a 4-byte stamp — so the greedy
// inner loops stream 32× less mark memory through the cache; clearing it
// is a word-wise memset over only the words the query can touch. Only the
// queries that pick nodes size the per-node chosen marks, so an instance
// that only ever answers CoveredBy holds the bitset alone. The CELF heap's
// backing array and the row-length counts of the candidate sort persist
// across runs, making repeated Greedy/CoveredBy calls on a grown instance
// allocation-free (apart from the returned group).
type workspace struct {
	epoch       int32
	covered     []uint64 // per sample id: bit set iff covered this query
	chosenEpoch []int32  // per node: chosen iff == epoch
	heap        nodeHeap
	counts      []int32 // per row length: nodes, then order positions
}

// footprint returns the bytes the workspace retains, at capacity.
func (ws *workspace) footprint() int64 {
	return int64(cap(ws.covered))*8 + int64(cap(ws.chosenEpoch))*4 +
		int64(cap(ws.heap))*16 + int64(cap(ws.counts))*4
}

// cover sizes the covered bitset for `samples` paths and clears it.
func (ws *workspace) cover(samples int) {
	words := (samples + 63) / 64
	if cap(ws.covered) < words {
		ws.covered = make([]uint64, words+words/2)
	}
	ws.covered = ws.covered[:words]
	clear(ws.covered)
}

// reset clears the covered bitset for `samples` paths and starts a fresh
// chosen epoch over n nodes.
func (ws *workspace) reset(n, samples int) {
	ws.cover(samples)
	if len(ws.chosenEpoch) < n {
		ws.chosenEpoch = make([]int32, n)
	}
	if ws.epoch == math.MaxInt32 {
		// Epoch wrap: clear every stale mark once and restart.
		for i := range ws.chosenEpoch {
			ws.chosenEpoch[i] = 0
		}
		ws.epoch = 0
	}
	ws.epoch++
}

// isCovered reports whether sample id is marked covered this query.
func (ws *workspace) isCovered(id int32) bool {
	return ws.covered[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// uncovered counts the ids not marked covered this query.
func (ws *workspace) uncovered(ids []int32) int32 {
	cov := ws.covered
	g := int32(0)
	for _, id := range ids {
		g += int32(^cov[uint32(id)>>6] >> (uint32(id) & 63) & 1)
	}
	return g
}

// mark marks ids covered and returns how many were not covered before.
func (ws *workspace) mark(ids []int32) int {
	cov := ws.covered
	n := 0
	for _, id := range ids {
		w, s := uint32(id)>>6, uint32(id)&63
		n += int(^cov[w] >> s & 1)
		cov[w] |= 1 << s
	}
	return n
}

// setCovered marks sample id covered this query.
func (ws *workspace) setCovered(id int32) {
	ws.covered[uint32(id)>>6] |= 1 << (uint32(id) & 63)
}

// nodeGain is a CELF heap entry: node's gain, exact while the query has
// made picks picks and an upper bound after later ones, and the length of
// node's live row.
type nodeGain struct {
	node, gain, picks, live int32
}

// nodeHeap is the CELF max-heap on gain with ties toward smaller node ids.
type nodeHeap []nodeGain

// before reports whether a sits above b in the heap order.
func (a nodeGain) before(b nodeGain) bool {
	return a.gain > b.gain || a.gain == b.gain && a.node < b.node
}

// push appends x and sifts it up.
func (h nodeHeap) push(x nodeGain) nodeHeap {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	return h
}

// pop removes the top entry.
func (h nodeHeap) pop() nodeHeap {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		h.down(0)
	}
	return h
}

// down sifts h[i] down until neither child comes before it.
func (h nodeHeap) down(i int) {
	x := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if k := j + 1; k < len(h) && h[k].before(h[j]) {
			j = k
		}
		if !h[j].before(x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}
