package coverage

import "math"

// workspace holds the reusable query state of an Instance. Chosen marks
// are epoch stamps: bumping the epoch invalidates every mark in O(1), so a
// query "clears" them without touching memory. Covered marks are a packed
// bitset — one bit per sample instead of a 4-byte stamp — so the greedy
// inner loops stream 32× less mark memory through the cache; clearing it
// is a word-wise memset over only the words the query can touch. The gain
// array, the per-gain counts and the CELF heap's backing array persist
// across runs, making repeated Greedy/CoveredBy calls on a grown instance
// allocation-free (apart from the returned group).
type workspace struct {
	epoch       int32
	covered     []uint64 // per sample id: bit set iff covered this query
	chosenEpoch []int32  // per node: chosen iff == epoch
	gain        []int32  // per node: current marginal gain
	heap        nodeHeap
	counts      []int32 // per gain value: nodes, then heap positions
}

// footprint returns the bytes the workspace retains, at capacity.
func (ws *workspace) footprint() int64 {
	return int64(cap(ws.covered))*8 + int64(cap(ws.chosenEpoch))*4 +
		int64(cap(ws.gain))*4 + int64(cap(ws.heap))*8 + int64(cap(ws.counts))*4
}

// reset sizes the workspace for n nodes and `samples` paths, clears the
// covered bitset and starts a fresh chosen epoch.
func (ws *workspace) reset(n, samples int) {
	if len(ws.chosenEpoch) < n {
		ws.chosenEpoch = make([]int32, n)
		ws.gain = make([]int32, n)
	}
	words := (samples + 63) / 64
	if cap(ws.covered) < words {
		ws.covered = make([]uint64, words+words/2)
	}
	ws.covered = ws.covered[:words]
	clear(ws.covered)
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

// setCovered marks sample id covered this query.
func (ws *workspace) setCovered(id int32) {
	ws.covered[uint32(id)>>6] |= 1 << (uint32(id) & 63)
}

type nodeGain struct {
	node int32
	gain int32
}

// nodeHeap is the CELF max-heap on gain with ties toward smaller node ids.
type nodeHeap []nodeGain

// before reports whether a sits above b in the heap order.
func (a nodeGain) before(b nodeGain) bool {
	return a.gain > b.gain || a.gain == b.gain && a.node < b.node
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
