// Package coverage solves the maximum-coverage subproblem at the heart of
// every sampling algorithm for top-K GBC: given a multiset of sampled
// shortest paths, pick K nodes covering as many paths as possible (a path
// is covered when it contains at least one picked node). The greedy rule is
// a (1-1/e)-approximation (Nemhauser et al. 1978).
//
// Instance is growable — AdaAlg adds samples between iterations — and
// Greedy can be re-run after growth. Both a lazy (CELF-style) greedy and a
// straightforward reference greedy are provided; they produce identical
// groups (same deterministic tie-breaking by node id).
//
// Memory layout (the "flat engine"): sampled paths live in one shared
// append-only arena (a node buffer plus an offsets array; a null sample is
// an empty range). The node→samples inverted index is one flat id buffer
// holding a row per node, each row with spare capacity. Commit appends the
// ids of the paths added since the last Commit to their nodes' rows, so it
// costs the entries it adds; only a row that is full moves, to the tail of
// the buffer with about half again its capacity, and a buffer that must
// grow is compacted instead once moved rows have abandoned more than a
// quarter of it. All query methods
// share one epoch-stamped workspace, so re-running Greedy, GreedyReference,
// GreedyBudgeted or CoveredBy on a grown instance allocates (almost)
// nothing. An Instance is not safe for concurrent use.
//
// The arena may hold more paths than the instance currently exposes:
// Reset rewinds Len to zero but keeps the stored paths and every row's
// capacity, and Extend re-admits the stored paths in order, so a caller
// whose paths are a pure function of their index (the sampling layer)
// regrows a rewound instance without re-deriving the paths or moving a
// row.
package coverage

import (
	"math"
	"slices"
)

// Instance is a growable max-coverage instance over nodes 0..n-1.
type Instance struct {
	n int

	// Arena: the nodes of path p are nodes[offsets[p]:offsets[p+1]].
	// A null sample (unreachable pair) is an empty range: it counts toward
	// Len but can never be covered. The arena stores Stored() paths; the
	// first length of them are live (Len), the rest were kept by Reset.
	nodes   []int32
	offsets []int64 // len = Stored()+1, offsets[0] = 0, non-decreasing
	length  int

	// Inverted index over the first `indexed` paths: the ids of the paths
	// containing node v are idx[rows[v].off:][:rows[v].len], in ascending
	// id order, and idx[rows[v].off:][:rows[v].cap] is the room the row
	// owns. A row that fills up moves to the tail of idx (relocate); the
	// slots it leaves are abandoned and counted in dead until a compaction
	// drops them. Paths added after the last Commit are present in the
	// arena but not yet in the index.
	idx     []int32
	rows    []row // len n
	dead    int
	indexed int

	ws workspace
}

// row locates one node's id row in Instance.idx. The three int32 fields
// are 12 bytes per node; relocate and Splice panic rather than let idx
// pass 2^31 entries.
type row struct {
	off, len, cap int32
}

// minRowGrowth is added to half a row's capacity when the row moves, so a
// short row does not move on every append.
const minRowGrowth = 2

// New returns an empty instance over n nodes.
func New(n int) *Instance {
	return &Instance{
		n:       n,
		offsets: make([]int64, 1, 64),
		rows:    make([]row, n),
	}
}

// N returns the node-universe size.
func (c *Instance) N() int { return c.n }

// Len returns the number of live paths (including null samples).
func (c *Instance) Len() int { return c.length }

// Stored returns the number of paths held in the arena: the Len live ones
// plus any a Reset kept for Extend to re-admit.
func (c *Instance) Stored() int { return len(c.offsets) - 1 }

// Add appends one sampled path as path Len(). A nil (or empty) path
// records an unreachable-pair sample: it counts toward Len but can never
// be covered. Nodes must be in range and appear at most once per path
// (shortest paths are simple); out-of-range nodes are caught by the next
// Commit. Add never touches the inverted index — growth is two flat
// appends — so bulk growth stays cache-friendly and allocation-light.
// Stored paths beyond Len are discarded first.
func (c *Instance) Add(path []int32) {
	c.dropStored()
	c.nodes = append(c.nodes, path...)
	c.offsets = append(c.offsets, int64(len(c.nodes)))
	c.length++
}

// dropStored discards the stored paths beyond Len, so appends land at
// index Len.
func (c *Instance) dropStored() {
	c.nodes = c.nodes[:c.offsets[c.length]]
	c.offsets = c.offsets[:c.length+1]
}

// Extend re-admits stored paths until Len() == l and returns how many of
// the re-admitted paths are null. Like Add it leaves the inverted index to
// the next Commit. It panics unless Len() <= l <= Stored().
func (c *Instance) Extend(l int) (nulls int) {
	if l < c.length || l > c.Stored() {
		panic("coverage: Extend beyond the stored paths")
	}
	for p := c.length; p < l; p++ {
		if c.offsets[p] == c.offsets[p+1] {
			nulls++
		}
	}
	c.length = l
	return nulls
}

// Commit folds every path added since the previous Commit into the
// inverted index: each new path id is appended to the rows of its nodes,
// so rows stay ascending and the cost is the entries added. A row with no
// room left moves first (relocate). After a Reset the rows keep their
// capacity, so re-admitting the same stored paths moves no row and
// allocates nothing. Every query method calls Commit itself; the sampling
// layer additionally calls it at growth boundaries — which its
// all-or-nothing chunk contract guarantees are chunk boundaries — so
// queries never pay for index construction.
func (c *Instance) Commit() {
	if c.length > math.MaxInt32 {
		panic("coverage: more than 2^31 paths")
	}
	for p := c.indexed; p < c.length; p++ {
		for _, v := range c.nodes[c.offsets[p]:c.offsets[p+1]] {
			r := &c.rows[v]
			if r.len == r.cap {
				c.relocate(r)
			}
			c.idx[r.off+r.len] = int32(p)
			r.len++
		}
	}
	c.indexed = c.length
}

// relocate moves the full row r to the tail of idx with about half again
// its capacity and abandons its old slots. When idx has no room left it
// is compacted if abandoned slots fill more than a quarter of it, and
// grown otherwise.
func (c *Instance) relocate(r *row) {
	size := int(r.cap) + int(r.cap)/2 + minRowGrowth
	if len(c.idx)+size > math.MaxInt32 {
		panic("coverage: inverted index exceeds 2^31 entries")
	}
	if len(c.idx)+size > cap(c.idx) && 4*c.dead > len(c.idx) {
		c.compact(size)
	}
	off := len(c.idx)
	c.idx = slices.Grow(c.idx, size)[:off+size]
	copy(c.idx[off:], c.idx[r.off:r.off+r.len])
	c.dead += int(r.cap)
	r.off, r.cap = int32(off), int32(size)
}

// compact lays the rows out afresh in a new buffer, dropping the abandoned
// slots, with room for extra more entries plus half the live size again.
func (c *Instance) compact(extra int) {
	live := len(c.idx) - c.dead
	c.layout(make([]int32, live+extra+live/2), false)
}

// Reset rewinds the instance: Len and the inverted index return to zero,
// but the stored paths stay in the arena for Extend to re-admit, and every
// allocation survives — arena, index buffer, each row's capacity and the
// query workspace. The emptied rows are laid out afresh, which frees the
// abandoned slots without copying anything. Re-admitting stored paths and
// committing them refills the rows in place, moving none that the same
// paths filled before, and answers every query as a fresh instance fed
// the same paths would.
func (c *Instance) Reset() {
	c.length, c.indexed = 0, 0
	c.layout(c.idx[:cap(c.idx)], true)
}

// layout lays every row out in buf in node order, each keeping its
// capacity and, unless empty is set, its ids; buf must hold the rows'
// total capacity.
func (c *Instance) layout(buf []int32, empty bool) {
	off := 0
	for v := range c.rows {
		r := &c.rows[v]
		if empty {
			r.len = 0
		} else {
			copy(buf[off:], c.idx[r.off:r.off+r.len])
		}
		r.off = int32(off)
		off += int(r.cap)
	}
	c.idx, c.dead = buf[:off], 0
}

// MemoryFootprint returns the bytes the instance retains: arena, index
// buffer (abandoned slots and spare capacity included), row table and
// query workspace, each at its capacity — the number the allocator
// actually holds. The observability layer publishes it as the
// coverage-arena gauge; it costs a handful of loads, so calling it at
// growth boundaries is free.
func (c *Instance) MemoryFootprint() int64 {
	return int64(cap(c.nodes))*4 + int64(cap(c.offsets))*8 +
		int64(cap(c.idx))*4 + int64(cap(c.rows))*12 + c.ws.footprint()
}

// row returns the ids of the paths containing v (valid until next Commit).
func (c *Instance) row(v int32) []int32 {
	r := c.rows[v]
	return c.idx[r.off : r.off+r.len]
}

// path returns the nodes of path id (empty for a null sample).
func (c *Instance) path(id int32) []int32 {
	return c.nodes[c.offsets[id]:c.offsets[id+1]]
}

// CoveredBy returns how many paths contain at least one node of group.
// It allocates nothing: covered marks are epoch stamps in the shared
// workspace.
func (c *Instance) CoveredBy(group []int32) int {
	c.Commit()
	ws := &c.ws
	ws.reset(c.n, c.Len())
	count := 0
	for _, v := range group {
		for _, id := range c.row(v) {
			if !ws.isCovered(id) {
				ws.setCovered(id)
				count++
			}
		}
	}
	return count
}

// Greedy picks k nodes by lazy (CELF-style) greedy maximum coverage and
// returns the group together with the number of covered paths. Ties break
// toward the smaller node id; once every path is covered (or no node has
// positive gain) the group is padded with the smallest unchosen ids, so the
// result always has exactly k nodes. It panics if k is out of range.
//
// Re-runs allocate only the returned group: gains restart from the
// persisted row lengths (each node's sample count, maintained by Commit),
// the heap starts as the nodes with positive gain counting-sorted into
// heap order, and the heap, gain counts, gain array and covered/chosen
// marks live in the instance's epoch-stamped workspace. The lazy greedy
// picks the node of largest current gain whatever its heap holds, so the
// group does not depend on how the heap was built.
func (c *Instance) Greedy(k int) (group []int32, covered int) {
	if k < 0 || k > c.n {
		panic("coverage: k out of range")
	}
	c.Commit()
	ws := &c.ws
	ws.reset(c.n, c.Len())
	epoch := ws.epoch
	gain := ws.gain
	// Counting sort by gain, descending, ids ascending within a gain: an
	// array sorted in heap order is already a heap.
	most := int32(0)
	for v, r := range c.rows {
		gain[v] = r.len
		most = max(most, r.len)
	}
	at := slices.Grow(ws.counts[:0], int(most)+1)[:most+1]
	clear(at)
	ws.counts = at
	for _, g := range gain {
		at[g]++
	}
	size := int32(0)
	for g := most; g > 0; g-- {
		size, at[g] = size+at[g], size
	}
	h := slices.Grow(ws.heap[:0], int(size))[:size]
	for v, g := range gain {
		if g > 0 {
			h[at[g]] = nodeGain{int32(v), g}
			at[g]++
		}
	}

	group = make([]int32, 0, k)
	for len(group) < k && len(h) > 0 {
		top := h[0]
		if top.gain != gain[top.node] {
			// Stale priority: gains only decrease, so refresh and re-sift.
			h[0].gain = gain[top.node]
			h.down(0)
			continue
		}
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 0 {
			h.down(0)
		}
		v := top.node
		if top.gain == 0 {
			break
		}
		group = append(group, v)
		ws.chosenEpoch[v] = epoch
		for _, id := range c.row(v) {
			if ws.isCovered(id) {
				continue
			}
			ws.setCovered(id)
			covered++
			for _, w := range c.path(id) {
				gain[w]--
			}
		}
	}
	// Pad with arbitrary (smallest-id) unchosen nodes: zero marginal gain.
	for v := int32(0); len(group) < k; v++ {
		if ws.chosenEpoch[v] != epoch {
			group = append(group, v)
			ws.chosenEpoch[v] = epoch
		}
	}
	ws.heap = h
	return group, covered
}

// GreedyReference is a quadratic greedy used as a test oracle for Greedy:
// it recomputes every node's marginal gain at each step with the same
// tie-breaking (larger gain, then smaller id). It shares the epoch-stamped
// workspace (the marks are semantically the fresh bool arrays of the
// original implementation), so its selections are unchanged.
func (c *Instance) GreedyReference(k int) (group []int32, covered int) {
	if k < 0 || k > c.n {
		panic("coverage: k out of range")
	}
	c.Commit()
	ws := &c.ws
	ws.reset(c.n, c.Len())
	epoch := ws.epoch
	group = make([]int32, 0, k)
	for len(group) < k {
		best, bestGain := int32(-1), int32(0)
		for v := int32(0); int(v) < c.n; v++ {
			if ws.chosenEpoch[v] == epoch {
				continue
			}
			var g int32
			for _, id := range c.row(v) {
				if !ws.isCovered(id) {
					g++
				}
			}
			if g > bestGain {
				best, bestGain = v, g
			}
		}
		if best == -1 {
			break
		}
		group = append(group, best)
		ws.chosenEpoch[best] = epoch
		for _, id := range c.row(best) {
			if !ws.isCovered(id) {
				ws.setCovered(id)
				covered++
			}
		}
	}
	for v := int32(0); len(group) < k; v++ {
		if ws.chosenEpoch[v] != epoch {
			group = append(group, v)
			ws.chosenEpoch[v] = epoch
		}
	}
	return group, covered
}
