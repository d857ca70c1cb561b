// Package coverage solves the maximum-coverage subproblem at the heart of
// every sampling algorithm for top-K GBC: given a multiset of sampled
// shortest paths, pick K nodes covering as many paths as possible (a path
// is covered when it contains at least one picked node). The greedy rule is
// a (1-1/e)-approximation (Nemhauser et al. 1978).
//
// Instance is growable — AdaAlg adds samples between iterations — and
// Greedy can be re-run after growth. Both a lazy (CELF) greedy and a
// straightforward reference greedy are provided; they produce identical
// groups (same deterministic tie-breaking by node id).
//
// Memory layout (the "flat engine"): sampled paths live in one shared
// append-only arena (a node buffer plus an offsets array; a null sample is
// an empty range). The node→samples inverted index is one flat id buffer
// holding a row per node, each row with spare capacity. Commit appends the
// ids of the paths stored since the last Commit to their nodes' rows, so it
// costs the entries it adds; only a row that is full moves, to the tail of
// the buffer with about half again its capacity, and a buffer that must
// grow is compacted instead once moved rows have abandoned more than a
// quarter of it. All query methods
// share one epoch-stamped workspace, so re-running Greedy, GreedyReference,
// GreedyBudgeted or CoveredBy on a grown instance allocates (almost)
// nothing. An Instance is not safe for concurrent use.
//
// The arena may hold more paths than the instance currently exposes, and
// the index covers all of them: Reset rewinds Len to zero and Extend moves
// it forward again over the stored paths, touching neither the arena nor
// the index, so a caller whose paths are a pure function of their index
// (the sampling layer) regrows a rewound instance without re-deriving a
// path or re-admitting an id. Queries read each row's prefix of ids below
// Len — the bounded view of the paths live at that length.
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

	// Inverted index over the first `indexed` stored paths, live or not:
	// the ids of the paths containing node v are
	// idx[rows[v].off:][:rows[v].len], in ascending id order, and
	// idx[rows[v].off:][:rows[v].cap] is the room the row owns. A row that
	// fills up moves to the tail of idx (relocate); the slots it leaves are
	// abandoned and counted in dead until a compaction drops them. Paths
	// stored after the last Commit are present in the arena but not yet in
	// the index.
	idx     []int32
	rows    []row // len n
	dead    int
	indexed int

	// order lists the nodes with a non-empty row, longest row first and
	// ids ascending within a length. A stored row's length bounds its
	// node's gain at every Len, so Greedy draws candidates in this order.
	// Any change to the rows clears ordered; the next Greedy re-sorts.
	order   []int32
	ordered bool

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
// plus any beyond Len that Extend can make live again.
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
// index Len. Their ids are the largest in every row they reached, so the
// indexed ones are trimmed from the rows' tails.
func (c *Instance) dropStored() {
	if c.length == c.Stored() {
		return
	}
	for p := c.length; p < c.indexed; p++ {
		for _, v := range c.path(int32(p)) {
			c.rows[v].len--
		}
	}
	c.indexed = min(c.indexed, c.length)
	c.ordered = false
	c.nodes = c.nodes[:c.offsets[c.length]]
	c.offsets = c.offsets[:c.length+1]
}

// Extend makes stored paths live until Len() == l and returns how many of
// them are null. It moves only the Len cursor: the index already holds, or
// the next Commit adds, every stored path. It panics unless
// Len() <= l <= Stored().
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

// Commit folds every path stored since the previous Commit — live or
// beyond Len — into the inverted index: each new path id is appended to
// the rows of its nodes, so rows stay ascending and the cost is the
// entries added. A row with no room left moves first (relocate). Reset
// and Extend only move Len, so re-admitting stored paths adds nothing
// here. Every query method calls Commit itself; the
// sampling layer additionally calls it at growth boundaries — which its
// all-or-nothing chunk contract guarantees are chunk boundaries — so
// queries never pay for index construction. It panics rather than store
// more than 2^31 paths, the range of an id.
func (c *Instance) Commit() {
	stored := c.Stored()
	if stored > math.MaxInt32 {
		panic("coverage: more than 2^31 paths")
	}
	if c.indexed == stored {
		return
	}
	for p := c.indexed; p < stored; p++ {
		for _, v := range c.nodes[c.offsets[p]:c.offsets[p+1]] {
			r := &c.rows[v]
			if r.len == r.cap {
				c.relocate(r)
			}
			c.idx[r.off+r.len] = int32(p)
			r.len++
		}
	}
	c.indexed = stored
	c.ordered = false
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
	c.layout(make([]int32, live+extra+live/2))
}

// Reset rewinds Len to zero. The stored paths and the index over them stay
// as they are, for Extend to make live again; every query answers as a
// fresh instance fed the live paths would, and nothing is moved, copied or
// allocated.
func (c *Instance) Reset() { c.length = 0 }

// layout lays every row out in buf in node order, each keeping its ids and
// capacity; buf must hold the rows' total capacity.
func (c *Instance) layout(buf []int32) {
	off := 0
	for v := range c.rows {
		r := &c.rows[v]
		copy(buf[off:], c.idx[r.off:r.off+r.len])
		r.off = int32(off)
		off += int(r.cap)
	}
	c.idx, c.dead = buf[:off], 0
}

// MemoryFootprint returns the bytes the instance retains: arena, index
// buffer (abandoned slots and spare capacity included), row table, greedy
// candidate order and query workspace, each at its capacity — the number
// the allocator actually holds. The observability layer publishes it as
// the coverage-arena gauge; it costs a handful of loads, so calling it at
// growth boundaries is free.
func (c *Instance) MemoryFootprint() int64 {
	return int64(cap(c.nodes))*4 + int64(cap(c.offsets))*8 +
		int64(cap(c.idx))*4 + int64(cap(c.rows))*12 + int64(cap(c.order))*4 +
		c.ws.footprint()
}

// row returns the ids of the live paths containing v, ascending: the
// prefix of v's index row below Len (valid until the next Commit). Only a
// row whose last id reaches past Len is binary-searched.
func (c *Instance) row(v int32) []int32 {
	r := c.rows[v]
	ids := c.idx[r.off : r.off+r.len]
	if r.len > 0 && int(ids[r.len-1]) >= c.length {
		live, _ := slices.BinarySearch(ids, int32(c.length))
		ids = ids[:live]
	}
	return ids
}

// path returns the nodes of path id (empty for a null sample).
func (c *Instance) path(id int32) []int32 {
	return c.nodes[c.offsets[id]:c.offsets[id+1]]
}

// CoveredBy returns how many paths contain at least one node of group.
// It allocates nothing once the workspace's covered bitset holds Len bits.
func (c *Instance) CoveredBy(group []int32) int {
	c.Commit()
	ws := &c.ws
	ws.cover(c.Len())
	count := 0
	for _, v := range group {
		count += ws.mark(c.row(v))
	}
	return count
}

// Greedy picks k nodes by lazy (CELF) greedy maximum coverage and returns
// the group together with the number of covered paths. Ties break toward
// the smaller node id; once every path is covered (or no node has positive
// gain) the group is padded with the smallest unchosen ids, so the result
// always has exactly k nodes. It panics if k is out of range.
//
// This is Minoux's accelerated greedy as CELF uses it (Leskovec et al.,
// KDD 2007), over the bounded view at Len. Candidates enter from c.order,
// which ranks nodes by stored row length — an upper bound on their gain at
// every Len — and is re-sorted only after the index changed. A candidate's
// exact gain is its live row scanned against the covered bitset, and its
// heap entry keeps the row's live length and how many picks had been made
// when the gain was counted: gains only fall as paths get covered, so a
// stale entry is an upper bound and is rescanned only when it reaches the
// top. A fresh top that comes before the next candidate's bound is the
// node of largest gain, so the group does not depend on the order of
// evaluation. Nothing is O(n) per call and only evaluated nodes enter the
// heap; re-runs allocate only the returned group.
func (c *Instance) Greedy(k int) (group []int32, covered int) {
	if k < 0 || k > c.n {
		panic("coverage: k out of range")
	}
	c.Commit()
	if !c.ordered {
		c.sortRows()
	}
	ws := &c.ws
	ws.reset(c.n, c.Len())
	epoch := ws.epoch
	h := ws.heap[:0]
	next := 0 // c.order[:next] have been evaluated
	group = make([]int32, 0, k)
	for len(group) < k {
		picks := int32(len(group))
		if next < len(c.order) {
			v := c.order[next]
			if len(h) == 0 || !h[0].before(nodeGain{node: v, gain: c.rows[v].len}) {
				next++
				ids := c.row(v)
				g := int32(len(ids)) // nothing is covered before the first pick
				if picks > 0 {
					g = ws.uncovered(ids)
				}
				if g > 0 {
					h = h.push(nodeGain{v, g, picks, int32(len(ids))})
				}
				continue
			}
		}
		if len(h) == 0 {
			break
		}
		top := &h[0]
		ids := c.idx[c.rows[top.node].off:][:top.live]
		if top.picks != picks {
			top.gain, top.picks = ws.uncovered(ids), picks
			if top.gain > 0 {
				h.down(0)
			} else {
				h = h.pop()
			}
			continue
		}
		group = append(group, top.node)
		ws.chosenEpoch[top.node] = epoch
		covered += ws.mark(ids)
		h = h.pop()
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

// sortRows counting-sorts the nodes with a non-empty row into c.order by
// row length, longest first, ids ascending within a length.
func (c *Instance) sortRows() {
	most := int32(0)
	for _, r := range c.rows {
		most = max(most, r.len)
	}
	at := slices.Grow(c.ws.counts[:0], int(most)+1)[:most+1]
	clear(at)
	for _, r := range c.rows {
		at[r.len]++
	}
	size := int32(0)
	for l := most; l > 0; l-- {
		size, at[l] = size+at[l], size
	}
	order := slices.Grow(c.order[:0], int(size))[:size]
	for v, r := range c.rows {
		if r.len > 0 {
			order[at[r.len]] = int32(v)
			at[r.len]++
		}
	}
	c.ws.counts, c.order, c.ordered = at, order, true
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
