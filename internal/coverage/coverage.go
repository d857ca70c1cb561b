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
// an empty range), and the node→samples inverted index is a CSR — one flat
// id buffer plus per-node row starts — rebuilt incrementally by Commit at
// growth boundaries instead of being append-per-node on every Add. All
// query methods share one epoch-stamped workspace, so re-running Greedy,
// GreedyReference, GreedyBudgeted or CoveredBy on a grown instance
// allocates (almost) nothing. An Instance is not safe for concurrent use.
//
// The arena may hold more paths than the instance currently exposes:
// Reset rewinds Len to zero but keeps the stored paths, and Extend
// re-admits them in order, so a caller whose paths are a pure function of
// their index (the sampling layer) regrows a rewound instance without
// re-deriving them.
package coverage

import "container/heap"

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

	// CSR inverted index over the first `indexed` paths: the ids of the
	// paths containing node v are idx[idxStart[v]:idxStart[v+1]], in
	// ascending id order. Paths added after the last Commit are present in
	// the arena but not yet in the index.
	idx      []int32
	idxStart []int64 // len n+1
	indexed  int

	// Commit scratch, allocated once: cnt holds per-node tail counts and is
	// then reused as fill cursors (always zeroed again before Commit
	// returns); startNew double-buffers idxStart across rebuilds.
	cnt      []int64
	startNew []int64

	ws workspace
}

// New returns an empty instance over n nodes.
func New(n int) *Instance {
	return &Instance{
		n:        n,
		offsets:  make([]int64, 1, 64),
		idxStart: make([]int64, n+1),
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

// Commit folds every path added since the previous Commit into the CSR
// inverted index. The rebuild is incremental: existing rows slide right to
// make room (one overlapping copy per shifted row, highest node first) and
// only the new tail of the arena is scanned to fill in fresh ids, so a
// geometric growth schedule pays O(final index size) in total. Every query
// method calls Commit itself; the sampling layer additionally calls it at
// growth boundaries — which PR 1's all-or-nothing chunk contract guarantees
// are chunk boundaries — so queries never pay for index construction.
func (c *Instance) Commit() {
	total := c.length
	if c.indexed == total {
		return
	}
	if c.cnt == nil {
		c.cnt = make([]int64, c.n)
		c.startNew = make([]int64, c.n+1)
	}
	cnt := c.cnt

	// Per-node occurrence counts of the uncommitted tail.
	for _, v := range c.nodes[c.offsets[c.indexed]:c.offsets[total]] {
		cnt[v]++
	}

	// New row starts: previous row length plus tail count.
	old := c.idxStart
	ns := c.startNew
	ns[0] = 0
	for v := 0; v < c.n; v++ {
		ns[v+1] = ns[v] + (old[v+1] - old[v]) + cnt[v]
	}

	// Grow the id buffer with amortized slack.
	need := ns[c.n]
	if int64(cap(c.idx)) < need {
		bigger := make([]int32, need, need+need/2)
		copy(bigger, c.idx)
		c.idx = bigger
	}
	c.idx = c.idx[:need]

	// Slide existing rows right into place, highest node first: each
	// destination starts at or right of its source and right of every
	// still-unmoved row, and copy handles the self-overlap. Rows stop
	// shifting as soon as no node below has new ids.
	for v := c.n - 1; v >= 0; v-- {
		o := old[v]
		if o == ns[v] {
			break
		}
		copy(c.idx[ns[v]:ns[v]+(old[v+1]-o)], c.idx[o:old[v+1]])
	}

	// Fill the fresh ids in path order; per-node cursors start right after
	// each row's existing ids, so rows stay sorted ascending.
	for v := 0; v < c.n; v++ {
		cnt[v] = ns[v+1] - cnt[v]
	}
	for p := c.indexed; p < total; p++ {
		for _, v := range c.nodes[c.offsets[p]:c.offsets[p+1]] {
			c.idx[cnt[v]] = int32(p)
			cnt[v]++
		}
	}
	for v := range cnt {
		cnt[v] = 0
	}
	c.idxStart, c.startNew = ns, old
	c.indexed = total
}

// Reset rewinds the instance: Len and the inverted index return to zero,
// but the stored paths stay in the arena for Extend to re-admit, and every
// allocation (arena and index capacity, commit scratch, query workspace)
// survives. Re-admitting stored paths and committing them rebuilds the
// same index a fresh instance fed the same paths would build.
func (c *Instance) Reset() {
	c.length = 0
	c.idx = c.idx[:0]
	clear(c.idxStart)
	c.indexed = 0
}

// MemoryFootprint returns the bytes retained by the instance's arena,
// inverted index and commit scratch (capacities, not lengths — the number
// the allocator actually holds). The observability layer publishes it as
// the coverage-arena gauge; it costs a handful of loads, so calling it at
// growth boundaries is free.
func (c *Instance) MemoryFootprint() int64 {
	return int64(cap(c.nodes))*4 + int64(cap(c.offsets))*8 +
		int64(cap(c.idx))*4 + int64(cap(c.idxStart))*8 +
		int64(cap(c.cnt))*8 + int64(cap(c.startNew))*8
}

// row returns the ids of the paths containing v (valid until next Commit).
func (c *Instance) row(v int32) []int32 {
	return c.idx[c.idxStart[v]:c.idxStart[v+1]]
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
// persisted CSR row lengths (each node's sample count, maintained by
// Commit) and the heap, gain array and covered/chosen marks live in the
// instance's epoch-stamped workspace.
func (c *Instance) Greedy(k int) (group []int32, covered int) {
	if k < 0 || k > c.n {
		panic("coverage: k out of range")
	}
	c.Commit()
	ws := &c.ws
	ws.reset(c.n, c.Len())
	epoch := ws.epoch
	gain := ws.gain
	h := ws.heap[:0]
	for v := 0; v < c.n; v++ {
		g := int32(c.idxStart[v+1] - c.idxStart[v])
		gain[v] = g
		if g > 0 {
			h = append(h, nodeGain{int32(v), g})
		}
	}
	heap.Init(&h)

	group = make([]int32, 0, k)
	for len(group) < k && len(h) > 0 {
		top := h[0]
		if top.gain != gain[top.node] {
			// Stale priority: gains only decrease, so refresh and re-sift.
			h[0].gain = gain[top.node]
			heap.Fix(&h, 0)
			continue
		}
		// Pop the root in place (heap.Pop would box the element).
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 0 {
			heap.Fix(&h, 0)
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
