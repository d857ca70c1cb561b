package bfs

import (
	"unsafe"

	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// Sample is one sampled shortest path between a node pair.
type Sample struct {
	// Path holds the nodes from s to t inclusive; nil when unreachable.
	Path []int32
	// Sigma is the exact number of shortest s–t paths (float64 count).
	Sigma float64
	// Dist is d(s, t); -1 when unreachable.
	Dist int32
	// Reachable reports whether any s–t path exists.
	Reachable bool

	// ObsF and ObsB bound the region of the graph this draw's execution
	// observed: every node whose adjacency was scanned or whose degree was
	// read lies within hop distance ObsF-1 of s (forward) or ObsB-1 of t
	// (backward, in-edges). An edge delta whose endpoints all fall outside
	// both balls leaves the draw's execution — and therefore its RNG
	// consumption and resulting path — bit-identical, which is the
	// invariant sampling.Set.Repair relies on to skip unaffected samples.
	// A zero ObsF means the sampler does not track observation bounds
	// (weighted Dijkstra, custom samplers) and the sample can only be
	// revalidated by redrawing.
	ObsF, ObsB int32
}

// nodeState packs a node's BFS distance and path count into one 16-byte
// record so the expand inner loop touches a single cache line per neighbor
// instead of two parallel arrays (dist to classify, sigma to accumulate).
type nodeState struct {
	dist  int32
	sigma float64
}

// side holds the per-direction state of the bidirectional search.
type side struct {
	state    []nodeState
	order    []int32 // labeled nodes in labeling order
	levelOff []int   // levelOff[l] = index in order where level l starts
	// frontierVol caches the expansion cost of the current frontier (sum of
	// its nodes' degrees on the traversal side), accumulated while the
	// frontier is labeled so the balance decision costs no extra pass.
	frontierVol int64
}

func newSide(n int) side {
	st := make([]nodeState, n)
	for i := range st {
		st[i].dist = -1
	}
	return side{state: st, levelOff: make([]int, 0, 32)}
}

func (s *side) reset() {
	for _, v := range s.order {
		s.state[v].dist = -1
	}
	s.order = s.order[:0]
	s.levelOff = s.levelOff[:0]
}

func (s *side) label(v, d int32, sig float64) {
	st := &s.state[v]
	st.dist = d
	st.sigma = sig
	s.order = append(s.order, v)
}

// depth is the distance of the current frontier level (levels counted up
// to and including depth; see search for the one exception).
func (s *side) depth() int32 { return int32(len(s.levelOff) - 2) }

func (s *side) frontier() []int32 {
	l := len(s.levelOff)
	return s.order[s.levelOff[l-2]:s.levelOff[l-1]]
}

func (s *side) level(l int32) []int32 {
	return s.order[s.levelOff[l]:s.levelOff[l+1]]
}

// crossEdge is one edge of the σ-counting cut: forward endpoint, backward
// endpoint, and its path weight σ_s(u)·σ_t(v). One record keeps the
// weighted selection scan on a single stream.
type crossEdge struct {
	u, v int32
	w    float64
}

// Bidirectional samples shortest paths between node pairs using a balanced
// bidirectional BFS: the search alternates between the two endpoints,
// always expanding the cheaper frontier, stops on the level where the two
// searches first meet, computes the exact σ_st by summing σ_s(u)·σ_t(v)
// over the crossing edges of a cut, and then draws one shortest path
// uniformly.
//
// A Bidirectional holds reusable workspace; it is not safe for concurrent
// use. Create one per goroutine.
type Bidirectional struct {
	g    *graph.Graph
	f, b side

	// Crossing-edge scratch. A search whose last expansion is forward
	// fills it while scanning the meeting level (meetForward), sets
	// crossed and leaves σ_st in crossSigma; otherwise collectCrossing
	// fills it after the search.
	cross      []crossEdge
	crossSigma float64
	crossed    bool

	// EdgesScanned counts the adjacency entries the level expansions
	// examined since creation, each entry once; the meeting level's
	// crossing-edge pass is part of its expansion. collectCrossing's scan
	// and the two path walks are not counted. Used by the sampler-cost
	// ablation benchmarks.
	EdgesScanned int64
}

// NewBidirectional returns a sampler over g with its own workspace.
// It panics on weighted graphs (hop counts would silently ignore the
// weights); use NewDijkstra there.
func NewBidirectional(g *graph.Graph) *Bidirectional {
	if g.Weighted() {
		panic("bfs: NewBidirectional on a weighted graph; use NewDijkstra")
	}
	return &Bidirectional{g: g, f: newSide(g.N()), b: newSide(g.N())}
}

// MemoryFootprint returns the bytes the sampler's workspace retains: both
// sides' per-node state and label lists and the crossing-edge scratch, at
// capacity.
func (b *Bidirectional) MemoryFootprint() int64 {
	return b.f.footprint() + b.b.footprint() + int64(cap(b.cross))*int64(unsafe.Sizeof(crossEdge{}))
}

func (s *side) footprint() int64 {
	return int64(cap(s.state))*int64(unsafe.Sizeof(nodeState{})) +
		int64(cap(s.order))*4 + int64(cap(s.levelOff))*8
}

// expand processes one full BFS level of the chosen side, labeling the next
// level and accumulating σ, and returns d(s, t) if this level meets the
// other side, else -1. The next frontier's expansion volume is summed as
// its nodes are labeled, so the balance decision in search reads a cached
// value.
//
// The meeting level. search stops as soon as some node is labeled by both
// sides, so when expand is entered no node is, and the first node this
// level labels that the other side holds makes this level the last. That
// node v lies on the other side's frontier. Had the other side labeled v
// at od < other.depth(), it would already have expanded level od, scanned
// the edge just scanned here from v's end, and labeled its other end u —
// on this side's frontier — at depth od+1 or less: a node labeled by both
// sides before this call. So od == other.depth(), every meeting on this
// level gives d(s, t) = nd + od, and from the first meeting edge on the
// expansion only finishes what later steps read (meetForward,
// meetBackward).
func (bd *Bidirectional) expand(forward bool) int32 {
	this, other := &bd.f, &bd.b
	if !forward {
		this, other = &bd.b, &bd.f
	}
	fr := this.frontier()
	nd := this.depth() + 1
	var nextVol int64
	for i, u := range fr {
		su := this.state[u].sigma
		var adj []int32
		if forward {
			adj = bd.g.OutNeighbors(u)
		} else {
			adj = bd.g.InNeighbors(u)
		}
		bd.EdgesScanned += int64(len(adj))
		for j, v := range adj {
			st := &this.state[v]
			switch st.dist {
			case -1:
				if od := other.state[v].dist; od >= 0 {
					if od != other.depth() {
						// Cannot happen: see the proof above.
						panic("bfs: internal error: first meeting below the other side's frontier")
					}
					if forward {
						bd.meetForward(fr[i:], adj[j:], od)
					} else {
						bd.meetBackward(fr[i:], adj[j:], nd, od)
					}
					this.levelOff = append(this.levelOff, len(this.order))
					return nd + od
				}
				st.dist = nd
				st.sigma = su
				this.order = append(this.order, v)
				if forward {
					nextVol += int64(bd.g.OutDegree(v))
				} else {
					nextVol += int64(bd.g.InDegree(v))
				}
			case nd:
				st.sigma += su
			}
		}
	}
	this.frontierVol = nextVol
	this.levelOff = append(this.levelOff, len(this.order))
	return -1
}

// meetForward finishes a forward expansion from its first meeting edge:
// adj is the rest of fr[0]'s out-neighbours, starting at the meeting node.
// No later step reads the forward labels of the meeting level, so it
// labels nothing. It scans the rest of the frontier's out-edges only for
// nodes at backward depth od, appending each crossing edge with weight
// σ_s(u)·σ_t(v) and summing σ_st. The cut of a forward-last search is the
// level being expanded (cut: c = d−od−1 = nd−1), and no edge scanned before
// the meeting reaches backward depth od, so this is collectCrossing's
// list, in its order and with the same float additions.
func (bd *Bidirectional) meetForward(fr, adj []int32, od int32) {
	bd.cross = bd.cross[:0]
	var total float64
	for i, u := range fr {
		if i > 0 {
			adj = bd.g.OutNeighbors(u)
			bd.EdgesScanned += int64(len(adj))
		}
		su := bd.f.state[u].sigma
		for _, v := range adj {
			if st := &bd.b.state[v]; st.dist == od {
				w := su * st.sigma
				bd.cross = append(bd.cross, crossEdge{u: u, v: v, w: w})
				total += w
			}
		}
	}
	bd.crossSigma, bd.crossed = total, true
}

// meetBackward finishes a backward expansion from its first meeting edge:
// adj is the rest of fr[0]'s in-neighbours, starting at the meeting node.
// The cut of a backward-last search is the forward level before the
// frontier at depth fd (s itself when fd is 0), so the meeting level is
// read at most at its nodes on the forward frontier — by collectCrossing
// and the forward path walk — and only those accumulate σ_t; every other
// node is skipped.
func (bd *Bidirectional) meetBackward(fr, adj []int32, nd, fd int32) {
	for i, u := range fr {
		if i > 0 {
			adj = bd.g.InNeighbors(u)
			bd.EdgesScanned += int64(len(adj))
		}
		su := bd.b.state[u].sigma
		for _, v := range adj {
			if bd.f.state[v].dist != fd {
				continue
			}
			switch st := &bd.b.state[v]; st.dist {
			case -1:
				st.dist = nd
				st.sigma = su
				bd.b.order = append(bd.b.order, v)
			case nd:
				st.sigma += su
			}
		}
	}
}

// search runs the bidirectional BFS between s and t (s != t) until the two
// sides meet, returning d(s, t), or until one side is exhausted without a
// meeting, which proves t unreachable. σ is final on every level up to
// each side's depth except the level the last expansion labeled: after a
// forward-last search that level holds only the nodes labeled before the
// first meeting, with partial σ (meetForward collected the crossing edges
// instead), and after a backward-last search its σ_t is final only on
// nodes of the forward frontier (meetBackward).
func (bd *Bidirectional) search(s, t int32) (d int32, ok bool) {
	bd.f.reset()
	bd.b.reset()
	bd.crossed = false
	bd.f.levelOff = append(bd.f.levelOff, 0)
	bd.f.label(s, 0, 1)
	bd.f.levelOff = append(bd.f.levelOff, 1)
	bd.f.frontierVol = int64(bd.g.OutDegree(s))
	bd.b.levelOff = append(bd.b.levelOff, 0)
	bd.b.label(t, 0, 1)
	bd.b.levelOff = append(bd.b.levelOff, 1)
	bd.b.frontierVol = int64(bd.g.InDegree(t))
	for {
		// An exhausted side with no meeting proves unreachability.
		if len(bd.f.frontier()) == 0 || len(bd.b.frontier()) == 0 {
			return -1, false
		}
		if bd.f.frontierVol <= bd.b.frontierVol {
			d = bd.expand(true)
		} else {
			d = bd.expand(false)
		}
		if d >= 0 {
			return d, true
		}
	}
}

// cut picks the forward level c used to enumerate crossing edges:
// every shortest s–t path has exactly one edge from forward level c to a
// node at backward distance D-c-1, with both σ values finalized.
func (bd *Bidirectional) cut(d int32) int32 {
	c := d - bd.b.depth() - 1
	if c < 0 {
		c = 0
	}
	if fs := bd.f.depth(); c > fs {
		// Cannot happen: the stop conditions guarantee the cut level is
		// fully counted on both sides (see search).
		panic("bfs: internal error: cut level beyond forward depth")
	}
	return c
}

// crossing returns the cut level for distance d and σ_st, with the cut's
// crossing edges in the scratch: collected during a forward-last search,
// or by collectCrossing now.
func (bd *Bidirectional) crossing(d int32) (c int32, sigma float64) {
	c = bd.cut(d)
	if bd.crossed {
		return c, bd.crossSigma
	}
	return c, bd.collectCrossing(d, c)
}

// collectCrossing fills the crossing-edge scratch for distance d and cut c,
// returning the total σ_st.
func (bd *Bidirectional) collectCrossing(d, c int32) float64 {
	bd.cross = bd.cross[:0]
	want := d - c - 1
	var total float64
	for _, u := range bd.f.level(c) {
		su := bd.f.state[u].sigma
		for _, v := range bd.g.OutNeighbors(u) {
			if st := &bd.b.state[v]; st.dist == want {
				w := su * st.sigma
				bd.cross = append(bd.cross, crossEdge{u: u, v: v, w: w})
				total += w
			}
		}
	}
	return total
}

// SigmaDist returns the exact number of shortest s–t paths and d(s, t).
// ok is false when t is unreachable from s. s must differ from t.
func (bd *Bidirectional) SigmaDist(s, t int32) (sigma float64, dist int32, ok bool) {
	if s == t {
		panic("bfs: SigmaDist with s == t")
	}
	d, ok := bd.search(s, t)
	if !ok {
		return 0, -1, false
	}
	_, sigma = bd.crossing(d)
	return sigma, d, true
}

// Sample draws one shortest s–t path uniformly at random among all σ_st
// shortest paths. s must differ from t. The path is freshly allocated; hot
// loops should use AppendSample with a reused buffer instead.
func (bd *Bidirectional) Sample(s, t int32, r *xrand.Rand) Sample {
	smp, _ := bd.AppendSample(nil, s, t, r)
	return smp
}

// AppendSample is Sample with the path appended to dst instead of freshly
// allocated: it returns the extended buffer, and Sample.Path aliases the
// appended window (valid until the caller truncates or regrows dst). An
// unreachable pair leaves dst untouched. The RNG consumption is identical
// to Sample's, so the two are interchangeable stream-for-stream.
func (bd *Bidirectional) AppendSample(dst []int32, s, t int32, r *xrand.Rand) (Sample, []int32) {
	if s == t {
		panic("bfs: Sample with s == t")
	}
	d, ok := bd.search(s, t)
	// Observed-region bounds: the search labels (and degree-reads) nodes up
	// to each side's final depth — the meeting level's finish reads a
	// subset of what a full expansion would — and every later phase —
	// crossing-edge collection, the two path walks — only scans
	// adjacencies of labeled nodes, so depth+1 is a sound exclusive radius
	// for both exits.
	obsF, obsB := bd.f.depth()+1, bd.b.depth()+1
	if !ok {
		return Sample{Dist: -1, ObsF: obsF, ObsB: obsB}, dst
	}
	c, total := bd.crossing(d)
	// Select a crossing edge with probability σ_s(u)·σ_t(v)/σ_st.
	x := r.Float64() * total
	idx := len(bd.cross) - 1
	acc := 0.0
	for i := range bd.cross {
		acc += bd.cross[i].w
		if x < acc {
			idx = i
			break
		}
	}
	u, v := bd.cross[idx].u, bd.cross[idx].v

	dst, path := growPath(dst, int(d)+1)
	// Walk backward from u to s, choosing predecessors ∝ σ_s.
	cur := u
	for lvl := c; lvl > 0; lvl-- {
		path[lvl] = cur
		x := r.Float64() * bd.f.state[cur].sigma
		acc := 0.0
		var pick int32 = -1
		for _, w := range bd.g.InNeighbors(cur) {
			if st := &bd.f.state[w]; st.dist == lvl-1 {
				pick = w
				acc += st.sigma
				if x < acc {
					break
				}
			}
		}
		cur = pick
	}
	path[0] = s
	// Walk forward from v to t, choosing successors ∝ σ_t.
	cur = v
	for lvl := d - c - 1; lvl > 0; lvl-- {
		path[d-lvl] = cur
		x := r.Float64() * bd.b.state[cur].sigma
		acc := 0.0
		var pick int32 = -1
		for _, w := range bd.g.OutNeighbors(cur) {
			if st := &bd.b.state[w]; st.dist == lvl-1 {
				pick = w
				acc += st.sigma
				if x < acc {
					break
				}
			}
		}
		cur = pick
	}
	path[d] = t
	return Sample{Path: path, Sigma: total, Dist: d, Reachable: true, ObsF: obsF, ObsB: obsB}, dst
}
