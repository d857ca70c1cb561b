package bfs

import (
	"math"

	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// weightTol is the relative tolerance used to detect equal-length weighted
// shortest paths: two lengths a <= b tie when b-a <= weightTol·max(1, b).
// Exact for small-integer weights; documented behaviour for float weights.
const weightTol = 1e-9

// SameWeightedDist reports whether two weighted path lengths tie under the
// package tolerance; exported for the weighted exact evaluator.
func SameWeightedDist(a, b float64) bool { return sameDist(a, b) }

// sameDist reports whether a and b tie: |a−b| <= weightTol·max(1, |a|, |b|),
// where +Inf ties only +Inf. It takes the builtin max, not math.Max, which
// the compiler does not inline, so the settle loops pay no call per edge;
// for every input, NaN and −Inf included, the result is that of the
// math.Max formulation.
func sameDist(a, b float64) bool {
	if a > math.MaxFloat64 || b > math.MaxFloat64 {
		return a == b
	}
	return math.Abs(a-b) <= weightTol*max(1, math.Abs(a), math.Abs(b))
}

// distEntry is one heap entry: a node and the tentative distance it was
// pushed with.
type distEntry struct {
	node int32
	dist float64
}

// minHeap is a binary min-heap of distEntry by dist, reused across
// searches. push and pop replicate container/heap's up/down sift exactly
// (same traversal, same strict-less comparison), so DijkstraSSSP's
// settling order — and with it the floating-point accumulation order of σ
// — is the one container/heap gave, without its interface boxing.
type minHeap []distEntry

func (hp *minHeap) push(e distEntry) {
	h := append(*hp, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*hp = h
}

func (hp *minHeap) pop() distEntry {
	h := *hp
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	x := h[n]
	*hp = h[:n]
	return x
}

// DijkstraSSSP computes, from source s over positive edge weights, the
// shortest-path distance dist[v] (+Inf when unreachable), the number of
// shortest paths sigma[v], and the nodes in settling order. It is the
// weighted analog of SSSP and the reference the Dijkstra sampler is
// tested against; it panics on unweighted graphs.
func DijkstraSSSP(g *graph.Graph, s int32) (dist []float64, sigma []float64, order []int32) {
	n := g.N()
	dist = make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	sigma = make([]float64, n)
	settled := make([]bool, n)
	dist[s] = 0
	sigma[s] = 1
	h := minHeap{{s, 0}}
	for len(h) > 0 {
		top := h.pop()
		v := top.node
		if settled[v] || !sameDist(top.dist, dist[v]) {
			continue // stale entry
		}
		settled[v] = true
		order = append(order, v)
		adj := g.OutNeighbors(v)
		wts := g.OutWeights(v)
		for i, w := range adj {
			cand := dist[v] + wts[i]
			switch {
			case sameDist(cand, dist[w]):
				if !settled[w] {
					sigma[w] += sigma[v]
				}
			case cand < dist[w]:
				dist[w] = cand
				sigma[w] = sigma[v]
				h.push(distEntry{w, cand})
			}
		}
	}
	return dist, sigma, order
}

// wnode is one node's state on one side of the bidirectional Dijkstra,
// packed so a relaxation touches one record: the tentative distance from
// that side's root (+Inf until labeled), the shortest paths counted so
// far, and whether the node is settled.
type wnode struct {
	dist    float64
	sigma   float64
	settled bool
}

// dside is one direction of the bidirectional Dijkstra: forward from s
// over out-edges, or backward from t over in-edges.
type dside struct {
	node    []wnode
	labeled []int32 // every labeled node, for reset
	settled []int32 // settled nodes in settling order
	h       minHeap
}

func newDside(n int) dside {
	st := make([]wnode, n)
	for i := range st {
		st[i].dist = math.Inf(1)
	}
	return dside{node: st}
}

// start resets the side and labels its root.
func (sd *dside) start(root int32) {
	for _, v := range sd.labeled {
		sd.node[v] = wnode{dist: math.Inf(1)}
	}
	sd.labeled = append(sd.labeled[:0], root)
	sd.settled = sd.settled[:0]
	sd.node[root] = wnode{dist: 0, sigma: 1}
	sd.h = append(sd.h[:0], distEntry{root, 0})
}

// top pops stale entries — settled nodes, or distances superseded by a
// later improvement — and returns the distance of the side's closest
// unsettled labeled node, or +Inf when there is none. Improvements are
// strict beyond the tie tolerance, so an entry is stale exactly when its
// distance differs from the node's, as in DijkstraSSSP.
func (sd *dside) top() float64 {
	for len(sd.h) > 0 {
		e := sd.h[0]
		if st := &sd.node[e.node]; !st.settled && st.dist == e.dist {
			return e.dist
		}
		sd.h.pop()
	}
	return math.Inf(1)
}

// Dijkstra samples shortest paths on weighted graphs with a balanced
// bidirectional Dijkstra — the weighted counterpart of Bidirectional. It
// counts σ_st over a cut of crossing edges and draws one shortest path
// uniformly, and implements the same PairSampler contract as the BFS
// samplers, with Sample.Dist carrying the hop count of the sampled path
// (the weighted length is WeightedDist). It records no observation bounds
// (ObsF = ObsB = 0), so weighted sample sets are redrawn, not repaired,
// after an edge delta.
//
// The search. A forward search settles nodes from s over out-edges and a
// backward search from t over in-edges, each from its own heap; each side
// on its own performs exactly DijkstraSSSP's operations from its root, so
// its distances and σ on settled nodes are DijkstraSSSP's bit for bit.
// Each step settles on the side with the smaller heap. μ is the shortest
// s–t length seen: whenever a relaxation labels or improves a node the
// other side has labeled, μ = min(μ, d_f + d_b). Before each settle the
// search stops once topF + topB >= μ, an empty heap counting as +Inf.
//
// Why μ = d(s,t) at the stop. Take a shortest path P, u its last
// forward-settled node (the first settle is always s's) and v the next.
// v is unsettled, so d_s(v) >= topF, and d_t(v) = d − d_s(v) <= d − topF.
// If d < μ then d_t(v) < topB, so every node after v on P is
// backward-settled and v carries its final backward label; its final
// forward label came from a settled node. Whichever of the two labels was
// set last updated μ to d_s(v) + d_t(v) = d, a contradiction. When t is
// labeled forward at distance d, μ <= d + 0 and the search stops before
// settling it, so t is never settled forward (nor s backward), and
// μ = +Inf at the stop means t is unreachable.
//
// The cut. The crossing edges are the edges (u, v) with u settled forward,
// v not, v labeled backward and d_f(u) + w + d_b(v) tying d. Distances
// strictly increase along a shortest path and every settled node is at
// most topF from s, so the forward-settled nodes of a shortest path form a
// proper prefix of it (t is never settled forward) and each path crosses
// the cut on exactly one edge. σ_f(u) is final because u is settled, and
// σ_b(v) because d_t(v) <= d − topF <= topB: every node σ_b(v) sums over
// is closer to t, so backward-settled. Hence σ_st = Σ σ_f(u)·σ_b(v) over
// the cut.
//
// A Dijkstra holds reusable workspace; it is not safe for concurrent use.
type Dijkstra struct {
	g    *graph.Graph
	f, b dside
	mu   float64 // best s–t length seen by the current search

	cross []crossEdge // crossing-edge scratch
	walk  []int32     // path-walk scratch: u back to s, then v on to t

	// WeightedDist reports the weighted length of the last sampled path.
	WeightedDist float64
	// EdgesScanned counts the adjacency entries the settles of both
	// searches examined since creation. The crossing-edge pass and the
	// path walks are not counted.
	EdgesScanned int64
}

// NewDijkstra returns a weighted-path sampler over g.
// It panics if g is unweighted.
func NewDijkstra(g *graph.Graph) *Dijkstra {
	if !g.Weighted() {
		panic("bfs: NewDijkstra on an unweighted graph")
	}
	return &Dijkstra{g: g, f: newDside(g.N()), b: newDside(g.N())}
}

// settle settles the closest unsettled node of one side (its heap top,
// made valid by dside.top) and relaxes its edges: out-edges forward,
// in-edges backward. A relaxation that labels or improves a node the
// other side has labeled lowers μ.
func (dj *Dijkstra) settle(forward bool) {
	this, other := &dj.f, &dj.b
	if !forward {
		this, other = &dj.b, &dj.f
	}
	u := this.h.pop().node
	su := &this.node[u]
	su.settled = true
	this.settled = append(this.settled, u)
	du, sig := su.dist, su.sigma
	var adj []int32
	var wts []float64
	if forward {
		adj, wts = dj.g.OutNeighbors(u), dj.g.OutWeights(u)
	} else {
		adj, wts = dj.g.InNeighbors(u), dj.g.InWeights(u)
	}
	dj.EdgesScanned += int64(len(adj))
	for i, v := range adj {
		cand := du + wts[i]
		st := &this.node[v]
		switch {
		case sameDist(cand, st.dist):
			if !st.settled {
				st.sigma += sig
			}
		case cand < st.dist:
			if math.IsInf(st.dist, 1) {
				this.labeled = append(this.labeled, v)
			}
			st.dist = cand
			st.sigma = sig
			this.h.push(distEntry{v, cand})
			if m := cand + other.node[v].dist; m < dj.mu {
				dj.mu = m
			}
		}
	}
}

// search runs the bidirectional Dijkstra between s and t (s != t) and
// returns d(s, t), or false when t is unreachable.
func (dj *Dijkstra) search(s, t int32) (float64, bool) {
	dj.f.start(s)
	dj.b.start(t)
	dj.mu = math.Inf(1)
	for dj.f.top()+dj.b.top() < dj.mu {
		dj.settle(len(dj.f.h) <= len(dj.b.h))
	}
	return dj.mu, !math.IsInf(dj.mu, 1)
}

// crossing fills the crossing-edge scratch for distance d, each edge with
// weight σ_f(u)·σ_b(v), and returns their total σ_st.
func (dj *Dijkstra) crossing(d float64) float64 {
	dj.cross = dj.cross[:0]
	var total float64
	for _, u := range dj.f.settled {
		fu := &dj.f.node[u]
		adj, wts := dj.g.OutNeighbors(u), dj.g.OutWeights(u)
		for i, v := range adj {
			bv := &dj.b.node[v]
			if dj.f.node[v].settled || !sameDist(fu.dist+wts[i]+bv.dist, d) {
				continue
			}
			w := fu.sigma * bv.sigma
			dj.cross = append(dj.cross, crossEdge{u: u, v: v, w: w})
			total += w
		}
	}
	return total
}

// SigmaDist returns σ_st and the weighted distance d(s, t); ok is false
// when t is unreachable. s must differ from t.
func (dj *Dijkstra) SigmaDist(s, t int32) (sigma float64, dist float64, ok bool) {
	if s == t {
		panic("bfs: SigmaDist with s == t")
	}
	d, ok := dj.search(s, t)
	if !ok {
		return 0, math.Inf(1), false
	}
	return dj.crossing(d), d, true
}

// Sample draws one weighted shortest s–t path uniformly at random. The path
// is freshly allocated; hot loops should use AppendSample with a reused
// buffer.
func (dj *Dijkstra) Sample(s, t int32, r *xrand.Rand) Sample {
	smp, _ := dj.AppendSample(nil, s, t, r)
	return smp
}

// AppendSample is Sample with the path appended to dst instead of freshly
// allocated; see Bidirectional.AppendSample for the contract.
func (dj *Dijkstra) AppendSample(dst []int32, s, t int32, r *xrand.Rand) (Sample, []int32) {
	if s == t {
		panic("bfs: Sample with s == t")
	}
	d, ok := dj.search(s, t)
	if !ok {
		return Sample{Dist: -1}, dst
	}
	dj.WeightedDist = d
	total := dj.crossing(d)
	// Select a crossing edge with probability σ_f(u)·σ_b(v)/σ_st.
	x := r.Float64() * total
	idx := len(dj.cross) - 1
	acc := 0.0
	for i := range dj.cross {
		acc += dj.cross[i].w
		if x < acc {
			idx = i
			break
		}
	}
	u, v := dj.cross[idx].u, dj.cross[idx].v
	// Tied paths can differ in hop count, so both walks land in a reused
	// scratch first: u back to s choosing predecessors ∝ σ_f, then v on to
	// t choosing successors ∝ σ_b.
	walk := dj.walk[:0]
	for cur := u; ; {
		walk = append(walk, cur)
		if cur == s {
			break
		}
		cur = pickNext(&dj.f, dj.g.InNeighbors(cur), dj.g.InWeights(cur), cur, r)
	}
	split := len(walk)
	for cur := v; ; {
		walk = append(walk, cur)
		if cur == t {
			break
		}
		cur = pickNext(&dj.b, dj.g.OutNeighbors(cur), dj.g.OutWeights(cur), cur, r)
	}
	dj.walk = walk
	dst, path := growPath(dst, len(walk))
	for i, w := range walk[:split] {
		path[split-1-i] = w
	}
	copy(path[split:], walk[split:])
	return Sample{Path: path, Sigma: total, Dist: int32(len(path) - 1), Reachable: true}, dst
}

// pickNext draws the next node of a walk from cur toward side sd's root:
// a neighbour w one shortest-path edge closer to the root (adj and wts
// are cur's edges toward it), with probability σ(w)/σ(cur).
func pickNext(sd *dside, adj []int32, wts []float64, cur int32, r *xrand.Rand) int32 {
	dc := sd.node[cur].dist
	x := r.Float64() * sd.node[cur].sigma
	acc := 0.0
	var pick int32 = -1
	for i, w := range adj {
		if st := &sd.node[w]; st.dist < dc && sameDist(st.dist+wts[i], dc) {
			pick = w
			acc += st.sigma
			if x < acc {
				break
			}
		}
	}
	return pick
}
