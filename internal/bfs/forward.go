package bfs

import (
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// Forward is the reference single-direction sampler: a plain BFS from s,
// truncated once t's level is complete, followed by a weighted backward
// walk. It produces exactly the same distribution as Bidirectional and is
// used to cross-check it in tests and in the sampler-cost ablation.
//
// A Forward holds reusable workspace; it is not safe for concurrent use.
type Forward struct {
	g     *graph.Graph
	dist  []int32
	sigma []float64
	order []int32

	// EdgesScanned counts adjacency entries examined since creation.
	EdgesScanned int64
}

// NewForward returns a forward-BFS sampler over g.
// It panics on weighted graphs; use NewDijkstra there.
func NewForward(g *graph.Graph) *Forward {
	if g.Weighted() {
		panic("bfs: NewForward on a weighted graph; use NewDijkstra")
	}
	d := make([]int32, g.N())
	for i := range d {
		d[i] = -1
	}
	return &Forward{g: g, dist: d, sigma: make([]float64, g.N())}
}

// MemoryFootprint returns the bytes the sampler's workspace retains, at
// capacity.
func (f *Forward) MemoryFootprint() int64 {
	return int64(cap(f.dist))*4 + int64(cap(f.sigma))*8 + int64(cap(f.order))*4
}

// run performs the truncated BFS; afterwards dist/sigma are valid for all
// nodes at distance <= dist[t] (or the whole reachable set if unreachable).
func (f *Forward) run(s, t int32) bool {
	for _, v := range f.order {
		f.dist[v] = -1
	}
	f.order = f.order[:0]
	f.dist[s] = 0
	f.sigma[s] = 1
	f.order = append(f.order, s)
	limit := int32(-1)
	for head := 0; head < len(f.order); head++ {
		u := f.order[head]
		du := f.dist[u]
		if limit >= 0 && du >= limit {
			break
		}
		su := f.sigma[u]
		adj := f.g.OutNeighbors(u)
		f.EdgesScanned += int64(len(adj))
		for _, v := range adj {
			if f.dist[v] == -1 {
				f.dist[v] = du + 1
				f.sigma[v] = 0
				f.order = append(f.order, v)
				if v == t {
					limit = du + 1
				}
			}
			if f.dist[v] == du+1 {
				f.sigma[v] += su
			}
		}
	}
	return f.dist[t] != -1
}

// SigmaDist returns σ_st and d(s, t); ok is false when unreachable.
func (f *Forward) SigmaDist(s, t int32) (sigma float64, dist int32, ok bool) {
	if s == t {
		panic("bfs: SigmaDist with s == t")
	}
	if !f.run(s, t) {
		return 0, -1, false
	}
	return f.sigma[t], f.dist[t], true
}

// Sample draws one shortest s–t path uniformly at random. The path is
// freshly allocated; hot loops should use AppendSample with a reused buffer.
func (f *Forward) Sample(s, t int32, r *xrand.Rand) Sample {
	smp, _ := f.AppendSample(nil, s, t, r)
	return smp
}

// AppendSample is Sample with the path appended to dst instead of freshly
// allocated; see Bidirectional.AppendSample for the contract.
func (f *Forward) AppendSample(dst []int32, s, t int32, r *xrand.Rand) (Sample, []int32) {
	if s == t {
		panic("bfs: Sample with s == t")
	}
	if !f.run(s, t) {
		// The truncated BFS exhausted s's reachable set: every scanned
		// adjacency belongs to a node within the deepest labeled level.
		return Sample{Dist: -1, ObsF: f.maxDepth() + 1, ObsB: 1}, dst
	}
	d := f.dist[t]
	dst, path := growPath(dst, int(d)+1)
	cur := t
	for lvl := d; lvl > 0; lvl-- {
		path[lvl] = cur
		x := r.Float64() * f.sigma[cur]
		acc := 0.0
		var pick int32 = -1
		for _, w := range f.g.InNeighbors(cur) {
			if f.dist[w] == lvl-1 {
				pick = w
				acc += f.sigma[w]
				if x < acc {
					break
				}
			}
		}
		cur = pick
	}
	path[0] = s
	// Every node observed by the BFS and the backward walk sits within
	// d(s,t) hops of s (the BFS truncates at t's level and the walk visits
	// only labeled nodes); ObsB = 1 additionally flags deltas touching t
	// itself, whose in-adjacency the first walk step scans.
	return Sample{Path: path, Sigma: f.sigma[t], Dist: d, Reachable: true,
		ObsF: d + 1, ObsB: 1}, dst
}

// maxDepth returns the distance of the deepest labeled node of the last
// run (0 when only s was labeled).
func (f *Forward) maxDepth() int32 {
	if len(f.order) == 0 {
		return 0
	}
	return f.dist[f.order[len(f.order)-1]]
}
