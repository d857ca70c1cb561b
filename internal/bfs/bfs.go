// Package bfs provides the shortest-path machinery behind everything else:
// plain single-source BFS with path counting (the forward phase of Brandes'
// algorithm), a balanced bidirectional BFS that computes the number of
// shortest paths σ_st between two nodes and samples one of them uniformly
// at random (the sampler of Borassi–Natale/KADABRA used by the paper), its
// weighted counterpart (a balanced bidirectional Dijkstra, checked against
// the single-source DijkstraSSSP), and an exhaustive shortest-path
// enumerator for testing on small graphs.
package bfs

import "gbc/internal/graph"

// Distances returns BFS distances from s over out-edges; -1 if unreachable.
func Distances(g *graph.Graph, s int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// SSSP computes, from source s, the BFS distance dist[v] (-1 when
// unreachable), the number of shortest paths sigma[v] (float64; only ratios
// are ever used), and the list of reached nodes in BFS order (starting with
// s). This is the forward phase of Brandes' algorithm.
func SSSP(g *graph.Graph, s int32) (dist []int32, sigma []float64, order []int32) {
	n := g.N()
	dist = make([]int32, n)
	sigma = make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	sigma[s] = 1
	order = make([]int32, 1, 64)
	order[0] = s
	for head := 0; head < len(order); head++ {
		u := order[head]
		du := dist[u]
		su := sigma[u]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == -1 {
				dist[v] = du + 1
				order = append(order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += su
			}
		}
	}
	return dist, sigma, order
}

// AllShortestPaths enumerates every shortest path from s to t. Exponential;
// only for testing tiny graphs. Returns nil if t is unreachable.
func AllShortestPaths(g *graph.Graph, s, t int32) [][]int32 {
	dist, sigma, _ := SSSP(g, s)
	if dist[t] == -1 {
		return nil
	}
	_ = sigma
	var paths [][]int32
	var walk func(cur int32, acc []int32)
	// Walk backward from t along predecessor edges.
	walk = func(cur int32, acc []int32) {
		acc = append(acc, cur)
		if cur == s {
			p := make([]int32, len(acc))
			for i, v := range acc {
				p[len(acc)-1-i] = v
			}
			paths = append(paths, p)
			return
		}
		for _, w := range g.InNeighbors(cur) {
			if dist[w] == dist[cur]-1 {
				walk(w, acc)
			}
		}
	}
	walk(t, nil)
	return paths
}

// Diameter returns the largest finite eccentricity over all sources.
// O(n·m); for tests and dataset statistics on modest graphs.
func Diameter(g *graph.Graph) int32 {
	var diam int32
	for s := int32(0); int(s) < g.N(); s++ {
		dist := Distances(g, s)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
