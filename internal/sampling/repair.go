// Incremental sample repair: migrate a grown Set onto a patched graph by
// re-drawing only the samples an edge delta could have perturbed, splicing
// them into the coverage arena, and leaving every other sample untouched —
// bit-identical to discarding the set and regrowing it cold on the patched
// graph, at a fraction of the cost.
//
// Soundness. Sample i's content is a pure function of (seeds, i, graph):
// the RNG stream is reseeded per index and the pair draw depends only on
// the node count, which deltas cannot change (graph.Delta is edge-only).
// So a sample differs between the old and the patched graph only if the
// *execution* of its draw observes a changed adjacency or degree. The bfs
// samplers record, per draw, exclusive radii ObsF/ObsB such that every
// node whose adjacency was scanned or degree read lies within ObsF-1 hops
// of s (forward, out-edges) or ObsB-1 hops of t (backward, in-edges) — see
// bfs.Sample. A delta only changes the adjacency and degree of its
// endpoints ("touched" nodes), so if no touched node falls inside either
// ball, the draw's execution — every branch, every RNG consumption — is
// identical on both graphs and the sample needs no work. Reachability
// changes are covered too: any new s→t path crosses an inserted edge, and
// the first such edge's tail is reachable from s on the old graph (or,
// symmetrically, its head reaches t), landing inside a recorded ball.
//
// The check runs two multi-source BFS traversals on the *old* graph from
// the touched set — distTo[v] = min hops v→touched (via in-edges, giving
// forward distances), distFrom[v] = min hops touched→v — then re-derives
// each sample's (s, t) pair from its RNG stream and flags index i iff
// distTo[s] < ObsF or distFrom[t] < ObsB. Flagged indices are re-drawn on
// the patched graph through the same per-index streams and spliced in.
package sampling

import (
	"errors"
	"fmt"

	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// ErrRepairUnsupported reports a Set that cannot be repaired in place:
// either it was built around a caller-supplied sampler (NewSet /
// NewFactorySet — the set cannot rebuild it over the patched graph), or at
// least one sample was drawn by a sampler that does not record observation
// bounds (weighted Dijkstra, custom PairSamplers). Callers fall back to
// Reset + regrow on the new graph.
var ErrRepairUnsupported = errors.New("sampling: set does not support incremental repair")

// RepairStats reports what a Repair did.
type RepairStats struct {
	// Samples is how many stored samples were checked (Stored, not Len).
	Samples int
	// Regenerated is how many samples were flagged and re-drawn.
	Regenerated int
	// Touched is the number of distinct delta endpoints.
	Touched int
}

// Repair migrates the set from its current graph onto ng, which must be
// the result of applying delta to the current graph over the same node
// universe. Every stored sample is migrated, including those a Reset kept
// beyond Len. Only samples whose recorded observation region contains a
// delta endpoint are re-drawn (on ng, through their per-index RNG
// streams); everything else is kept as-is. After a successful Repair the
// set is bound to ng and is bit-identical — paths, null counts, index,
// future growth — to a fresh set with the same seeds grown to the same
// length on ng. On error the set is unchanged and still bound to the old
// graph.
//
// Like growth, Repair is single-owner: it must not race with GrowTo* or
// queries on the same Set. The lanes and all arena capacity are retained.
func (s *Set) Repair(ng *graph.Graph, delta *graph.Delta) (RepairStats, error) {
	var st RepairStats
	if s.samplerFor == nil {
		return st, ErrRepairUnsupported
	}
	if ng == nil || ng.N() != s.g.N() || ng.Directed() != s.g.Directed() ||
		ng.Weighted() != s.g.Weighted() {
		return st, fmt.Errorf("sampling: repair target graph shape mismatch")
	}
	L := s.cov.Stored()
	st.Samples = L
	if len(s.obs) != 2*L {
		// Growth predates bound recording or bypassed it; nothing to trust.
		return st, ErrRepairUnsupported
	}
	for i := 0; i < L; i++ {
		if s.obs[2*i] == 0 {
			return st, ErrRepairUnsupported
		}
	}

	touched := delta.Touched()
	st.Touched = len(touched)
	flagged := s.flagSamples(touched)
	st.Regenerated = len(flagged)

	if len(flagged) > 0 {
		// Re-draw the flagged indices on the patched graph into a private
		// patch arena. Each index reseeds its own stream, so the draw is
		// exactly what a cold growth on ng would produce at that index.
		patch := &drawState{}
		patch.init(ng.N(), s.seed0, s.seed1, s.samplerFor(ng))
		for _, i := range flagged {
			patch.draw(i)
		}
		oldNulls, newNulls := s.cov.Splice(flagged, &patch.arena)
		s.Unreachable += newNulls - oldNulls
		for k, i := range flagged {
			s.obs[2*i] = patch.arena.Obs[2*k]
			s.obs[2*i+1] = patch.arena.Obs[2*k+1]
		}
	} else {
		s.cov.Commit()
	}
	s.rebind(ng)
	s.Metrics.RepairRun(L, len(flagged))
	s.updateArenaGauge()
	return st, nil
}

// flagSamples returns the ascending indices of every stored sample whose
// recorded observation region contains a touched node, by re-deriving each
// sample's endpoint pair from its RNG stream and testing it against two
// multi-source BFS distance maps on the old graph.
func (s *Set) flagSamples(touched []int32) []int {
	L := s.cov.Stored()
	if len(touched) == 0 || L == 0 {
		return nil
	}
	distTo := multiSourceDist(s.g, touched, true)
	distFrom := multiSourceDist(s.g, touched, false)
	var flagged []int
	var rng xrand.Rand
	n := s.g.N()
	for i := 0; i < L; i++ {
		rng.Reseed(s.seed0, s.seed1+uint64(i))
		a, b := rng.IntnPair(n)
		obsF, obsB := s.obs[2*i], s.obs[2*i+1]
		if within(distTo[a], obsF) || within(distFrom[b], obsB) {
			flagged = append(flagged, i)
		}
	}
	return flagged
}

// within reports whether a BFS distance (-1 = unreachable) falls strictly
// inside an exclusive observation radius.
func within(d, radius int32) bool { return d >= 0 && d < radius }

// multiSourceDist runs one BFS from all sources at once. With toSources
// true it traverses in-edges, so dist[v] = min hops from v to a source
// along forward edges; otherwise out-edges, dist[v] = min hops from a
// source to v. Unreached nodes stay -1.
func multiSourceDist(g *graph.Graph, sources []int32, toSources bool) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(sources))
	for _, v := range sources {
		if dist[v] == -1 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		var adj []int32
		if toSources {
			adj = g.InNeighbors(u)
		} else {
			adj = g.OutNeighbors(u)
		}
		for _, w := range adj {
			if dist[w] == -1 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// rebind points the set and its lanes at the patched graph. No lane
// goroutine is running between growths (Repair is single-owner and every
// chunk joins its goroutines before GrowToCtx returns), so re-initializing
// the lanes here is race-free.
func (s *Set) rebind(ng *graph.Graph) {
	s.g = ng
	for _, l := range s.lanes {
		l.init(ng.N(), s.seed0, s.seed1, s.samplerFor(ng))
	}
}
