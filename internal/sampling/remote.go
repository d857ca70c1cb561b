// Remote growth: the sampling-side half of sharded serving. A Set with a
// RemoteGrower attached delegates the drawing of each chunk to the grower
// (in production, a shard coordinator fanning the index range out to
// worker processes) and merges the returned arenas locally, keeping every
// other part of the growth discipline — chunk boundaries, metrics,
// observer events, the final coverage commit — identical to local growth.
//
// Determinism carries across the process boundary for free: sample i's
// content is a pure function of (seed0, seed1+i), and the grower returns
// the range as contiguous blocks in index order, so AddArenas reproduces
// the exact global index order a sequential local growth would commit.
// The Drawer type is the worker-process side: it draws arbitrary index
// ranges of the same streams over its own copy of the graph.
package sampling

import (
	"context"
	"fmt"

	"gbc/internal/coverage"
	"gbc/internal/graph"
)

// RemoteGrower draws whole sample-index ranges outside the Set's process.
// GrowRange must return the samples [start, start+count) of the per-index
// streams derived from (seed0, seed1), as one or more arenas that
// concatenate in slice order to exact index order. Implementations may
// split the range across machines however they like — content is
// index-pure, so the split is invisible in the committed result.
type RemoteGrower interface {
	GrowRange(ctx context.Context, seed0, seed1 uint64, start, count int) ([]*coverage.PathArena, error)
}

// growRemote draws indices [cur, end) through the attached RemoteGrower
// and merges the returned blocks in order, mirroring growLocal's
// commit discipline (AddArenas in block order, bound records appended
// alongside).
func (s *Set) growRemote(ctx context.Context, cur, end int) error {
	arenas, err := s.Remote.GrowRange(ctx, s.seed0, s.seed1, cur, end-cur)
	if err != nil {
		return err
	}
	total := 0
	for _, a := range arenas {
		total += a.Len()
	}
	if total != end-cur {
		return fmt.Errorf("sampling: remote grower returned %d samples for range [%d, %d)", total, cur, end)
	}
	s.Unreachable += s.cov.AddArenas(arenas)
	for _, a := range arenas {
		if len(a.Obs) == 2*a.Len() {
			s.obs = append(s.obs, a.Obs...)
			continue
		}
		// A bounds-blind remote block: keep the bound records aligned at
		// two entries per sample with zeros, which marks the samples as
		// unrepairable exactly like a local bounds-blind sampler would.
		for range a.Len() {
			s.obs = append(s.obs, 0, 0)
		}
	}
	return nil
}

// drawCheckEvery is how many samples a Drawer draws between context
// checks — frequent enough that a worker notices a dropped coordinator
// promptly, rare enough to stay invisible in the per-sample cost.
const drawCheckEvery = 1024

// Drawer draws samples of the per-index RNG stream discipline into
// caller-owned arenas — the shard-worker side of sharded serving. It wraps
// the same draw state the Set's own lanes use, so a range drawn here is
// byte-identical to the same range drawn by local growth. A Drawer is
// single-owner: callers must serialize DrawRange calls.
type Drawer struct {
	st drawState
}

// NewDrawer builds a Drawer over g with the named sampler kind —
// "bidirectional", "forward" or "dijkstra", matching the wire protocol's
// sampler names — and the sample set's per-index stream seeds.
func NewDrawer(g *graph.Graph, kind string, seed0, seed1 uint64) (*Drawer, error) {
	factory := samplers[kind]
	if factory == nil {
		return nil, fmt.Errorf("sampling: unknown sampler kind %q (want bidirectional, forward or dijkstra)", kind)
	}
	if kind == "dijkstra" && !g.Weighted() {
		return nil, fmt.Errorf("sampling: dijkstra sampler needs a weighted graph")
	}
	d := &Drawer{}
	d.st.init(g.N(), seed0, seed1, factory(g))
	return d, nil
}

// DrawRange appends samples [start, start+count) to arena, checking ctx
// periodically so an abandoned epoch request stops drawing promptly. The
// arena is not reset: callers append several ranges or reset between
// epochs as they see fit.
func (d *Drawer) DrawRange(ctx context.Context, arena *coverage.PathArena, start, count int) error {
	for i := 0; i < count; i++ {
		if i%drawCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		d.st.drawInto(arena, start+i)
	}
	return nil
}
