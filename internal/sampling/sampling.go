// Package sampling implements the path-sampling procedure shared by every
// randomized top-K GBC algorithm (paper §III-D): draw a uniform ordered
// node pair (s, t), s != t, find all shortest s–t paths with a balanced
// bidirectional BFS, and keep one of them uniformly at random. A pair with
// no s–t path yields a "null" sample covered by no group, which keeps the
// estimator B̂(C) = covered/L · n(n-1) unbiased under the n(n-1)
// normalization of Eq. (4).
//
// Set is one growable collection of such samples backed by a coverage
// instance — AdaAlg maintains two (S for optimizing, T for validating).
// Each sample index draws from its own deterministic RNG stream, so a Set
// grown with several workers is byte-identical to one grown sequentially
// from the same seed.
//
// Growth is cancellable: GrowToCtx commits samples in fixed-size chunks and
// checks its context between chunks (and, with several lanes, per sample
// inside a chunk), so even one huge growth request stops promptly when a
// deadline fires. A cancelled Set is left at a chunk boundary and is
// indistinguishable from one grown sequentially to the same length — the
// partial state stays fully deterministic and usable.
//
// Reset rewinds a Set without forgetting what it drew: the stored samples
// are re-admitted by the next growth instead of drawn again. Because
// sample i is a pure function of (seeds, i, graph), the rewound-and-regrown
// Set is bit-identical to a fresh one, and every run on one (graph, seeds,
// sampler) pays only for the samples no earlier run drew.
package sampling

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/coverage"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// GrowChunk is the number of samples committed atomically between
// cancellation checks in GrowToCtx. Small enough that a chunk takes
// milliseconds even on large graphs, large enough to amortize the check.
const GrowChunk = 4096

// PanicError reports a panic recovered in a sampling lane. The process is
// kept alive; the panic surfaces as an ordinary error from GrowToCtx (and
// from there out of the algorithm that drove the growth).
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sampling: worker panic: %v", e.Value)
}

// PairSampler draws one shortest path between two given nodes.
// Both *bfs.Bidirectional and *bfs.Forward implement it.
type PairSampler interface {
	Sample(s, t int32, r *xrand.Rand) bfs.Sample
}

// Set is a growable set of sampled shortest paths over a fixed graph.
// It is not safe for concurrent use by multiple goroutines (GrowTo itself
// may draw on several lanes; see Workers).
type Set struct {
	g            *graph.Graph
	seed0, seed1 uint64
	// factory builds one lane's sampler over a graph: the set's own, or
	// the patched graph a Repair moves the lanes to.
	factory func(*graph.Graph) PairSampler
	cov     *coverage.Instance

	// obs holds two observation-bound values per stored sample in index
	// order (bfs.Sample.ObsF, ObsB — see that type for the soundness
	// contract), maintained at every commit point alongside the coverage
	// arena. Repair reads them to decide which samples a delta could have
	// perturbed; a zero ObsF marks a sample drawn by a bounds-blind sampler
	// and disqualifies the whole set from repair.
	obs []int32

	// lanes holds the per-worker draw states (see lane.go); lanes[0]
	// draws on the calling goroutine. The draw in progress (see draw) has
	// the cursor its lanes claim runs of blocks from and where each block
	// landed in blocks; stop is its abort flag and wg joins its lane
	// goroutines.
	lanes  []*lane
	cursor atomic.Int64
	blocks []block
	stop   atomic.Bool
	wg     sync.WaitGroup

	// Workers sets the number of lanes a draw runs on. Values < 2 draw on
	// the calling goroutine alone. With a Budget it caps the lanes a draw
	// may claim instead (< 1 = no cap). The result is identical either way.
	Workers int

	// Budget, when non-nil, sizes each draw (a growth chunk or a repair's
	// re-draw) from a shared LaneBudget instead of Workers: the set's own
	// lane plus the tokens free when it starts. Granted lanes are dropped
	// when growth or Repair returns, so a kept set holds only lane 0.
	Budget *LaneBudget

	// Remote, when non-nil, delegates all sample drawing to an external
	// grower (the shard coordinator of sharded serving) and takes
	// precedence over Workers: growth proceeds in the same deterministic
	// chunks, but each chunk's range is drawn by the grower and merged in
	// index order, so the committed state is bit-identical to local growth
	// of the same length.
	Remote RemoteGrower

	// Unreachable counts null samples (pairs with no path).
	Unreachable int

	// Label names this set in growth events and metrics ("S", "T", ...).
	Label string
	// Metrics, when non-nil, receives atomic counter updates (committed
	// samples, arena footprint, busy lanes). Nil — the default — costs
	// only nil checks on the growth path, preserving the warm-growth
	// allocation budgets.
	Metrics *obs.Metrics
	// Observer, when non-nil, is invoked on the goroutine calling GrowTo*
	// after every committed chunk. Callbacks fire at deterministic chunk
	// boundaries regardless of Workers, so observed growth is bit-identical
	// to unobserved growth. A panicking Observer aborts the growth with an
	// *obs.ObserverPanicError; the committed prefix is kept.
	Observer obs.GrowthObserver

	// lastFootprint is the coverage footprint last reported to Metrics, so
	// the arena gauge aggregates deltas across several sets.
	lastFootprint int64
}

// NewFactorySet returns an empty sample set, seeded from r, whose lanes
// each draw with a sampler factory builds over the set's graph. Repair
// builds them anew over the patched graph.
func NewFactorySet(g *graph.Graph, factory func(*graph.Graph) PairSampler, r *xrand.Rand) *Set {
	if g.N() < 2 {
		// Internal invariant: core.Options.validate and the gbc package
		// reject graphs with fewer than two nodes before building a Set.
		panic("sampling: graph needs at least two nodes")
	}
	s := &Set{g: g, seed0: r.Uint64(), seed1: r.Uint64(), factory: factory, cov: coverage.New(g.N())}
	s.addLane()
	return s
}

// samplers builds one lane's sampler by kind name; the names are the ones
// NewDrawer takes and the shard protocol uses.
var samplers = map[string]func(*graph.Graph) PairSampler{
	"bidirectional": func(g *graph.Graph) PairSampler { return bfs.NewBidirectional(g) },
	"forward":       func(g *graph.Graph) PairSampler { return bfs.NewForward(g) },
	"dijkstra":      func(g *graph.Graph) PairSampler { return bfs.NewDijkstra(g) },
}

// NewBidirectionalSet is the common construction: a Set backed by balanced
// bidirectional BFS samplers (one per lane).
func NewBidirectionalSet(g *graph.Graph, r *xrand.Rand) *Set {
	return NewFactorySet(g, samplers["bidirectional"], r)
}

// NewForwardSet is a Set backed by truncated forward-BFS samplers; the
// reference sampler for tests and ablations.
func NewForwardSet(g *graph.Graph, r *xrand.Rand) *Set {
	return NewFactorySet(g, samplers["forward"], r)
}

// NewWeightedSet is a Set backed by bidirectional Dijkstra samplers for
// weighted graphs. It panics if g is unweighted — an internal invariant:
// every exported entry point picks the sampler by g.Weighted() (NewSetFor)
// or validates the graph before construction.
func NewWeightedSet(g *graph.Graph, r *xrand.Rand) *Set {
	return NewFactorySet(g, samplers["dijkstra"], r)
}

// KindFor names the natural sampler for g: "dijkstra" when g is weighted,
// else "bidirectional". NewSetFor draws with it, and a shard coordinator
// asks its workers for it.
func KindFor(g *graph.Graph) string {
	if g.Weighted() {
		return "dijkstra"
	}
	return "bidirectional"
}

// NewSetFor returns a set drawing with KindFor(g)'s sampler.
func NewSetFor(g *graph.Graph, r *xrand.Rand) *Set {
	return NewFactorySet(g, samplers[KindFor(g)], r)
}

// addLane appends a lane drawing over the set's graph. Without a Budget
// lanes are only ever added — lowering Workers just leaves the extra ones
// idle.
func (s *Set) addLane() {
	l := &lane{}
	l.init(s.g.N(), s.seed0, s.seed1, s.factory(s.g))
	s.lanes = append(s.lanes, l)
}

// Len returns the number of samples in the set (null samples included).
func (s *Set) Len() int { return s.cov.Len() }

// MemoryFootprint returns the bytes the set retains: the coverage
// engine's arena, index and query workspace, the observation bounds, the
// block records, and each lane's sampler workspace and arena (a set
// drawing under a Budget keeps only lane 0 between growths). The serving
// layer charges it against the family byte budget.
func (s *Set) MemoryFootprint() int64 {
	b := s.cov.MemoryFootprint() + int64(cap(s.obs))*4 + int64(cap(s.blocks))*12
	for _, l := range s.lanes {
		b += l.footprint()
	}
	return b
}

// GrowTo samples additional shortest paths until Len() == L.
// Growing to a smaller or equal L is a no-op. A lane panic is re-raised on
// the calling goroutine; use GrowToCtx to receive it as an error.
func (s *Set) GrowTo(L int) {
	if err := s.GrowToCtx(context.Background(), L); err != nil {
		// The background context never cancels, so err can only be a
		// recovered lane panic — re-raise it, preserving old behavior.
		panic(err)
	}
}

// GrowToCtx is GrowTo with cancellation: samples are drawn and committed in
// chunks of GrowChunk, and the context is checked between chunks (several
// lanes additionally check it per sample). Samples a Reset kept are
// re-admitted instead of drawn; the chunks, events and committed state are
// the same either way. On cancellation the Set keeps every fully committed
// chunk (and every re-admitted stored sample) — a deterministic prefix
// identical to a one-lane run of the same length — and ctx.Err() is
// returned. A panic while drawing is recovered and returned as a
// *PanicError instead of crashing the process; sibling lanes stop
// promptly. Every goroutine GrowToCtx starts has exited, and every lane
// token it claimed is back in the Budget, by the time it returns.
func (s *Set) GrowToCtx(ctx context.Context, L int) error {
	cur := s.cov.Len()
	if L <= cur {
		return nil
	}
	if s.Budget != nil {
		defer s.dropGrantedLanes()
	}
	for cur < L {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(cur+GrowChunk, L)
		from := cur
		if stored := s.cov.Stored(); from < stored {
			from = min(end, stored)
			s.Unreachable += s.cov.Extend(from)
			s.Metrics.AddSamplesReused(from - cur)
		}
		if from < end {
			nullsBefore := s.Unreachable
			var err error
			if s.Remote != nil {
				err = s.growRemote(ctx, from, end)
			} else {
				err = s.growLocal(ctx, from, end)
			}
			if err != nil {
				return err
			}
			s.Metrics.AddSamples(end-from, s.Unreachable-nullsBefore)
		}
		if s.Observer != nil {
			// The chunk is committed either way: an observer panic aborts
			// the growth like a cancellation, keeping the deterministic
			// prefix, and surfaces as an *obs.ObserverPanicError.
			if err := obs.EmitGrowth(s.Observer, obs.GrowthEvent{
				Set: s.Label, Len: end, Target: L,
				Added: end - cur, Unreachable: s.Unreachable,
			}); err != nil {
				return err
			}
		}
		cur = end
	}
	// Fold the new samples into the coverage engine's inverted index in one
	// incremental rebuild. Growth ends are always chunk boundaries, so a
	// cancelled growth (which returns above without committing the index)
	// leaves the same state the next query's self-commit would build.
	s.cov.Commit()
	s.updateArenaGauge()
	return nil
}

// updateArenaGauge reports the coverage engine's footprint change since the
// last report to the metrics arena gauge (deltas, so several sets — AdaAlg
// runs two — aggregate into one process gauge).
func (s *Set) updateArenaGauge() {
	if s.Metrics == nil {
		return
	}
	fp := s.cov.MemoryFootprint()
	s.Metrics.AddArenaBytes(fp - s.lastFootprint)
	s.lastFootprint = fp
}

// growLocal draws indices [cur, end) on the lanes and appends the blocks
// in index order, after growing the coverage arena and the bound records
// once for the whole chunk. The chunk commits all-or-nothing: a draw that
// stops early appends nothing, and the next draw resets the arenas.
func (s *Set) growLocal(ctx context.Context, cur, end int) error {
	count := end - cur
	if err := s.draw(ctx, drawList{lo: cur, n: count}); err != nil {
		return err
	}
	nodes := 0
	for _, b := range s.blocks {
		a := &s.lanes[b.lane].arena
		nodes += int(a.Offsets[b.to] - a.Offsets[b.from])
	}
	s.cov.Grow(count, nodes)
	s.obs = coverage.Reserve(s.obs, 2*count)
	for _, b := range s.blocks {
		a := &s.lanes[b.lane].arena
		s.Unreachable += s.cov.AddRange(a, int(b.from), int(b.to))
		s.obs = append(s.obs, a.Obs[2*b.from:2*b.to]...)
	}
	return nil
}

// draw samples every index of list on the lanes chunkLanes grants. Lanes
// claim runs of drawBlock-position blocks from one cursor and record where
// each block landed (see drawLane and claim), so s.blocks read in order
// yields the samples in list order, whichever lane drew which block. Lane
// 0 draws on the calling goroutine, the others on goroutines joined before
// draw returns, and budget tokens go back on return. A lone lane finishes the list;
// several check the stop flag and ctx before every sample, so a
// cancellation or a lane's panic stops all of them, and draw returns
// ctx.Err() or the *PanicError.
func (s *Set) draw(ctx context.Context, list drawList) error {
	nb := (list.n + drawBlock - 1) / drawBlock
	lanes := s.chunkLanes(nb)
	defer s.Budget.release(lanes)
	for len(s.lanes) < lanes {
		s.addLane()
	}
	s.blocks = coverage.Reserve(s.blocks[:0], nb)[:nb]
	s.cursor.Store(0)
	s.stop.Store(false)
	done := ctx.Done()
	if lanes == 1 {
		// A lone lane finishes its draw, so a run cut short by a deadline
		// in its first chunk still commits it and keeps a partial result.
		done = nil
	}
	s.wg.Add(lanes - 1)
	for w := 1; w < lanes; w++ {
		go s.drawLane(w, lanes, list, done)
	}
	s.drawLane(0, lanes, list, done)
	s.wg.Wait()
	active := s.lanes[:lanes]
	for _, l := range active {
		if l.pe != nil {
			return l.pe
		}
	}
	if s.stop.Load() {
		return ctx.Err() // a lane saw done close and quit early
	}
	if s.Metrics != nil {
		// Barrier waste: how long finished lanes sat idle waiting for the
		// draw's last block.
		var last time.Time
		for _, l := range active {
			if l.done.After(last) {
				last = l.done
			}
		}
		var idle int64
		for _, l := range active {
			idle += last.Sub(l.done).Nanoseconds()
		}
		s.Metrics.AddSamplerIdle(idle)
	}
	return nil
}

// chunkLanes returns how many lanes a draw of blocks blocks runs on:
// Workers, or with a Budget the set's own lane plus the tokens it grants,
// capped at Workers; and never more lanes than blocks.
func (s *Set) chunkLanes(blocks int) int {
	if s.Budget == nil {
		return max(min(s.Workers, blocks), 1)
	}
	limit := s.Workers
	if limit < 1 || limit > blocks {
		limit = blocks
	}
	lanes := s.Budget.claim(limit)
	if lanes > 1 {
		s.Metrics.AddHelperLanes(lanes - 1)
	}
	return lanes
}

// dropGrantedLanes forgets every lane but lane 0, so a budgeted set kept
// between growths does not retain the samplers and arenas of lanes it
// borrowed.
func (s *Set) dropGrantedLanes() {
	clear(s.lanes[1:])
	s.lanes = s.lanes[:1]
}

// Reset rewinds the set — Len and Unreachable return to zero — while
// keeping the graph, per-index seeds, lanes, all arena capacity and the
// stored samples themselves, with the coverage index over them: the next
// GrowTo* re-admits stored samples by moving the coverage engine's length
// cursor, without touching the index, and draws only past them. Every
// sample index draws from its own RNG stream derived only from the set's
// seeds, so a reset set regrown to L is bit-identical to a fresh set grown
// to L: the serving layer uses this to share one Set's samples across
// every request on the same (graph, seed, sampler).
func (s *Set) Reset() {
	s.cov.Reset()
	s.Unreachable = 0
}

// Coverage exposes the underlying max-coverage instance (for greedy).
func (s *Set) Coverage() *coverage.Instance { return s.cov }

// Greedy picks the K-node group covering the most samples and returns it
// with its covered count.
func (s *Set) Greedy(k int) ([]int32, int) {
	s.Metrics.IncGreedy()
	return s.cov.Greedy(k)
}

// CoveredBy returns how many samples contain a node of group.
func (s *Set) CoveredBy(group []int32) int { return s.cov.CoveredBy(group) }

// Estimate converts a covered count on this set into the centrality
// estimate of Eq. (4): covered/L · n(n-1). It panics if the set is empty.
func (s *Set) Estimate(coveredCount int) float64 {
	L := s.cov.Len()
	if L == 0 {
		panic("sampling: Estimate on empty set")
	}
	n := float64(s.g.N())
	return float64(coveredCount) / float64(L) * n * (n - 1)
}

// EstimateGroup is CoveredBy followed by Estimate: the unbiased estimator
// B̄_L(C) for a group chosen independently of this set.
func (s *Set) EstimateGroup(group []int32) float64 {
	return s.Estimate(s.CoveredBy(group))
}
