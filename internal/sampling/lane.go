// Lanes of the sampling pipeline.
//
// A lane owns everything one goroutine needs to draw samples with zero
// steady-state heap allocations: a sampler (O(n) workspace), one reusable
// RNG value reseeded per sample index, and a flat path arena the sampled
// nodes are appended into. The Set keeps its lanes between growths — a set
// drawing under a LaneBudget, which shares lanes between sets, keeps only
// lane 0 — and goroutines do not outlive a chunk. Each chunk draws lane 0
// on the calling goroutine and lanes 1..W-1 on goroutines started for that
// chunk and joined before it commits (see Set.growLocal).
package sampling

import (
	"runtime/debug"
	"sync/atomic"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/coverage"
	"gbc/internal/faultinject"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// PathAppender is implemented by samplers that can append the drawn path
// into a caller-owned buffer instead of allocating a fresh slice per sample
// (all bfs samplers do). A custom PairSampler without it still works, at
// one path allocation per sample.
type PathAppender interface {
	AppendSample(dst []int32, s, t int32, r *xrand.Rand) (bfs.Sample, []int32)
}

// drawState is the reusable sampling state of a lane, a repair patch or a
// shard Drawer.
type drawState struct {
	n            int // node count, for the pair draw
	seed0, seed1 uint64
	sampler      PairSampler
	appender     PathAppender // non-nil when sampler supports buffer reuse
	rng          xrand.Rand
	arena        coverage.PathArena
}

func (d *drawState) init(n int, seed0, seed1 uint64, sampler PairSampler) {
	d.n = n
	d.seed0, d.seed1 = seed0, seed1
	d.sampler = sampler
	d.appender, _ = sampler.(PathAppender)
	d.arena.Reset()
}

// footprint returns the bytes the draw state retains: the sampler's
// workspace, when the sampler reports it, and the arena at capacity.
func (d *drawState) footprint() int64 {
	var b int64
	if f, ok := d.sampler.(interface{ MemoryFootprint() int64 }); ok {
		b = f.MemoryFootprint()
	}
	a := &d.arena
	return b + int64(cap(a.Nodes)+cap(a.Offsets)+cap(a.Obs))*4
}

// drawInto samples global index i into the given arena: reseed the RNG to
// the index's dedicated stream, draw the pair, append the path (an
// unreachable pair seals an empty range — a null sample).
func (d *drawState) drawInto(arena *coverage.PathArena, i int) {
	if faultinject.Enabled {
		// Chaos: a reseed failure mid-chunk panics the lane, which recovers
		// it into a *PanicError. Constant-false branch (deleted by the
		// compiler) in the default build — the per-sample hot path stays
		// untouched.
		if err := faultinject.Fire(faultinject.SamplingReseed); err != nil {
			panic(err)
		}
	}
	d.rng.Reseed(d.seed0, d.seed1+uint64(i))
	a, b := d.rng.IntnPair(d.n)
	var smp bfs.Sample
	if d.appender != nil {
		smp, arena.Nodes = d.appender.AppendSample(arena.Nodes, int32(a), int32(b), &d.rng)
	} else {
		smp = d.sampler.Sample(int32(a), int32(b), &d.rng)
		if smp.Reachable {
			arena.Nodes = append(arena.Nodes, smp.Path...)
		}
	}
	arena.EndPath()
	arena.Obs = append(arena.Obs, smp.ObsF, smp.ObsB)
}

// draw is drawInto targeting the state's own arena.
func (d *drawState) draw(i int) { d.drawInto(&d.arena, i) }

// LaneBudget is a pool of drawing-lane tokens shared by every Set that
// holds it — a server sizes one at GOMAXPROCS so concurrent solves split
// the cores between them. At each chunk a set counts its own lane, which
// it always gets, and claims one more token only while any is free; it
// never waits for one. Lanes granted for a chunk return when the chunk
// joins, so the lane count may change from chunk to chunk. Sample content
// is index-pure and lane blocks merge in index order, so it never moves an
// answer. All methods are safe for concurrent use.
type LaneBudget struct {
	size  int64
	inUse atomic.Int64
}

// NewLaneBudget returns a budget of n lane tokens (at least one).
func NewLaneBudget(n int) *LaneBudget {
	return &LaneBudget{size: int64(max(n, 1))}
}

// InUse reports the lanes drawing under the budget right now, own lanes
// included; an idle budget reports 0.
func (b *LaneBudget) InUse() int { return int(b.inUse.Load()) }

// claim counts the caller's own lane, then takes free tokens one at a time
// until the budget is spent or limit lanes are held (limit < 1 = no
// limit). It returns the lanes held, own lane included.
func (b *LaneBudget) claim(limit int) int {
	b.inUse.Add(1)
	lanes := 1
	for limit < 1 || lanes < limit {
		used := b.inUse.Load()
		if used >= b.size {
			break
		}
		if b.inUse.CompareAndSwap(used, used+1) {
			lanes++
		}
	}
	return lanes
}

// release returns lanes claimed by claim. A nil budget ignores it.
func (b *LaneBudget) release(lanes int) {
	if b != nil {
		b.inUse.Add(-int64(lanes))
	}
}

// lane is one worker's draw state plus what its latest share of a chunk
// reported: start and end times (monotonic-clock readings that feed EWMA
// share sizing and the samplerIdleNanos barrier metric), any recovered
// panic, and the smoothed draw cost.
type lane struct {
	drawState
	start, done time.Time
	pe          *PanicError
	cost        float64 // EWMA of ns/sample, 0 = no history yet
}

// run draws indices [lo, hi) into the lane's arena, reset first so a chunk
// aborted earlier leaves nothing behind. It checks stop and done before
// every sample; a closed done raises stop for the sibling lanes. A panic is
// recovered into l.pe and also raises stop.
func (l *lane) run(lo, hi int, done <-chan struct{}, stop *atomic.Bool, m *obs.Metrics) {
	m.WorkerBusy(1)
	l.start, l.pe = time.Now(), nil
	defer func() {
		if v := recover(); v != nil {
			stop.Store(true)
			l.pe = &PanicError{Value: v, Stack: debug.Stack()}
		}
		l.done = time.Now()
		m.WorkerBusy(-1)
	}()
	if faultinject.Enabled {
		// Chaos injection points, compiled out of the default build: a
		// straggler lane (the fault sleeps) and a mid-chunk panic
		// (recovered above, aborting the chunk for the sibling lanes).
		faultinject.Fire(faultinject.SamplingChunkSlow)
		if err := faultinject.Fire(faultinject.SamplingChunkPanic); err != nil {
			panic(err)
		}
	}
	l.arena.Reset()
	for i := lo; i < hi; i++ {
		if stop.Load() {
			return
		}
		select {
		case <-done:
			stop.Store(true)
			return
		default:
		}
		l.draw(i)
	}
}
