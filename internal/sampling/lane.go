// Lanes of the sampling pipeline.
//
// A lane owns everything one goroutine needs to draw samples with zero
// steady-state heap allocations: a sampler (O(n) workspace), one reusable
// RNG value reseeded per sample index, and a flat path arena the sampled
// nodes are appended into. The Set keeps its lanes for its whole lifetime;
// goroutines do not outlive a chunk. Each chunk draws lane 0 on the calling
// goroutine and lanes 1..W-1 on goroutines started for that chunk and
// joined before it commits (see Set.growLocal).
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
