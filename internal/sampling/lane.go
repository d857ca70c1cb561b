// Lanes of the sampling pipeline.
//
// A lane owns everything one goroutine needs to draw samples with zero
// steady-state heap allocations: a sampler (O(n) workspace), one reusable
// RNG value reseeded per sample index, and a flat path arena the sampled
// nodes are appended into. Every draw of a Set — a growth chunk or a
// Repair's re-draw — runs on its lanes (see Set.draw). The Set keeps its
// lanes between draws — a set drawing under a LaneBudget keeps only lane
// 0 — and goroutines do not outlive a draw: lane 0 draws on the calling
// goroutine and lanes 1..W-1 on goroutines joined before it commits.
package sampling

import (
	"runtime/debug"
	"sync/atomic"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/coverage"
	"gbc/internal/faultinject"
	"gbc/internal/xrand"
)

// PathAppender is implemented by samplers that can append the drawn path
// into a caller-owned buffer instead of allocating a fresh slice per sample
// (all bfs samplers do). A custom PairSampler without it still works, at
// one path allocation per sample.
type PathAppender interface {
	AppendSample(dst []int32, s, t int32, r *xrand.Rand) (bfs.Sample, []int32)
}

// drawState is the reusable sampling state of a lane or a shard Drawer.
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

// LaneBudget is a pool of drawing-lane tokens shared by every Set that
// holds it — a server sizes one at GOMAXPROCS so concurrent solves split
// the cores between them. At each draw a set counts its own lane, which it
// always gets, and claims one more token only while any is free; it never
// waits for one. Lanes granted for a draw return when the draw joins, so
// the lane count may change from draw to draw. Sample content is
// index-pure and blocks merge in index order, so it never moves an
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

// drawBlock is how many consecutive positions of a draw make a block: the
// unit a lane records and the commit appends, and the least a lane claims.
const drawBlock = 64

// drawRun is the most blocks one claim takes (see claim).
const drawRun = 4

// drawList is the sample indices of one draw by position k: lo+k for
// growth, or ids[k] for Repair (n = len(ids)).
type drawList struct {
	lo, n int
	ids   []int
}

// block records where one claimed block of a draw landed: paths
// [from, to) of lane's arena.
type block struct{ lane, from, to int32 }

// lane is one worker's draw state plus what its part of the latest draw
// reported: when it finished (a monotonic-clock reading for the
// samplerIdleNanos barrier metric) and any recovered panic.
type lane struct {
	drawState
	done time.Time
	pe   *PanicError
}

// drawLane is lane w's part of a draw on lanes lanes: it resets the
// lane's arena, then claims runs of blocks, records each block in s.blocks
// and draws it, until list is drawn. It checks stop and done before every
// sample; a closed done raises stop for the sibling lanes. A panic is
// recovered into the lane's pe and also raises stop. Lanes other than
// lane 0 run on their own goroutines and mark s.wg done when they end.
func (s *Set) drawLane(w, lanes int, list drawList, done <-chan struct{}) {
	l := s.lanes[w]
	s.Metrics.WorkerBusy(1)
	l.pe = nil
	defer func() {
		if v := recover(); v != nil {
			s.stop.Store(true)
			l.pe = &PanicError{Value: v, Stack: debug.Stack()}
		}
		l.done = time.Now()
		s.Metrics.WorkerBusy(-1)
		if w > 0 {
			s.wg.Done()
		}
	}()
	if faultinject.Enabled {
		// Chaos injection points, compiled out of the default build: a
		// straggler lane (the fault sleeps) and a mid-draw panic
		// (recovered above, aborting the draw for the sibling lanes).
		faultinject.Fire(faultinject.SamplingChunkSlow)
		if err := faultinject.Fire(faultinject.SamplingChunkPanic); err != nil {
			panic(err)
		}
	}
	// Room for the whole draw, however many blocks this lane claims.
	l.arena.Reset()
	l.arena.Offsets = coverage.Reserve(l.arena.Offsets, list.n)
	l.arena.Obs = coverage.Reserve(l.arena.Obs, 2*list.n)
	for {
		b, end := s.claim(lanes)
		if b == end {
			return
		}
		for ; b < end; b++ {
			lo, hi, first := b*drawBlock, min((b+1)*drawBlock, list.n), l.arena.Len()
			s.blocks[b] = block{lane: int32(w), from: int32(first), to: int32(first + hi - lo)}
			for k := lo; k < hi; k++ {
				if s.stop.Load() {
					return
				}
				select {
				case <-done:
					s.stop.Store(true)
					return
				default:
				}
				i := list.lo + k
				if list.ids != nil {
					i = list.ids[k]
				}
				l.drawInto(&l.arena, i)
			}
		}
	}
}

// claim takes the next run of blocks [b, end) for a lane, empty when none
// is left: all of them on a lone lane, else 1/(2·lanes) of those left,
// from one to drawRun, so lanes end within about one block of each other.
// Runs keep claims few: each is an atomic write, which under the race
// detector costs the lane a new epoch (DESIGN.md, "Why runs").
func (s *Set) claim(lanes int) (b, end int) {
	nb := int64(len(s.blocks))
	for {
		c := s.cursor.Load()
		if c >= nb {
			return 0, 0
		}
		k := nb - c
		if lanes > 1 {
			k = min(max(k/int64(2*lanes), 1), drawRun)
		}
		if s.cursor.CompareAndSwap(c, c+k) {
			return int(c), int(c + k)
		}
	}
}
