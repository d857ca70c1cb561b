package sampling

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/gen"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// TestCancelledPoolResumesBitIdentical cancels a parallel growth mid-flight
// and then resumes it to the original target: the set's lanes must stay
// reusable, and the final set must be indistinguishable from an
// uninterrupted run — the ISSUE's contract for fallout paths.
func TestCancelledPoolResumesBitIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(1200, 3, xrand.New(21))
	const target = 6 * GrowChunk

	interrupted := NewBidirectionalSet(g, xrand.New(22))
	interrupted.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	err := interrupted.GrowToCtx(ctx, target)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if interrupted.Len()%GrowChunk != 0 {
		t.Fatalf("cancelled set holds a partial chunk: Len = %d", interrupted.Len())
	}
	// Resume on the same lanes (samplers and arenas reused).
	interrupted.GrowTo(target)

	clean := NewBidirectionalSet(g, xrand.New(22))
	clean.Workers = 4
	clean.GrowTo(target)
	setsIdentical(t, clean, interrupted)
}

// faultyOnce panics on its first draw and delegates to a real sampler from
// then on, modeling a transient sampler fault.
type faultyOnce struct {
	inner PairSampler
	fired bool
}

func (f *faultyOnce) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	if !f.fired {
		f.fired = true
		panic("transient sampler fault")
	}
	return f.inner.Sample(s, t, r)
}

// TestPanickedPoolStaysReusable injects a one-shot panic into every worker's
// sampler: the first chunk fails with *PanicError and commits nothing, and
// the very next growth on the same lanes must succeed and match a clean
// bidirectional set exactly (per-index RNG streams make the redraw
// independent of the aborted attempt).
func TestPanickedPoolStaysReusable(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, xrand.New(23))
	s := NewFactorySet(g, func() PairSampler {
		return &faultyOnce{inner: bfs.NewBidirectional(g)}
	}, xrand.New(24))
	s.Workers = 4
	err := s.GrowToCtx(context.Background(), 2000)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed chunk partially committed: Len = %d", s.Len())
	}
	// Retry on the same lanes until every lane's fault is spent (the first
	// panicker aborts the chunk before slower siblings reach their own
	// trigger, so it can take up to one attempt per worker). Each failed
	// attempt must keep the set empty and the lanes usable.
	for attempt := 0; err != nil; attempt++ {
		if attempt > s.Workers {
			t.Fatalf("lanes still failing after %d attempts: %v", attempt, err)
		}
		if !errors.As(err, &pe) {
			t.Fatalf("attempt %d: err = %v (%T), want *PanicError", attempt, err, err)
		}
		if s.Len() != 0 {
			t.Fatalf("attempt %d partially committed: Len = %d", attempt, s.Len())
		}
		err = s.GrowToCtx(context.Background(), 2000)
	}
	clean := NewBidirectionalSet(g, xrand.New(24))
	clean.Workers = 4
	clean.GrowTo(2000)
	setsIdentical(t, clean, s)
}

// TestDroppedSetsLeaveNoGoroutines is the leak regression test: growth
// joins every goroutine it starts before returning, so dropped sets leave
// none behind, with no garbage collection or finalizer involved.
func TestDroppedSetsLeaveNoGoroutines(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, xrand.New(41))
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := NewBidirectionalSet(g, xrand.New(uint64(42+i)))
		s.Workers = 2
		s.GrowTo(GrowChunk)
	}
	// A joined goroutine may still be on its way out; yield, don't wait.
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after dropping 20 grown Workers=2 sets, %d before", n, baseline)
	}
}

// TestWarmSequentialGrowthAllocs is the zero-allocation regression guard:
// once a Set's arenas and the coverage engine's buffers are warm, growing by
// a full chunk must cost at most a few allocations (amortized buffer
// regrowth), not the ~20k/op of the per-sample layout.
func TestWarmSequentialGrowthAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, xrand.New(25))
	s := NewBidirectionalSet(g, xrand.New(26))
	s.GrowTo(4 * GrowChunk) // warm: arena capacities and index settled
	target := s.Len()
	allocs := testing.AllocsPerRun(8, func() {
		target += GrowChunk
		s.GrowTo(target)
	})
	// The only remaining allocations are the geometric regrowth of the
	// instance arena / CSR index, amortized far below one per chunk; allow a
	// small constant so the guard is not flaky across Go versions.
	if allocs > 4 {
		t.Fatalf("warm sequential growth: %g allocs per chunk, want <= 4", allocs)
	}
}

// TestWarmParallelGrowthAllocs pins the parallel steady state too: a chunk
// must not rebuild samplers or scratch, so its cost stays within a handful
// of allocations (one per lane goroutine started, plus buffer regrowth).
func TestWarmParallelGrowthAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, xrand.New(27))
	s := NewBidirectionalSet(g, xrand.New(28))
	s.Workers = 4
	s.GrowTo(4 * GrowChunk)
	target := s.Len()
	allocs := testing.AllocsPerRun(8, func() {
		target += GrowChunk
		s.GrowTo(target)
	})
	if allocs > 8 {
		t.Fatalf("warm parallel growth: %g allocs per chunk, want <= 8", allocs)
	}
}

// TestWarmGrowthAllocsWithMetrics re-runs both alloc guards with a Metrics
// attached: the counters are plain atomics updated in place, so
// instrumentation must fit inside the same budgets — the ISSUE's
// "enabled metrics cost atomics only" half of the zero-overhead contract.
func TestWarmGrowthAllocsWithMetrics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		budget  float64
	}{
		{"sequential", 0, 4},
		{"parallel", 4, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.BarabasiAlbert(600, 3, xrand.New(25))
			s := NewBidirectionalSet(g, xrand.New(26))
			s.Workers = tc.workers
			s.Metrics = &obs.Metrics{}
			s.Label = "S"
			s.GrowTo(4 * GrowChunk)
			target := s.Len()
			allocs := testing.AllocsPerRun(8, func() {
				target += GrowChunk
				s.GrowTo(target)
			})
			if allocs > tc.budget {
				t.Fatalf("warm %s growth with metrics: %g allocs per chunk, want <= %g",
					tc.name, allocs, tc.budget)
			}
			if n := s.Metrics.Snapshot().Samples; n != int64(s.Len()) {
				t.Fatalf("metrics counted %d samples, set holds %d", n, s.Len())
			}
		})
	}
}
