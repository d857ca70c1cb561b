package sampling

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gbc/internal/bfs"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

// budgetSteps is the growth script every lane-budget case runs: targets
// that end mid-chunk and cross several chunks, then a Reset and a regrow
// that re-admits the stored prefix and draws past it.
var budgetSteps = []int{1000, GrowChunk + 37, 3*GrowChunk + 5, -1, 2*GrowChunk + 11, 4 * GrowChunk}

// budgetRun is one set grown through budgetSteps and everything it
// reported.
type budgetRun struct {
	set    *Set
	events []obs.GrowthEvent
}

// growScript grows s through budgetSteps (-1 = Reset). Each event goes to
// the log and then to onChunk, which may script the budget between
// chunks. After every growth call the set must hold only lane 0.
func growScript(t *testing.T, s *Set, onChunk func()) *budgetRun {
	t.Helper()
	run := &budgetRun{set: s}
	s.Label = "S"
	s.Observer = obs.ObserverFuncs{Growth: func(ev obs.GrowthEvent) {
		run.events = append(run.events, ev)
		if onChunk != nil {
			onChunk()
		}
	}}
	for _, L := range budgetSteps {
		if L < 0 {
			s.Reset()
			continue
		}
		if err := s.GrowToCtx(context.Background(), L); err != nil {
			t.Errorf("grow to %d: %v", L, err)
			return run
		}
		if s.Budget != nil && len(s.lanes) != 1 {
			t.Errorf("grow to %d left %d lanes, want lane 0 alone", L, len(s.lanes))
		}
	}
	return run
}

// sameRun requires two runs to match bit for bit: every stored path, the
// null count, the observation bounds and the growth events.
func sameRun(t *testing.T, what string, got, want *budgetRun) {
	t.Helper()
	a, b := got.set, want.set
	if a.Len() != b.Len() || a.cov.Stored() != b.cov.Stored() || a.Unreachable != b.Unreachable {
		t.Fatalf("%s: (len %d, stored %d, nulls %d), want (%d, %d, %d)", what,
			a.Len(), a.cov.Stored(), a.Unreachable, b.Len(), b.cov.Stored(), b.Unreachable)
	}
	for i := 0; i < a.cov.Stored(); i++ {
		if !reflect.DeepEqual(a.cov.PathView(i), b.cov.PathView(i)) {
			t.Fatalf("%s: path %d is %v, want %v", what, i, a.cov.PathView(i), b.cov.PathView(i))
		}
	}
	if !reflect.DeepEqual(a.obs, b.obs) {
		t.Fatalf("%s: observation bounds differ", what)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: growth events\n  %v\nwant\n  %v", what, got.events, want.events)
	}
}

// TestLaneBudgetGrowthMatchesOneLane is the lane budget's determinism
// contract: whatever the budget grants chunk by chunk — nothing, every
// token, an alternating schedule, a cap, or what a concurrent set leaves
// over — a budgeted set matches a one-lane set bit for bit.
func TestLaneBudgetGrowthMatchesOneLane(t *testing.T) {
	g := gen.BarabasiAlbert(800, 3, xrand.New(61))
	const seed = 62
	oneLane := growScript(t, NewBidirectionalSet(g, xrand.New(seed)), nil)

	budgeted := func(b *LaneBudget, workers int) (*Set, *obs.Metrics) {
		s := NewBidirectionalSet(g, xrand.New(seed))
		s.Budget, s.Workers, s.Metrics = b, workers, &obs.Metrics{}
		return s, s.Metrics
	}

	t.Run("no free tokens", func(t *testing.T) {
		b := NewLaneBudget(4)
		held := b.claim(0)
		s, m := budgeted(b, 0)
		sameRun(t, "no free tokens", growScript(t, s, nil), oneLane)
		b.release(held)
		if n := m.Snapshot().HelperLanes; n != 0 {
			t.Fatalf("granted %d lanes from a spent budget", n)
		}
		if b.InUse() != 0 {
			t.Fatalf("%d lanes still in use", b.InUse())
		}
	})

	t.Run("all free", func(t *testing.T) {
		b := NewLaneBudget(8)
		s, m := budgeted(b, 0)
		sameRun(t, "all free", growScript(t, s, nil), oneLane)
		if m.Snapshot().HelperLanes == 0 {
			t.Fatal("a free budget granted no lanes")
		}
		if b.InUse() != 0 {
			t.Fatalf("%d lanes still in use", b.InUse())
		}
	})

	t.Run("capped by workers", func(t *testing.T) {
		b := NewLaneBudget(8)
		s, m := budgeted(b, 3)
		widest := 0
		run := growScript(t, s, func() { widest = max(widest, len(s.lanes)) })
		sameRun(t, "capped", run, oneLane)
		if widest != 3 || m.Snapshot().HelperLanes == 0 {
			t.Fatalf("widest chunk drew on %d lanes, want the cap of 3", widest)
		}
		one, m1 := budgeted(b, 1)
		sameRun(t, "workers 1", growScript(t, one, nil), oneLane)
		if n := m1.Snapshot().HelperLanes; n != 0 {
			t.Fatalf("workers 1 was granted %d lanes", n)
		}
	})

	t.Run("alternating per chunk", func(t *testing.T) {
		b := NewLaneBudget(4)
		s, m := budgeted(b, 0)
		held := 0
		run := growScript(t, s, func() {
			if held > 0 {
				b.release(held)
				held = 0
			} else {
				held = b.claim(0)
			}
		})
		b.release(held)
		sameRun(t, "alternating", run, oneLane)
		if m.Snapshot().HelperLanes == 0 {
			t.Fatal("no chunk was granted a lane")
		}
		if b.InUse() != 0 {
			t.Fatalf("%d lanes still in use", b.InUse())
		}
	})

	t.Run("concurrent hog", func(t *testing.T) {
		b := NewLaneBudget(3)
		hogRef := growScript(t, NewBidirectionalSet(g, xrand.New(seed+1)), nil)
		sets := []*Set{NewBidirectionalSet(g, xrand.New(seed)), NewBidirectionalSet(g, xrand.New(seed+1))}
		runs := make([]*budgetRun, len(sets))
		var wg sync.WaitGroup
		for i, s := range sets {
			s.Budget = b
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i] = growScript(t, s, nil)
			}()
		}
		wg.Wait()
		sameRun(t, "beside a hog", runs[0], oneLane)
		sameRun(t, "the hog", runs[1], hogRef)
		if b.InUse() != 0 {
			t.Fatalf("%d lanes still in use", b.InUse())
		}
	})
}

// countingSampler wraps a bidirectional sampler and runs hook before each
// draw with the draws made so far across all lanes.
type countingSampler struct {
	inner PairSampler
	drawn *atomic.Int64
	hook  func(n int64)
}

func (c *countingSampler) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	c.hook(c.drawn.Add(1))
	return c.inner.Sample(s, t, r)
}

// TestLaneBudgetTokensAlwaysReturn: a leaked token would silently shrink
// every later solve's parallelism. However growth ends — cancelled in the
// middle of a chunk, a lane panic, an observer panic — the budget is back
// to 0 lanes in use, the set holds only lane 0, no goroutine it started is
// left, and the set grows on cleanly afterwards. A Repair, which re-draws
// on lanes the budget grants, hands them all back too, whether its re-draw
// succeeds or panics.
func TestLaneBudgetTokensAlwaysReturn(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, xrand.New(71))
	const target = 3 * GrowChunk
	ref := NewBidirectionalSet(g, xrand.New(72))
	ref.GrowTo(target)

	for _, tc := range []struct {
		name string
		// arm returns the set to grow, its context and a check of the
		// error the growth must end in.
		arm func() (*Set, context.Context, func(error) bool)
	}{
		{"cancelled mid-chunk", func() (*Set, context.Context, func(error) bool) {
			ctx, cancel := context.WithCancel(context.Background())
			s := countingSet(g, func(n int64) {
				if n == GrowChunk+GrowChunk/2 {
					cancel()
				}
			})
			return s, ctx, func(err error) bool { return errors.Is(err, context.Canceled) }
		}},
		{"lane panic", func() (*Set, context.Context, func(error) bool) {
			s := countingSet(g, func(n int64) {
				if n == GrowChunk+GrowChunk/2 {
					panic("injected lane fault")
				}
			})
			return s, context.Background(), func(err error) bool {
				var pe *PanicError
				return errors.As(err, &pe)
			}
		}},
		{"observer panic", func() (*Set, context.Context, func(error) bool) {
			s := NewBidirectionalSet(g, xrand.New(72))
			s.Observer = obs.ObserverFuncs{Growth: func(ev obs.GrowthEvent) {
				if ev.Len > GrowChunk {
					panic("injected observer fault")
				}
			}}
			return s, context.Background(), func(err error) bool {
				var pe *obs.ObserverPanicError
				return errors.As(err, &pe)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			b := NewLaneBudget(4)
			s, ctx, want := tc.arm()
			s.Budget = b
			if err := s.GrowToCtx(ctx, target); !want(err) {
				t.Fatalf("growth ended in %v (%T)", err, err)
			}
			if b.InUse() != 0 || len(s.lanes) != 1 {
				t.Fatalf("after the fault: %d lanes in use, set holds %d lanes", b.InUse(), len(s.lanes))
			}
			if n := settledGoroutines(baseline); n > baseline {
				t.Fatalf("%d goroutines after the fault, %d before", n, baseline)
			}
			s.Observer = nil
			if err := s.GrowToCtx(context.Background(), target); err != nil {
				t.Fatalf("growth after the fault: %v", err)
			}
			setsIdentical(t, ref, s)
			if b.InUse() != 0 || len(s.lanes) != 1 {
				t.Fatalf("after regrowth: %d lanes in use, set holds %d lanes", b.InUse(), len(s.lanes))
			}
		})
	}

	delta := randomRepairDelta(g, 3, xrand.New(73))
	ng, err := graph.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("repair panics=%v", panics), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			b := NewLaneBudget(4)
			s := NewFactorySet(g, func(h *graph.Graph) PairSampler {
				if panics && h == ng {
					return &panicAfter{n: 1}
				}
				return bfs.NewBidirectional(h)
			}, xrand.New(72))
			s.Budget = b
			s.GrowTo(target)
			s.Metrics = &obs.Metrics{}
			st, err := s.Repair(ng, delta)
			var pe *PanicError
			if panics != errors.As(err, &pe) || !panics && err != nil {
				t.Fatalf("Repair ended in %v (%T)", err, err)
			}
			if st.Regenerated <= drawBlock {
				t.Fatalf("repair redrew %d samples, too few for a second lane", st.Regenerated)
			}
			if !panics && s.Metrics.Snapshot().HelperLanes == 0 {
				t.Fatal("a free budget granted the repair no lanes")
			}
			if b.InUse() != 0 || len(s.lanes) != 1 {
				t.Fatalf("after Repair: %d lanes in use, set holds %d lanes", b.InUse(), len(s.lanes))
			}
			if n := settledGoroutines(baseline); n > baseline {
				t.Fatalf("%d goroutines after Repair, %d before", n, baseline)
			}
		})
	}
}

// countingSet is a bidirectional set (seed 72) whose lanes share one draw
// counter and run hook before each draw.
func countingSet(g *graph.Graph, hook func(n int64)) *Set {
	var drawn atomic.Int64
	return NewFactorySet(g, func(g *graph.Graph) PairSampler {
		return &countingSampler{inner: bfs.NewBidirectional(g), drawn: &drawn, hook: hook}
	}, xrand.New(72))
}
