package gbc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbc/internal/graph"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// recorder captures every callback as one formatted line; floats are
// rendered with %x so comparisons are bit-exact.
type recorder struct {
	events []string
	growth func(GrowthEvent) // optional extra hook (e.g. to cancel a ctx)
}

func (r *recorder) OnGrowth(ev GrowthEvent) {
	r.events = append(r.events, fmt.Sprintf("growth %s len=%d target=%d added=%d unreach=%d",
		ev.Set, ev.Len, ev.Target, ev.Added, ev.Unreachable))
	if r.growth != nil {
		r.growth(ev)
	}
}

func (r *recorder) OnIteration(ev IterationEvent) {
	r.events = append(r.events, fmt.Sprintf("iter %s q=%d guess=%x L=%d biased=%x unbiased=%x cnt=%d epsSum=%x group=%v",
		ev.Algorithm, ev.Q, ev.Guess, ev.L, ev.Biased, ev.Unbiased, ev.Cnt, ev.EpsilonSum, ev.Group))
}

func (r *recorder) OnDone(ev DoneEvent) {
	r.events = append(r.events, fmt.Sprintf("done %s reason=%s converged=%v iters=%d samples=%d estimate=%x",
		ev.Algorithm, ev.StopReason, ev.Converged, ev.Iterations, ev.Samples, ev.Estimate))
}

// TestObserverSequenceDeterministicAcrossWorkers pins the callback contract:
// the exact event sequence — growth chunks, iterations, done — is identical
// for sequential and 4-worker runs, for the adaptive algorithm and a static
// baseline alike.
func TestObserverSequenceDeterministicAcrossWorkers(t *testing.T) {
	g := BarabasiAlbert(800, 3, 11)
	for _, alg := range []Algorithm{AdaAlg, HEDGE} {
		t.Run(alg.String(), func(t *testing.T) {
			var seqs [][]string
			for _, workers := range []int{1, 4} {
				rec := &recorder{}
				res, err := Solve(context.Background(), g, Options{
					Algorithm: alg, K: 6, Seed: 5, MaxSamples: 40000,
					Workers: workers, Observer: rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Group == nil {
					t.Fatal("no group")
				}
				if rec.events[len(rec.events)-1][:4] != "done" {
					t.Fatalf("last event %q is not the done event", rec.events[len(rec.events)-1])
				}
				seqs = append(seqs, rec.events)
			}
			if strings.Join(seqs[0], "\n") != strings.Join(seqs[1], "\n") {
				t.Fatalf("event sequences differ between workers=1 and workers=4:\n--- w1 (%d events)\n%s\n--- w4 (%d events)\n%s",
					len(seqs[0]), strings.Join(seqs[0], "\n"), len(seqs[1]), strings.Join(seqs[1], "\n"))
			}
		})
	}
}

// TestObservedRunBitIdenticalToUnobserved checks that attaching an observer
// changes nothing about the computation itself.
func TestObservedRunBitIdenticalToUnobserved(t *testing.T) {
	g := WattsStrogatz(600, 4, 0.1, 13)
	for _, workers := range []int{1, 4} {
		opts := Options{K: 5, Seed: 7, MaxSamples: 30000, Workers: workers}
		plain, err := Solve(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Observer = &recorder{}
		observed, err := Solve(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", plain.Group) != fmt.Sprintf("%v", observed.Group) {
			t.Fatalf("workers=%d: group %v vs observed %v", workers, plain.Group, observed.Group)
		}
		if plain.Estimate != observed.Estimate || plain.Samples != observed.Samples ||
			plain.Iterations != observed.Iterations || plain.StopReason != observed.StopReason {
			t.Fatalf("workers=%d: observed run diverged: %+v vs %+v", workers, plain, observed)
		}
	}
}

// TestObserverCancelledPrefix cancels a run from inside its own OnGrowth
// callback — a deterministic cutoff — and checks the observed events are
// exactly a prefix of the uncancelled run's events plus a final Cancelled
// done event.
func TestObserverCancelledPrefix(t *testing.T) {
	g := BarabasiAlbert(800, 3, 11)
	base := Options{K: 6, Seed: 5, MaxSamples: 40000}

	full := &recorder{}
	opts := base
	opts.Observer = full
	if _, err := Solve(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}

	const cutoff = 3
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		part := &recorder{}
		part.growth = func(GrowthEvent) {
			if len(part.events) >= cutoff {
				cancel()
			}
		}
		opts := base
		opts.Workers = workers
		opts.Observer = part
		res, err := Solve(ctx, g, opts)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != StopCancelled {
			t.Fatalf("workers=%d: stop reason %v, want Cancelled", workers, res.StopReason)
		}
		if len(part.events) <= cutoff {
			t.Fatalf("workers=%d: only %d events recorded", workers, len(part.events))
		}
		last := part.events[len(part.events)-1]
		if !strings.HasPrefix(last, "done AdaAlg reason=Cancelled") {
			t.Fatalf("workers=%d: last event %q, want a Cancelled done event", workers, last)
		}
		// Everything before the done event must be a prefix of the
		// uncancelled sequence: the observed past never depends on when the
		// future was cut off.
		prefix := part.events[:len(part.events)-1]
		for i, ev := range prefix {
			if ev != full.events[i] {
				t.Fatalf("workers=%d: event %d diverged:\ncancelled: %s\nfull:      %s", workers, i, ev, full.events[i])
			}
		}
	}
}

// panicObserver panics in one selected callback.
type panicObserver struct{ in string }

func (p panicObserver) OnGrowth(GrowthEvent) {
	if p.in == "OnGrowth" {
		panic("observer boom: growth")
	}
}

func (p panicObserver) OnIteration(IterationEvent) {
	if p.in == "OnIteration" {
		panic("observer boom: iteration")
	}
}

func (p panicObserver) OnDone(DoneEvent) {
	if p.in == "OnDone" {
		panic("observer boom: done")
	}
}

// TestObserverPanicSurfacesAsError injects a panic into each callback in
// turn: the run must return an *ObserverPanicError naming the callback, not
// crash, and not return a result alongside it.
func TestObserverPanicSurfacesAsError(t *testing.T) {
	g := BarabasiAlbert(300, 3, 17)
	for _, cb := range []string{"OnGrowth", "OnIteration", "OnDone"} {
		t.Run(cb, func(t *testing.T) {
			res, err := Solve(context.Background(), g, Options{
				K: 4, Seed: 3, MaxSamples: 30000, Workers: 4,
				Observer: panicObserver{in: cb},
			})
			if err == nil {
				t.Fatalf("expected an observer-panic error, got result %+v", res)
			}
			var pe *ObserverPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *ObserverPanicError", err, err)
			}
			if pe.Callback != cb {
				t.Fatalf("panic in %s attributed to %s", cb, pe.Callback)
			}
			if res != nil {
				t.Fatalf("got both a result %+v and an error", res)
			}
		})
	}
}

// TestConcurrentSolveIndependentSamplerSets runs two Solve calls in
// parallel, each with its own Options.SamplerSet — the scenario the former
// package-global hook made racy. Each run must use exactly its own factory
// (twice: sets S and T), and both must finish with sane results. The race
// detector (make race) guards the memory-model side.
func TestConcurrentSolveIndependentSamplerSets(t *testing.T) {
	g := BarabasiAlbert(500, 3, 19)
	mk := func(calls *atomic.Int32) func(*graph.Graph, *xrand.Rand) *sampling.Set {
		return func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
			calls.Add(1)
			return sampling.NewBidirectionalSet(g, r)
		}
	}
	var callsA, callsB atomic.Int32
	var wg sync.WaitGroup
	run := func(seed uint64, hook func(*graph.Graph, *xrand.Rand) *sampling.Set, out **Result) {
		defer wg.Done()
		res, err := Solve(context.Background(), g, Options{
			K: 5, Seed: seed, MaxSamples: 30000, Workers: 2, SamplerSet: hook,
		})
		if err != nil {
			t.Error(err)
			return
		}
		*out = res
	}
	var resA, resB *Result
	wg.Add(2)
	go run(1, mk(&callsA), &resA)
	go run(2, mk(&callsB), &resB)
	wg.Wait()
	if resA == nil || resB == nil {
		t.Fatal("a concurrent run failed")
	}
	if callsA.Load() != 2 || callsB.Load() != 2 {
		t.Fatalf("sampler-set factories called %d/%d times, want 2/2 (S and T, own run only)",
			callsA.Load(), callsB.Load())
	}
}

// TestMetricsDuringRun attaches a Metrics to a run and checks the counters
// move and settle coherently.
func TestMetricsDuringRun(t *testing.T) {
	g := BarabasiAlbert(600, 3, 29)
	m := &Metrics{}
	baseline := runtime.NumGoroutine()
	res, err := Solve(context.Background(), g, Options{
		K: 5, Seed: 5, MaxSamples: 40000, Workers: 4, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Samples != int64(res.Samples) {
		t.Fatalf("metrics samples %d, result samples %d", s.Samples, res.Samples)
	}
	if s.GreedyRuns < int64(res.Iterations) {
		t.Fatalf("greedy runs %d < iterations %d", s.GreedyRuns, res.Iterations)
	}
	if s.Iteration != int64(res.Iterations) {
		t.Fatalf("iteration gauge %d, result iterations %d", s.Iteration, res.Iterations)
	}
	if s.ArenaBytes <= 0 {
		t.Fatalf("arena gauge %d, want > 0 after a run", s.ArenaBytes)
	}
	// Growth joins every lane goroutine before returning, but a joined
	// goroutine may still be on its way out — on a loaded machine for a
	// while — so wait, up to a deadline, for the count to come back down.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after a Workers=4 run, %d before", n, baseline)
	}
	if s.BusyWorkers != 0 || s.ActiveRuns != 0 {
		t.Fatalf("busy=%d active=%d after the run, want 0/0", s.BusyWorkers, s.ActiveRuns)
	}
}
