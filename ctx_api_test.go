package gbc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/graph"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// TestSolveDeadlinePartialResult stops a solve by its MaxDuration and wants
// the best-so-far group. The stop is driven from inside the run, so it
// does not depend on host speed: the first iteration's observer sleeps
// well past the deadline (twice it, so the deadline's timer has surely
// fired), and AdaAlg cannot converge before its second iteration, whose
// growth then finds the deadline passed.
func TestSolveDeadlinePartialResult(t *testing.T) {
	g := BarabasiAlbert(15000, 3, 42)
	const deadline = 100 * time.Millisecond
	sleepOnce := sync.OnceFunc(func() { time.Sleep(2 * deadline) })
	observer := ObserverFuncs{Iteration: func(IterationEvent) { sleepOnce() }}
	start := time.Now()
	res, err := Solve(context.Background(), g, Options{K: 10, Epsilon: 0.08, Seed: 1,
		MaxDuration: deadline, Observer: observer})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.StopReason != StopDeadline {
		t.Fatalf("converged=%v reason=%v, want a deadline stop", res.Converged, res.StopReason)
	}
	if len(res.Group) != 10 {
		t.Fatalf("best-so-far group %v, want 10 nodes", res.Group)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("run overshot the %v deadline by %v", deadline, elapsed-deadline)
	}
}

// TestSolveCancellation cancels a solve from its first iteration's
// observer: AdaAlg cannot converge before its second iteration, so the
// run must stop cancelled with a best-so-far group, on any host.
func TestSolveCancellation(t *testing.T) {
	g := BarabasiAlbert(15000, 3, 42)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	observer := ObserverFuncs{Iteration: func(IterationEvent) { cancel() }}
	res, err := Solve(ctx, g, Options{K: 5, Epsilon: 0.08, Seed: 2, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.StopReason != StopCancelled {
		t.Fatalf("converged=%v reason=%v, want cancelled", res.Converged, res.StopReason)
	}
	if res.Group == nil {
		t.Fatal("no best-so-far group")
	}
}

// apiBoomSampler panics after a fixed number of draws.
type apiBoomSampler struct{ calls int }

func (b *apiBoomSampler) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	b.calls++
	if b.calls > 50 {
		panic("boom: injected sampler fault")
	}
	return bfs.Sample{Reachable: false}
}

func TestSolveWorkerPanicSurfacesAsError(t *testing.T) {
	hook := func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
		return sampling.NewFactorySet(g, func(*graph.Graph) sampling.PairSampler {
			return &apiBoomSampler{}
		}, r)
	}
	g := BarabasiAlbert(200, 2, 3)
	res, err := Solve(context.Background(), g, Options{K: 3, Seed: 4, Workers: 4, SamplerSet: hook})
	if err == nil {
		t.Fatalf("expected a worker-panic error, got result %+v", res)
	}
	var pe *sampling.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *sampling.PanicError", err, err)
	}
}
