package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopNone:                "None",
		StopConverged:           "Converged",
		StopSampleCap:           "SampleCap",
		StopDeadline:            "Deadline",
		StopCancelled:           "Cancelled",
		StopIterationsExhausted: "IterationsExhausted",
		StopReason(99):          "StopReason(99)",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Fatalf("StopReason(%d).String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestConvergedRunsReportStopConverged(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, xrand.New(7))
	for name, run := range map[string]func() (*Result, error){
		"AdaAlg": func() (*Result, error) { return AdaAlg(g, Options{K: 3, Seed: 1}) },
		"HEDGE":  func() (*Result, error) { return HEDGE(g, Options{K: 3, Seed: 1}) },
		"CentRa": func() (*Result, error) { return CentRa(g, Options{K: 3, Seed: 1}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.StopReason != StopConverged {
			t.Fatalf("%s: converged=%v reason=%v", name, res.Converged, res.StopReason)
		}
	}
}

// TestAdaAlgSampleCapGroupMatchesUncappedIteration checks the degraded
// MaxSamples path: the capped run must report StopSampleCap and its group
// must be identical to what the uncapped run (same seed) had selected at
// the same iteration — determinism of everything already computed.
func TestAdaAlgSampleCapGroupMatchesUncappedIteration(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, xrand.New(11))
	opts := Options{K: 4, Epsilon: 0.1, Seed: 2}

	fullOpts := opts
	fullOpts.CollectTrace = true
	full, err := AdaAlg(g, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Trace) < 2 {
		t.Fatalf("full run finished in %d iterations; test needs at least 2", len(full.Trace))
	}
	// A cap of exactly 2·L_j admits iterations 1..j and rejects j+1.
	j := len(full.Trace) - 2
	capOpts := opts
	capOpts.MaxSamples = 2 * full.Trace[j].L
	capped, err := AdaAlg(g, capOpts)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Converged || capped.StopReason != StopSampleCap {
		t.Fatalf("converged=%v reason=%v, want sample cap", capped.Converged, capped.StopReason)
	}
	if capped.Samples > capOpts.MaxSamples {
		t.Fatalf("cap violated: %d > %d", capped.Samples, capOpts.MaxSamples)
	}
	if capped.Iterations != j+1 {
		t.Fatalf("capped stopped at iteration %d, want %d", capped.Iterations, j+1)
	}
	want := full.Trace[capped.Iterations-1].Group
	if len(capped.Group) != 4 || len(want) != len(capped.Group) {
		t.Fatalf("group lengths differ: %v vs %v", capped.Group, want)
	}
	for i := range want {
		if capped.Group[i] != want[i] {
			t.Fatalf("capped group %v != uncapped iteration-%d group %v",
				capped.Group, capped.Iterations, want)
		}
	}
}

// bigTestGraph returns a graph on which an unbounded tight-ε AdaAlg run
// takes seconds, so sub-second deadlines genuinely truncate it.
func bigTestGraph() *graph.Graph {
	return gen.BarabasiAlbert(15000, 3, xrand.New(42))
}

func TestAdaAlgMaxDurationExpiry(t *testing.T) {
	g := bigTestGraph()
	const deadline = 100 * time.Millisecond
	start := time.Now()
	res, err := AdaAlg(g, Options{K: 10, Epsilon: 0.08, Seed: 3, MaxDuration: deadline})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.StopReason != StopDeadline {
		t.Fatalf("converged=%v reason=%v, want deadline", res.Converged, res.StopReason)
	}
	if res.Group == nil {
		t.Fatal("no best-so-far group")
	}
	if len(res.Group) != 10 {
		t.Fatalf("group size %d, want 10", len(res.Group))
	}
	// ~100ms of grace beyond the deadline for a greedy step in flight; a
	// generous CI multiple on top.
	if elapsed > deadline+900*time.Millisecond {
		t.Fatalf("run overshot the %v deadline by %v", deadline, elapsed-deadline)
	}
	if res.Samples == 0 {
		t.Fatal("no samples accounted")
	}
}

func TestAdaAlgCancellationDuringGrow(t *testing.T) {
	g := bigTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := AdaAlgCtx(ctx, g, Options{K: 5, Epsilon: 0.08, Seed: 4})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.StopReason != StopCancelled {
		t.Fatalf("converged=%v reason=%v, want cancelled", res.Converged, res.StopReason)
	}
	if res.Group == nil {
		t.Fatal("no best-so-far group")
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

func TestAdaAlgPreCancelledContext(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, xrand.New(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AdaAlgCtx(ctx, g, Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Not a single sample could be drawn: the result is empty but
	// well-formed and honest about why.
	if res.StopReason != StopCancelled || res.Converged {
		t.Fatalf("reason=%v converged=%v", res.StopReason, res.Converged)
	}
	if res.Samples != 0 || res.Group != nil {
		t.Fatalf("pre-cancelled run drew samples=%d group=%v", res.Samples, res.Group)
	}
}

func TestStaticBaselinesAndPairSamplingHonorDeadline(t *testing.T) {
	g := bigTestGraph()
	opts := Options{K: 5, Epsilon: 0.1, Seed: 6, MaxDuration: 80 * time.Millisecond}
	for name, run := range map[string]func() (*Result, error){
		"HEDGE":        func() (*Result, error) { return HEDGECtx(context.Background(), g, opts) },
		"CentRa":       func() (*Result, error) { return CentRaCtx(context.Background(), g, opts) },
		"PairSampling": func() (*Result, error) { return PairSamplingCtx(context.Background(), g, opts) },
	} {
		start := time.Now()
		res, err := run()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Converged {
			continue // fast machine: converged before the deadline, fine
		}
		if res.StopReason != StopDeadline {
			t.Fatalf("%s: reason=%v, want deadline", name, res.StopReason)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s: deadline ignored for %v", name, elapsed)
		}
	}
}

func TestBudgetedGBCHonorsDeadline(t *testing.T) {
	g := bigTestGraph()
	costs := make([]float64, g.N())
	for i := range costs {
		costs[i] = 1
	}
	start := time.Now()
	res, err := BudgetedGBCCtx(context.Background(), g, BudgetedOptions{
		Costs: costs, Budget: 10, Epsilon: 0.1, Seed: 7,
		MaxDuration: 80 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		if res.StopReason != StopDeadline {
			t.Fatalf("reason=%v, want deadline", res.StopReason)
		}
		if res.Group == nil && res.Samples > 0 {
			t.Fatal("samples drawn but no group salvaged")
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// boomSampler panics after a fixed number of draws — the injected fault for
// the worker-panic recovery path.
type boomSampler struct{ calls, fuse int }

func (b *boomSampler) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	b.calls++
	if b.calls > b.fuse {
		panic("boom: injected sampler fault")
	}
	return bfs.Sample{Reachable: false}
}

func TestWorkerPanicSurfacesAsError(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, xrand.New(8))
	hook := func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
		return sampling.NewFactorySet(g, func(*graph.Graph) sampling.PairSampler {
			return &boomSampler{fuse: 50}
		}, r)
	}
	res, err := AdaAlg(g, Options{K: 3, Seed: 9, Workers: 4, SamplerSet: hook})
	if err == nil {
		t.Fatalf("expected a worker-panic error, got result %+v", res)
	}
	var pe *sampling.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *sampling.PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack trace")
	}
}

// TestAdaAlgDeadlineWithWorkersRace exercises the worker-cancellation path
// while a deadline fires; it earns its keep under `go test -race ./...`.
func TestAdaAlgDeadlineWithWorkersRace(t *testing.T) {
	g := gen.BarabasiAlbert(4000, 3, xrand.New(10))
	for i := 0; i < 3; i++ {
		res, err := AdaAlg(g, Options{
			K: 5, Epsilon: 0.08, Seed: uint64(20 + i),
			Workers: 4, MaxDuration: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged && res.StopReason != StopDeadline {
			t.Fatalf("run %d: reason=%v", i, res.StopReason)
		}
	}
}
