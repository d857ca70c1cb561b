package sampling

import (
	"context"
	"errors"
	"testing"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// TestGrowToCtxCancelledKeepsDeterministicPrefix cancels a parallel growth
// mid-flight and checks the surviving prefix is byte-identical to a
// sequential set grown to the same length from the same seed — the property
// AdaAlg's graceful degradation rests on.
func TestGrowToCtxCancelledKeepsDeterministicPrefix(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, xrand.New(1))
	cancelled := NewBidirectionalSet(g, xrand.New(99))
	cancelled.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := cancelled.GrowToCtx(ctx, 5_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cancelled.Len() == 5_000_000 {
		t.Skip("machine fast enough to finish 5M samples in 10ms?!")
	}
	if cancelled.Len()%GrowChunk != 0 {
		t.Fatalf("cancelled set holds a partial chunk: Len = %d", cancelled.Len())
	}

	ref := NewBidirectionalSet(g, xrand.New(99))
	ref.GrowTo(cancelled.Len())
	if ref.Len() != cancelled.Len() {
		t.Fatalf("lengths diverge: %d vs %d", ref.Len(), cancelled.Len())
	}
	if ref.Unreachable != cancelled.Unreachable {
		t.Fatalf("unreachable counts diverge: %d vs %d", ref.Unreachable, cancelled.Unreachable)
	}
	gc, cc := cancelled.Greedy(5)
	gr, cr := ref.Greedy(5)
	if cc != cr {
		t.Fatalf("covered counts diverge: %d vs %d", cc, cr)
	}
	for i := range gr {
		if gc[i] != gr[i] {
			t.Fatalf("greedy groups diverge: %v vs %v", gc, gr)
		}
	}
	// The cancelled set remains usable: growing it further must pick up
	// exactly where the sequential stream left off.
	target := cancelled.Len() + 1000
	cancelled.GrowTo(target)
	ref.GrowTo(target)
	if cancelled.CoveredBy(gr) != ref.CoveredBy(gr) {
		t.Fatal("post-cancellation growth diverged from the sequential stream")
	}
}

func TestGrowToCtxPreCancelled(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, xrand.New(2))
	s := NewBidirectionalSet(g, xrand.New(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.GrowToCtx(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("pre-cancelled growth drew %d samples", s.Len())
	}
	// A no-op growth request succeeds even under a cancelled context.
	if err := s.GrowToCtx(ctx, 0); err != nil {
		t.Fatalf("no-op growth errored: %v", err)
	}
}

func TestGrowToCtxDeadlineSequential(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, xrand.New(4))
	s := NewBidirectionalSet(g, xrand.New(5))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.GrowToCtx(ctx, 50_000_000)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sequential growth ignored deadline for %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if s.Len()%GrowChunk != 0 {
		t.Fatalf("partial chunk committed: %d", s.Len())
	}
}

// panicAfter panics on the n-th draw; earlier draws report unreachable.
type panicAfter struct{ calls, n int }

func (p *panicAfter) Sample(s, t int32, r *xrand.Rand) bfs.Sample {
	p.calls++
	if p.calls >= p.n {
		panic("injected sampler fault")
	}
	return bfs.Sample{Reachable: false}
}

func TestGrowToCtxRecoversWorkerPanic(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, xrand.New(6))
	s := NewFactorySet(g, func(*graph.Graph) PairSampler { return &panicAfter{n: 10} }, xrand.New(7))
	s.Workers = 4
	err := s.GrowToCtx(context.Background(), 10000)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "injected sampler fault" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if s.Len() != 0 {
		t.Fatalf("failed chunk was partially committed: Len = %d", s.Len())
	}
}

// TestGrowToRethrowsWorkerPanic pins the context-free API's behavior: with
// no context to absorb the fault, GrowTo re-raises the recovered panic on
// the calling goroutine (instead of crashing the process from a worker).
func TestGrowToRethrowsWorkerPanic(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, xrand.New(8))
	s := NewFactorySet(g, func(*graph.Graph) PairSampler { return &panicAfter{n: 10} }, xrand.New(9))
	s.Workers = 2
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected GrowTo to re-panic")
		}
		if _, ok := v.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", v)
		}
	}()
	s.GrowTo(10000)
}
