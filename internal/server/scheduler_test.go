package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbc/internal/obs"
)

// countSink observes queue transitions without a real obs.Metrics.
type countSink struct{ depth atomic.Int64 }

func (c *countSink) QueueDepth(delta int) { c.depth.Add(int64(delta)) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerQueueFull pins the admission-control contract with one
// worker and one queue slot: a running task plus a queued task exhaust
// capacity, so a third submission fails fast with ErrQueueFull.
func TestSchedulerQueueFull(t *testing.T) {
	sink := &countSink{}
	s := NewScheduler(SchedulerConfig{Workers: 1, Depth: 1, Metrics: sink})
	defer s.Shutdown(context.Background())

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Do(context.Background(), Job{}, func(context.Context) {
			close(started)
			<-release
		})
	}()
	<-started // worker occupied, queue empty

	go func() {
		defer wg.Done()
		s.Do(context.Background(), Job{}, func(context.Context) {})
	}()
	waitFor(t, "second task to queue", func() bool { return sink.depth.Load() == 1 })

	if err := s.Do(context.Background(), Job{}, func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	close(release)
	wg.Wait()
	if d := sink.depth.Load(); d != 0 {
		t.Fatalf("queue depth gauge did not return to 0: %d", d)
	}
}

// TestSchedulerDeadlinePropagation: the context a task runs under carries
// the submitter's deadline.
func TestSchedulerDeadlinePropagation(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Depth: 1})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var sawDeadline atomic.Bool
	err := s.Do(ctx, Job{}, func(runCtx context.Context) {
		<-runCtx.Done()
		sawDeadline.Store(errors.Is(runCtx.Err(), context.Canceled) ||
			errors.Is(runCtx.Err(), context.DeadlineExceeded))
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !sawDeadline.Load() {
		t.Fatal("task never saw the submitter's deadline")
	}
}

// TestSchedulerShutdown: draining rejects new work with ErrDraining,
// cancels in-flight runs when the grace period expires, and returns only
// after every worker exited. A second Shutdown is a no-op.
func TestSchedulerShutdown(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Depth: 2})

	started := make(chan struct{})
	var sawCancel atomic.Bool
	go s.Do(context.Background(), Job{}, func(runCtx context.Context) {
		close(started)
		<-runCtx.Done() // only the drain grace can end this run
		sawCancel.Store(true)
	})
	<-started

	grace, cancelGrace := context.WithCancel(context.Background())
	cancelGrace() // zero grace: cut straight to cancellation
	done := make(chan struct{})
	go func() {
		s.Shutdown(grace)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
	if !sawCancel.Load() {
		t.Fatal("in-flight run was not cancelled by the drain grace")
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Shutdown")
	}
	if err := s.Do(context.Background(), Job{}, func(context.Context) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after Shutdown, got %v", err)
	}
	s.Shutdown(context.Background()) // idempotent
}

// TestSchedulerOverCapacity pins cost-based admission: with MaxCost 100,
// a running 60-cost job leaves room for 30 but not another 60, and
// capacity frees once the first job completes.
func TestSchedulerOverCapacity(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Depth: 4, MaxCost: 100})
	defer s.Shutdown(context.Background())

	started := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), Job{Cost: 60}, func(context.Context) {
		close(started)
		<-release
	})
	<-started

	if err := s.Do(context.Background(), Job{Cost: 60}, func(context.Context) {}); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("want ErrOverCapacity at 60+60 > 100, got %v", err)
	}
	if err := s.Do(context.Background(), Job{Cost: 30}, func(context.Context) {}); err != nil {
		t.Fatalf("30-cost job should fit under the 60-cost job: %v", err)
	}
	close(release)
	// The 60-cost slot frees after its worker finishes; retry until then.
	waitFor(t, "capacity to free", func() bool {
		return s.Do(context.Background(), Job{Cost: 60}, func(context.Context) {}) == nil
	})
	if ra := s.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter below the 1s floor: %v", ra)
	}
}

// TestSchedulerFastLane: with the normal lane wedged and full, a FastLane
// job still runs — the two lanes have independent workers and queues.
func TestSchedulerFastLane(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Depth: 1, FastWorkers: 1, FastDepth: 1})
	defer s.Shutdown(context.Background())

	wedged := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go s.Do(context.Background(), Job{}, func(context.Context) {
		close(wedged)
		<-release
	})
	<-wedged
	go s.Do(context.Background(), Job{}, func(context.Context) {}) // fills the normal queue
	waitFor(t, "normal lane to fill", func() bool {
		q, d := s.QueuedNormal()
		return q == d
	})

	done := make(chan error, 1)
	go func() {
		done <- s.Do(context.Background(), Job{FastLane: true}, func(context.Context) {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fast-lane job failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast-lane job stuck behind the wedged normal lane")
	}
}

// TestSchedulerTenantFairness: one worker, tenant A floods 8 tasks first,
// tenant B adds 2 — the weighted round robin must interleave B's tasks
// instead of running A's whole backlog first.
func TestSchedulerTenantFairness(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Depth: 32})
	defer s.Shutdown(context.Background())

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(tenant string) {
		defer wg.Done()
		s.Do(context.Background(), Job{Tenant: tenant}, func(context.Context) {
			<-gate
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		})
	}
	// Wedge the single worker so every later submission queues behind it.
	wedged := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(context.Background(), Job{Tenant: "A"}, func(context.Context) { close(wedged); <-gate })
	}()
	<-wedged
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go submit("A")
	}
	waitFor(t, "A's backlog to queue", func() bool { q, _ := s.QueuedNormal(); return q == 8 })
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go submit("B")
	}
	waitFor(t, "B's tasks to queue", func() bool { q, _ := s.QueuedNormal(); return q == 10 })
	close(gate)
	wg.Wait()

	// With equal weights the rotation alternates A,B,A,B,… while both have
	// work: B's second task must run well before A's backlog is done.
	lastB := -1
	for i, tenant := range order {
		if tenant == "B" {
			lastB = i
		}
	}
	if lastB == -1 || lastB >= len(order)-2 {
		t.Fatalf("tenant B starved behind A's backlog: order %v", order)
	}
}

// TestSchedulerShutdownStress races Shutdown against a storm of concurrent
// submissions and drains (run under -race in CI). Every Do must return nil
// or a typed admission error — never panic, never hang — and in-flight
// runs must observe the grace cancellation rather than being abandoned.
func TestSchedulerShutdownStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewScheduler(SchedulerConfig{Workers: 2, Depth: 4, FastWorkers: 1, FastDepth: 2, MaxCost: 1000})
		var wg sync.WaitGroup
		var ran, cancelled atomic.Int64
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := s.Do(context.Background(), Job{
					Tenant:   string(rune('A' + i%3)),
					Cost:     float64(i%5) * 10,
					FastLane: i%2 == 0,
				}, func(ctx context.Context) {
					ran.Add(1)
					select {
					case <-ctx.Done():
						cancelled.Add(1)
					case <-time.After(time.Duration(i%3) * time.Millisecond):
					}
				})
				if err != nil && !errors.Is(err, ErrDraining) &&
					!errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrOverCapacity) {
					t.Errorf("Do returned unexpected error: %v", err)
				}
			}(i)
		}
		grace, cancelGrace := context.WithTimeout(context.Background(), 2*time.Millisecond)
		done := make(chan struct{})
		go func() {
			s.Shutdown(grace)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown hung under concurrent submissions")
		}
		wg.Wait()
		cancelGrace()
		if !s.Draining() {
			t.Fatal("Draining() false after Shutdown")
		}
	}
}

// TestFlightGroupCoalesces pins exact coalescing on a family's in-flight
// runs with controlled timing: one leader blocks inside fn while N-1
// joiners arrive, so all share one execution and the coalesced counter
// advances by exactly N-1.
func TestFlightGroupCoalesces(t *testing.T) {
	f := &family{}
	m := &obs.Metrics{}
	key := runKey{version: 1, k: 3, epsilon: 0.3, gamma: 0.01}

	var runs atomic.Int64
	inFn := make(chan struct{})
	release := make(chan struct{})
	leaderRes := flightResult{resp: &topkResponse{Graph: "g"}, status: 200}

	const joiners = 7
	var wg sync.WaitGroup
	results := make([]flightResult, joiners)
	go func() {
		f.do(key, nil, func() flightResult {
			runs.Add(1)
			close(inFn)
			<-release
			return leaderRes
		})
	}()
	<-inFn
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = f.do(key, m, func() flightResult {
				runs.Add(1)
				return flightResult{status: 500}
			})
		}(i)
	}
	// Each joiner bumps the coalesced counter before parking on the
	// leader's done channel, so the counter reaching N-1 proves every
	// joiner found the in-flight call; only then release the leader.
	waitFor(t, "joiners to park", func() bool {
		return m.Snapshot().RunsCoalesced == joiners
	})
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, r := range results {
		if r.status != 200 || r.resp == nil || r.resp.Graph != "g" {
			t.Fatalf("joiner %d got %+v, want the leader's result", i, r)
		}
	}

	// After completion the key is gone: the next call is a fresh run.
	r, shared := f.do(key, nil, func() flightResult {
		runs.Add(1)
		return flightResult{status: 201}
	})
	if shared {
		t.Fatal("post-completion call reported shared")
	}
	if r.status != 201 || runs.Load() != 2 {
		t.Fatalf("post-completion call did not run fresh: %+v runs=%d", r, runs.Load())
	}
}
