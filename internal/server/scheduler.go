package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gbc/internal/faultinject"
)

// ErrQueueFull rejects a submission when the run queue is at capacity;
// the HTTP layer maps it to 429 Too Many Requests with a Retry-After
// computed from the drain rate.
var ErrQueueFull = errors.New("server: run queue full")

// ErrDraining rejects a submission after Shutdown began; the HTTP layer
// maps it to 503 Service Unavailable.
var ErrDraining = errors.New("server: scheduler draining")

// Scheduler bounds solver concurrency and arbitrates overload: one pool of
// workers over one bounded queue. Runs queue per tenant, and workers
// dequeue round-robin across the tenants with queued runs, so one flooding
// tenant delays only itself. Admission fails fast on a full queue
// (ErrQueueFull) and after Shutdown (ErrDraining) — adaptive sampling stops
// when its error rule fires, not after a sample count known in advance, so
// a bounded queue is the protection against pile-ups.
//
// Every run executes under a context derived from both the request's
// deadline and the scheduler's base context; Shutdown first stops
// admissions, then (when the grace period expires) cancels the base
// context, at which point queued and in-flight runs return their
// best-so-far partial results through the solvers' StopReason machinery
// rather than being killed.
type Scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	draining bool

	depth   int
	queued  int
	pending int // queued + running runs, the backlog RetryAfter drains
	// tenants holds a FIFO for every tenant with queued runs, and rotation
	// orders those same FIFOs for the round robin; a FIFO leaves both when
	// it empties, so client-chosen tenant names never accumulate.
	tenants  map[string]*tenantQ
	rotation []*tenantQ
	drain    drainTracker // guarded by mu

	metrics metricsSink

	base       context.Context
	cancelBase context.CancelFunc
	workers    sync.WaitGroup
}

// SchedulerConfig sizes a Scheduler. Zero Workers or Depth get 1.
type SchedulerConfig struct {
	Workers, Depth int
	Metrics        metricsSink
}

// metricsSink is the slice of obs.Metrics the scheduler updates; an
// interface so tests can observe transitions without the real type.
type metricsSink interface {
	QueueDepth(delta int)
}

type noopMetrics struct{}

func (noopMetrics) QueueDepth(int) {}

type task struct {
	ctx  context.Context
	fn   func(ctx context.Context)
	done chan struct{}
	err  error // a recovered panic from fn, surfaced to Do's caller
}

// tenantQ is one tenant's FIFO of queued runs.
type tenantQ struct {
	name  string
	tasks []*task
}

// NewScheduler starts a scheduler per cfg.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = noopMetrics{}
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		depth:      cfg.Depth,
		tenants:    make(map[string]*tenantQ),
		metrics:    cfg.Metrics,
		base:       base,
		cancelBase: cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// enqueue appends t to tenant's FIFO; a tenant with nothing queued joins
// the back of the rotation. Caller must hold s.mu.
func (s *Scheduler) enqueue(tenant string, t *task) {
	q := s.tenants[tenant]
	if q == nil {
		q = &tenantQ{name: tenant}
		s.tenants[tenant] = q
		s.rotation = append(s.rotation, q)
	}
	q.tasks = append(q.tasks, t)
	s.queued++
}

// dequeue pops the next task round-robin: the tenant at the front of the
// rotation gives up its oldest task and moves to the back, or leaves the
// rotation and the map once its FIFO is empty. Caller must hold s.mu and
// have checked s.queued > 0.
func (s *Scheduler) dequeue() *task {
	q := s.rotation[0]
	s.rotation[0] = nil
	s.rotation = s.rotation[1:]
	t := q.tasks[0]
	q.tasks[0] = nil // let the task be collected once done
	q.tasks = q.tasks[1:]
	if len(q.tasks) > 0 {
		s.rotation = append(s.rotation, q)
	} else {
		delete(s.tenants, q.name)
	}
	s.queued--
	return t
}

// worker serves the queue until it is drained dry during shutdown.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 { // draining and nothing left
			s.mu.Unlock()
			return
		}
		t := s.dequeue()
		s.metrics.QueueDepth(-1)
		s.mu.Unlock()

		if faultinject.Enabled {
			faultinject.Fire(faultinject.SchedulerDrainDuringDequeue)
		}
		s.runTask(t)

		s.mu.Lock()
		s.pending--
		s.drain.observe(time.Now())
		s.mu.Unlock()
		close(t.done)
	}
}

// runTask executes one task under the merged request + scheduler-base
// context. A panic out of fn (the solvers recover their own worker panics,
// so this is a last-resort backstop) is captured onto the task instead of
// wedging the worker goroutine.
func (s *Scheduler) runTask(t *task) {
	// Merge the request context with the scheduler's base: the run stops at
	// whichever cancels first, so a drain grace expiry turns every queued
	// and in-flight run into a prompt partial result.
	ctx, cancel := context.WithCancel(t.ctx)
	stop := context.AfterFunc(s.base, cancel)
	defer func() {
		stop()
		cancel()
		if v := recover(); v != nil {
			t.err = fmt.Errorf("server: run panicked: %v", v)
		}
	}()
	t.fn(ctx)
}

// Do enqueues fn on tenant's FIFO and blocks until a worker has run it to
// completion. ctx carries the request's deadline; fn receives a context
// that additionally respects the scheduler's drain state. Do fails fast
// with ErrQueueFull on a full queue and ErrDraining after Shutdown began.
func (s *Scheduler) Do(ctx context.Context, tenant string, fn func(ctx context.Context)) error {
	if faultinject.Enabled {
		if faultinject.Fire(faultinject.SchedulerQueueFull) != nil {
			return ErrQueueFull
		}
	}
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	if s.queued >= s.depth {
		s.mu.Unlock()
		return ErrQueueFull
	}
	s.pending++
	s.enqueue(tenant, t)
	// Gauge moves under the lock so a worker's matching -1 (which needs the
	// lock to dequeue) can never be observed first.
	s.metrics.QueueDepth(+1)
	s.mu.Unlock()
	s.cond.Signal()
	<-t.done
	return t.err
}

// Draining reports whether Shutdown has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Queued returns the queued-run count and the queue's capacity — the
// readiness signal /readyz compares against the shed threshold.
func (s *Scheduler) Queued() (queued, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.depth
}

// RetryAfter estimates how long a rejected client should back off: the
// runs queued or running divided by the observed drain rate, clamped to
// [1s, 5m].
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain.retryAfter(s.pending)
}

// Shutdown drains the scheduler: new submissions fail with ErrDraining
// immediately, while queued and in-flight runs continue. When ctx is
// cancelled (the drain grace period), the scheduler cancels every
// remaining run's context so the solvers return best-so-far partial
// results; Shutdown returns once all workers have exited. It is
// idempotent.
func (s *Scheduler) Shutdown(ctx context.Context) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
	if already {
		s.workers.Wait()
		return
	}
	// Propagate the grace deadline to in-flight runs.
	stop := context.AfterFunc(ctx, s.cancelBase)
	s.workers.Wait()
	stop()
	s.cancelBase()
}

// drainTracker estimates the scheduler's service rate in runs per second —
// an exponentially weighted average over completed runs — so a 429 can
// carry a Retry-After computed from how long the current backlog will take
// to drain instead of a blind constant. The scheduler's lock guards it.
type drainTracker struct {
	rate float64 // EWMA runs/sec; 0 until the first completion
	last time.Time
}

// ewmaAlpha weighs the newest completion ~1/4; a few completions are
// enough to converge after a workload shift without one outlier run
// whipsawing the estimate.
const ewmaAlpha = 0.25

// observe records one completed run.
func (d *drainTracker) observe(now time.Time) {
	if d.last.IsZero() {
		d.last = now
		// First completion: no interval to rate yet; seed with one run per
		// nominal second so RetryAfter has something.
		d.rate = 1
		return
	}
	dt := now.Sub(d.last).Seconds()
	d.last = now
	if dt <= 0 {
		dt = 1e-3
	}
	inst := 1 / dt
	d.rate = ewmaAlpha*inst + (1-ewmaAlpha)*d.rate
}

// retryAfter converts a backlog of pending runs into a client backoff
// hint, clamped to [1s, 5m]. With no completions observed yet the floor
// applies.
func (d *drainTracker) retryAfter(pending int) time.Duration {
	if d.rate <= 0 || pending <= 0 {
		return time.Second
	}
	secs := float64(pending) / d.rate
	switch {
	case secs < 1:
		return time.Second
	case secs > 300:
		return 5 * time.Minute
	}
	return time.Duration(secs * float64(time.Second))
}
