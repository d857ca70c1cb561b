package server

import (
	"sync"

	"gbc/internal/core"
	"gbc/internal/obs"
)

// flightKey identifies requests that must coalesce: everything that
// changes the computed answer, including the graph version observed at
// admission — a request racing ahead of a PATCH and one landing after it
// must not share a run. The worker count is excluded because sample
// growth is bit-identical at every worker count. Deadlines are
// deliberately excluded — the leader's deadline governs the shared run, so
// a follower may receive a partial result earlier than its own deadline
// required; identical load spikes are exactly when that trade is worth it.
type flightKey struct {
	graph     string
	version   int
	algorithm core.Algorithm
	k         int
	epsilon   float64
	gamma     float64
	seed      uint64
	forward   bool
	trace     bool
}

// flightResult is what waiters share: on success the response value (each
// waiter marshals its own copy, so the leader can report servedFrom
// "solve" and followers "coalesced"), on a non-200 outcome pre-rendered
// error bytes, or an error for the shed/failed paths.
type flightResult struct {
	resp    *topkResponse // success; nil when errBody or err is set
	errBody []byte        // rendered non-2xx body (e.g. the 504 shape)
	status  int
	err     error
}

type flightCall struct {
	done chan struct{}
	res  flightResult
}

// flightGroup coalesces concurrent identical requests into one solver run
// whose result fans out to every waiter — a hand-rolled single-flight (the
// module deliberately sticks to the standard library). Unlike a cache,
// nothing outlives the call: the first request after completion starts a
// fresh run.
type flightGroup struct {
	mu    sync.Mutex
	calls map[flightKey]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[flightKey]*flightCall)}
}

// do runs fn once per key at a time. The caller that finds no in-flight
// call becomes the leader and executes fn; every concurrent caller with
// the same key waits for the leader's result instead (counted on the
// runs-coalesced metric, so N identical requests advance it by N-1).
// shared reports whether this caller was a follower.
func (f *flightGroup) do(key flightKey, m *obs.Metrics, fn func() flightResult) (res flightResult, shared bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		m.IncCoalesced()
		<-c.done
		return c.res, true
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.res = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.res, false
}
