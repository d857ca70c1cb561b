package server

import (
	"container/list"
	"sync"

	"gbc/internal/core"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/wire"
)

// A sample family is the serving layer's one reuse structure: everything
// an entry keeps from past runs on one (seed, sampler kind). AdaAlg grows
// its sets along L_q = θ·b^q and every sample index draws from its own RNG
// stream, so every run on one (graph version, seed, sampler) — whatever
// its algorithm, K or stopping iteration — reads a prefix of the same
// per-slot streams. A family therefore owns
//
//   - its sample sets (slot 0 is every algorithm's S, slot 1 AdaAlg's T),
//     bound to a graph version: a solve rewinds them and draws only past
//     the longest earlier run, and a PATCH repairs them forward;
//   - a memo of converged answers per (algorithm, K, γ, version) that
//     answers any request its ε dominates;
//   - the in-flight runs, which identical requests wait on without taking
//     a scheduler slot.
//
// All families of a registry share one byte budget (Config.SampleBytes):
// once the retained samples exceed it, the least recently used idle
// families are dropped whole.

// familyKey names a family within an entry. The seed fixes every set's
// per-index streams; the graph fixes the sampler kind (sampling.NewSetFor).
type familyKey struct{ seed uint64 }

// familyKeyFor normalizes defaulted fields (Seed 0 solves as 1 —
// Options.withDefaults), so explicit and implicit defaults share a family.
func familyKeyFor(opts core.Options) familyKey {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return familyKey{seed: seed}
}

// memoKey identifies which memo answers may stand in for a request: every
// answer-determining option the family key leaves open except ε, plus
// the graph version the run observed, so an answer on an older version
// never serves a newer one. A run converged at ε' answers any request at
// ε ≥ ε' with the same key.
type memoKey struct {
	algorithm core.Algorithm
	k         int
	gamma     float64
	version   int
}

func memoKeyFor(opts core.Options, version int) memoKey {
	return memoKey{algorithm: opts.Algorithm, k: opts.K, gamma: effectiveGamma(opts), version: version}
}

// memoEntry is the tightest (smallest-ε) converged answer for a key. Only
// converged answers enter the memo: a partial run carries no guarantee at
// its ε, so it dominates nothing.
type memoEntry struct {
	epsilon float64
	res     wire.Result
}

// runKey identifies identical in-flight requests within a family:
// everything that changes the response, including the graph version
// observed at admission — a request racing ahead of a PATCH and one
// landing after it must not share a run. The worker count is excluded
// because growth is bit-identical at every worker count, and so are
// deadlines: the leader's deadline governs the shared run.
type runKey struct {
	version   int
	algorithm core.Algorithm
	k         int
	epsilon   float64
	gamma     float64
	trace     bool
}

func runKeyFor(opts core.Options, version int) runKey {
	return runKey{
		version: version, algorithm: opts.Algorithm, k: opts.K,
		epsilon: effectiveEpsilon(opts), gamma: effectiveGamma(opts),
		trace: opts.CollectTrace,
	}
}

// flightResult is what the waiters on a run share: on success the
// response value (each waiter marshals its own copy, so the leader can
// report servedFrom "solve" and followers "coalesced"), on a non-200
// outcome pre-rendered error bytes, or an error for the shed/failed paths.
type flightResult struct {
	resp    *topkResponse // success; nil when errBody or err is set
	errBody []byte        // rendered non-2xx body (e.g. the 504 shape)
	status  int
	err     error
}

// flight is one in-flight run.
type flight struct {
	done chan struct{}
	res  flightResult
}

// Byte charges for a family's bookkeeping on top of its samples, so that
// families without samples (algorithms that build their own sets) and
// large memos count against the budget too.
const (
	familyOverheadBytes = 1 << 10
	memoEntryBytes      = 1 << 9
)

// family is the state of one familyKey; see the top of this file.
type family struct {
	entry *Entry
	key   familyKey

	// run serializes the solves that draw through sets (sampling.Set is
	// single-owner). bound is the version the sets are drawn against; the
	// family holds a reference on it.
	run   sync.Mutex
	sets  []*sampling.Set
	bound *version

	// mu guards memo and flights. It is never held across a solve, so a
	// memo lookup answers instantly while a run is in flight.
	mu      sync.Mutex
	memo    map[memoKey]memoEntry
	flights map[runKey]*flight

	// Budget state, guarded by the registry's famMu. users counts the
	// requests holding the family; eviction skips it while any do. A
	// dropped family is out of its entry's map and the LRU; its last user
	// drops its sets.
	elem     *list.Element
	setBytes int64 // footprint of the sets after the last solve
	bytes    int64 // charged against the budget
	users    int
	dropped  bool
}

// do runs fn once per key at a time. The caller that finds no run in
// flight becomes the leader and executes fn; every concurrent caller with
// the same key waits for the leader's result instead, without a scheduler
// slot (counted on the runs-coalesced metric, so N identical requests
// advance it by N-1). shared reports whether this caller was a follower.
// Nothing outlives the run: the first call after it completes starts a
// fresh one.
func (f *family) do(key runKey, m *obs.Metrics, fn func() flightResult) (res flightResult, shared bool) {
	f.mu.Lock()
	if c, ok := f.flights[key]; ok {
		f.mu.Unlock()
		m.IncCoalesced()
		<-c.done
		return c.res, true
	}
	c := &flight{done: make(chan struct{})}
	if f.flights == nil {
		f.flights = make(map[runKey]*flight)
	}
	f.flights[key] = c
	f.mu.Unlock()

	c.res = fn()

	f.mu.Lock()
	delete(f.flights, key)
	f.mu.Unlock()
	close(c.done)
	return c.res, false
}

// store records a converged answer at eps, keeping only the tightest ε per
// key (a smaller ε dominates strictly more requests). An answer computed
// on a version a PATCH has since superseded is dropped: its key could
// never be looked up again.
func (f *family) store(key memoKey, eps float64, res wire.Result) {
	if key.version != f.entry.CurrentVersion() {
		return
	}
	// Traces are per-request decoration, not part of the dominance
	// contract; strip them so a memo answer to a no-trace request doesn't
	// smuggle one in.
	res.Trace = nil
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.memo[key]; ok && cur.epsilon <= eps {
		return
	}
	if f.memo == nil {
		f.memo = make(map[memoKey]memoEntry)
	}
	f.memo[key] = memoEntry{epsilon: eps, res: res}
}

// prepare binds the family's sets to the version a solve is about to run
// on. Sets left behind by a patch are repaired forward through the
// recorded delta chain — every stored sample is migrated, only those whose
// observation region a delta touched are re-drawn, and the arenas and
// lanes are retained — or, when the chain is pruned or a set does not
// support repair (weighted Dijkstra sampling), dropped to rebuild cold
// inside the solve. Called under f.run.
func (f *family) prepare(v *version, workers int, metrics *obs.Metrics) {
	if f.bound == v {
		return
	}
	if f.bound != nil && len(f.sets) > 0 {
		d, ok := f.entry.deltaChain(f.bound.num, v.num)
		if ok {
			for _, s := range f.sets {
				// The set still holds the last request's lane cap and
				// metrics sink; repair under this request's.
				s.Workers = workers
				s.Metrics = metrics
				if _, err := s.Repair(v.g, d); err != nil {
					ok = false
					break
				}
			}
		}
		if !ok {
			// A failed repair may leave earlier sets already migrated;
			// dropping them all is always safe — the solve rebuilds them
			// cold on v.g.
			f.sets = nil
		}
	}
	if f.bound != nil {
		f.bound.release(f.entry.metrics)
	}
	f.bound = v
	v.acquire()
}

// dropSets releases the family's samples and its version binding. Only
// the family's last user, or the budget holding it idle, calls it.
func (f *family) dropSets() {
	if f.bound != nil {
		f.bound.release(f.entry.metrics)
		f.bound = nil
	}
	f.sets = nil
}

// acquireFamily returns the entry's family for key, creating it if
// needed, and holds it against eviction until releaseFamily.
func (e *Entry) acquireFamily(key familyKey) *family {
	r := e.reg
	r.famMu.Lock()
	defer r.famMu.Unlock()
	f := e.families[key]
	if f == nil {
		f = &family{entry: e, key: key}
		e.families[key] = f
	}
	f.users++
	return f
}

// releaseFamily ends a hold taken by acquireFamily. It charges the
// family's current bytes against the budget, marks it most recently used,
// and drops least recently used idle families until the budget holds; a
// family dropped while held loses its sets with its last user.
func (e *Entry) releaseFamily(f *family) {
	r := e.reg
	r.famMu.Lock()
	f.users--
	var drop []*family
	if f.dropped {
		if f.users == 0 {
			drop = append(drop, f)
		}
	} else {
		r.chargeLocked(f)
	}
	for el := r.famLRU.Back(); el != nil && r.famBytes > r.famBudget; {
		victim := el.Value.(*family)
		el = el.Prev()
		if victim.users == 0 {
			r.dropLocked(victim)
			r.metrics.FamilyEviction()
			drop = append(drop, victim)
		}
	}
	r.famMu.Unlock()
	for _, d := range drop {
		d.dropSets()
	}
}

// chargeLocked brings f's budget charge up to date and moves it to the
// front of the LRU. Called under famMu.
func (r *Registry) chargeLocked(f *family) {
	f.mu.Lock()
	memo := len(f.memo)
	f.mu.Unlock()
	b := f.setBytes + familyOverheadBytes + int64(memo)*memoEntryBytes
	r.famBytes += b - f.bytes
	r.metrics.AddFamilyBytes(b - f.bytes)
	f.bytes = b
	if f.elem == nil {
		f.elem = r.famLRU.PushFront(f)
	} else {
		r.famLRU.MoveToFront(f.elem)
	}
}

// dropLocked takes f out of its entry and the LRU and returns its charge.
// Its sets stay until its last user (or the caller, when it has none)
// calls dropSets. Called under famMu.
func (r *Registry) dropLocked(f *family) {
	delete(f.entry.families, f.key)
	if f.elem != nil {
		r.famLRU.Remove(f.elem)
		f.elem = nil
	}
	r.famBytes -= f.bytes
	r.metrics.AddFamilyBytes(-f.bytes)
	f.bytes = 0
	f.dropped = true
}

// Dominating returns a memo answer that ε-dominates a request — same
// family and memo key (including graph version), memo ε ≤ eps — or ok
// false. It backs the reuse path of freshness "any" requests. A hit marks
// the family most recently used.
func (e *Entry) Dominating(fk familyKey, mk memoKey, eps float64) (wire.Result, bool) {
	r := e.reg
	r.famMu.Lock()
	f := e.families[fk]
	if f != nil && f.elem != nil {
		r.famLRU.MoveToFront(f.elem)
	}
	r.famMu.Unlock()
	if f == nil {
		return wire.Result{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.memo[mk]
	if !ok || c.epsilon > eps {
		return wire.Result{}, false
	}
	return c.res, true
}
