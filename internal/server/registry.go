// Package server is the serving subsystem behind the gbcd daemon: a graph
// registry that keeps named graphs resident together with their sample
// families (stored samples, a memo of converged answers and the in-flight
// runs per seed — family.go), and a bounded run scheduler that maps
// request deadlines onto the solvers' context machinery. The HTTP/JSON
// surface in server.go exposes both behind a stable wire API
// (internal/wire).
package server

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"gbc/internal/core"
	"gbc/internal/faultinject"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// Registry holds named resident graphs, LRU-bounded. Each entry owns the
// sample families of past runs (family.go), so a query draws only the
// samples no earlier run on its family drew. All families share one byte
// budget with its own LRU; evicting a graph drops its families with it.
type Registry struct {
	mu      sync.Mutex
	cap     int
	metrics *obs.Metrics
	entries map[string]*Entry
	order   *list.List // front = most recently used

	// famMu guards every entry's family map, the families' budget state,
	// the family LRU and famBytes. It is never held across a solve.
	famMu     sync.Mutex
	famLRU    *list.List // of *family, front = most recently used
	famBytes  int64
	famBudget int64
}

// version is one immutable snapshot of an entry's graph. A PATCH produces
// a new version and retires the old one; the retired snapshot's backing
// storage (the mmap of a .gbcsr-loaded base version — patched versions are
// always heap-built) is released once the last in-flight solve on it
// finishes. Every solve pins the version it runs on with acquire/release,
// so a patch landing mid-solve never unmaps memory the solver is reading.
type version struct {
	num     int
	g       *graph.Graph
	created time.Time

	mu        sync.Mutex
	refs      int
	retired   bool // no longer the entry's current version (or entry dead)
	closeOnce sync.Once
}

func (v *version) acquire() {
	v.mu.Lock()
	v.refs++
	v.mu.Unlock()
}

func (v *version) release(m *obs.Metrics) {
	v.mu.Lock()
	v.refs--
	last := v.refs == 0 && v.retired
	v.mu.Unlock()
	if last {
		v.close(m)
	}
}

// retire marks the version dead; storage closes now if nothing holds it,
// otherwise when the last release comes in. Idempotent.
func (v *version) retire(m *obs.Metrics) {
	v.mu.Lock()
	v.retired = true
	idle := v.refs == 0
	v.mu.Unlock()
	if idle {
		v.close(m)
	}
}

// close releases the snapshot's backing storage exactly once and settles
// the mapped-bytes gauge. Heap-built graphs close as a no-op.
func (v *version) close(m *obs.Metrics) {
	v.closeOnce.Do(func() {
		m.AddGraphBytesMapped(-v.g.MappedBytes())
		v.g.Close()
	})
}

// versionInfo is the per-version line of an entry's history, served by
// GET /v1/graphs/{name}.
type versionInfo struct {
	Version  int       `json:"version"`
	Created  time.Time `json:"created"`
	Inserted int       `json:"inserted,omitempty"`
	Deleted  int       `json:"deleted,omitempty"`
	Edges    int       `json:"edges"`
}

// maxDeltaChain bounds how many versions behind a family's sets may fall
// and still be repaired forward: deltas older than that are pruned and the
// sets rebuild cold instead. Keeps per-entry delta memory O(chain).
const maxDeltaChain = 16

// Entry is one resident graph under a stable name, holding a chain of
// immutable versions (PATCH /v1/graphs/{name} appends one) and one sample
// family per (seed, sampler kind) served. Runs on the same family
// serialize on the family (sampling.Set is single-owner state); runs on
// different families or graphs proceed in parallel, bounded only by the
// scheduler.
//
// Two reference counts keep storage safe. The entry-level count (Get /
// Release) pins the entry across a whole request, so eviction never closes
// anything a handler still touches. The per-version count pins the exact
// snapshot a solve runs on, so a PATCH retiring the old version only
// unmaps it after in-flight solves on it finish.
type Entry struct {
	Name string
	// Desc says where the graph came from ("dataset GrQc scale 0.1", …).
	Desc string
	// Created is when the graph was registered.
	Created time.Time

	// Shard, when non-nil, routes cacheable solves' sample growth through
	// the shard cluster: the workers draw disjoint index ranges against the
	// graph they resolve under ShardKey (the shared-storage .gbcsr path),
	// and the coordinator merges the arenas in global index order —
	// bit-identical to local growth. Only version 1 solves shard: a patched
	// entry diverges from the on-disk file the workers see, so later
	// versions quietly fall back to local growth. Both fields are set once
	// at registration, before the first solve.
	Shard    *shard.Cluster
	ShardKey string

	elem *list.Element

	// Shape fields. Node count, directedness and weightedness are fixed
	// for the entry's lifetime (deltas are edge-only); the edge count and
	// current version change under verMu.
	nodes              int
	directed, weighted bool

	metrics *obs.Metrics
	reg     *Registry

	// refMu guards the entry-level liveness state below; it is never held
	// while closing a version.
	refMu   sync.Mutex
	refs    int
	evicted bool

	// verMu guards the version chain: the current version, the bounded
	// delta chain keyed by from-version, the history and the mutable edge
	// count. Held only for pointer swaps, never across an ApplyDelta or a
	// solve; patchMu serializes whole patches so two concurrent PATCHes
	// cannot both apply against the same base.
	verMu    sync.Mutex
	patchMu  sync.Mutex
	cur      *version
	edges    int
	deltas   map[int]*graph.Delta
	versions []versionInfo

	// families is guarded by reg.famMu.
	families map[familyKey]*family
}

// defaultSampleBytes is the family byte budget when none is configured.
const defaultSampleBytes = 256 << 20

// NewRegistry returns an empty registry bounded to at most max resident
// graphs (min 1) whose sample families retain at most sampleBytes bytes
// (≤ 0 picks 256 MiB); m may be nil to disable metrics.
func NewRegistry(max int, sampleBytes int64, m *obs.Metrics) *Registry {
	if max < 1 {
		max = 1
	}
	if sampleBytes <= 0 {
		sampleBytes = defaultSampleBytes
	}
	return &Registry{
		cap:       max,
		metrics:   m,
		entries:   make(map[string]*Entry),
		order:     list.New(),
		famLRU:    list.New(),
		famBudget: sampleBytes,
	}
}

// Add registers g under name as version 1, evicting the least recently
// used graph when the registry is full. It fails if the name is already
// taken — a replacement must be a new name, an explicit Remove first, or a
// PATCH producing a new version of the resident graph.
func (r *Registry) Add(name, desc string, g *graph.Graph) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return nil, fmt.Errorf("server: graph %q already registered", name)
	}
	for len(r.entries) >= r.cap {
		oldest := r.order.Back()
		victim := oldest.Value.(*Entry)
		r.order.Remove(oldest)
		delete(r.entries, victim.Name)
		r.metrics.RegistryEviction()
		victim.evict()
	}
	now := time.Now()
	v := &version{num: 1, g: g, created: now}
	e := &Entry{
		Name: name, Desc: desc, Created: now,
		cur:      v,
		deltas:   make(map[int]*graph.Delta),
		families: make(map[familyKey]*family),
		nodes:    g.N(), edges: g.M(),
		directed: g.Directed(), weighted: g.Weighted(),
		metrics:  r.metrics,
		reg:      r,
		versions: []versionInfo{{Version: 1, Created: now, Edges: g.M()}},
	}
	r.metrics.AddGraphBytesMapped(g.MappedBytes())
	e.elem = r.order.PushFront(e)
	r.entries[name] = e
	return e, nil
}

// Get returns the named entry, marks it most recently used, and acquires
// a reference on it: the caller must pair every successful Get with
// exactly one Release once it is done touching the entry's graph. The
// reference keeps the entry's versions alive across a concurrent
// eviction.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if ok {
		r.order.MoveToFront(e.elem)
		e.refMu.Lock()
		e.refs++
		e.refMu.Unlock()
	}
	return e, ok
}

// Release returns the reference acquired by Registry.Get. If the entry
// was evicted while this reference was held and this is the last one, the
// entry's remaining storage (the mmap of a .gbcsr-loaded graph) is
// released now.
func (e *Entry) Release() {
	e.refMu.Lock()
	e.refs--
	last := e.refs == 0 && e.evicted
	e.refMu.Unlock()
	if last {
		e.shutDown()
	}
}

// evict marks the entry dead; its storage closes immediately when no
// references are held, otherwise when the last Release comes in.
func (e *Entry) evict() {
	e.refMu.Lock()
	e.evicted = true
	idle := e.refs == 0
	e.refMu.Unlock()
	if idle {
		e.shutDown()
	}
}

// shutDown retires the entry's current version and drops its families
// (their samples and version bindings; a family still held by a run loses
// them when that run releases it). Versions retired by earlier patches
// settle themselves through their own reference counts.
func (e *Entry) shutDown() {
	e.verMu.Lock()
	v := e.cur
	e.verMu.Unlock()
	r := e.reg
	var idle []*family
	r.famMu.Lock()
	for _, f := range e.families {
		r.dropLocked(f)
		if f.users == 0 {
			idle = append(idle, f)
		}
	}
	r.famMu.Unlock()
	for _, f := range idle {
		f.dropSets()
	}
	v.retire(e.metrics)
}

// Remove drops the named graph and its families. It reports whether the
// name was present. Like eviction, the backing storage is closed once the
// last outstanding reference is released.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return false
	}
	r.order.Remove(e.elem)
	delete(r.entries, name)
	r.mu.Unlock()
	e.evict()
	return true
}

// Len returns the number of resident graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// List returns a name-sorted snapshot of the resident entries.
func (r *Registry) List() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Graph returns the entry's current graph version. Callers hold an
// entry reference (Registry.Get), which keeps every version alive, so the
// returned graph stays readable even if a patch retires it concurrently.
func (e *Entry) Graph() *graph.Graph {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	return e.cur.g
}

// CurrentVersion returns the entry's current version number.
func (e *Entry) CurrentVersion() int {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	return e.cur.num
}

// Versions returns a copy of the entry's version history, oldest first.
func (e *Entry) Versions() []versionInfo {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	out := make([]versionInfo, len(e.versions))
	copy(out, e.versions)
	return out
}

// shape returns the entry's listing fields without touching graph memory,
// safe concurrently with patches and evictions.
func (e *Entry) shape() (nodes, edges, ver int) {
	e.verMu.Lock()
	defer e.verMu.Unlock()
	return e.nodes, e.edges, e.cur.num
}

// FamilyCount returns how many sample families the entry holds.
func (e *Entry) FamilyCount() int {
	e.reg.famMu.Lock()
	defer e.reg.famMu.Unlock()
	return len(e.families)
}

// MemoCount returns how many converged answers the entry's families
// memoize.
func (e *Entry) MemoCount() int {
	e.reg.famMu.Lock()
	defer e.reg.famMu.Unlock()
	n := 0
	for _, f := range e.families {
		f.mu.Lock()
		n += len(f.memo)
		f.mu.Unlock()
	}
	return n
}

// PatchConflictError reports an optimistic-concurrency failure: the
// request named an ifVersion that is no longer the entry's current
// version.
type PatchConflictError struct {
	Current int
}

func (e *PatchConflictError) Error() string {
	return fmt.Sprintf("server: graph version conflict, current version is %d", e.Current)
}

// PatchInfo reports a successful Patch.
type PatchInfo struct {
	FromVersion int
	Version     int
	Nodes       int
	Edges       int
}

// Patch applies an edge delta to the entry's current version, producing a
// new immutable current version. ifVersion non-zero demands the patch
// apply against exactly that version (409-style *PatchConflictError
// otherwise); zero means "whatever is current". The old version is
// retired — its storage closes once in-flight solves on it drain — and
// memo answers for older versions are dropped, so they can never answer a
// request again. The delta is recorded on a bounded chain so every
// family's samples lazily repair forward at its next solve instead of
// rebuilding cold.
//
// Patches to the same entry serialize; a patch does not wait for, or
// block, in-flight solves.
func (e *Entry) Patch(d *graph.Delta, ifVersion int) (PatchInfo, error) {
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	e.verMu.Lock()
	v := e.cur
	if ifVersion != 0 && ifVersion != v.num {
		e.verMu.Unlock()
		return PatchInfo{}, &PatchConflictError{Current: v.num}
	}
	v.acquire() // pin the base across ApplyDelta
	e.verMu.Unlock()

	ng, err := graph.ApplyDelta(v.g, d)
	if err != nil {
		v.release(e.metrics)
		return PatchInfo{}, err
	}
	nv := &version{num: v.num + 1, g: ng, created: time.Now()}

	e.verMu.Lock()
	e.cur = nv
	e.edges = ng.M()
	e.deltas[v.num] = d
	for k := range e.deltas {
		if k < nv.num-maxDeltaChain {
			delete(e.deltas, k)
		}
	}
	e.versions = append(e.versions, versionInfo{
		Version: nv.num, Created: nv.created,
		Inserted: len(d.Insert), Deleted: len(d.Delete), Edges: ng.M(),
	})
	e.verMu.Unlock()

	v.release(e.metrics)
	v.retire(e.metrics)

	// Answers computed on older versions are stale by definition; with the
	// version in the key they could never be looked up again, so drop them
	// now rather than letting the memos grow with each patch.
	e.reg.famMu.Lock()
	for _, f := range e.families {
		f.mu.Lock()
		for k := range f.memo {
			if k.version != nv.num {
				delete(f.memo, k)
			}
		}
		f.mu.Unlock()
	}
	e.reg.famMu.Unlock()

	e.metrics.GraphPatched()
	return PatchInfo{FromVersion: v.num, Version: nv.num, Nodes: ng.N(), Edges: ng.M()}, nil
}

// deltaChain returns the concatenation of the recorded deltas carrying
// version from to version to, or ok false when any hop has been pruned.
// The concatenation is not a valid delta for ApplyDelta (an edge may
// appear in both lists); it exists only for Repair, which consults the
// touched-endpoint set — the union over hops covers every node whose
// adjacency differs between the two versions, which is exactly what the
// repair soundness argument needs.
func (e *Entry) deltaChain(from, to int) (*graph.Delta, bool) {
	if from >= to {
		return nil, false
	}
	merged := &graph.Delta{}
	e.verMu.Lock()
	defer e.verMu.Unlock()
	for k := from; k < to; k++ {
		d, ok := e.deltas[k]
		if !ok {
			return nil, false
		}
		merged.Insert = append(merged.Insert, d.Insert...)
		merged.Delete = append(merged.Delete, d.Delete...)
	}
	return merged, true
}

// Solve runs opts against the entry's current graph version and returns
// the result together with the version number it ran on. The version is
// pinned for the duration, so a concurrent patch retiring it cannot unmap
// memory mid-solve.
//
// A cacheable run draws through its sample family, and runs on one family
// serialize on it. The family's sets are repaired forward if a patch
// moved the graph since they last ran (family.prepare) and served to the
// solver rewound: the run re-admits the samples earlier runs stored and
// draws only past them, so it is bit-identical to a cold run on the same
// version while drawing only what no earlier run on the family drew.
// metrics counts a RegistryHit per reused set and a RegistryMiss per fresh
// construction.
func (e *Entry) Solve(ctx context.Context, opts core.Options, metrics *obs.Metrics) (*core.Result, int, error) {
	var f *family
	if cacheable(opts) {
		f = e.acquireFamily(familyKeyFor(opts))
		defer e.releaseFamily(f)
		f.run.Lock()
		defer f.run.Unlock()
	}
	e.verMu.Lock()
	v := e.cur
	v.acquire()
	e.verMu.Unlock()
	defer v.release(e.metrics)
	if faultinject.Enabled {
		// The chaos test arms this point with a concurrent registry
		// eviction; a returned error simulates the entry's backing state
		// failing mid-solve.
		if err := faultinject.Fire(faultinject.RegistryEvictDuringSolve); err != nil {
			return nil, v.num, err
		}
	}
	if f == nil {
		res, err := core.Solve(ctx, v.g, opts)
		return res, v.num, err
	}
	f.prepare(v, metrics)
	// Sample content is index-pure, so sharded growth is bit-identical to
	// local: attach the cluster grower when this entry shards and the solve
	// runs on the version the workers share; clear it otherwise — a set
	// must not keep growing remotely after a patch moved the entry past the
	// on-disk file.
	var remote sampling.RemoteGrower
	if e.Shard != nil && e.ShardKey != "" && v.num == 1 {
		remote = e.Shard.Grower(e.ShardKey, samplerKind(v.g, f.key.forward))
	}
	calls := 0
	opts.SamplerSet = func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
		slot := calls
		calls++
		if slot < len(f.sets) {
			metrics.RegistryHit()
			s := f.sets[slot]
			s.Reset()
			s.Remote = remote
			return s
		}
		metrics.RegistryMiss()
		s := buildSet(g, r, f.key.forward)
		s.Remote = remote
		f.sets = append(f.sets, s)
		return s
	}
	res, err := core.Solve(ctx, v.g, opts)
	var b int64
	for _, s := range f.sets {
		b += s.MemoryFootprint()
	}
	e.reg.famMu.Lock()
	f.setBytes = b
	e.reg.famMu.Unlock()
	return res, v.num, err
}

// cacheable reports whether a run may draw through its sample family: the
// seed must fully determine its sets (no caller RNG or sampler hook), and
// the algorithm must build its sets through the standard hook —
// PairSampling and Budgeted construct their own and keep only the memo.
func cacheable(opts core.Options) bool {
	return opts.Rand == nil && opts.SamplerSet == nil &&
		opts.Algorithm != core.AlgPairSampling && opts.Algorithm != core.AlgBudgeted
}

// buildSet mirrors the solver's default sampler choice (weighted →
// Dijkstra, else forward or balanced bidirectional BFS); the hook that
// calls it replaces that default, so it must reproduce it exactly.
func buildSet(g *graph.Graph, r *xrand.Rand, forward bool) *sampling.Set {
	switch {
	case g.Weighted():
		return sampling.NewWeightedSet(g, r)
	case forward:
		return sampling.NewForwardSet(g, r)
	default:
		return sampling.NewBidirectionalSet(g, r)
	}
}

// samplerKind names buildSet's choice on the shard wire, so every worker
// constructs the same Drawer the coordinator's local sets would use.
func samplerKind(g *graph.Graph, forward bool) string {
	switch {
	case g.Weighted():
		return wire.SamplerDijkstra
	case forward:
		return wire.SamplerForward
	default:
		return wire.SamplerBidirectional
	}
}
