// Package obs is the observability layer of the module: atomic counters
// and gauges updated from the sampling pipeline's hot paths, an Observer
// callback interface fired at deterministic chunk/iteration boundaries, an
// expvar bridge for HTTP scraping, and a live TTY progress reporter.
//
// The governing constraint is "disabled costs nothing": every Metrics
// method is a no-op on a nil receiver, so the hot paths thread a possibly
// nil *Metrics through unconditionally and pay only a nil check per chunk —
// PR 3's warm-growth allocation budgets (≤4 sequential / ≤8 parallel allocs
// per chunk) hold unchanged. The second constraint is determinism: metrics
// are plain atomic stores invisible to the algorithms, and Observer
// callbacks run on the coordinating goroutine only at chunk-commit and
// outer-iteration boundaries, so an observed run is bit-identical to an
// unobserved one — the differential goldens pin this.
package obs

import (
	"expvar"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a set of process- or run-scoped counters and gauges updated
// atomically from the sampling workers and the algorithms' outer loops.
// The zero value is ready to use; a nil *Metrics is the disabled state and
// every method no-ops on it. All methods are safe for concurrent use.
type Metrics struct {
	samples    atomic.Int64  // path samples drawn across all sets
	reused     atomic.Int64  // stored samples re-admitted by a rewound set instead of drawn
	nulls      atomic.Int64  // committed null samples (unreachable pairs)
	chunks     atomic.Int64  // committed growth chunks
	greedyRuns atomic.Int64  // greedy max-coverage (re-)runs
	iteration  atomic.Int64  // current outer iteration q of the active run
	guessBits  atomic.Uint64 // float64 bits of the current guess g_q
	epsSumBits atomic.Uint64 // float64 bits of the current ε_sum
	arenaBytes atomic.Int64  // bytes held by the coverage engines' arenas+index
	busy       atomic.Int64  // sampling lanes currently drawing a chunk share
	activeRuns atomic.Int64  // algorithm runs in flight
	startNanos atomic.Int64  // wall clock of the first committed chunk

	// Serving-layer counters (internal/server): scheduler queue depth,
	// requests coalesced onto an in-flight run, the sample families' sets
	// and the registry's LRU evictions.
	queueDepth    atomic.Int64 // requests waiting for a scheduler slot
	coalesced     atomic.Int64 // requests served by another request's run
	registryHits  atomic.Int64 // sample-family sets served to a run
	registryMiss  atomic.Int64 // sampler sets built fresh for a registry entry
	registryEvict atomic.Int64 // graphs evicted from the registry LRU

	// Sample-family counters (internal/server): families evicted to keep
	// the retained samples within the byte budget, and the bytes retained.
	familyEvict atomic.Int64
	familyBytes atomic.Int64

	// Overload-accounting counters (PR 6). Every structurally valid
	// /v1/topk request is admitted into the pipeline and then terminates in
	// exactly one of completed, shed or failed — the chaos test asserts
	// admitted == completed + shed + failed.
	reqAdmitted  atomic.Int64 // valid requests entering the serving pipeline
	reqCompleted atomic.Int64 // requests answered by a solver run (full or partial)
	reqShed      atomic.Int64 // requests rejected by a full queue, quota or drain
	reqFailed    atomic.Int64 // requests that died on a solver or encoding error

	// Graph-storage counters (PR 7): the mmap-able .gbcsr load path.
	graphBytesMapped  atomic.Int64 // bytes of .gbcsr files currently mapped
	graphLoadNanos    atomic.Int64 // cumulative wall time spent loading graphs from files
	registryFileLoads atomic.Int64 // registry graphs loaded from the "file" source

	// Parallel-execution counter (PR 8): the time sampling lanes spend not
	// sampling — waiting at the end of a draw for its last block.
	samplerIdleNanos atomic.Int64 // cumulative lane wait at draw ends
	helperLanes      atomic.Int64 // extra lanes a lane budget granted, summed over draws

	// Dynamic-graph counters (PR 9): graph versions created by PATCH,
	// incremental sample repairs, and results served straight from the
	// ε-dominance cache on the normal (non-shed) path.
	graphPatches    atomic.Int64 // graph versions created by edge deltas
	repairRuns      atomic.Int64 // sampling.Set.Repair invocations
	samplesChecked  atomic.Int64 // samples examined by repair distance checks
	samplesRepaired atomic.Int64 // samples actually re-drawn by repair
	resultCacheHits atomic.Int64 // requests answered from the result cache (freshness "any")

	// Sharded-serving counters (PR 10): the coordinator side of the shard
	// protocol — how many worker processes it fans epochs out to, how many
	// epoch blocks it has merged and at what payload volume, and how many
	// blocks it had to reassign after losing a shard.
	shards           atomic.Int64 // configured shard workers (0 = single-node)
	shardEpochs      atomic.Int64 // epoch blocks fetched from shards and merged
	shardBytesMerged atomic.Int64 // arena payload bytes merged from shards
	shardRetries     atomic.Int64 // epoch blocks reassigned to surviving shards
}

// AddGraphBytesMapped adjusts the mapped-graph-bytes gauge: +size when a
// file-backed graph is opened, -size when its last reference unmaps it.
func (m *Metrics) AddGraphBytesMapped(delta int64) {
	if m == nil {
		return
	}
	m.graphBytesMapped.Add(delta)
}

// AddGraphLoad accumulates the wall time of one graph load from a file
// (text parse or .gbcsr open) into the load-time counter.
func (m *Metrics) AddGraphLoad(d time.Duration) {
	if m == nil {
		return
	}
	m.graphLoadNanos.Add(d.Nanoseconds())
}

// RegistryFileLoad counts one registry graph loaded through the "file"
// source (POST /v1/graphs with a path).
func (m *Metrics) RegistryFileLoad() {
	if m == nil {
		return
	}
	m.registryFileLoads.Add(1)
}

// AddSamplerIdle accumulates lane time spent waiting instead of drawing:
// the wait of finished lanes for a draw's last block.
func (m *Metrics) AddSamplerIdle(nanos int64) {
	if m == nil {
		return
	}
	m.samplerIdleNanos.Add(nanos)
}

// AddHelperLanes counts the extra lanes a lane budget granted one draw —
// a growth chunk or a repair's re-draw — beyond the drawing set's own.
func (m *Metrics) AddHelperLanes(n int) {
	if m == nil {
		return
	}
	m.helperLanes.Add(int64(n))
}

// AddSamples records one committed growth chunk of n drawn samples, nulls
// of which were unreachable pairs.
func (m *Metrics) AddSamples(n, nulls int) {
	if m == nil {
		return
	}
	m.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	m.samples.Add(int64(n))
	m.nulls.Add(int64(nulls))
	m.chunks.Add(1)
}

// AddSamplesReused records n stored samples a rewound set re-admitted
// instead of drawing them again.
func (m *Metrics) AddSamplesReused(n int) {
	if m == nil {
		return
	}
	m.reused.Add(int64(n))
}

// SetIteration publishes the adaptive loop's position: outer iteration q,
// the current guess g_q of the optimum and the stopping quantity ε_sum
// (0 until the stopping rule is armed).
func (m *Metrics) SetIteration(q int, guess, epsSum float64) {
	if m == nil {
		return
	}
	m.iteration.Store(int64(q))
	m.guessBits.Store(math.Float64bits(guess))
	m.epsSumBits.Store(math.Float64bits(epsSum))
}

// IncGreedy counts one greedy max-coverage (re-)run.
func (m *Metrics) IncGreedy() {
	if m == nil {
		return
	}
	m.greedyRuns.Add(1)
}

// AddArenaBytes adjusts the coverage-arena footprint gauge by delta bytes
// (callers report growth deltas so several sample sets aggregate).
func (m *Metrics) AddArenaBytes(delta int64) {
	if m == nil {
		return
	}
	m.arenaBytes.Add(delta)
}

// WorkerBusy adjusts the busy-worker gauge (+1 when a sampling lane starts
// drawing its share of a chunk, -1 when it finishes).
func (m *Metrics) WorkerBusy(delta int) {
	if m == nil {
		return
	}
	m.busy.Add(int64(delta))
}

// RunStarted and RunDone bracket one algorithm run for the active-runs
// gauge.
func (m *Metrics) RunStarted() {
	if m == nil {
		return
	}
	m.activeRuns.Add(1)
}

// RunDone is the closing bracket of RunStarted.
func (m *Metrics) RunDone() {
	if m == nil {
		return
	}
	m.activeRuns.Add(-1)
}

// QueueDepth adjusts the scheduler's queued-request gauge (+1 on enqueue,
// -1 when a worker picks the request up).
func (m *Metrics) QueueDepth(delta int) {
	if m == nil {
		return
	}
	m.queueDepth.Add(int64(delta))
}

// IncCoalesced counts one request that joined another identical in-flight
// request instead of starting its own solver run — with N concurrent
// identical requests the counter advances by N-1.
func (m *Metrics) IncCoalesced() {
	if m == nil {
		return
	}
	m.coalesced.Add(1)
}

// RegistryHit counts one sample-family set served to a run: the run
// re-admits the set's stored samples instead of cold-starting it.
func (m *Metrics) RegistryHit() {
	if m == nil {
		return
	}
	m.registryHits.Add(1)
}

// RegistryMiss counts one sampler set built fresh for a registry entry (the
// first run of a (graph, seed) pair, or a non-cacheable configuration).
func (m *Metrics) RegistryMiss() {
	if m == nil {
		return
	}
	m.registryMiss.Add(1)
}

// RegistryEviction counts one graph evicted from the registry's LRU bound,
// dropping its sample families with it.
func (m *Metrics) RegistryEviction() {
	if m == nil {
		return
	}
	m.registryEvict.Add(1)
}

// FamilyEviction counts one sample family dropped to keep the retained
// samples within the serving layer's byte budget.
func (m *Metrics) FamilyEviction() {
	if m == nil {
		return
	}
	m.familyEvict.Add(1)
}

// AddFamilyBytes adjusts the gauge of bytes retained by sample families.
func (m *Metrics) AddFamilyBytes(delta int64) {
	if m == nil {
		return
	}
	m.familyBytes.Add(delta)
}

// RequestAdmitted counts one structurally valid /v1/topk request entering
// the serving pipeline. It must be balanced by exactly one of
// RequestCompleted, RequestShed or RequestFailed.
func (m *Metrics) RequestAdmitted() {
	if m == nil {
		return
	}
	m.reqAdmitted.Add(1)
}

// RequestCompleted counts one admitted request answered by a solver run —
// converged or partial, both are completions.
func (m *Metrics) RequestCompleted() {
	if m == nil {
		return
	}
	m.reqCompleted.Add(1)
}

// RequestShed counts one admitted request rejected by a full queue, a
// tenant quota or the drain state.
func (m *Metrics) RequestShed() {
	if m == nil {
		return
	}
	m.reqShed.Add(1)
}

// RequestFailed counts one admitted request that ended in a solver or
// response-encoding error.
func (m *Metrics) RequestFailed() {
	if m == nil {
		return
	}
	m.reqFailed.Add(1)
}

// GraphPatched counts one new graph version created by an edge delta.
func (m *Metrics) GraphPatched() {
	if m == nil {
		return
	}
	m.graphPatches.Add(1)
}

// RepairRun records one incremental sample repair: checked samples were
// examined against the delta's touched set, repaired of them re-drawn.
func (m *Metrics) RepairRun(checked, repaired int) {
	if m == nil {
		return
	}
	m.repairRuns.Add(1)
	m.samplesChecked.Add(int64(checked))
	m.samplesRepaired.Add(int64(repaired))
}

// ResultCacheHit counts one request answered from the ε-dominance result
// cache on the normal serve path (freshness "any"), without a scheduler
// slot.
func (m *Metrics) ResultCacheHit() {
	if m == nil {
		return
	}
	m.resultCacheHits.Add(1)
}

// SetShards publishes how many shard workers the serving layer fans
// sampling out to (0 = single-node).
func (m *Metrics) SetShards(n int) {
	if m == nil {
		return
	}
	m.shards.Store(int64(n))
}

// ShardEpochMerged counts one epoch block fetched from a shard worker and
// merged into the coordinator's coverage state, carrying bytes of payload.
func (m *Metrics) ShardEpochMerged(bytes int64) {
	if m == nil {
		return
	}
	m.shardEpochs.Add(1)
	m.shardBytesMerged.Add(bytes)
}

// ShardRetry counts one epoch block reassigned to a surviving shard after
// its original shard failed or timed out.
func (m *Metrics) ShardRetry() {
	if m == nil {
		return
	}
	m.shardRetries.Add(1)
}

// Stats is a point-in-time copy of a Metrics, shaped for JSON (the expvar
// endpoint serves exactly this object under the "gbc" key).
type Stats struct {
	Samples       int64   `json:"samples"`
	SamplesReused int64   `json:"samplesReused"`
	NullSamples   int64   `json:"nullSamples"`
	Chunks        int64   `json:"chunks"`
	GreedyRuns    int64   `json:"greedyRuns"`
	Iteration     int64   `json:"iteration"`
	Guess         float64 `json:"guess"`
	EpsilonSum    float64 `json:"epsilonSum"`
	ArenaBytes    int64   `json:"arenaBytes"`
	BusyWorkers   int64   `json:"busyWorkers"`
	ActiveRuns    int64   `json:"activeRuns"`
	SamplesPerSec float64 `json:"samplesPerSec"`

	QueueDepth        int64 `json:"queueDepth"`
	RunsCoalesced     int64 `json:"runsCoalesced"`
	RegistryHits      int64 `json:"registryHits"`
	RegistryMisses    int64 `json:"registryMisses"`
	RegistryEvictions int64 `json:"registryEvictions"`
	FamilyEvictions   int64 `json:"familyEvictions"`
	FamilyBytes       int64 `json:"familyBytes"`

	RequestsAdmitted  int64 `json:"requestsAdmitted"`
	RequestsCompleted int64 `json:"requestsCompleted"`
	RequestsShed      int64 `json:"requestsShed"`
	RequestsFailed    int64 `json:"requestsFailed"`

	GraphBytesMapped  int64 `json:"graphBytesMapped"`
	GraphLoadNanos    int64 `json:"graphLoadNanos"`
	RegistryFileLoads int64 `json:"registryFileLoads"`

	SamplerIdleNanos int64 `json:"samplerIdleNanos"`
	HelperLanes      int64 `json:"helperLanes"`

	GraphPatches    int64 `json:"graphPatches"`
	RepairRuns      int64 `json:"repairRuns"`
	SamplesChecked  int64 `json:"samplesChecked"`
	SamplesRepaired int64 `json:"samplesRepaired"`
	ResultCacheHits int64 `json:"resultCacheHits"`

	Shards           int64 `json:"shards"`
	ShardEpochs      int64 `json:"shardEpochs"`
	ShardBytesMerged int64 `json:"shardBytesMerged"`
	ShardRetries     int64 `json:"shardRetries"`
}

// Snapshot returns a consistent-enough copy for reporting (each field is
// read atomically; the set is not a transaction). SamplesPerSec is the
// average rate since the first committed chunk. A nil Metrics snapshots to
// the zero Stats.
func (m *Metrics) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	s := Stats{
		Samples:       m.samples.Load(),
		SamplesReused: m.reused.Load(),
		NullSamples:   m.nulls.Load(),
		Chunks:        m.chunks.Load(),
		GreedyRuns:    m.greedyRuns.Load(),
		Iteration:     m.iteration.Load(),
		Guess:         math.Float64frombits(m.guessBits.Load()),
		EpsilonSum:    math.Float64frombits(m.epsSumBits.Load()),
		ArenaBytes:    m.arenaBytes.Load(),
		BusyWorkers:   m.busy.Load(),
		ActiveRuns:    m.activeRuns.Load(),

		QueueDepth:        m.queueDepth.Load(),
		RunsCoalesced:     m.coalesced.Load(),
		RegistryHits:      m.registryHits.Load(),
		RegistryMisses:    m.registryMiss.Load(),
		RegistryEvictions: m.registryEvict.Load(),
		FamilyEvictions:   m.familyEvict.Load(),
		FamilyBytes:       m.familyBytes.Load(),

		RequestsAdmitted:  m.reqAdmitted.Load(),
		RequestsCompleted: m.reqCompleted.Load(),
		RequestsShed:      m.reqShed.Load(),
		RequestsFailed:    m.reqFailed.Load(),

		GraphBytesMapped:  m.graphBytesMapped.Load(),
		GraphLoadNanos:    m.graphLoadNanos.Load(),
		RegistryFileLoads: m.registryFileLoads.Load(),

		SamplerIdleNanos: m.samplerIdleNanos.Load(),
		HelperLanes:      m.helperLanes.Load(),

		GraphPatches:    m.graphPatches.Load(),
		RepairRuns:      m.repairRuns.Load(),
		SamplesChecked:  m.samplesChecked.Load(),
		SamplesRepaired: m.samplesRepaired.Load(),
		ResultCacheHits: m.resultCacheHits.Load(),

		Shards:           m.shards.Load(),
		ShardEpochs:      m.shardEpochs.Load(),
		ShardBytesMerged: m.shardBytesMerged.Load(),
		ShardRetries:     m.shardRetries.Load(),
	}
	if start := m.startNanos.Load(); start != 0 {
		if secs := time.Since(time.Unix(0, start)).Seconds(); secs > 0 {
			s.SamplesPerSec = float64(s.Samples) / secs
		}
	}
	return s
}

var (
	publishOnce sync.Once
	published   *Metrics
)

// Published returns the process-wide Metrics registered with expvar under
// the name "gbc", creating and publishing it on the first call. Counters on
// it accumulate across runs for the process's lifetime — the natural shape
// for a scraped endpoint. Per-run metrics that must start at zero should
// use a fresh &Metrics{} instead.
func Published() *Metrics {
	publishOnce.Do(func() {
		published = &Metrics{}
		expvar.Publish("gbc", expvar.Func(func() any { return published.Snapshot() }))
	})
	return published
}
