package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gbc/internal/core"
	"gbc/internal/dataset"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// Config sizes a Server; every zero field gets a production-minded default.
type Config struct {
	// MaxGraphs bounds the registry LRU (default 16).
	MaxGraphs int
	// SampleBytes bounds the bytes every graph's sample families retain
	// together — stored samples plus memo bookkeeping (default 256 MiB).
	// Beyond it the least recently used idle families are dropped, and
	// their next request draws its samples again.
	SampleBytes int64
	// Workers is the number of concurrent solver runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request FIFO (default 64); beyond it
	// /v1/topk fails fast with 429.
	QueueDepth int
	// DefaultTimeout bounds a /v1/topk run that names no timeout (default
	// 30s); MaxTimeout caps what a request may ask for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxUploadBytes bounds an edge-list upload body (default 64 MiB).
	MaxUploadBytes int64
	// MaxBodyBytes bounds every non-upload request body (default 1 MiB);
	// beyond it decoding fails with a typed 400 instead of buffering an
	// unbounded payload.
	MaxBodyBytes int64
	// MaxCost bounds the total estimated cost (EstimateCost units) queued
	// plus running; submissions beyond it are shed with 429 + Retry-After.
	// 0 — the default — disables cost-based admission control.
	MaxCost float64
	// FastLaneThreshold routes runs whose estimated cost is at or below it
	// through a dedicated small-job worker pool, so cheap queries never
	// wait behind expensive ones. 0 picks the default (1e7, roughly a
	// few-thousand-node graph at default ε); negative disables the lane.
	FastLaneThreshold float64
	// FastLaneWorkers and FastLaneDepth size the fast lane (defaults 2 and
	// QueueDepth).
	FastLaneWorkers int
	FastLaneDepth   int
	// TenantRPS enforces a per-tenant token-bucket quota, keyed on the
	// X-Tenant request header, of this many /v1/topk requests per second
	// (burst TenantBurst, default 2·TenantRPS). 0 — the default — disables
	// quotas.
	TenantRPS   float64
	TenantBurst int
	// TenantWeights sets per-tenant weighted-round-robin dequeue weights
	// (default 1 each): a tenant with weight w is dequeued w tasks per
	// round-robin cycle.
	TenantWeights map[string]int
	// Shards lists shard-worker base URLs; non-empty makes this server a
	// coordinator. Graphs registered from a .gbcsr path dispatch sample
	// growth to the workers (which open the same path from shared storage)
	// and merge the arenas centrally — responses stay bit-identical to a
	// single-node solve. GET /v1/cluster reports liveness and throughput.
	Shards []string
	// ShardEpochTimeout bounds one epoch fetch from one worker (default
	// 30s); a shard that cannot answer within it is treated as lost and its
	// index range reassigned to the survivors.
	ShardEpochTimeout time.Duration
	// Metrics receives the serving counters (queue depth, coalesced runs,
	// registry hits/evictions, overload accounting) and is threaded into
	// every solver run. Nil gets a private instance; pass obs.Published()
	// to feed /debug/vars.
	Metrics *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.MaxGraphs == 0 {
		c.MaxGraphs = 16
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.FastLaneThreshold == 0 {
		c.FastLaneThreshold = 1e7
	}
	if c.FastLaneWorkers == 0 {
		c.FastLaneWorkers = 2
	}
	if c.FastLaneThreshold < 0 {
		c.FastLaneWorkers = 0 // lane disabled: all runs share the normal pool
	}
	if c.FastLaneDepth == 0 {
		c.FastLaneDepth = c.QueueDepth
	}
	if c.Metrics == nil {
		c.Metrics = &obs.Metrics{}
	}
	return c
}

// Server is the gbcd serving subsystem: registry (with its sample
// families) + scheduler behind an HTTP/JSON API. Create with New, mount
// Handler, drain with Shutdown.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	reg     *Registry
	sched   *Scheduler
	tenants *tenantLimiter
	cluster *shard.Cluster // non-nil when serving as a coordinator
	mux     *http.ServeMux
}

// New builds a Server and starts its scheduler workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		reg:     NewRegistry(cfg.MaxGraphs, cfg.SampleBytes, cfg.Metrics),
		sched: NewScheduler(SchedulerConfig{
			Workers: cfg.Workers, Depth: cfg.QueueDepth,
			FastWorkers: cfg.FastLaneWorkers, FastDepth: cfg.FastLaneDepth,
			MaxCost: cfg.MaxCost, Weights: cfg.TenantWeights,
			Metrics: cfg.Metrics,
		}),
		tenants: newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst),
	}
	if len(cfg.Shards) > 0 {
		s.cluster = shard.NewCluster(shard.Config{
			Shards:       cfg.Shards,
			Metrics:      cfg.Metrics,
			EpochTimeout: cfg.ShardEpochTimeout,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("PATCH /v1/graphs/{name}", s.handlePatchGraph)
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the graph registry (preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's metrics instance.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Cluster returns the shard cluster when serving as a coordinator, nil
// otherwise (preloading, tests).
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// Shutdown drains the server: new /v1/topk requests get 503 immediately,
// queued and in-flight runs keep going until ctx (the grace period)
// cancels, at which point they return partial results; Shutdown returns
// when all runs have finished. /healthz reports "draining" throughout, so
// load balancers stop routing here first.
func (s *Server) Shutdown(ctx context.Context) {
	s.sched.Shutdown(ctx)
}

// errorResponse is the wire shape of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Field names the offending request/option field when known.
	Field string `json:"field,omitempty"`
	// CurrentVersion accompanies a 409 PATCH conflict: the version the
	// client must name (or observe) to retry its patch.
	CurrentVersion int `json:"currentVersion,omitempty"`
}

// graphRequest is the body of POST /v1/graphs. Exactly one source —
// Dataset, Generator or EdgeList — must be set.
type graphRequest struct {
	// Name registers the graph for later /v1/topk queries.
	Name string `json:"name"`

	// Dataset names a built-in Table I stand-in; Scale picks its size in
	// (0, 1] (0 = the dataset's default scale).
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`

	// Generator is one of "ba" (N, Degree), "ws" (N, Degree, P) or "er"
	// (N, M, Directed).
	Generator string  `json:"generator,omitempty"`
	N         int     `json:"n,omitempty"`
	Degree    int     `json:"degree,omitempty"`
	P         float64 `json:"p,omitempty"`
	M         int     `json:"m,omitempty"`

	// EdgeList is an inline edge list ("u v" lines, or "u v w" with
	// Weighted); Directed applies to uploads, "er" and file edge lists.
	EdgeList string `json:"edgeList,omitempty"`
	Directed bool   `json:"directed,omitempty"`
	Weighted bool   `json:"weighted,omitempty"`

	// Path loads a graph from a file on the server's filesystem — the
	// "file" source. Format selects the parser: "gbcsr" (binary CSR,
	// mmap-attached where the platform supports it), "edgelist" (text,
	// honoring Directed/Weighted), or "" / "auto" to sniff the magic
	// bytes. The registry holds the mapping and unmaps it when the graph
	// is evicted and its last in-flight run finishes.
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`

	// Seed makes generated graphs deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// graphInfo describes one registered graph in responses.
type graphInfo struct {
	Name     string    `json:"name"`
	Desc     string    `json:"desc"`
	Nodes    int       `json:"nodes"`
	Edges    int       `json:"edges"`
	Directed bool      `json:"directed"`
	Weighted bool      `json:"weighted"`
	Version  int       `json:"version"`
	Created  time.Time `json:"created"`
}

// infoFor reads only the shape fields held on the Entry, never the graph
// arrays: a listing must stay safe concurrently with an eviction unmapping
// a file-backed graph or a patch swapping versions.
func infoFor(e *Entry) graphInfo {
	nodes, edges, ver := e.shape()
	return graphInfo{
		Name: e.Name, Desc: e.Desc, Nodes: nodes, Edges: edges,
		Directed: e.directed, Weighted: e.weighted,
		Version: ver, Created: e.Created,
	}
}

// graphDetail is the body of GET /v1/graphs/{name}: the listing line plus
// the version history and what the entry keeps from past runs — its
// sample families and their memoized answers (the field names predate
// families).
type graphDetail struct {
	graphInfo
	Versions      []versionInfo `json:"versions"`
	WarmSets      int           `json:"warmSets"`
	CachedResults int           `json:"cachedResults"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var req graphRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), "")
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error(), "")
		return
	}
	if !nameRE.MatchString(req.Name) {
		writeError(w, http.StatusBadRequest,
			"graph name must match [A-Za-z0-9._-]{1,64}", "name")
		return
	}
	start := time.Now()
	g, desc, field, err := buildGraph(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), field)
		return
	}
	if req.Path != "" {
		s.metrics.AddGraphLoad(time.Since(start))
		s.metrics.RegistryFileLoad()
	}
	e, err := s.reg.Add(req.Name, desc, g)
	if err != nil {
		g.Close() // a file-backed graph that never made it in must unmap now
		writeError(w, http.StatusConflict, err.Error(), "name")
		return
	}
	// A coordinator shards .gbcsr-path graphs: the workers open the same
	// path from shared storage, so the path itself is the cluster-wide key.
	// Every other source (uploads, generators, datasets) lives only in this
	// process and solves locally.
	if s.cluster != nil && req.Path != "" {
		if isCSR, err := graph.DetectCSRFile(req.Path); err == nil && isCSR {
			e.Shard, e.ShardKey = s.cluster, req.Path
		}
	}
	writeJSON(w, http.StatusCreated, infoFor(e))
}

// buildGraph materializes the requested graph; field names the offending
// request field on error.
func buildGraph(req graphRequest) (g *graph.Graph, desc, field string, err error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	sources := 0
	for _, set := range []bool{req.Dataset != "", req.Generator != "", req.EdgeList != "", req.Path != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", "", errors.New("specify exactly one of dataset, generator, edgeList or path")
	}
	switch {
	case req.Path != "":
		return buildGraphFromFile(req)
	case req.Dataset != "":
		spec, err := dataset.Lookup(req.Dataset)
		if err != nil {
			return nil, "", "dataset", err
		}
		scale := req.Scale
		if scale == 0 {
			scale = spec.DefaultScale
		}
		if scale <= 0 || scale > 1 {
			return nil, "", "scale", fmt.Errorf("scale %g out of (0, 1]", scale)
		}
		desc = fmt.Sprintf("dataset %s scale %g seed %d", spec.Name, scale, seed)
		return spec.Generate(scale, seed), desc, "", nil
	case req.Generator != "":
		r := xrand.New(seed)
		switch req.Generator {
		case "ba":
			if req.N < 2 || req.Degree < 1 || req.Degree >= req.N {
				return nil, "", "generator", fmt.Errorf("ba needs 1 <= degree < n, got n=%d degree=%d", req.N, req.Degree)
			}
			desc = fmt.Sprintf("generator ba n=%d degree=%d seed=%d", req.N, req.Degree, seed)
			return gen.BarabasiAlbert(req.N, req.Degree, r), desc, "", nil
		case "ws":
			if req.Degree < 1 || 2*req.Degree >= req.N || req.P < 0 || req.P > 1 {
				return nil, "", "generator", fmt.Errorf("ws needs 1 <= degree, 2*degree < n and p in [0,1], got n=%d degree=%d p=%g", req.N, req.Degree, req.P)
			}
			desc = fmt.Sprintf("generator ws n=%d degree=%d p=%g seed=%d", req.N, req.Degree, req.P, seed)
			return gen.WattsStrogatz(req.N, req.Degree, req.P, r), desc, "", nil
		case "er":
			if req.N < 2 || req.M < 0 {
				return nil, "", "generator", fmt.Errorf("er needs n >= 2 and m >= 0, got n=%d m=%d", req.N, req.M)
			}
			desc = fmt.Sprintf("generator er n=%d m=%d directed=%v seed=%d", req.N, req.M, req.Directed, seed)
			return gen.ErdosRenyiGNM(req.N, req.M, req.Directed, r), desc, "", nil
		}
		return nil, "", "generator", fmt.Errorf("unknown generator %q (want ba, ws or er)", req.Generator)
	default:
		reader := strings.NewReader(req.EdgeList)
		if req.Weighted {
			g, err = graph.ReadWeightedEdgeList(reader, req.Directed)
		} else {
			g, err = graph.ReadEdgeList(reader, req.Directed)
		}
		if err != nil {
			return nil, "", "edgeList", err
		}
		desc = fmt.Sprintf("upload directed=%v weighted=%v", req.Directed, req.Weighted)
		return g, desc, "", nil
	}
}

// buildGraphFromFile is the "file" source of POST /v1/graphs: a
// server-local path holding either a binary .gbcsr (attached via mmap
// where supported, integrity-verified either way) or a text edge list.
func buildGraphFromFile(req graphRequest) (g *graph.Graph, desc, field string, err error) {
	format := req.Format
	if format == "" || format == "auto" {
		isCSR, err := graph.DetectCSRFile(req.Path)
		if err != nil {
			return nil, "", "path", err
		}
		if isCSR {
			format = "gbcsr"
		} else {
			format = "edgelist"
		}
	}
	switch format {
	case "gbcsr":
		if g, err = graph.OpenCSR(req.Path); err != nil {
			return nil, "", "path", err
		}
		return g, fmt.Sprintf("file %s (gbcsr, mapped=%v)", req.Path, g.Mapped()), "", nil
	case "edgelist":
		f, err := os.Open(req.Path)
		if err != nil {
			return nil, "", "path", err
		}
		defer f.Close()
		if req.Weighted {
			g, err = graph.ReadWeightedEdgeList(f, req.Directed)
		} else {
			g, err = graph.ReadEdgeList(f, req.Directed)
		}
		if err != nil {
			return nil, "", "path", err
		}
		desc = fmt.Sprintf("file %s (edgelist, directed=%v, weighted=%v)", req.Path, req.Directed, req.Weighted)
		return g, desc, "", nil
	default:
		return nil, "", "format", fmt.Errorf("unknown format %q (want gbcsr, edgelist or auto)", req.Format)
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	infos := make([]graphInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoFor(e))
	}
	writeJSON(w, http.StatusOK, struct {
		Graphs []graphInfo `json:"graphs"`
	}{infos})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name), "name")
		return
	}
	defer e.Release()
	writeJSON(w, http.StatusOK, graphDetail{
		graphInfo:     infoFor(e),
		Versions:      e.Versions(),
		WarmSets:      e.FamilyCount(),
		CachedResults: e.MemoCount(),
	})
}

// patchEdge is one edge operation in a PATCH body. The weight is only
// meaningful (and only allowed) on inserts into weighted graphs.
type patchEdge struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w,omitempty"`
}

// patchRequest is the body of PATCH /v1/graphs/{name}.
type patchRequest struct {
	Insert []patchEdge `json:"insert,omitempty"`
	Delete []patchEdge `json:"delete,omitempty"`
	// IfVersion, when non-zero, demands the patch apply against exactly
	// that version; a mismatch answers 409 with the current version, so
	// clients can read-modify-write without losing concurrent patches.
	IfVersion int `json:"ifVersion,omitempty"`
}

// patchResponse is the 200 body of PATCH /v1/graphs/{name}.
type patchResponse struct {
	Graph       string `json:"graph"`
	FromVersion int    `json:"fromVersion"`
	Version     int    `json:"version"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
}

func (s *Server) handlePatchGraph(w http.ResponseWriter, r *http.Request) {
	var req patchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), "")
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error(), "")
		return
	}
	if req.IfVersion < 0 {
		writeError(w, http.StatusBadRequest, "ifVersion must be >= 0", "ifVersion")
		return
	}
	d := &graph.Delta{}
	for _, pe := range req.Insert {
		d.Insert = append(d.Insert, graph.DeltaEdge{U: pe.U, V: pe.V, W: pe.W})
	}
	for _, pe := range req.Delete {
		d.Delete = append(d.Delete, graph.DeltaEdge{U: pe.U, V: pe.V, W: pe.W})
	}
	if d.Empty() {
		writeError(w, http.StatusBadRequest, "patch must insert or delete at least one edge", "")
		return
	}
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name), "name")
		return
	}
	defer e.Release()
	info, err := e.Patch(d, req.IfVersion)
	if err != nil {
		var conflict *PatchConflictError
		if errors.As(err, &conflict) {
			writeJSON(w, http.StatusConflict, errorResponse{
				Error: err.Error(), Field: "ifVersion",
				CurrentVersion: conflict.Current,
			})
			return
		}
		var de *graph.DeltaError
		if errors.As(err, &de) {
			writeError(w, http.StatusBadRequest, err.Error(), de.Op)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	writeJSON(w, http.StatusOK, patchResponse{
		Graph: name, FromVersion: info.FromVersion, Version: info.Version,
		Nodes: info.Nodes, Edges: info.Edges,
	})
}

// topkRequest is the body of POST /v1/topk.
type topkRequest struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Algorithm defaults to AdaAlg; Epsilon, Gamma and Seed default as in
	// gbc.Options.
	Algorithm string  `json:"algorithm,omitempty"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	Gamma     float64 `json:"gamma,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	// Sampling names the growth execution mode. The only mode is
	// "deterministic" (also the default when empty); "fast" is accepted as
	// a deprecated alias for one release and answered deterministically.
	Sampling string `json:"sampling,omitempty"`
	// Forward swaps the balanced bidirectional sampler for the forward-only
	// ablation.
	Forward bool `json:"forward,omitempty"`
	// TimeoutMillis bounds the run (queue wait included); on expiry the
	// best-so-far group is returned with partial:true. 0 means the
	// server's default; values above the server max are clamped.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Trace includes the per-iteration trace in the response.
	Trace bool `json:"trace,omitempty"`
	// Freshness is "any" (the default) or "exact". "any" lets the server
	// answer from the family's memo when a converged run on the current
	// graph version already dominates the request — no scheduler slot,
	// servedFrom "cache". "exact" demands a solve. Trace requests never
	// serve from the memo (memo answers are trace-stripped).
	Freshness string `json:"freshness,omitempty"`
}

// topkResponse is the 200 body of POST /v1/topk: the stable wire result
// plus the serving context it ran under.
type topkResponse struct {
	Graph string `json:"graph"`
	// GraphVersion is the graph version the result was computed on.
	GraphVersion int `json:"graphVersion"`
	// ServedFrom says how the answer was produced: "solve" (a run, which
	// draws only the samples no earlier run on its family drew), "cache"
	// (the family's memo of converged answers, under ε-dominance), or
	// "coalesced" (shared a concurrent identical run).
	ServedFrom string `json:"servedFrom"`
	// TimeoutMillis is the effective deadline the run was held to.
	TimeoutMillis int64 `json:"timeoutMillis"`
	// Degraded marks a cache-served response the client did not opt into:
	// the scheduler shed the run and the cached result — computed by an
	// earlier converged run at DegradedEpsilon ≤ the requested ε on the
	// same graph version — satisfies the request's error bound without a
	// fresh solve.
	Degraded        bool        `json:"degraded,omitempty"`
	DegradedEpsilon float64     `json:"degradedEpsilon,omitempty"`
	Result          wire.Result `json:"result"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), "")
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error(), "")
		return
	}
	alg := core.AlgAdaAlg
	if req.Algorithm != "" {
		var err error
		if alg, err = core.ParseAlgorithm(req.Algorithm); err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), "algorithm")
			return
		}
	}
	switch req.Sampling {
	case "", "deterministic", "fast":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown sampling mode %q (want deterministic)", req.Sampling), "sampling")
		return
	}
	switch req.Freshness {
	case "", "any", "exact":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown freshness %q (want any or exact)", req.Freshness), "freshness")
		return
	}
	opts := core.Options{
		Algorithm: alg, K: req.K, Epsilon: req.Epsilon, Gamma: req.Gamma,
		Seed: req.Seed, Workers: req.Workers,
		CollectTrace:      req.Trace,
		UseForwardSampler: req.Forward, Metrics: s.metrics,
	}
	if err := opts.Validate(); err != nil {
		var oe *core.OptionError
		if errors.As(err, &oe) {
			writeError(w, http.StatusBadRequest, err.Error(), oe.Field)
		} else {
			writeError(w, http.StatusBadRequest, err.Error(), "")
		}
		return
	}
	entry, ok := s.reg.Get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", req.Graph), "graph")
		return
	}
	// The reference pins the graph's backing storage (the mmap of a
	// file-loaded graph) for the whole request, including the solve: an
	// eviction racing with this request only unmaps after the release.
	defer entry.Release()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	// From here the request is structurally valid and enters overload
	// accounting: it must terminate as exactly one of completed, shed or
	// failed (the chaos test asserts the balance).
	s.metrics.RequestAdmitted()

	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	g := entry.Graph()
	cost := EstimateCost(g.N(), g.M(), opts)
	ver := entry.CurrentVersion()
	fk, mk := familyKeyFor(opts), memoKeyFor(opts, ver)

	// First-class answer reuse: unless the client demanded a solve, a
	// memoized converged run on the current graph version that
	// ε-dominates the request answers immediately — no scheduler slot, no
	// tenant token, no solve. The version in the key guarantees a patched
	// graph never answers from a stale result.
	if req.Freshness != "exact" && !req.Trace {
		if cached, _, ok := entry.Dominating(fk, mk, effectiveEpsilon(opts)); ok {
			s.metrics.ResultCacheHit()
			s.metrics.RequestCompleted()
			writeJSON(w, http.StatusOK, topkResponse{
				Graph: req.Graph, GraphVersion: ver, ServedFrom: "cache",
				TimeoutMillis: timeout.Milliseconds(),
				Result:        cached,
			})
			return
		}
	}

	if ok, wait := s.tenants.allow(tenant, time.Now()); !ok {
		s.shedOrDegrade(w, entry, fk, mk, opts, timeout, req.Graph, wait,
			fmt.Sprintf("server: tenant %q over its request quota", tenant),
			http.StatusTooManyRequests)
		return
	}

	// The family is held until the response is written, so the byte
	// budget never evicts it under this request or its waiters.
	fam := entry.acquireFamily(fk)
	defer entry.releaseFamily(fam)
	res, shared := fam.do(runKeyFor(opts, ver), s.metrics, func() flightResult {
		return s.runTopK(entry, fam, opts, timeout, req.Graph, Job{
			Tenant: tenant, Cost: cost,
			FastLane: cost <= s.cfg.FastLaneThreshold,
		})
	})
	if res.err != nil {
		switch {
		case errors.Is(res.err, ErrQueueFull) || errors.Is(res.err, ErrOverCapacity):
			s.shedOrDegrade(w, entry, fk, mk, opts, timeout, req.Graph,
				s.sched.RetryAfter(), res.err.Error(), http.StatusTooManyRequests)
		case errors.Is(res.err, ErrDraining):
			s.shedOrDegrade(w, entry, fk, mk, opts, timeout, req.Graph,
				0, res.err.Error(), http.StatusServiceUnavailable)
		default:
			s.metrics.RequestFailed()
			writeError(w, http.StatusInternalServerError, res.err.Error(), "")
		}
		return
	}
	s.metrics.RequestCompleted()
	if res.resp == nil {
		// A rendered non-2xx outcome (e.g. the 504 no-group shape).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		w.Write(res.errBody)
		return
	}
	resp := *res.resp
	if shared {
		resp.ServedFrom = "coalesced"
	} else {
		resp.ServedFrom = "solve"
	}
	writeJSON(w, res.status, resp)
}

// effectiveEpsilon and effectiveGamma mirror Options.withDefaults for the
// memo and in-flight keys, so explicit and implicit defaults share them.
func effectiveEpsilon(opts core.Options) float64 {
	if opts.Epsilon == 0 {
		return 0.3
	}
	return opts.Epsilon
}

func effectiveGamma(opts core.Options) float64 {
	if opts.Gamma == 0 {
		return 0.01
	}
	return opts.Gamma
}

// shedOrDegrade answers a request the scheduler refused to run. Preference
// order: a memoized converged result at ε' ≤ the requested ε answers with
// 200 and "degraded":true — the client gets an answer that satisfies its
// error bound, just not a freshly computed one. Otherwise the shed
// surfaces as the given status (429 or 503) with a Retry-After hint.
// Either way the request counts as shed; a degraded answer additionally
// counts on the degraded counter.
func (s *Server) shedOrDegrade(w http.ResponseWriter, entry *Entry, fk familyKey, mk memoKey,
	opts core.Options, timeout time.Duration, graphName string,
	retryAfter time.Duration, msg string, status int) {
	s.metrics.RequestShed()
	if cached, eps, ok := entry.Dominating(fk, mk, effectiveEpsilon(opts)); ok {
		s.metrics.RequestDegraded()
		writeJSON(w, http.StatusOK, topkResponse{
			Graph: graphName, GraphVersion: mk.version, ServedFrom: "cache",
			TimeoutMillis: timeout.Milliseconds(),
			Degraded:      true, DegradedEpsilon: eps,
			Result: cached,
		})
		return
	}
	if retryAfter <= 0 {
		retryAfter = s.sched.RetryAfter()
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	writeError(w, status, msg, "")
}

// runTopK executes one (possibly shared) solver run on fam through the
// scheduler and renders its response body once, so coalesced waiters all
// send the same bytes. The run's context is detached from any single
// client: a waiter disconnecting must not cancel a run others share.
// Deadlines cover queue wait plus solve time — admission control should
// surface as 429s and partial results, not unbounded latency. A converged
// run enters the family's memo, which also backs graceful degradation
// under overload.
func (s *Server) runTopK(entry *Entry, fam *family, opts core.Options, timeout time.Duration, graphName string, job Job) flightResult {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var res *core.Result
	var solvedVer int
	var solveErr error
	if err := s.sched.Do(ctx, job, func(runCtx context.Context) {
		res, solvedVer, solveErr = entry.Solve(runCtx, opts, s.metrics)
	}); err != nil {
		return flightResult{err: err}
	}
	if solveErr != nil {
		return flightResult{err: solveErr}
	}
	if res.Group == nil {
		body, _ := json.Marshal(errorResponse{
			Error: fmt.Sprintf("deadline expired before any group was found (%v) — raise timeoutMillis", res.StopReason),
		})
		return flightResult{errBody: body, status: http.StatusGatewayTimeout}
	}
	wres := wire.FromResult(opts.Algorithm, opts.K, res, nil)
	if res.StopReason == core.StopConverged {
		// Keyed under the version the solve actually observed — a patch
		// landing between admission and solve must not poison the new
		// version's memo with a pre-admission key, nor vice versa.
		fam.store(memoKeyFor(opts, solvedVer), effectiveEpsilon(opts), wres)
	}
	return flightResult{
		resp: &topkResponse{
			Graph: graphName, GraphVersion: solvedVer,
			TimeoutMillis: timeout.Milliseconds(),
			Result:        wres,
		},
		status: http.StatusOK,
	}
}

// clusterResponse is the body of GET /v1/cluster: per-shard liveness,
// latest assigned index range and throughput.
type clusterResponse struct {
	Protocol int               `json:"protocol"`
	Shards   []shard.ShardInfo `json:"shards"`
	Live     int               `json:"live"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "server: not serving as a coordinator (no shards configured)", "")
		return
	}
	infos := s.cluster.Shards()
	live := 0
	for _, info := range infos {
		if info.Alive {
			live++
		}
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Protocol: wire.ShardProtocolVersion,
		Shards:   infos,
		Live:     live,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleHealthz is liveness: the process is up and serving HTTP. It stays
// 200 even while draining or saturated — restarting a draining process
// would only lose the in-flight partials. Readiness lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.sched.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status     string `json:"status"`
		Graphs     int    `json:"graphs"`
		QueueDepth int64  `json:"queueDepth"`
	}{status, s.reg.Len(), s.metrics.Snapshot().QueueDepth})
}

// handleReadyz is readiness: should a load balancer route new work here?
// Not ready while draining (admissions would 503) or while the normal
// lane's queue is at the shed threshold (admissions would 429) — in either
// state a new request is better sent to a sibling.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	queued, depth := s.sched.QueuedNormal()
	switch {
	case s.sched.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case queued >= depth:
		status, code = "saturated", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queueDepth"`
		QueueCap   int    `json:"queueCap"`
	}{status, queued, depth})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg, field string) {
	writeJSON(w, status, errorResponse{Error: msg, Field: field})
}
