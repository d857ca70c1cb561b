// Package gbc finds top-K group betweenness centrality (GBC) groups in
// large graphs, reproducing "An Adaptive Sampling Algorithm for the Top-K
// Group Betweenness Centrality" (ICDE 2025).
//
// The betweenness centrality of a group C is the total fraction of shortest
// paths in the graph that pass through at least one node of C; the top-K
// GBC problem asks for the K-node group maximizing it. The problem is
// NP-hard; this package provides the paper's adaptive sampling algorithm
// AdaAlg — a (1-1/e-ε)-approximation with probability 1-γ that draws far
// fewer shortest-path samples than prior static algorithms — along with
// those baselines (HEDGE, CentRa, EXHAUST), exact evaluators for
// verification, graph loading and synthetic generators.
//
// Quickstart:
//
//	g, err := gbc.LoadEdgeListFile("network.txt", false)
//	if err != nil { ... }
//	res, err := gbc.Solve(context.Background(), g, gbc.Options{K: 20})
//	if err != nil { ... }
//	fmt.Println(res.Group, res.NormalizedEstimate)
package gbc

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"gbc/internal/brandes"
	"gbc/internal/community"
	"gbc/internal/core"
	"gbc/internal/dataset"
	"gbc/internal/exact"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// Graph is an immutable unweighted graph in compressed sparse row form.
// Build one with NewGraph, LoadEdgeList* or a generator.
type Graph = graph.Graph

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// Options configures a top-K GBC computation; the zero value of every field
// except K gets a sensible default (ε = 0.3, γ = 0.01, seed 1). Call
// Options.Validate to vet a configuration without running it — Solve
// performs the same checks and returns the same *OptionError values.
type Options = core.Options

// OptionError reports one invalid Options field: which field, the offending
// value and why it is rejected. Solve (and Options.Validate) return it via
// errors.As-compatible wrapping, so API layers can map validation failures
// to structured responses.
type OptionError = core.OptionError

// Result reports the found group, its centrality estimates, the number of
// sampled shortest paths and the algorithm's stopping state.
type Result = core.Result

// StopReason states why a computation returned: converged by its own rule,
// sample cap, deadline, cancellation, or exhausted iterations. Any value
// other than StopConverged means the returned group is best-so-far without
// the (1-1/e-ε) guarantee.
type StopReason = core.StopReason

// The stop reasons a Result can carry.
const (
	// StopConverged: the stopping rule fired; the guarantee holds with
	// probability 1-γ.
	StopConverged = core.StopConverged
	// StopSampleCap: Options.MaxSamples was reached first.
	StopSampleCap = core.StopSampleCap
	// StopDeadline: Options.MaxDuration or the context deadline expired.
	StopDeadline = core.StopDeadline
	// StopCancelled: the context passed to a *Context entry point was
	// cancelled.
	StopCancelled = core.StopCancelled
	// StopIterationsExhausted: every outer iteration ran without the
	// stopping rule firing.
	StopIterationsExhausted = core.StopIterationsExhausted
)

// Algorithm selects one of the implemented algorithms.
type Algorithm = core.Algorithm

// The implemented algorithms.
const (
	// AdaAlg is the paper's adaptive sampling algorithm (Algorithm 1).
	AdaAlg = core.AlgAdaAlg
	// HEDGE is the static sampling baseline of Mahmoody et al. (KDD 2016).
	HEDGE = core.AlgHEDGE
	// CentRa is the static state of the art of Pellegrina (KDD 2023).
	CentRa = core.AlgCentRa
	// EXHAUST is HEDGE with tiny ε and γ — a near-ground-truth reference.
	EXHAUST = core.AlgEXHAUST
	// PairSampling is the pair-sampling baseline of Yoshida (KDD 2014);
	// its sample bound carries a 1/μ_opt² factor — prefer AdaAlg.
	PairSampling = core.AlgPairSampling
	// Budgeted is the budgeted generalization (Fink & Spoerhase): groups are
	// bounded by Options.Budget over Options.Costs instead of cardinality K.
	Budgeted = core.AlgBudgeted
)

// ParseAlgorithm resolves an algorithm name ("AdaAlg", "HEDGE", ...).
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// ParseStopReason resolves a stop reason name ("Converged", "Deadline", ...)
// — the inverse of StopReason.String, used when decoding wire results.
func ParseStopReason(name string) (StopReason, error) { return core.ParseStopReason(name) }

// TraceEntry records one outer iteration of a run — the elements of
// Result.Trace when Options.CollectTrace is set.
type TraceEntry = core.Iteration

// Observer receives progress callbacks from a run: OnGrowth after every
// committed sample chunk, OnIteration after every outer iteration of the
// guess-halving loop, OnDone once when the run returns. Callbacks run
// synchronously on the run's coordinating goroutine at deterministic
// boundaries, so attaching an observer never changes what is computed — an
// observed run is bit-identical to an unobserved one, for any worker count.
// A panicking observer aborts its run with an *ObserverPanicError instead
// of crashing the process. Set one per run via Options.Observer.
type Observer = obs.Observer

// ObserverFuncs adapts plain functions to Observer; nil fields are skipped.
type ObserverFuncs = obs.ObserverFuncs

// GrowthEvent reports one committed growth chunk of a sample set.
type GrowthEvent = obs.GrowthEvent

// IterationEvent reports one completed outer iteration.
type IterationEvent = obs.IterationEvent

// DoneEvent reports the end of a run, successful or interrupted.
type DoneEvent = obs.DoneEvent

// ObserverPanicError is the error a run returns when one of its Observer's
// callbacks panicked.
type ObserverPanicError = obs.ObserverPanicError

// Metrics is a set of atomic counters and gauges the hot paths update when
// attached via Options.Metrics: samples drawn, sampling rate, adaptive-loop
// position (iteration, guess, ε_sum), coverage-arena bytes, worker-pool
// utilization, greedy re-runs. The zero value is ready to use; it may be
// shared by concurrent runs, and a nil *Metrics disables collection at the
// cost of a nil check. Read it with Snapshot.
type Metrics = obs.Metrics

// Stats is a point-in-time Snapshot of a Metrics, shaped for JSON.
type Stats = obs.Stats

// PublishedMetrics returns the process-wide Metrics registered with the
// standard library's expvar registry under the name "gbc" (created and
// published on first call). Any HTTP server exposing expvar's handler —
// cmd/gbc's -metrics-addr flag, or a user server mounting
// expvar.Handler() — then serves these counters; attach the instance via
// Options.Metrics to feed it.
func PublishedMetrics() *Metrics { return obs.Published() }

// StartProgress renders a live single-line progress report of m to w (meant
// for a terminal's stderr) every interval, until the returned stop function
// is called; stop writes a final newline-terminated line and is idempotent.
// Pass interval 0 for a default suited to a TTY.
func StartProgress(w io.Writer, m *Metrics, interval time.Duration) (stop func()) {
	return obs.StartProgress(w, m, interval)
}

// Solve is the canonical entry point: it finds a top-K GBC group in g using
// the algorithm selected by opts.Algorithm (AdaAlg for the zero value),
// under ctx. It is the package's one solving entry point — the legacy TopK
// wrapper family has been removed (see the README migration notes).
//
// Production notes. Adaptive sampling has no a-priori bound on its total
// work, so bound every request with a context deadline or
// Options.MaxDuration: on expiry (or cancellation) the best group found so
// far is returned with Result.Converged == false and Result.StopReason
// saying what happened — a partial result, not an error. Everything
// computed before the stop is deterministic: the partial result equals what
// an uncancelled run had at the same sample count. A panic in a sampling
// worker goroutine is recovered and returned as an error instead of
// crashing the process. Solve is safe for concurrent use — all per-run
// configuration, including Options.Observer and Options.SamplerSet, lives
// in opts; runs sharing an Options.Metrics simply aggregate counters.
func Solve(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return core.Solve(ctx, g, opts)
}

// WireResult is the stable JSON encoding of a Result — the one wire shape
// shared by `cmd/gbc -json` output and the gbcd server's /v1/topk
// responses. Its field names are an API commitment (additions allowed,
// renames and removals not), and it round-trips: unmarshal(marshal(w))
// reproduces w, with Algorithm and StopReason travelling as their String
// names.
type WireResult = wire.Result

// NewWireResult converts a solver result into its wire form. alg and k echo
// the run's request; label, when non-nil, maps dense node ids to original
// labels (pass (*Graph).Label after loading an edge list), nil keeps dense
// ids.
func NewWireResult(alg Algorithm, k int, res *Result, label func(int32) int64) WireResult {
	return wire.FromResult(alg, k, res, label)
}

// NewBuilder returns a graph builder for n nodes.
func NewBuilder(n int, directed bool) *Builder { return graph.NewBuilder(n, directed) }

// NewGraph builds a graph from an explicit edge list. Self-loops are
// dropped and parallel edges deduplicated.
func NewGraph(n int, directed bool, edges [][2]int32) (*Graph, error) {
	return graph.FromEdges(n, directed, edges)
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" lines, '#'
// and '%' comments) with arbitrary non-negative integer node ids.
func LoadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// LoadEdgeListFile reads an edge list from a file; see LoadEdgeList.
func LoadEdgeListFile(path string, directed bool) (*Graph, error) {
	return graph.ReadEdgeListFile(path, directed)
}

// LoadWeightedEdgeList parses "u v w" lines with positive weights w; the
// resulting graph's shortest paths minimize total weight (Dijkstra-based
// sampling is selected automatically by Solve).
func LoadWeightedEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadWeightedEdgeList(r, directed)
}

// OpenCSR opens a graph stored in the binary .gbcsr format, attaching to
// the file via mmap where the platform supports it (a heap read elsewhere):
// load cost is integrity verification, not parse-and-sort. The returned
// graph holds its backing storage until Close; see Graph.Close. Write the
// format with Graph.WriteCSR/WriteCSRFile or `gengraph -format gbcsr`.
func OpenCSR(path string) (*Graph, error) { return graph.OpenCSR(path) }

// IsCSRFile sniffs whether the file at path starts with the .gbcsr magic
// bytes (the first 8 bytes; the extension is not consulted).
func IsCSRFile(path string) (bool, error) { return graph.DetectCSRFile(path) }

// GraphFormatError is the typed error every .gbcsr reader failure
// surfaces: truncated or corrupt headers, checksum mismatches, invalid CSR
// structure. Retrieve it with errors.As.
type GraphFormatError = graph.FormatError

// LoadGraphFile loads a graph from path in whichever format the file
// holds: a binary .gbcsr (detected by magic bytes; directed/weighted come
// from its header) or a text edge list parsed with the given flags.
func LoadGraphFile(path string, directed, weighted bool) (*Graph, error) {
	isCSR, err := graph.DetectCSRFile(path)
	if err != nil {
		return nil, err
	}
	if isCSR {
		return graph.OpenCSR(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if weighted {
		return graph.ReadWeightedEdgeList(f, directed)
	}
	return graph.ReadEdgeList(f, directed)
}

// NewWeightedGraph builds a weighted graph from explicit (u, v, w) triples.
func NewWeightedGraph(n int, directed bool, edges [][2]int32, weights []float64) (*Graph, error) {
	if len(edges) != len(weights) {
		return nil, fmt.Errorf("gbc: %d edges but %d weights", len(edges), len(weights))
	}
	b := graph.NewBuilder(n, directed)
	for i, e := range edges {
		b.AddWeightedEdge(e[0], e[1], weights[i])
	}
	return b.Build()
}

// BarabasiAlbert generates an undirected preferential-attachment graph
// (n nodes, k edges per new node), deterministically from seed.
func BarabasiAlbert(n, k int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, k, xrand.New(seed))
}

// WattsStrogatz generates a small-world ring lattice (k neighbors per side,
// rewiring probability p), deterministically from seed.
func WattsStrogatz(n, k int, p float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, p, xrand.New(seed))
}

// ErdosRenyi generates a uniform random graph with ~m edges.
func ErdosRenyi(n, m int, directed bool, seed uint64) *Graph {
	return gen.ErdosRenyiGNM(n, m, directed, xrand.New(seed))
}

// DirectedPreferential generates a directed heavy-tailed graph (k out-edges
// per new node, reciprocation probability pRecip).
func DirectedPreferential(n, k int, pRecip float64, seed uint64) *Graph {
	return gen.DirectedPreferential(n, k, pRecip, xrand.New(seed))
}

// StochasticBlockModel generates an undirected graph with planted
// communities: sizes gives each community's node count and probs[i][j]
// the edge probability between communities i and j.
func StochasticBlockModel(sizes []int, probs [][]float64, seed uint64) *Graph {
	return gen.StochasticBlockModel(sizes, probs, xrand.New(seed))
}

// Dataset generates the synthetic stand-in for one of the paper's Table I
// networks ("GrQc", "Facebook", "Coauthor", "DBLP-2011", "Epinions",
// "Twitter", "Email-euAll", "LiveJournal", "SyntheticNetwork-BA",
// "SyntheticNetwork-WS") at the given scale in (0, 1].
func Dataset(name string, scale float64, seed uint64) (*Graph, error) {
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale, seed), nil
}

// DatasetCached is Dataset backed by an on-disk cache under dir: the
// first fetch materializes the stand-in as a canonical text edge list plus
// a binary .gbcsr twin, and later fetches verify the cache (size/sha256 —
// truncation fails loudly) and attach to the .gbcsr via mmap instead of
// regenerating. Note the cached graph's node numbering is the text parse's
// first-appearance order, a permutation of Dataset's; Close the returned
// graph when done.
func DatasetCached(name string, scale float64, seed uint64, dir string) (*Graph, error) {
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Fetch(scale, seed, dir)
}

// DatasetNames lists the Table I dataset names in paper order.
func DatasetNames() []string { return dataset.Names() }

// ExactGBC computes the exact group betweenness centrality B(C) of group
// (Eq. 2 of the paper: ordered pairs, endpoints included). O(n(n+m)) — use
// for verification on small and medium graphs. Weighted graphs are
// evaluated over weighted shortest paths automatically.
func ExactGBC(g *Graph, group []int32) float64 { return exact.GBC(g, group) }

// EstimateGBC estimates B(C) of a user-supplied group from `samples`
// sampled shortest paths — the unbiased estimator of Eq. (4), for graphs
// too large for ExactGBC. The standard error scales as
// n(n-1)·sqrt(µ(1-µ)/samples) with µ = B(C)/(n(n-1)). It returns an error
// for a non-positive sample count, a nil or too-small graph, or a group
// node outside the graph.
func EstimateGBC(g *Graph, group []int32, samples int, seed uint64) (float64, error) {
	return EstimateGBCContext(context.Background(), g, group, samples, seed)
}

// EstimateGBCContext is EstimateGBC under a context. On cancellation or
// deadline expiry the estimate computed from the samples drawn so far —
// still unbiased, just noisier — is returned together with the context's
// error; the estimate is NaN only if not a single sample was drawn.
func EstimateGBCContext(ctx context.Context, g *Graph, group []int32, samples int, seed uint64) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("gbc: EstimateGBC needs a positive sample count, got %d", samples)
	}
	if g == nil || g.N() < 2 {
		return 0, fmt.Errorf("gbc: EstimateGBC needs a graph with at least 2 nodes")
	}
	for _, v := range group {
		if v < 0 || int(v) >= g.N() {
			return 0, fmt.Errorf("gbc: EstimateGBC group node %d out of range [0, %d)", v, g.N())
		}
	}
	set := sampling.NewSetFor(g, xrand.New(seed))
	err := set.GrowToCtx(ctx, samples)
	if set.Len() == 0 {
		if err == nil {
			err = fmt.Errorf("gbc: EstimateGBC drew no samples")
		}
		return math.NaN(), err
	}
	return set.EstimateGroup(group), err
}

// ExactNormalizedGBC is ExactGBC divided by n(n-1), in [0, 1].
func ExactNormalizedGBC(g *Graph, group []int32) float64 {
	return exact.NormalizedGBC(g, group)
}

// ExactTopK solves tiny instances exactly by exhaustive search.
func ExactTopK(g *Graph, k int) (group []int32, value float64) {
	return exact.BruteForceOptimal(g, k)
}

// NodeBetweenness returns the exact betweenness centrality of every node
// (Brandes' algorithm, ordered-pair convention, endpoints excluded).
// Weighted graphs use the Dijkstra-based variant automatically.
func NodeBetweenness(g *Graph) []float64 { return brandes.Centrality(g) }

// TopKNodeBetweenness returns the K individually most central nodes — the
// naive alternative to group betweenness (it over-counts shared coverage).
func TopKNodeBetweenness(g *Graph, k int) []int32 { return brandes.TopK(g, k) }

// EdgeBetweenness returns the exact betweenness centrality of every edge
// (the Girvan–Newman measure), keyed by canonical endpoints.
// Unweighted graphs only.
func EdgeBetweenness(g *Graph) map[EdgeKey]float64 { return brandes.EdgeCentrality(g) }

// EdgeKey canonically identifies an edge in EdgeBetweenness results.
type EdgeKey = brandes.EdgeKey

// Communities runs Girvan–Newman community detection: highest-betweenness
// edges are removed until the graph has at least target components. The
// returned slice assigns a community id to every node. Undirected
// unweighted graphs only; cost is O(removals·n·m) — small/medium graphs.
func Communities(g *Graph, target int) (assignment []int32, count int) {
	return community.GirvanNewman(g, target)
}

// Modularity scores a community assignment with Newman's Q.
func Modularity(g *Graph, assignment []int32) float64 {
	return community.Modularity(g, assignment)
}

// ApproxNodeBetweenness estimates every node's betweenness centrality by
// adaptive path sampling (the ABRA/KADABRA family): with probability 1-delta
// each estimate is within epsilon·n(n-1) of the exact value. Returns the
// estimates and the number of sampled paths.
func ApproxNodeBetweenness(g *Graph, epsilon, delta float64, seed uint64) ([]float64, int, error) {
	return brandes.ApproxCentrality(g, brandes.ApproxOptions{Epsilon: epsilon, Delta: delta}, xrand.New(seed))
}

// ApproxNodeBetweennessContext is ApproxNodeBetweenness under a context. On
// cancellation or deadline expiry the estimates from the samples drawn so
// far — unbiased but without the epsilon guarantee — are returned together
// with the context's error, so callers can use the partial values while
// reporting honestly that the guarantee was not reached.
func ApproxNodeBetweennessContext(ctx context.Context, g *Graph, epsilon, delta float64, seed uint64) ([]float64, int, error) {
	return brandes.ApproxCentralityCtx(ctx, g, brandes.ApproxOptions{Epsilon: epsilon, Delta: delta}, xrand.New(seed))
}

// GreedyExactTopK runs the successive exact greedy of Puzis et al. (2007):
// a (1-1/e)-approximation with exact marginals, O(n²) memory — the
// non-sampling reference for graphs up to a few thousand nodes.
func GreedyExactTopK(g *Graph, k int) (group []int32, value float64) {
	return exact.GreedyPuzis(g, k)
}
