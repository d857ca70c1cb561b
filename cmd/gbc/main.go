// Command gbc finds a top-K group betweenness centrality group in a graph
// loaded from an edge list or generated from the built-in dataset registry.
//
// Examples:
//
//	gbc -input network.txt -k 20
//	gbc -input network.gbcsr -k 20      # binary CSR input, mmap-attached
//	gbc -dataset GrQc -k 50 -alg CentRa -eps 0.2
//	gbc -dataset Twitter -scale 0.05 -k 20 -verify
//	gbc -dataset LiveJournal -k 20 -timeout 5s        # best group within 5s
//	gbc -input big.txt -k 50 -eps 0.05 -timeout 30s -workers 8
//	gbc -dataset GrQc -k 20 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Adaptive sampling has no a-priori bound on its total work, so -timeout
// bounds the wall-clock time of the run: on expiry (or on Ctrl-C) the best
// group found so far is printed with its stop reason ("Deadline" or
// "Cancelled") and converged: false — a partial result, not an error.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"gbc"
)

func main() {
	var o cliOptions
	flag.StringVar(&o.input, "input", "", "graph file: text edge list ('u v' lines; '#' comments) or binary .gbcsr (auto-detected)")
	flag.BoolVar(&o.directed, "directed", false, "treat the input edge list as directed")
	flag.BoolVar(&o.weightedIn, "weighted", false, "treat the input edge list as weighted ('u v w' lines)")
	flag.StringVar(&o.dataset, "dataset", "", "generate a Table I dataset stand-in instead of reading a file")
	flag.Float64Var(&o.scale, "scale", 0, "dataset scale in (0,1]; 0 = dataset default")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "materialize -dataset graphs under this directory (text + .gbcsr) and reuse the verified cache on later runs")
	flag.IntVar(&o.k, "k", 10, "group size K")
	flag.StringVar(&o.algName, "alg", "AdaAlg", "algorithm: AdaAlg, HEDGE, CentRa, EXHAUST or PairSampling")
	flag.Float64Var(&o.eps, "eps", 0.3, "error ratio ε in (0, 1-1/e)")
	flag.Float64Var(&o.gamma, "gamma", 0.01, "failure probability γ")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.DurationVar(&o.timeout, "timeout", 0, "wall-clock bound (e.g. 5s, 2m); on expiry the best-so-far group is printed (0 = none)")
	flag.IntVar(&o.workers, "workers", 0, "sampling goroutines (<2 = sequential; results are identical)")
	flag.BoolVar(&o.verify, "verify", false, "also compute the exact B(C) of the found group (O(n(n+m)))")
	flag.BoolVar(&o.trace, "trace", false, "print per-iteration statistics")
	flag.BoolVar(&o.labels, "labels", false, "print original node labels instead of dense ids")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the result as a JSON object instead of text")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file after the run")
	flag.BoolVar(&o.progress, "progress", false, "render a live one-line progress report to stderr")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live expvar metrics over HTTP at this address (e.g. localhost:6060; see /debug/vars)")
	flag.Parse()

	// Ctrl-C cancels the run gracefully: the algorithms return their
	// best-so-far group with StopReason Cancelled, which is printed like
	// any other result. A second Ctrl-C kills the process as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "gbc:", err)
		os.Exit(1)
	}
}

// cliOptions carries the parsed command line.
type cliOptions struct {
	input       string
	directed    bool
	weightedIn  bool
	dataset     string
	scale       float64
	cacheDir    string
	k           int
	algName     string
	eps         float64
	gamma       float64
	seed        uint64
	timeout     time.Duration
	workers     int
	verify      bool
	trace       bool
	labels      bool
	jsonOut     bool
	cpuprofile  string
	memprofile  string
	progress    bool
	metricsAddr string

	// metricsReady, when set (tests), is called with the base URL of the
	// metrics server once it is listening.
	metricsReady func(url string)
}

// profile starts the requested runtime/pprof captures and returns a stop
// function that finishes them; profiling the real binary is how perf PRs
// find the next hot path without a synthetic harness.
func profile(o cliOptions) (stop func() error, err error) {
	var cpuFile *os.File
	if o.cpuprofile != "" {
		cpuFile, err = os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// serveMetrics exposes the process's expvar registry — including the "gbc"
// variable fed by Options.Metrics — over HTTP at /debug/vars. It returns
// once the listener is bound, so the reported URL is immediately pollable
// (addr may use port 0 to let the OS pick).
func serveMetrics(addr string) (stop func(), url string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() { srv.Close() }, "http://" + ln.Addr().String(), nil
}

// jsonResult is the machine-readable output of -json: the run's input
// parameters plus the solver result in the stable wire encoding shared
// with the gbcd server's /v1/topk responses (gbc.WireResult). The result
// is nested rather than embedded so its frozen field set stays one
// recognizable object across both surfaces.
type jsonResult struct {
	Nodes    int            `json:"nodes"`
	Edges    int            `json:"edges"`
	Directed bool           `json:"directed"`
	Epsilon  float64        `json:"epsilon"`
	Gamma    float64        `json:"gamma"`
	Seed     uint64         `json:"seed"`
	Result   gbc.WireResult `json:"result"`
	ExactGBC float64        `json:"exactGBC,omitempty"`
}

func run(ctx context.Context, o cliOptions) (err error) {
	stopProfile, err := profile(o)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil && err == nil {
			err = perr
		}
	}()
	var g *gbc.Graph
	switch {
	case o.input != "" && o.dataset != "":
		return fmt.Errorf("-input and -dataset are mutually exclusive")
	case o.input != "":
		// Format is sniffed from the file itself: a binary .gbcsr attaches
		// via mmap (directed/weighted come from its header), anything else
		// parses as a text edge list under the -directed/-weighted flags.
		g, err = gbc.LoadGraphFile(o.input, o.directed, o.weightedIn)
	case o.dataset != "":
		s := o.scale
		if s == 0 {
			s = 0.1
		}
		if o.cacheDir != "" {
			g, err = gbc.DatasetCached(o.dataset, s, o.seed, o.cacheDir)
		} else {
			g, err = gbc.Dataset(o.dataset, s, o.seed)
		}
	default:
		return fmt.Errorf("need -input FILE or -dataset NAME (known: %v)", gbc.DatasetNames())
	}
	if err != nil {
		return err
	}
	defer g.Close() // releases the mmap of a .gbcsr input; no-op otherwise
	alg, err := gbc.ParseAlgorithm(o.algName)
	if err != nil {
		return err
	}
	if !o.jsonOut {
		fmt.Printf("graph: %v\n", g)
	}

	opts := gbc.Options{
		K: o.k, Epsilon: o.eps, Gamma: o.gamma, Seed: o.seed,
		CollectTrace: o.trace, MaxDuration: o.timeout, Workers: o.workers,
	}
	stopProgress := func() {}
	if o.progress || o.metricsAddr != "" {
		m := gbc.PublishedMetrics()
		opts.Metrics = m
		if o.metricsAddr != "" {
			stopMetrics, url, merr := serveMetrics(o.metricsAddr)
			if merr != nil {
				return merr
			}
			defer stopMetrics()
			fmt.Fprintf(os.Stderr, "gbc: serving metrics at %s/debug/vars\n", url)
			if o.metricsReady != nil {
				o.metricsReady(url)
			}
		}
		if o.progress {
			stopProgress = gbc.StartProgress(os.Stderr, m, 0)
		}
	}
	defer stopProgress() // idempotent; covers the error returns below
	opts.Algorithm = alg
	res, err := gbc.Solve(ctx, g, opts)
	stopProgress() // final progress line lands before the results
	if err != nil {
		return err
	}
	if res.Group == nil {
		return fmt.Errorf("stopped (%v) before any group was found — raise -timeout", res.StopReason)
	}
	if o.jsonOut {
		var label func(int32) int64
		if o.labels {
			label = g.Label
		}
		out := jsonResult{
			Nodes: g.N(), Edges: g.M(), Directed: g.Directed(),
			Epsilon: o.eps, Gamma: o.gamma, Seed: o.seed,
			Result: gbc.NewWireResult(alg, o.k, res, label),
		}
		if o.verify {
			out.ExactGBC = gbc.ExactGBC(g, res.Group)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if o.trace {
		fmt.Println("  q      guess          L     biased    unbiased  cnt      β        ε_sum")
		for _, it := range res.Trace {
			fmt.Printf("%3d %10.1f %10d %10.1f %11.1f %4d %8.4f %8.4f\n",
				it.Q, it.Guess, it.L, it.Biased, it.Unbiased, it.Cnt, it.Beta, it.EpsilonSum)
		}
	}
	fmt.Printf("algorithm: %v (ε=%g, γ=%g, seed=%d)\n", alg, o.eps, o.gamma, o.seed)
	fmt.Printf("group (K=%d):", o.k)
	for _, v := range res.Group {
		if o.labels {
			fmt.Printf(" %d", g.Label(v))
		} else {
			fmt.Printf(" %d", v)
		}
	}
	fmt.Println()
	fmt.Printf("estimated GBC: %.1f (normalized %.4f)\n", res.Estimate, res.NormalizedEstimate)
	fmt.Printf("samples: %d (S=%d, T=%d), iterations: %d, converged: %v (%v), elapsed: %v\n",
		res.Samples, res.SamplesS, res.SamplesT, res.Iterations, res.Converged, res.StopReason, res.Elapsed)
	if !res.Converged {
		fmt.Printf("note: stopped early (%v) — the group is best-so-far without the (1-1/e-ε) guarantee\n",
			res.StopReason)
	}
	if o.verify {
		exact := gbc.ExactGBC(g, res.Group)
		n := float64(g.N())
		fmt.Printf("exact GBC: %.1f (normalized %.4f); estimate off by %+.2f%%\n",
			exact, exact/(n*(n-1)), 100*(res.Estimate-exact)/exact)
	}
	return nil
}
