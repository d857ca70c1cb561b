package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gbc/internal/core"
	"gbc/internal/dataset"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// Seed streams: every input family draws from its own stream of the run
// seed, so adding draws to one family never shifts another's inputs.
const (
	streamMix = iota + 1
	streamReuse
	streamPatch
	streamProbe
)

const (
	// setupReps is how many times a run builds its set-up; setup_s is the
	// median. A -smoke run builds it once.
	setupReps = 9
	// smokeScale shrinks every dataset scale for -smoke runs.
	smokeScale = 0.1
	// graphSeed generates every graph. Graphs are fixed inputs, so runs on
	// different seeds do the same graph work; --seed draws what varies
	// between requests (solve and session seeds, PATCH edges).
	graphSeed = 1
	// mixMinRounds is the fewest rounds (one solve of every graph each) a
	// solve-mix window runs, however long they take: ten rounds of six
	// solves put six solves beyond p90. After them the window runs whole
	// rounds until --seconds have passed, which on a machine at half the
	// reference speed is about 17 rounds; at a quarter, the ten rounds
	// alone take about 30 s.
	mixMinRounds = 10
	// mixWarmupRounds rounds on seeds of their own run before the window,
	// so lazy set-up finishes; heap_retained_mb is the live heap after
	// them, a fixed amount of work.
	mixWarmupRounds = 2
)

func setupRepsFor(c config) int {
	if c.smoke {
		return 1
	}
	return setupReps
}

// datasetRef names one generated input graph: a Table I stand-in at a
// scale, generated from a seed.
type datasetRef struct {
	name  string
	scale float64
	seed  uint64
}

func (d datasetRef) generate() (*graph.Graph, error) {
	spec, err := dataset.Lookup(d.name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(d.scale, d.seed), nil
}

// mixSpecs are solve-mix's unweighted graphs. They span the shapes the
// sampler's cost depends on: small and dense, directed, a graph whose CSR
// (~5 MB) is bigger than L2, and a small world with long paths that needs
// ~60k samples over ~25 iterations. The sizes keep a solve near 200 ms on
// average and the heap in bounds: every parallel solve's sample sets stay
// reachable after it returns (their worker pools' finalizers never run),
// ~14 MB per LiveJournal solve at this scale.
var mixSpecs = []struct {
	dataset string
	scale   float64
	k       int
	eps     float64
}{
	{"GrQc", 1, 10, 0.1},
	{"Facebook", 0.2, 20, 0.1},
	{"Epinions", 0.3, 20, 0.1},
	{"LiveJournal", 0.01, 20, 0.2},
	{"SyntheticNetwork-WS", 0.03, 20, 0.2},
}

// weightedNodes sizes solve-mix's weighted Barabási–Albert instance, whose
// Dijkstra sampling costs far more per node than BFS.
const weightedNodes = 400

// solveInstance is one library solve of the solve-mix workload.
type solveInstance struct {
	label string
	ref   datasetRef // zero for the weighted instance
	g     *graph.Graph
	opts  core.Options // Seed is set per solve
}

// mixGraphs builds solve-mix's graphs: its set-up.
func mixGraphs(smoke bool) ([]solveInstance, error) {
	workers := runtime.GOMAXPROCS(0)
	var graphs []solveInstance
	for _, s := range mixSpecs {
		ref := datasetRef{name: s.dataset, scale: s.scale, seed: graphSeed}
		if smoke {
			ref.scale *= smokeScale
		}
		g, err := ref.generate()
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, solveInstance{
			label: fmt.Sprintf("%s@%g", s.dataset, ref.scale), ref: ref, g: g,
			opts: core.Options{K: s.k, Epsilon: s.eps, Workers: workers},
		})
	}
	n := weightedNodes
	if smoke {
		n = 100
	}
	wg, err := weightedBA(n, graphSeed)
	if err != nil {
		return nil, err
	}
	return append(graphs, solveInstance{
		label: fmt.Sprintf("weighted-BA@%d", n), g: wg,
		opts: core.Options{K: 10, Epsilon: 0.2, Workers: workers},
	}), nil
}

// mixRounds returns a source of rounds: each call gives every graph once,
// each with a fresh seed drawn from seed's stream, so round i is the same
// whatever happens after it.
func mixRounds(graphs []solveInstance, seed uint64) func() []solveInstance {
	r := xrand.NewStream(seed, streamMix)
	return func() []solveInstance {
		round := make([]solveInstance, len(graphs))
		for i, in := range graphs {
			in.opts.Seed = sessionSeed(r)
			round[i] = in
		}
		return round
	}
}

// weightedBA is a Barabási–Albert graph (3 edges per new node) with integer
// edge weights 1..8.
func weightedBA(n int, seed uint64) (*graph.Graph, error) {
	r := xrand.New(seed)
	ba := gen.BarabasiAlbert(n, 3, r)
	b := graph.NewBuilder(n, false)
	ba.Edges(func(u, v int32) bool {
		b.AddWeightedEdge(u, v, float64(1+r.Intn(8)))
		return true
	})
	return b.Build()
}

// mixWindow is one measured stretch of closed-loop solves.
type mixWindow struct {
	rounds     [][]solveInstance
	results    []*core.Result
	lat        []float64 // ms per solve, as measured
	scaled     []float64 // ms per solve at the reference speed
	turnaround []float64 // ms between one solve's kernel time and the next call
	stats      obs.Stats // counters of the solves (traced windows only)
}

// runMixWindow solves round after round from next, back to back, and
// times the reference kernel after every solve: a solve's time is scaled
// by the mean of the kernel times just before and just after it. It runs
// at least minRounds rounds, then whole rounds until dur has passed or
// next returns nil. With a tracer every solve runs twice, untraced into w
// and traced into traced, back to back and in alternating order, so the
// two share the machine's state and neither always runs second.
func runMixWindow(ctx context.Context, k *refKernel, next func() []solveInstance, minRounds int, dur time.Duration,
	tr *tracer, rep *report) (w, traced mixWindow, err error) {
	var m *obs.Metrics
	if tr != nil {
		m = &obs.Metrics{}
	}
	before := k.time()
	start := time.Now()
	last := start
	solve := func(dst *mixWindow, in solveInstance, m *obs.Metrics, tr *tracer) error {
		opts := in.opts
		opts.Metrics = m
		t0 := time.Now()
		res, err := core.Solve(ctx, in.g, opts)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("solve %s: %w", in.label, err)
		}
		after := k.time()
		tr.add("solve", 0, int64(len(dst.lat)+1), t0, t1)
		dst.turnaround = append(dst.turnaround, ms(t0.Sub(last)))
		last = time.Now()
		dst.lat = append(dst.lat, ms(t1.Sub(t0)))
		dst.scaled = append(dst.scaled, ms(atNominal(t1.Sub(t0), (before+after)/2)))
		before = after
		dst.results = append(dst.results, res)
		rep.attempted++
		if !res.Converged {
			rep.failed++
			rep.mismatch("%s seed %d: solve stopped with %v", in.label, opts.Seed, res.StopReason)
		}
		return nil
	}
	for len(w.rounds) < minRounds || time.Since(start) < dur {
		round := next()
		if round == nil {
			break
		}
		w.rounds = append(w.rounds, round)
		for _, in := range round {
			switch {
			case tr == nil:
				err = solve(&w, in, nil, nil)
			case len(w.lat)%2 == 0:
				if err = solve(&w, in, nil, nil); err == nil {
					err = solve(&traced, in, m, tr)
				}
			default:
				if err = solve(&traced, in, m, tr); err == nil {
					err = solve(&w, in, nil, nil)
				}
			}
			if err != nil {
				return w, traced, err
			}
		}
	}
	traced.rounds = w.rounds
	traced.stats = m.Snapshot()
	return w, traced, nil
}

func runSolveMix(ctx context.Context, c config, tr *tracer) (*report, error) {
	rep := newReport()
	k := newRefKernel(runtime.GOMAXPROCS(0))
	var graphs []solveInstance
	var setups, gens []float64
	for i := 0; i < setupRepsFor(c); i++ {
		graphs = nil // garbage before the next repetition starts
		raw, scaled, err := timeSetup(k, func() (err error) {
			graphs, err = mixGraphs(c.smoke)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, scaled.Seconds())
		gens = append(gens, ms(raw))
	}
	rep.e2e["setup_s"] = median(setups)
	rep.layer["graph.generate_ms"] = median(gens)
	minRounds, warmRounds := mixMinRounds, mixWarmupRounds
	if c.smoke {
		minRounds, warmRounds = 1, 1
	}
	rep.note("loop: closed, 1 caller, gbc.Solve with Workers=%d; at least %d rounds of %d solves, then whole rounds until %gs",
		runtime.GOMAXPROCS(0), minRounds, len(graphs), c.seconds)
	for _, in := range graphs {
		rep.note("graph %s: n=%d m=%d directed=%v weighted=%v K=%d eps=%g",
			in.label, in.g.N(), in.g.M(), in.g.Directed(), in.g.Weighted(), in.opts.K, in.opts.Epsilon)
	}

	// The warm-up solves every graph with seeds of its own, so lazy set-up
	// finishes before anything is timed.
	warm := mixRounds(graphs, ^c.seed)
	for i := 0; i < warmRounds; i++ {
		for _, in := range warm() {
			if _, err := core.Solve(ctx, in.g, in.opts); err != nil {
				return nil, fmt.Errorf("solve %s: %w", in.label, err)
			}
		}
	}
	rep.e2e["heap_retained_mb"] = retainedHeapMB()

	dur := time.Duration(c.seconds * float64(time.Second))
	var first mixWindow
	if !c.trace {
		w, _, err := runMixWindow(ctx, k, mixRounds(graphs, c.seed), minRounds, dur, nil, rep)
		if err != nil {
			return nil, err
		}
		mixE2E(rep, w, k)
		first = w
	} else {
		// Every solve untraced and traced: the difference is what tracing
		// costs.
		u, t, err := runMixWindow(ctx, k, mixRounds(graphs, c.seed), 1, dur, tr, rep)
		if err != nil {
			return nil, err
		}
		mixE2E(rep, u, k)
		first = u
		for i, res := range t.results {
			if !sameResult(res, u.results[i]) {
				in := u.rounds[i/len(graphs)][i%len(graphs)]
				rep.mismatch("%s seed %d: the traced solve differs from the untraced one", in.label, in.opts.Seed)
			}
		}
		var iters []float64
		for _, res := range t.results {
			iters = append(iters, float64(res.Iterations))
		}
		rep.layer["core.solve_ms_p50"] = median(t.lat)
		rep.layer["core.iterations_mean"] = mean(iters)
		rep.layer["sampling.drawn_per_op"] = ratio(float64(t.stats.Samples), float64(len(t.lat)))
		rep.layer["bench.gen_lag_p90_ms"] = quantile(t.turnaround, 0.9)
		rep.layer["bench.backlog_end"] = 0
		rep.layer["bench.latency_samples"] = float64(len(u.lat))
		rep.layer["bench.trace_overhead_frac"] = ratio(sum(t.scaled), sum(u.scaled)) - 1
		rep.layer["server.busy_frac"] = 0 // no server takes part

		var cases []replayCase
		for _, in := range u.rounds[0] {
			cases = append(cases, replayCase{in.label, in.g, in.opts})
		}
		if err := replayLayers(ctx, cases, tr, rep); err != nil {
			return nil, err
		}
		// Layer probes run on LiveJournal, the graph whose working set is
		// largest; the serving probe uses GrQc, the cheapest to solve.
		if err := layerProbe(ctx, c, graphs[3].g, graphs[len(graphs)-1].g, tr, rep); err != nil {
			return nil, err
		}
		if err := serveProbeStandalone(ctx, c, graphs[0].ref, tr, rep); err != nil {
			return nil, err
		}
	}
	rep.layer["bench.ref_kernel_ms"] = k.medianMs()

	// Untimed: each graph's first solve again, with the same and with one
	// worker, must give the same answer bit for bit.
	for i, in := range first.rounds[0] {
		for _, workers := range []int{in.opts.Workers, 1} {
			opts := in.opts
			opts.Workers = workers
			res, err := core.Solve(ctx, in.g, opts)
			if err != nil {
				return nil, fmt.Errorf("solve %s: %w", in.label, err)
			}
			if !sameResult(res, first.results[i]) {
				rep.mismatch("%s seed %d: a repeat with Workers=%d differs from the timed solve", in.label, opts.Seed, workers)
			}
		}
	}
	return rep, nil
}

// mixE2E reports a window's end-to-end metrics: times at the reference
// speed, samples and quality, all over every solve of the window.
func mixE2E(rep *report, w mixWindow, k *refKernel) {
	var samples, norms []float64
	for _, res := range w.results {
		samples = append(samples, float64(res.Samples))
		norms = append(norms, res.NormalizedEstimate)
	}
	rep.e2e["ops_per_s"] = float64(len(w.scaled)) / (sum(w.scaled) / 1000)
	rep.e2e["latency_p50_ms"] = median(w.scaled)
	rep.e2e["latency_p90_ms"] = quantile(w.scaled, 0.9)
	rep.e2e["samples_per_op"] = mean(samples)
	rep.e2e["norm_gbc_mean"] = mean(norms)
	rep.note("window: %d rounds, %d solves (latency p90 over %d samples), turnaround p90 %.3f ms",
		len(w.rounds), len(w.lat), len(w.lat), quantile(w.turnaround, 0.9))
	rep.note("as measured: %.3f solves/s, latency p50 %.1f ms, p90 %.1f ms; %v",
		float64(len(w.lat))/(sum(w.lat)/1000), median(w.lat), quantile(w.lat, 0.9), k)
}

// sameResult reports whether two solver results agree bit for bit on
// everything but wall time.
func sameResult(a, b *core.Result) bool {
	return slices.Equal(a.Group, b.Group) && a.Estimate == b.Estimate &&
		a.BiasedEstimate == b.BiasedEstimate && a.Samples == b.Samples &&
		a.Iterations == b.Iterations && a.Converged == b.Converged
}

// replayCase is one solve replayed layer by layer.
type replayCase struct {
	label string
	g     *graph.Graph
	opts  core.Options
}

// replayStats are one replay's layer timings.
type replayStats struct {
	solve, grow, greedy, estimate time.Duration
	estimateCalls                 int
	res                           *core.Result
}

// replay solves g with a SamplerSet hook that copies each set's RNG before
// the set is built, then walks the run's trace schedule — grow S to L_q,
// greedy on S, grow T to L_q, estimate the group on T — on fresh sets
// built from those copies. It fails unless the replay ends on the solve's
// group exactly.
func replay(ctx context.Context, rc replayCase, tr *tracer, req int64) (replayStats, error) {
	var st replayStats
	var rands []xrand.Rand
	opts := rc.opts
	opts.CollectTrace = true
	opts.SamplerSet = func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
		rands = append(rands, *r)
		return sampling.NewSetFor(g, r)
	}
	t0 := time.Now()
	res, err := core.Solve(ctx, rc.g, opts)
	t1 := time.Now()
	if err != nil {
		return st, fmt.Errorf("replay %s: %w", rc.label, err)
	}
	st.solve, st.res = t1.Sub(t0), res
	tr.add("core.solve", 0, req, t0, t1)
	if len(rands) != 2 {
		return st, fmt.Errorf("replay %s: solve built %d sample sets, want 2", rc.label, len(rands))
	}
	setS := sampling.NewSetFor(rc.g, &rands[0])
	setT := sampling.NewSetFor(rc.g, &rands[1])
	setS.Workers, setT.Workers = rc.opts.Workers, rc.opts.Workers

	type call struct {
		name       string
		start, end time.Time
	}
	var calls []call
	var group []int32
	r0 := time.Now()
	for _, it := range res.Trace {
		a := time.Now()
		if err := setS.GrowToCtx(ctx, it.L); err != nil {
			return st, err
		}
		b := time.Now()
		group, _ = setS.Greedy(rc.opts.K)
		c := time.Now()
		if err := setT.GrowToCtx(ctx, it.L); err != nil {
			return st, err
		}
		d := time.Now()
		setT.EstimateGroup(group)
		e := time.Now()
		calls = append(calls, call{"sampling.grow", a, b}, call{"coverage.greedy", b, c},
			call{"sampling.grow", c, d}, call{"coverage.estimate", d, e})
		st.grow += b.Sub(a) + d.Sub(c)
		st.greedy += c.Sub(b)
		st.estimate += e.Sub(d)
		st.estimateCalls++
	}
	root := tr.add("replay", 0, req, r0, time.Now())
	for _, cl := range calls {
		tr.add(cl.name, root, req, cl.start, cl.end)
	}
	if !slices.Equal(group, res.Group) {
		return st, fmt.Errorf("replay %s: layer-by-layer replay chose %v, the solve chose %v", rc.label, group, res.Group)
	}
	return st, nil
}

// replayReps is how many times each case is replayed; each layer time is
// the median over the repetitions, so one slow moment does not decide it.
const replayReps = 3

// replayLayers replays each case and reports the coverage and core layer
// metrics: greedy time per solve and its share, the cost of one group
// estimate, and the solve time no layer call accounts for.
func replayLayers(ctx context.Context, cases []replayCase, tr *tracer, rep *report) error {
	var solve, grow, greedy, estimate time.Duration
	calls := 0
	var last *core.Result
	for i, rc := range cases {
		var reps [4][]float64 // solve, grow, greedy, estimate
		for k := 0; k < replayReps; k++ {
			st, err := replay(ctx, rc, tr, int64(1_000_000+replayReps*i+k))
			if err != nil {
				return err
			}
			for j, d := range []time.Duration{st.solve, st.grow, st.greedy, st.estimate} {
				reps[j] = append(reps[j], float64(d))
			}
			calls += st.estimateCalls
			last = st.res
		}
		med := func(j int) time.Duration { return time.Duration(median(reps[j])) }
		solve, grow, greedy, estimate = solve+med(0), grow+med(1), greedy+med(2), estimate+med(3)
		rep.note("replay %s (median of %d): solve %.1f ms = grow %.1f + greedy %.1f + estimate %.2f + core self %.1f",
			rc.label, replayReps, ms(med(0)), ms(med(1)), ms(med(2)), ms(med(3)), ms(med(0)-med(1)-med(2)-med(3)))
	}
	rep.layer["coverage.greedy_ms"] = ms(greedy) / float64(len(cases))
	rep.layer["coverage.greedy_share"] = ratio(float64(greedy), float64(solve))
	rep.layer["coverage.covered_by_us"] = ratio(float64(estimate)/1e3, float64(calls)/replayReps)
	rep.layer["core.self_share"] = ratio(float64(solve-grow-greedy-estimate), float64(solve))
	return wireEncodeProbe(last, rep)
}
