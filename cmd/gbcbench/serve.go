package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gbc/internal/core"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/server"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

const (
	// drainTimeout is how long requests still in flight at the end of a
	// window may take to finish.
	drainTimeout = 10 * time.Second
	// maxGenLag is the generator lateness (p90) beyond which a run is
	// invalid: the numbers would describe the Go scheduler, not gbcd.
	maxGenLag = 50 * time.Millisecond
	// maxVerifiedKeys bounds how many distinct solved requests a serving
	// run re-solves locally to check.
	maxVerifiedKeys = 40
	// minStretch and maxStretch bound how far a segment stretches or
	// squeezes its schedule to the machine's speed.
	minStretch, maxStretch = 0.5, 8.0
	// segment is how much of a schedule, at the reference speed, a serving
	// window sends between two timings of the reference kernel.
	segment = time.Second
)

// topkRequest and topkResponse mirror gbcd's POST /v1/topk shapes. The
// benchmark never sets "sampling", so the server's deterministic default
// applies and every answer can be checked bit for bit against gbc.Solve.
type topkRequest struct {
	Graph     string  `json:"graph"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon"`
	Seed      uint64  `json:"seed"`
	Freshness string  `json:"freshness"`
}

type topkResponse struct {
	GraphVersion int         `json:"graphVersion"`
	ServedFrom   string      `json:"servedFrom"`
	Result       wire.Result `json:"result"`
}

type patchEdge struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w,omitempty"`
}

type patchRequest struct {
	Insert    []patchEdge `json:"insert"`
	Delete    []patchEdge `json:"delete"`
	IfVersion int         `json:"ifVersion"`
}

func patchBody(d *graph.Delta, ifVersion int) patchRequest {
	p := patchRequest{IfVersion: ifVersion}
	for _, e := range d.Insert {
		p.Insert = append(p.Insert, patchEdge{e.U, e.V, e.W})
	}
	for _, e := range d.Delete {
		p.Delete = append(p.Delete, patchEdge{e.U, e.V, 0})
	}
	return p
}

// loopback is one HTTP server on a 127.0.0.1 listener.
type loopback struct {
	hs   *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	l := &loopback{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, "http://" + ln.Addr().String(), nil
}

func (l *loopback) close() {
	l.hs.Close()
	<-l.done
}

// shardWorkers are shard.Worker handlers on their own loopback listeners.
type shardWorkers struct {
	workers []*shard.Worker
	servers []*loopback
	urls    []string
}

// startShardWorkers starts n workers, each holding graphs.
func startShardWorkers(n int, graphs map[string]*graph.Graph) (*shardWorkers, error) {
	sw := &shardWorkers{}
	for i := 0; i < n; i++ {
		w := shard.NewWorker(nil, false)
		for key, g := range graphs {
			w.AddGraph(key, g)
		}
		l, url, err := serveLoopback(w.Handler())
		if err != nil {
			sw.close()
			return nil, err
		}
		sw.workers, sw.servers, sw.urls = append(sw.workers, w), append(sw.servers, l), append(sw.urls, url)
	}
	return sw, nil
}

func (sw *shardWorkers) close() {
	for _, l := range sw.servers {
		l.close()
	}
	for _, w := range sw.workers {
		w.Close()
	}
}

// topology is an in-process gbcd, server.New behind a loopback listener,
// plus the load client. The server keeps the zero server.Config apart
// from a private metrics instance.
type topology struct {
	metrics *obs.Metrics
	srv     *server.Server
	api     *loopback
	base    string
	client  *http.Client
}

func startTopology() (*topology, error) {
	t := &topology{metrics: &obs.Metrics{}}
	t.srv = server.New(server.Config{Metrics: t.metrics})
	api, base, err := serveLoopback(t.srv.Handler())
	if err != nil {
		t.close()
		return nil, err
	}
	t.api, t.base = api, base
	nproc := runtime.GOMAXPROCS(0)
	t.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
	}}
	return t, nil
}

func (t *topology) close() {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.api != nil {
		t.api.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	t.srv.Shutdown(ctx)
	cancel()
}

// do sends one request with a JSON body and reads the whole response.
func (t *topology) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (t *topology) register(ctx context.Context, req map[string]any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, resp, err := t.do(ctx, http.MethodPost, "/v1/graphs", body)
	if err != nil {
		return fmt.Errorf("register %v: %w", req["name"], err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register %v: status %d: %s", req["name"], status, resp)
	}
	return nil
}

func registerDataset(ctx context.Context, t *topology, name string, d datasetRef) error {
	return t.register(ctx, map[string]any{"name": name, "dataset": d.name, "scale": d.scale, "seed": d.seed})
}

func (t *topology) stats(ctx context.Context) (obs.Stats, error) {
	var s obs.Stats
	status, body, err := t.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", status)
	}
	return s, json.Unmarshal(body, &s)
}

// op is one scheduled request: a top-K read, or an edge PATCH when delta
// is set.
type op struct {
	due       time.Duration // in the schedule, at the reference speed
	graph     string
	k         int
	eps       float64
	seed      uint64
	freshness string
	delta     *graph.Delta
	ifVersion int
}

// outcome is what happened to one op. Times are since the window start;
// latency counts from when the op was due, not from when it was sent.
type outcome struct {
	due, sent, done time.Duration
	lag             time.Duration // how late the generator handed the op over
	ref             time.Duration // kernel time of the op's segment
	unsent          bool
	status          int
	err             error
	resp            topkResponse
	bad             string // why verification rejected the answer
}

func (o *outcome) failed(op *op) bool {
	return o.unsent || o.err != nil || o.status != http.StatusOK || o.bad != "" ||
		(op.delta == nil && !o.resp.Result.Converged)
}

// latency is the op's due-to-answer time at the reference speed.
func (o *outcome) latency() time.Duration { return atNominal(o.done-o.due, o.ref) }

// window is one open-loop run of a schedule.
type window struct {
	dur           time.Duration // from the start to the end of the last segment's schedule
	nominal       time.Duration // time spent serving, at the reference speed
	segments      int
	ops           []op
	out           []outcome
	retainedMB    float64
	before, after obs.Stats
	traceNs       atomic.Int64 // time the senders spent recording spans
}

// serveState is a serving workload's set-up: the topology, the
// benchmark's own copy of every registered graph, and the schedule state
// that carries over from one window to the next.
type serveState struct {
	topo    *topology
	graphs  map[string]*graph.Graph // name → version 1
	refs    map[string]datasetRef   // name → the dataset it was generated as
	deltas  []*graph.Delta          // serve-patch: version v+1 = version v + deltas[v-1]
	patched int                     // deltas already scheduled
	rng     *xrand.Rand
	genMs   float64 // time spent generating the benchmark's graph copies
	primary string  // graph the layer probes and the serving probe use

	mu       sync.Mutex
	versions map[string][]*graph.Graph
}

// graphAt returns the benchmark's copy of a graph version, rebuilding
// patched versions with graph.ApplyDelta.
func (st *serveState) graphAt(name string, version int) (*graph.Graph, error) {
	if version < 1 {
		return nil, fmt.Errorf("graph %q has no version %d", name, version)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.versions == nil {
		st.versions = map[string][]*graph.Graph{}
	}
	vs := st.versions[name]
	if len(vs) == 0 {
		g, ok := st.graphs[name]
		if !ok {
			return nil, fmt.Errorf("unknown graph %q", name)
		}
		vs = []*graph.Graph{g}
	}
	for len(vs) < version {
		if len(vs) > len(st.deltas) {
			return nil, fmt.Errorf("graph %q has no version %d", name, version)
		}
		g, err := graph.ApplyDelta(vs[len(vs)-1], st.deltas[len(vs)-1])
		if err != nil {
			return nil, err
		}
		vs = append(vs, g)
	}
	st.versions[name] = vs
	return vs[version-1], nil
}

// serveWorkload describes one serving workload.
type serveWorkload struct {
	loop     string        // human description of the load
	limit    time.Duration // latency limit for goodput
	setup    func(ctx context.Context, c config, t *topology, st *serveState) error
	schedule func(st *serveState, dur time.Duration) []op
	// replays are representative solves for the layer-by-layer replay.
	replays func(st *serveState) []replayCase
}

func runServe(ctx context.Context, c config, tr *tracer, w serveWorkload, stream uint64) (*report, error) {
	rep := newReport()
	k := newRefKernel(runtime.GOMAXPROCS(0))
	var st *serveState
	var setups, gens []float64
	for i := 0; i < setupRepsFor(c); i++ {
		if st != nil {
			st.topo.close()
			st = nil
		}
		_, scaled, err := timeSetup(k, func() error {
			topo, err := startTopology()
			if err != nil {
				return err
			}
			st = &serveState{topo: topo, graphs: map[string]*graph.Graph{}, refs: map[string]datasetRef{},
				rng: xrand.NewStream(c.seed, stream)}
			return w.setup(ctx, c, topo, st)
		})
		if err != nil {
			if st != nil {
				st.topo.close()
			}
			return nil, err
		}
		setups = append(setups, scaled.Seconds())
		gens = append(gens, st.genMs)
	}
	defer st.topo.close()
	rep.e2e["setup_s"] = median(setups)
	rep.layer["graph.generate_ms"] = median(gens)
	rep.note("loop: %s (rates at the reference speed); latency limit %v; %d client connections", w.loop, w.limit, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(st.graphs))
	for name := range st.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := st.graphs[name]
		rep.note("graph %s (%s@%g): n=%d m=%d directed=%v", name, st.refs[name].name, st.refs[name].scale, g.N(), g.M(), g.Directed())
	}

	// Warm-up: lazy set-up (connections, allocator growth) finishes before
	// anything is timed. It sends its whole schedule however long that
	// takes, so heap_retained_mb, the live heap after it, measures a fixed
	// amount of work.
	warm := warmupFor(c)
	warmup, err := runWindow(ctx, k, st, w.schedule(st, warm), warm, true, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["heap_retained_mb"] = warmup.retainedMB

	// The measured window sends as much of its schedule as fits in its
	// time; the schedule is long enough for a machine at twice the
	// reference speed. A traced run traces the whole window: recording a
	// span costs the sender a lock and an append after the response
	// arrived, and bench.trace_overhead_frac measures exactly that time.
	full := time.Duration(c.seconds * float64(time.Second))
	win, err := runWindow(ctx, k, st, w.schedule(st, time.Duration(float64(full)/minStretch)), full, false, tr)
	if err != nil {
		return nil, err
	}

	// The warm-up's answers are verified too, and its solves are what the
	// first cache answers of the measured window must match.
	verifyServe(ctx, st, []*window{warmup, win}, rep)
	for i := range win.ops {
		rep.attempted++
		if win.out[i].failed(&win.ops[i]) {
			rep.failed++
		}
	}
	lag := win.genLagP90()
	rep.note("window: %.1fs in %d segments, %d ops, generator lag p90 %.3f ms, backlog at end %d; live heap %.1f MB after the warm-up's %d ops, %.1f MB after the window",
		win.dur.Seconds(), win.segments, len(win.ops), ms(lag), win.backlog(), warmup.retainedMB, len(warmup.ops), win.retainedMB)
	if lag > maxGenLag && !c.smoke {
		return nil, fmt.Errorf("load generator fell %.1f ms behind at p90 (limit %v): the run measured the scheduler, not gbcd", ms(lag), maxGenLag)
	}
	serveE2E(rep, win, w.limit, k)
	rep.layer["bench.ref_kernel_ms"] = k.medianMs()

	if c.trace {
		serveLayers(rep, win)
		lat, _ := win.readLatencies()
		rep.layer["bench.latency_samples"] = float64(len(lat))
		var httpNs int64
		for i := range win.out {
			if o := &win.out[i]; !o.unsent {
				httpNs += int64(o.done - o.sent)
			}
		}
		rep.layer["bench.trace_overhead_frac"] = ratio(float64(win.traceNs.Load()), float64(httpNs))
		if err := replayLayers(ctx, w.replays(st), tr, rep); err != nil {
			return nil, err
		}
		pg := st.graphs[st.primary]
		wg, err := weightedBA(probeWeightedNodes(c), graphSeed)
		if err != nil {
			return nil, err
		}
		if err := layerProbe(ctx, c, pg, wg, tr, rep); err != nil {
			return nil, err
		}
		probe, err := serveProbe(ctx, st.topo, st.refs[st.primary], tr)
		if err != nil {
			return nil, err
		}
		// A window that sent no cache-served reads or no PATCHes has no
		// numbers for those paths; the serial probe fills them in.
		for name, v := range probe {
			if _, ok := rep.layer[name]; !ok {
				rep.layer[name] = v
			}
		}
	}
	return rep, nil
}

// warmupFor is how much schedule, at the reference speed, a serving
// workload sends before its measured window.
func warmupFor(c config) time.Duration {
	if c.smoke {
		return 300 * time.Millisecond
	}
	return time.Second
}

// runWindow sends a schedule open-loop: one generator hands each op over
// when it is due, GOMAXPROCS senders (one connection each) send them.
// PATCHes are sent in schedule order, each after the previous one
// returned, so their ifVersion chain holds.
//
// The schedule's times hold at the reference speed, and the window sends
// it in segments: each segment's worth of it, then, once its requests
// have been answered and nothing else runs, the reference kernel
// refAnchors times. Each segment's schedule is stretched by the machine's
// slowdown, the median kernel time before it over refNominal: on a machine
// running twice as slow every op comes twice as late, so gbcd is as busy
// as at the reference speed and a slow machine does not turn into a queue.
// A segment's latencies are scaled by the mean of the kernel times before
// and after it. The kernel never runs beside a request, which it would
// slow down.
//
// The window stops sending at dur, or with fixedWork once the whole
// schedule is sent; ops it never reached are dropped. Requests still
// unanswered drainTimeout after the window fail.
func runWindow(ctx context.Context, k *refKernel, st *serveState, ops []op, dur time.Duration, fixedWork bool, tr *tracer) (*window, error) {
	win := &window{ops: ops, out: make([]outcome, len(ops))}
	bodies := make([][]byte, len(ops))
	prev := make([]chan struct{}, len(ops))
	done := make([]chan struct{}, len(ops))
	var last chan struct{}
	for i, o := range ops {
		var body any = topkRequest{Graph: o.graph, K: o.k, Epsilon: o.eps, Seed: o.seed, Freshness: o.freshness}
		if o.delta != nil {
			body = patchBody(o.delta, o.ifVersion)
			done[i], prev[i] = make(chan struct{}), last
			last = done[i]
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	var err error
	if win.before, err = st.topo.stats(ctx); err != nil {
		return nil, err
	}

	limit := dur
	if fixedWork {
		limit = time.Duration(float64(dur) * maxStretch)
	}
	ref := k.anchor()
	start := time.Now()
	rctx, cancel := context.WithDeadline(ctx, start.Add(limit+drainTimeout))
	defer cancel()
	queue := make(chan int, len(ops)) // never blocks the generator
	var senders, pending sync.WaitGroup
	for s := 0; s < runtime.GOMAXPROCS(0); s++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range queue {
				send(rctx, st.topo, start, win, i, bodies[i], prev[i], done[i], tr)
				pending.Done()
			}
		}()
	}
	sleepUntil := func(t time.Duration) {
		if d := t - time.Since(start); d > 0 {
			time.Sleep(d)
		}
	}
	n := 0 // ops handed over
	for seg := time.Duration(0); n < len(ops) && (fixedWork || time.Since(start) < dur); seg += segment {
		stretch := min(max(float64(ref)/float64(refNominal), minStretch), maxStretch)
		segStart, first := time.Since(start), n
		segEnd := segStart + time.Duration(float64(segment)*stretch)
		if !fixedWork {
			segEnd = min(segEnd, dur)
		}
		for ; n < len(ops) && ops[n].due < seg+segment; n++ {
			due := segStart + time.Duration(float64(ops[n].due-seg)*stretch)
			if due >= segEnd {
				break
			}
			sleepUntil(due)
			o := &win.out[n]
			o.due, o.lag = due, time.Since(start)-due
			pending.Add(1)
			queue <- n
		}
		sleepUntil(segEnd)
		win.dur = segEnd
		pending.Wait()
		served := time.Since(start) - segStart
		next := k.anchor()
		segRef := (ref + next) / 2
		for i := first; i < n; i++ {
			win.out[i].ref = segRef
		}
		win.nominal += atNominal(served, segRef)
		win.segments++
		ref = next
	}
	close(queue)
	senders.Wait()
	win.ops, win.out = ops[:n], win.out[:n]
	win.retainedMB = retainedHeapMB()
	if win.after, err = st.topo.stats(ctx); err != nil {
		return nil, err
	}
	return win, nil
}

func send(ctx context.Context, t *topology, start time.Time, win *window, i int, body []byte,
	prev, done chan struct{}, tr *tracer) {
	if done != nil {
		defer close(done)
	}
	if prev != nil {
		select {
		case <-prev:
		case <-ctx.Done():
		}
	}
	o, op := &win.out[i], &win.ops[i]
	if ctx.Err() != nil {
		o.unsent = true
		return
	}
	o.sent = time.Since(start)
	var resp []byte
	if op.delta != nil {
		o.status, resp, o.err = t.do(ctx, http.MethodPatch, "/v1/graphs/"+op.graph, body)
	} else {
		o.status, resp, o.err = t.do(ctx, http.MethodPost, "/v1/topk", body)
	}
	o.done = time.Since(start)
	if o.err == nil && o.status == http.StatusOK && op.delta == nil {
		o.err = json.Unmarshal(resp, &o.resp)
	}
	if tr == nil {
		return
	}
	t0 := time.Now()
	defer func() { win.traceNs.Add(int64(time.Since(t0))) }()
	req := int64(i + 1)
	at := func(d time.Duration) time.Time { return start.Add(d) }
	root := tr.add("request", 0, req, at(o.due), at(o.done))
	tr.add("client.wait", root, req, at(o.due), at(o.sent))
	h := tr.add("http", root, req, at(o.sent), at(o.done))
	if o.resp.ServedFrom == "solve" {
		solve := time.Duration(o.resp.Result.ElapsedMillis * float64(time.Millisecond))
		tr.add("solve", h, req, at(o.done-solve), at(o.done))
	}
}

func (w *window) genLagP90() time.Duration {
	lags := make([]float64, len(w.out))
	for i, o := range w.out {
		lags[i] = float64(o.lag)
	}
	return time.Duration(quantile(lags, 0.9))
}

// backlog counts ops due inside the window that had not completed when it
// ended.
func (w *window) backlog() int {
	n := 0
	for _, o := range w.out {
		if o.unsent || o.done > w.dur {
			n++
		}
	}
	return n
}

// busiestEntry is the share of the window the busiest graph entry spent
// solving. Solves on one entry run one at a time, so this is the
// utilization that queueing follows.
func (w *window) busiestEntry() float64 {
	busy := map[string]float64{}
	for i, o := range w.out {
		if w.ops[i].delta == nil && o.err == nil && o.status == http.StatusOK && o.resp.ServedFrom == "solve" {
			busy[w.ops[i].graph] += o.resp.Result.ElapsedMillis
		}
	}
	busiest := 0.0
	for _, b := range busy {
		busiest = max(busiest, b)
	}
	return busiest / (w.dur.Seconds() * 1000)
}

// readLatencies are the due-to-answer times (ms) of the reads answered
// 200 OK, as measured and at the reference speed.
func (w *window) readLatencies() (lat, scaled []float64) {
	for i, o := range w.out {
		if w.ops[i].delta == nil && !o.unsent && o.err == nil && o.status == http.StatusOK {
			lat = append(lat, ms(o.done-o.due))
			scaled = append(scaled, ms(o.latency()))
		}
	}
	return lat, scaled
}

func serveE2E(rep *report, w *window, limit time.Duration, k *refKernel) {
	good := 0
	var samples, norms []float64
	for i := range w.ops {
		o, op := &w.out[i], &w.ops[i]
		if o.failed(op) {
			continue
		}
		if o.latency() <= limit {
			good++
		}
		if op.delta == nil {
			norms = append(norms, o.resp.Result.NormalizedEstimate)
			if o.resp.ServedFrom == "solve" {
				samples = append(samples, float64(o.resp.Result.Samples))
			}
		}
	}
	lat, scaled := w.readLatencies()
	// Goodput is counted over the time the segments took until their last
	// answer, at the reference speed: a server that keeps up answers just
	// after a segment's last op was due, one that falls behind later.
	rep.e2e["ops_per_s"] = float64(good) / w.nominal.Seconds()
	rep.e2e["latency_p50_ms"] = median(scaled)
	rep.e2e["latency_p90_ms"] = quantile(scaled, 0.9)
	rep.e2e["samples_per_op"] = mean(samples)
	rep.e2e["norm_gbc_mean"] = mean(norms)
	rep.note("goodput %d of %d ops within %v at the reference speed; latency p90 over %d samples; busiest graph entry solving %.0f%% of the window",
		good, len(w.ops), limit, len(lat), 100*w.busiestEntry())
	rep.note("as measured: latency p50 %.1f ms, p90 %.1f ms; %v", median(lat), quantile(lat, 0.9), k)
	classes := map[string][]float64{}
	for i := range w.ops {
		o, op := &w.out[i], &w.ops[i]
		if op.delta == nil && !o.failed(op) {
			key := fmt.Sprintf("%s K=%d eps=%g %s", op.graph, op.k, op.eps, o.resp.ServedFrom)
			classes[key] = append(classes[key], ms(o.done-o.due))
		}
	}
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.note("  %-32s %4d reads, latency p50 %7.1f ms, p90 %7.1f ms", k, len(classes[k]), median(classes[k]), quantile(classes[k], 0.9))
	}
}

// serveLayers derives the per-layer numbers of a traced window from its
// outcomes and the /v1/stats counter deltas around it.
func serveLayers(rep *report, w *window) {
	var overhead, wait, cacheLat, patchLat, solveMs, iters []float64
	reads, cached, coalesced := 0, 0, 0
	for i := range w.ops {
		o, op := &w.out[i], &w.ops[i]
		if o.unsent {
			continue
		}
		wait = append(wait, ms(o.sent-o.due))
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		if op.delta != nil {
			patchLat = append(patchLat, ms(o.done-o.sent))
			continue
		}
		reads++
		switch o.resp.ServedFrom {
		case "solve":
			e := o.resp.Result.ElapsedMillis
			overhead = append(overhead, ms(o.done-o.sent)-e)
			solveMs = append(solveMs, e)
			iters = append(iters, float64(o.resp.Result.Iterations))
		case "cache":
			cached++
			cacheLat = append(cacheLat, ms(o.done-o.sent))
		case "coalesced":
			coalesced++
		}
	}
	d := func(f func(obs.Stats) int64) float64 { return float64(f(w.after) - f(w.before)) }
	hits, misses := d(func(s obs.Stats) int64 { return s.RegistryHits }), d(func(s obs.Stats) int64 { return s.RegistryMisses })
	l := rep.layer
	l["core.solve_ms_p50"] = median(solveMs)
	l["core.iterations_mean"] = mean(iters)
	l["sampling.drawn_per_op"] = ratio(d(func(s obs.Stats) int64 { return s.Samples }), float64(reads))
	l["server.overhead_ms_p50"] = median(overhead)
	l["server.client_wait_ms_p50"] = median(wait)
	if len(cacheLat) > 0 {
		l["server.cache_latency_ms_p50"] = median(cacheLat)
	}
	if len(patchLat) > 0 {
		l["server.patch_ms_p50"] = median(patchLat)
	}
	l["server.cache_hit_frac"] = ratio(float64(cached), float64(reads))
	l["server.coalesced_frac"] = ratio(float64(coalesced), float64(reads))
	l["server.shed_frac"] = ratio(d(func(s obs.Stats) int64 { return s.RequestsShed }), d(func(s obs.Stats) int64 { return s.RequestsAdmitted }))
	l["server.registry_hit_frac"] = ratio(hits, hits+misses)
	l["server.busy_frac"] = w.busiestEntry()
	l["bench.gen_lag_p90_ms"] = ms(w.genLagP90())
	l["bench.backlog_end"] = float64(w.backlog())
}

// answerKey identifies what a /v1/topk answer must equal: the solve of
// one graph version with one seed, K and ε.
type answerKey struct {
	graph   string
	version int
	seed    uint64
	k       int
	eps     float64
}

// verifyServe checks, untimed, the answers of every window: answers to
// the same request agree; up to maxVerifiedKeys distinct solved requests
// equal gbc.Solve on the benchmark's own copy of that graph version; and
// every cache answer equals an earlier solve of the same (graph, version,
// seed, K) at an ε' ≤ its ε. A rejected answer fails its op.
func verifyServe(ctx context.Context, st *serveState, windows []*window, rep *report) {
	solved := map[answerKey][]*outcome{}
	var cached []*outcome
	cachedKeys := map[*outcome]answerKey{}
	for _, win := range windows {
		for i := range win.ops {
			o, op := &win.out[i], &win.ops[i]
			if op.delta != nil || o.unsent || o.err != nil || o.status != http.StatusOK {
				continue
			}
			key := answerKey{op.graph, o.resp.GraphVersion, op.seed, op.k, op.eps}
			if o.resp.ServedFrom == "cache" {
				cached = append(cached, o)
				cachedKeys[o] = key
				continue
			}
			solved[key] = append(solved[key], o)
		}
	}
	reject := func(os []*outcome, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		for _, o := range os {
			o.bad = msg
		}
		rep.mismatch("%s", msg)
	}
	keys := make([]answerKey, 0, len(solved))
	for key, os := range solved {
		keys = append(keys, key)
		for _, o := range os[1:] {
			if !sameWire(o.resp.Result, os[0].resp.Result) {
				reject(os, "%v: two answers to the same request differ", key)
				break
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	picked := keys
	if len(keys) > maxVerifiedKeys {
		picked = make([]answerKey, maxVerifiedKeys)
		for i := range picked {
			picked[i] = keys[i*len(keys)/maxVerifiedKeys]
		}
	}
	type check struct {
		key answerKey
		res *core.Result
		err error
	}
	checks := make([]check, len(picked))
	var wg sync.WaitGroup
	next := make(chan int, len(picked))
	for i := range picked {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				key := picked[i]
				g, err := st.graphAt(key.graph, key.version)
				if err == nil {
					checks[i].res, err = core.Solve(ctx, g, core.Options{K: key.k, Epsilon: key.eps, Seed: key.seed})
				}
				checks[i].key, checks[i].err = key, err
			}
		}()
	}
	wg.Wait()
	for _, ch := range checks {
		if ch.err != nil {
			reject(solved[ch.key], "%v: local solve failed: %v", ch.key, ch.err)
			continue
		}
		if !wireMatches(solved[ch.key][0].resp.Result, ch.res) {
			reject(solved[ch.key], "%v: served answer differs from gbc.Solve on the same version", ch.key)
		}
	}
	for _, o := range cached {
		key := cachedKeys[o]
		found := false
		for skey, os := range solved {
			if skey.graph == key.graph && skey.version == key.version && skey.seed == key.seed &&
				skey.k == key.k && skey.eps <= key.eps && sameWire(os[0].resp.Result, o.resp.Result) {
				found = true
				break
			}
		}
		if !found {
			reject([]*outcome{o}, "%v: cache answer matches no earlier solve at eps' <= eps", key)
		}
	}
	rep.note("verified %d of %d distinct solved requests against gbc.Solve, %d cache answers against earlier solves",
		len(picked), len(keys), len(cached))
}

func keyLess(a, b answerKey) bool {
	if a.graph != b.graph {
		return a.graph < b.graph
	}
	if a.version != b.version {
		return a.version < b.version
	}
	if a.seed != b.seed {
		return a.seed < b.seed
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.eps < b.eps
}

func sameWire(a, b wire.Result) bool {
	return slices.Equal(a.Group, b.Group) && a.Estimate == b.Estimate &&
		a.BiasedEstimate == b.BiasedEstimate && a.NormalizedEstimate == b.NormalizedEstimate &&
		a.Samples == b.Samples && a.Iterations == b.Iterations && a.Converged == b.Converged
}

// wireMatches compares a served answer with a local solve field by field,
// without going through the wire package the served answer came through.
func wireMatches(w wire.Result, r *core.Result) bool {
	if len(w.Group) != len(r.Group) {
		return false
	}
	for i, v := range r.Group {
		if w.Group[i] != int64(v) {
			return false
		}
	}
	return w.Estimate == r.Estimate && w.BiasedEstimate == r.BiasedEstimate &&
		w.NormalizedEstimate == r.NormalizedEstimate && w.Samples == r.Samples &&
		w.Iterations == r.Iterations && w.Converged == r.Converged
}

// edgeDelta draws one deletion of an existing edge of g and one insertion
// of an absent one: the shape of every PATCH the benchmark sends.
func edgeDelta(g *graph.Graph, r *xrand.Rand) *graph.Delta {
	var del graph.DeltaEdge
	for {
		u := int32(r.Intn(g.N()))
		if nb := g.OutNeighbors(u); len(nb) > 0 {
			del = graph.DeltaEdge{U: u, V: nb[r.Intn(len(nb))]}
			break
		}
	}
	for {
		a, b := r.IntnPair(g.N())
		if g.HasEdge(int32(a), int32(b)) {
			continue
		}
		ins := graph.DeltaEdge{U: int32(a), V: int32(b)}
		if g.Weighted() {
			ins.W = float64(1 + r.Intn(8))
		}
		return &graph.Delta{Insert: []graph.DeltaEdge{ins}, Delete: []graph.DeltaEdge{del}}
	}
}

// every is the interval between ops sent at rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// sessionSeed draws a fresh request seed (non-zero, below 2^52 so any
// JSON reader keeps it exact).
func sessionSeed(r *xrand.Rand) uint64 { return r.Uint64()>>12 | 1 }

func scaled(c config, d datasetRef) datasetRef {
	if c.smoke {
		d.scale *= smokeScale
	}
	return d
}

// copyDataset generates the benchmark's own copy of a dataset graph.
func copyDataset(st *serveState, name string, d datasetRef) (*graph.Graph, error) {
	t0 := time.Now()
	g, err := d.generate()
	if err != nil {
		return nil, err
	}
	st.genMs += ms(time.Since(t0))
	st.graphs[name], st.refs[name] = g, d
	return g, nil
}

// addDataset copies a dataset graph and registers the same (dataset,
// scale, seed) with the server, which generates its own.
func addDataset(ctx context.Context, t *topology, st *serveState, name string, d datasetRef) error {
	if _, err := copyDataset(st, name, d); err != nil {
		return err
	}
	return registerDataset(ctx, t, name, d)
}

// The serving workloads' rates hold at the reference speed; a window
// stretches each segment of them by the machine's slowdown (runWindow),
// so they do not depend on how fast the machine runs. With the sizes
// below they keep the busiest graph entry 20–30% busy at any speed of the
// machine the benchmark was built on, which usually runs about half as
// fast as the reference (12 req/s in serve-reuse, say). A load that left
// an entry 40% busy there queued near saturation whenever the machine
// slowed down further, which turned the slowdown into p90 swings of
// 20–30% that no scaling removes. They are constants from now on (see
// README.md).
const (
	reuseRate     = 24.0 // req/s
	patchReadRate = 40.0 // req/s
	patchRate     = 4.0  // PATCH/s
)

// patchScale sizes serve-patch's Coauthor stand-in so that the six read
// solves each PATCH forces (repair plus regrowth), one every 25 ms, barely
// queue even while the machine runs slow: p90 measures solves rather than
// how a queue amplifies the machine's speed swings.
const patchScale = 0.1

// reuseDBLPScale sizes serve-reuse's DBLP-2011 stand-in. Its requests
// make up serve-reuse's tail, so p90 is an order statistic of the DBLP
// sessions' solves: about 20 of them a window at this rate on a machine
// at half the reference speed.
const reuseDBLPScale = 0.015

// reusePhases is one serve-reuse session: a K sweep at ε=0.2, then K=10 at
// ε=0.3, which the ε-dominance cache answers from the K=10 solve.
var reusePhases = []struct {
	k   int
	eps float64
}{{5, 0.2}, {10, 0.2}, {20, 0.2}, {50, 0.2}, {10, 0.3}}

// reuseSessionsPerBlock sessions run interleaved, phase by phase, so a
// session's ε=0.3 request comes 15 slots after its K=10 solve.
const reuseSessionsPerBlock = 5

// reuseGraphs is the graph of each session in turn. A fixed 2:1 mix keeps
// where p50 and p90 fall the same in every run, and puts them inside a
// band of like requests (GrQc K=10 solves, DBLP K=10 solves) rather than
// on the edge between two bands, where a small shift would move them far.
var reuseGraphs = []string{"grqc", "grqc", "dblp"}

func runServeReuse(ctx context.Context, c config, tr *tracer) (*report, error) {
	type session struct {
		graph string
		seed  uint64
	}
	var block []session
	sessions := 0
	return runServe(ctx, c, tr, serveWorkload{
		limit: 250 * time.Millisecond,
		loop:  fmt.Sprintf("open, %g req/s POST /v1/topk, freshness any", reuseRate),
		setup: func(ctx context.Context, c config, t *topology, st *serveState) error {
			st.primary = "dblp"
			if err := addDataset(ctx, t, st, "grqc", scaled(c, datasetRef{"GrQc", 1, graphSeed})); err != nil {
				return err
			}
			return addDataset(ctx, t, st, "dblp", scaled(c, datasetRef{"DBLP-2011", reuseDBLPScale, graphSeed}))
		},
		schedule: func(st *serveState, dur time.Duration) []op {
			interval := every(reuseRate)
			slots := reuseSessionsPerBlock * len(reusePhases)
			var ops []op
			for i := 0; i < int(dur/interval); i++ {
				slot := i % slots
				if slot == 0 {
					block = block[:0]
					for len(block) < reuseSessionsPerBlock {
						block = append(block, session{reuseGraphs[sessions%len(reuseGraphs)], sessionSeed(st.rng)})
						sessions++
					}
				}
				ses, ph := block[slot%reuseSessionsPerBlock], reusePhases[slot/reuseSessionsPerBlock]
				ops = append(ops, op{due: time.Duration(i) * interval, graph: ses.graph,
					k: ph.k, eps: ph.eps, seed: ses.seed, freshness: "any"})
			}
			return ops
		},
		replays: func(st *serveState) []replayCase {
			return []replayCase{
				{"grqc", st.graphs["grqc"], core.Options{K: 20, Epsilon: 0.2, Seed: 11}},
				{"dblp", st.graphs["dblp"], core.Options{K: 20, Epsilon: 0.2, Seed: 11}},
			}
		},
	}, streamReuse)
}

// patchKeys are serve-patch's read mix: seeds {1,2,3} × K {10,20}.
var patchKeys = []struct {
	seed uint64
	k    int
}{{1, 10}, {2, 10}, {3, 10}, {1, 20}, {2, 20}, {3, 20}}

func runServePatch(ctx context.Context, c config, tr *tracer) (*report, error) {
	return runServe(ctx, c, tr, serveWorkload{
		limit: 250 * time.Millisecond,
		loop:  fmt.Sprintf("open, %g reads/s + %g PATCH/s, freshness any", patchReadRate, patchRate),
		setup: func(ctx context.Context, c config, t *topology, st *serveState) error {
			st.primary = "coauthor"
			if err := addDataset(ctx, t, st, "coauthor", scaled(c, datasetRef{"Coauthor", patchScale, graphSeed})); err != nil {
				return err
			}
			// The whole PATCH chain is drawn now, on the benchmark's own
			// copy advanced with graph.ApplyDelta: each delta deletes a real
			// edge of the version it applies to. The chain is long enough
			// for the longest schedule a window may send.
			total := warmupFor(c).Seconds() + c.seconds/minStretch
			g := st.graphs["coauthor"]
			for len(st.deltas) < int(total*patchRate)+1 {
				d := edgeDelta(g, st.rng)
				ng, err := graph.ApplyDelta(g, d)
				if err != nil {
					return err
				}
				st.deltas, g = append(st.deltas, d), ng
			}
			return nil
		},
		schedule: func(st *serveState, dur time.Duration) []op {
			var ops []op
			read := every(patchReadRate)
			for i := 0; i < int(dur/read); i++ {
				key := patchKeys[i%len(patchKeys)]
				ops = append(ops, op{due: time.Duration(i) * read, graph: "coauthor",
					k: key.k, eps: 0.2, seed: key.seed, freshness: "any"})
			}
			write := every(patchRate)
			for due := read / 2; due < dur && st.patched < len(st.deltas); due += write {
				ops = append(ops, op{due: due, graph: "coauthor", delta: st.deltas[st.patched], ifVersion: st.patched + 1})
				st.patched++
			}
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
			return ops
		},
		replays: func(st *serveState) []replayCase {
			return []replayCase{{"coauthor", st.graphs["coauthor"], core.Options{K: 20, Epsilon: 0.2, Seed: 1}}}
		},
	}, streamPatch)
}

// serveProbe measures the serving layers one request at a time on a graph
// registered just for it: three cold solves, the same three again served
// from the cache, then three PATCHes.
func serveProbe(ctx context.Context, t *topology, d datasetRef, tr *tracer) (map[string]float64, error) {
	const name = "probe"
	if err := registerDataset(ctx, t, name, d); err != nil {
		return nil, err
	}
	g, err := d.generate()
	if err != nil {
		return nil, err
	}
	r := xrand.NewStream(d.seed, streamProbe)
	seeds := []uint64{sessionSeed(r), sessionSeed(r), sessionSeed(r)}
	before, err := t.stats(ctx)
	if err != nil {
		return nil, err
	}
	var overhead, wait, cache, patch []float64
	registry := 0.0
	call := func(method, path string, v any) ([]byte, time.Duration, error) {
		due := time.Now()
		body, err := json.Marshal(v)
		if err != nil {
			return nil, 0, err
		}
		sent := time.Now()
		status, resp, err := t.do(ctx, method, path, body)
		end := time.Now()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, status, resp)
		}
		wait = append(wait, ms(sent.Sub(due)))
		tr.add("probe."+method, 0, 0, sent, end)
		return resp, end.Sub(sent), err
	}
	for _, fresh := range []string{"exact", "any"} {
		for _, seed := range seeds {
			body, took, err := call(http.MethodPost, "/v1/topk", topkRequest{name, 5, 0.3, seed, fresh})
			if err != nil {
				return nil, err
			}
			var resp topkResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, err
			}
			switch want := map[string]string{"exact": "solve", "any": "cache"}[fresh]; {
			case resp.ServedFrom != want:
				return nil, fmt.Errorf("serving probe: freshness %s answered from %q, want %q", fresh, resp.ServedFrom, want)
			case want == "solve":
				overhead = append(overhead, ms(took)-resp.Result.ElapsedMillis)
			default:
				cache = append(cache, ms(took))
			}
		}
	}
	after, err := t.stats(ctx)
	if err != nil {
		return nil, err
	}
	if h, m := after.RegistryHits-before.RegistryHits, after.RegistryMisses-before.RegistryMisses; h+m > 0 {
		registry = float64(h) / float64(h+m)
	}
	for v := 1; v <= 3; v++ {
		delta := edgeDelta(g, r)
		if g, err = graph.ApplyDelta(g, delta); err != nil {
			return nil, err
		}
		_, took, err := call(http.MethodPatch, "/v1/graphs/"+name, patchBody(delta, v))
		if err != nil {
			return nil, err
		}
		patch = append(patch, ms(took))
	}
	return map[string]float64{
		"server.overhead_ms_p50":      median(overhead),
		"server.client_wait_ms_p50":   median(wait),
		"server.cache_latency_ms_p50": median(cache),
		"server.patch_ms_p50":         median(patch),
		"server.cache_hit_frac":       0.5,
		"server.coalesced_frac":       0,
		"server.shed_frac":            0,
		"server.registry_hit_frac":    registry,
	}, nil
}

// serveProbeStandalone runs the serving probe against a fresh in-process
// gbcd, for the library workload that has none of its own.
func serveProbeStandalone(ctx context.Context, c config, d datasetRef, tr *tracer, rep *report) error {
	t, err := startTopology()
	if err != nil {
		return err
	}
	defer t.close()
	probe, err := serveProbe(ctx, t, d, tr)
	if err != nil {
		return err
	}
	for k, v := range probe {
		rep.layer[k] = v
	}
	return nil
}
