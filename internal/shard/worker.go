// Package shard implements sharded sampling serving: N shard workers each
// hold the same graph read-only (typically an mmap-attached .gbcsr every
// worker opens from shared storage) and draw disjoint sample-index ranges;
// a coordinator drives the adaptive outer loop centrally and merges the
// workers' path arenas in global index order.
//
// The split is along the sample-index space, not the graph: sample i's
// content is a pure function of the set's seeds and i (Reseed(seed1+i)),
// so which worker draws which range is invisible in the merged result —
// deterministic-mode responses through a cluster are bit-identical to a
// single-node solve, and a lost worker's range can be reassigned to any
// survivor without changing a byte. Messages travel over the frozen wire
// shard protocol (internal/wire): JSON control messages and a compact
// length-prefixed binary encoding for the arena payloads.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gbc/internal/coverage"
	"gbc/internal/faultinject"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/wire"
)

// maxEpochCount bounds one epoch request's sample count, keeping a
// worker's per-request memory proportional to a sane block size (the
// coordinator never asks for more than a growth chunk).
const maxEpochCount = 1 << 20

// maxWorkerBody bounds the epoch request body (a small JSON message).
const maxWorkerBody = 1 << 16

// Worker is one shard worker: graphs keyed by name or path, a cache of
// index-pure Drawers, and the HTTP surface the coordinator drives
// (POST /v1/shard/epoch, GET /v1/shard/status).
type Worker struct {
	metrics *obs.Metrics

	mu     sync.Mutex
	graphs map[string]*workerGraph
	// root, when set, lets an epoch request name a .gbcsr file under it,
	// opened read-only on first use — the production topology, where every
	// worker sees the same shared storage. It is absolute and free of
	// symlinks. Workers embedded in tests leave it empty and pre-register
	// graphs with AddGraph.
	root string

	epochs    atomic.Int64
	samples   atomic.Int64
	drawNanos atomic.Int64
}

// workerGraph is one resident graph plus its draw state. Draws on the same
// graph serialize on mu: Drawers are single-owner, and the encode scratch
// is shared. The coordinator sends one epoch request per shard at a time,
// so the lock is uncontended in the steady state.
type workerGraph struct {
	g     *graph.Graph
	owned bool // opened from a path; Close unmaps it

	mu      sync.Mutex
	drawers map[drawerKey]*sampling.Drawer
	arena   coverage.PathArena
	buf     []byte
}

// drawerKey identifies a Drawer by everything that fixes its streams: the
// sampler kind and the sample set's per-index seeds.
type drawerKey struct {
	kind         string
	seed0, seed1 uint64
}

// maxDrawers bounds one graph's Drawer cache; past it the cache is cleared
// wholesale (Drawers are cheap to rebuild — one O(n) workspace).
const maxDrawers = 64

// NewWorker returns a Worker with no resident graphs. allowPaths permits
// epoch requests to open .gbcsr files under the working directory (see
// SetRoot); m may be nil.
func NewWorker(m *obs.Metrics, allowPaths bool) *Worker {
	w := &Worker{metrics: m, graphs: make(map[string]*workerGraph)}
	if allowPaths {
		// Without a usable working directory the root stays empty, and
		// every path is refused, which is the safe answer.
		_ = w.SetRoot(".")
	}
	return w
}

// SetRoot confines the files epoch requests may open to the directory
// tree under dir. A request key is cleaned, made absolute and resolved
// through its symlinks first, so neither "../" nor a symlink can leave the
// tree.
func (w *Worker) SetRoot(dir string) error {
	root, err := realPath(dir)
	if err != nil {
		return fmt.Errorf("shard: root %q: %w", dir, err)
	}
	w.mu.Lock()
	w.root = root
	w.mu.Unlock()
	return nil
}

// realPath is p made absolute, cleaned and with every symlink resolved.
func realPath(p string) (string, error) {
	abs, err := filepath.Abs(p)
	if err != nil {
		return "", err
	}
	return filepath.EvalSymlinks(abs)
}

// within reports whether path p lies in the tree under root.
func within(root, p string) bool {
	rel, err := filepath.Rel(root, p)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// outsideRootError refuses an epoch request whose graph key does not
// resolve to a path under the worker's root; the handler answers it with
// a 400 naming the key.
type outsideRootError struct{ key string }

func (e *outsideRootError) Error() string {
	return fmt.Sprintf("shard: graph %q does not resolve to a file under the shard root", e.key)
}

// AddGraph pre-registers g under key. The worker does not take ownership:
// Close will not release it. Tests and embedded topologies use this to
// share in-memory graphs with a coordinator in the same process.
func (w *Worker) AddGraph(key string, g *graph.Graph) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.graphs[key] = &workerGraph{g: g, drawers: make(map[drawerKey]*sampling.Drawer)}
}

// Close releases every graph the worker opened from a path (AddGraph'd
// graphs stay the caller's).
func (w *Worker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, wg := range w.graphs {
		if wg.owned {
			wg.g.Close()
		}
	}
	w.graphs = make(map[string]*workerGraph)
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/epoch", w.handleEpoch)
	mux.HandleFunc("GET /v1/shard/status", w.handleStatus)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeShardJSON(rw, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})
	return mux
}

// resolveGraph returns the graph under key, opening it from the filesystem
// when permitted. Only the binary .gbcsr format may be opened on demand —
// it is verified, mmap-attached and safe to share read-only; anything else
// must be pre-registered. An opened file is kept under its resolved path,
// so every name for one file shares a single mapping. A key that does not
// resolve to a path inside the root is refused with *outsideRootError —
// a missing file and an escape get the same answer, so a request cannot
// probe what exists outside the root.
func (w *Worker) resolveGraph(key string) (*workerGraph, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if wg, ok := w.graphs[key]; ok {
		return wg, nil
	}
	if w.root == "" {
		return nil, fmt.Errorf("shard: unknown graph %q", key)
	}
	path, err := realPath(key)
	if err != nil || !within(w.root, path) {
		return nil, &outsideRootError{key}
	}
	if wg, ok := w.graphs[path]; ok {
		return wg, nil
	}
	isCSR, err := graph.DetectCSRFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: graph %q: %w", key, err)
	}
	if !isCSR {
		return nil, fmt.Errorf("shard: graph %q is not a .gbcsr file", key)
	}
	g, err := graph.OpenCSR(path)
	if err != nil {
		return nil, fmt.Errorf("shard: graph %q: %w", key, err)
	}
	w.metrics.AddGraphBytesMapped(g.MappedBytes())
	wg := &workerGraph{g: g, owned: true, drawers: make(map[drawerKey]*sampling.Drawer)}
	w.graphs[path] = wg
	return wg, nil
}

func (w *Worker) handleEpoch(rw http.ResponseWriter, r *http.Request) {
	var req wire.EpochRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxWorkerBody)).Decode(&req); err != nil {
		writeShardError(rw, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Protocol != wire.ShardProtocolVersion {
		// The version refusal names the worker's own protocol so the
		// coordinator can raise a typed *wire.ShardVersionError.
		writeShardJSON(rw, http.StatusBadRequest, wire.ShardErrorBody{
			Error: (&wire.ShardVersionError{
				Got: req.Protocol, Want: wire.ShardProtocolVersion,
			}).Error(),
			Protocol: wire.ShardProtocolVersion,
		})
		return
	}
	if req.Start < 0 || req.Count < 0 || req.Count > maxEpochCount {
		writeShardError(rw, http.StatusBadRequest,
			fmt.Sprintf("shard: bad range [%d, +%d) (count cap %d)", req.Start, req.Count, maxEpochCount))
		return
	}
	if faultinject.Enabled {
		// Chaos: a stalled shard (the fault sleeps past the coordinator's
		// epoch timeout) and a failing one (500 → the coordinator marks
		// this shard dead and reassigns its range to survivors).
		faultinject.Fire(faultinject.ShardEpochSlow)
		if err := faultinject.Fire(faultinject.ShardEpochError); err != nil {
			writeShardError(rw, http.StatusInternalServerError, err.Error())
			return
		}
	}
	wg, err := w.resolveGraph(req.Graph)
	if err != nil {
		status := http.StatusNotFound
		var outside *outsideRootError
		if errors.As(err, &outside) {
			status = http.StatusBadRequest
		}
		writeShardError(rw, status, err.Error())
		return
	}

	wg.mu.Lock()
	defer wg.mu.Unlock()
	key := drawerKey{kind: req.Sampler, seed0: req.Seed0, seed1: req.Seed1}
	d, ok := wg.drawers[key]
	if !ok {
		if d, err = sampling.NewDrawer(wg.g, req.Sampler, req.Seed0, req.Seed1); err != nil {
			writeShardError(rw, http.StatusBadRequest, err.Error())
			return
		}
		if len(wg.drawers) >= maxDrawers {
			clear(wg.drawers)
		}
		wg.drawers[key] = d
	}
	wg.arena.Reset()
	start := time.Now()
	if err := d.DrawRange(r.Context(), &wg.arena, req.Start, req.Count); err != nil {
		// The coordinator went away mid-draw; nothing to answer.
		return
	}
	w.epochs.Add(1)
	w.samples.Add(int64(req.Count))
	w.drawNanos.Add(time.Since(start).Nanoseconds())

	payload := wire.ArenaPayload{
		Start: req.Start, Count: req.Count,
		Offsets: wg.arena.Offsets, Nodes: wg.arena.Nodes, Obs: wg.arena.Obs,
	}
	wg.buf = payload.AppendBinary(wg.buf[:0])
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	rw.Write(wg.buf)
}

func (w *Worker) handleStatus(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	keys := make([]string, 0, len(w.graphs))
	for k := range w.graphs {
		keys = append(keys, k)
	}
	w.mu.Unlock()
	sort.Strings(keys)
	writeShardJSON(rw, http.StatusOK, wire.ShardStatus{
		Protocol:  wire.ShardProtocolVersion,
		Graphs:    keys,
		Epochs:    w.epochs.Load(),
		Samples:   w.samples.Load(),
		DrawNanos: w.drawNanos.Load(),
	})
}

func writeShardJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func writeShardError(rw http.ResponseWriter, status int, msg string) {
	writeShardJSON(rw, status, wire.ShardErrorBody{Error: msg})
}
