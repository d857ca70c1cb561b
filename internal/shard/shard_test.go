package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gbc/internal/coverage"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/server/client"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// startWorkers spins up n httptest workers sharing the fixture graph under
// the key "g" and returns their base URLs plus a cleanup-registered close.
func startWorkers(t *testing.T, g *graph.Graph, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := NewWorker(nil, false)
		w.AddGraph("g", g)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func fastClient() *client.Client { return &client.Client{MaxRetries: -1} }

func postEpoch(t *testing.T, url string, req wire.EpochRequest) (int, []byte) {
	t.Helper()
	status, body, err := fastClient().PostJSON(context.Background(), url+"/v1/shard/epoch", req)
	if err != nil {
		t.Fatal(err)
	}
	return status, body
}

// TestWorkerEpochMatchesLocalDrawer pins the worker's epoch answer to the
// exact bytes a local Drawer produces for the same range: same offsets,
// nodes and observation bounds, framed by the frozen payload encoding.
func TestWorkerEpochMatchesLocalDrawer(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, xrand.New(11))
	urls := startWorkers(t, g, 1)

	req := wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion,
		Graph:    "g", Sampler: wire.SamplerBidirectional,
		Seed0: 77, Seed1: 1234,
		Start: 10, Count: 40,
	}
	status, body := postEpoch(t, urls[0], req)
	if status != http.StatusOK {
		t.Fatalf("epoch status %d: %s", status, body)
	}
	p, err := wire.DecodeArenaPayload(body)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start != 10 || p.Count != 40 {
		t.Fatalf("payload echoes range [%d, +%d), want [10, +40)", p.Start, p.Count)
	}

	d, err := sampling.NewDrawer(g, wire.SamplerBidirectional, 77, 1234)
	if err != nil {
		t.Fatal(err)
	}
	var local coverage.PathArena
	local.Reset()
	if err := d.DrawRange(context.Background(), &local, 10, 40); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Offsets, local.Offsets) || !reflect.DeepEqual(p.Nodes, local.Nodes) {
		t.Fatal("worker paths diverge from a local drawer over the same range")
	}
	if !reflect.DeepEqual(p.Obs, local.Obs) {
		t.Fatal("worker observation bounds diverge from a local drawer")
	}

	// The same request answers with the same bytes: drawing is stateless in
	// everything but the (seeds, index) inputs.
	_, again := postEpoch(t, urls[0], req)
	if !bytes.Equal(body, again) {
		t.Fatal("repeated epoch request must answer byte-identically")
	}
}

// TestWorkerRejectsVersionMismatch pins the refusal shape: 400, an error
// body naming both protocols, and the worker's own protocol in the
// "protocol" field so the coordinator can raise the typed error.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, xrand.New(1))
	urls := startWorkers(t, g, 1)
	status, body := postEpoch(t, urls[0], wire.EpochRequest{
		Protocol: 99, Graph: "g", Sampler: wire.SamplerBidirectional, Count: 4,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("version mismatch must answer 400, got %d", status)
	}
	var eb wire.ShardErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Protocol != wire.ShardProtocolVersion {
		t.Fatalf("refusal must carry the worker protocol, got %d", eb.Protocol)
	}
	if eb.Error == "" {
		t.Fatal("refusal must explain the mismatch")
	}
}

func TestWorkerRejectsUnknownGraphAndBadRange(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, xrand.New(1))
	urls := startWorkers(t, g, 1)
	status, _ := postEpoch(t, urls[0], wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion, Graph: "missing",
		Sampler: wire.SamplerBidirectional, Count: 4,
	})
	if status != http.StatusNotFound {
		t.Fatalf("unknown graph must answer 404 (worker has no path access), got %d", status)
	}
	status, _ = postEpoch(t, urls[0], wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion, Graph: "g",
		Sampler: wire.SamplerBidirectional, Start: -1, Count: 4,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("negative start must answer 400, got %d", status)
	}
	status, _ = postEpoch(t, urls[0], wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion, Graph: "g",
		Sampler: "warp", Count: 4,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown sampler must answer 400, got %d", status)
	}
}

func TestWorkerStatus(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, xrand.New(1))
	urls := startWorkers(t, g, 1)
	postEpoch(t, urls[0], wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion, Graph: "g",
		Sampler: wire.SamplerBidirectional, Count: 16,
	})
	resp, err := http.Get(urls[0] + "/v1/shard/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.ShardStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Protocol != wire.ShardProtocolVersion {
		t.Fatalf("status protocol %d", st.Protocol)
	}
	if !reflect.DeepEqual(st.Graphs, []string{"g"}) {
		t.Fatalf("status graphs %v", st.Graphs)
	}
	if st.Epochs != 1 || st.Samples != 16 {
		t.Fatalf("status counters epochs=%d samples=%d, want 1/16", st.Epochs, st.Samples)
	}
}

// growBoth grows a local sequential set and a cluster-backed set to L and
// asserts they commit identical state.
func growBoth(t *testing.T, g *graph.Graph, c *Cluster, L int) {
	t.Helper()
	local := sampling.NewBidirectionalSet(g, xrand.New(5))
	local.GrowTo(L)

	remote := sampling.NewBidirectionalSet(g, xrand.New(5))
	remote.Remote = c.Grower("g", wire.SamplerBidirectional)
	if err := remote.GrowToCtx(context.Background(), L); err != nil {
		t.Fatal(err)
	}
	if local.Len() != remote.Len() || local.Unreachable != remote.Unreachable {
		t.Fatalf("shape mismatch: local %d/%d, remote %d/%d",
			local.Len(), local.Unreachable, remote.Len(), remote.Unreachable)
	}
	lg, lc := local.Greedy(4)
	rg, rc := remote.Greedy(4)
	if !reflect.DeepEqual(lg, rg) || lc != rc {
		t.Fatalf("greedy mismatch: local %v/%d, remote %v/%d", lg, lc, rg, rc)
	}
}

// TestClusterGrowthMatchesLocal is the heart of the tentpole at package
// level: growth through a coordinator and two HTTP shard workers commits a
// sample set bit-identical to single-node sequential growth.
func TestClusterGrowthMatchesLocal(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, xrand.New(11))
	urls := startWorkers(t, g, 2)
	m := &obs.Metrics{}
	c := NewCluster(Config{Shards: urls, Metrics: m, Client: fastClient()})
	growBoth(t, g, c, 9000)

	if n := m.Snapshot().Shards; n != 2 {
		t.Fatalf("metrics shards = %d, want 2", n)
	}
	if m.Snapshot().ShardEpochs == 0 || m.Snapshot().ShardBytesMerged == 0 {
		t.Fatal("cluster growth must count merged epochs and bytes")
	}
	infos := c.Shards()
	if len(infos) != 2 || !infos[0].Alive || !infos[1].Alive {
		t.Fatalf("both shards must stay live: %+v", infos)
	}
	if infos[0].Samples == 0 || infos[1].Samples == 0 {
		t.Fatalf("both shards must have drawn samples: %+v", infos)
	}
}

// TestClusterReassignsLostShard kills one of two workers mid-run and
// asserts the survivor absorbs its index ranges with the merged result
// still bit-identical to a single-node run.
func TestClusterReassignsLostShard(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, xrand.New(11))
	w := NewWorker(nil, false)
	w.AddGraph("g", g)
	healthy := httptest.NewServer(w.Handler())
	defer healthy.Close()

	// The doomed worker answers its first epoch request, then its server
	// dies — the coordinator sees a transport error on the next epoch.
	dw := NewWorker(nil, false)
	dw.AddGraph("g", g)
	inner := dw.Handler()
	served := 0
	doomed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		served++
		if served > 1 {
			hj, _ := rw.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer doomed.Close()

	m := &obs.Metrics{}
	c := NewCluster(Config{
		Shards:  []string{healthy.URL, doomed.URL},
		Metrics: m,
		Client:  fastClient(),
	})
	growBoth(t, g, c, 9000)

	infos := c.Shards()
	if !infos[0].Alive || infos[1].Alive {
		t.Fatalf("doomed shard must be marked dead, healthy alive: %+v", infos)
	}
	if m.Snapshot().ShardRetries == 0 {
		t.Fatal("reassigned blocks must count as shard retries")
	}
	// Dead is permanent: later growth partitions over the survivor only.
	if blocks := c.partition(0, 100); len(blocks) != 1 || blocks[0].count != 100 {
		t.Fatalf("partition after death must use the survivor alone, got %+v", blocks)
	}
}

// TestClusterAllShardsLost asserts growth fails — rather than hangs or
// silently under-delivers — when every shard is gone.
func TestClusterAllShardsLost(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, xrand.New(1))
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewCluster(Config{Shards: []string{srv.URL}, Client: fastClient()})
	s := sampling.NewBidirectionalSet(g, xrand.New(1))
	s.Remote = c.Grower("g", wire.SamplerBidirectional)
	if err := s.GrowToCtx(context.Background(), 100); err == nil {
		t.Fatal("growth with every shard lost must fail")
	}
	if s.Len() != 0 {
		t.Fatalf("failed growth must commit nothing, len %d", s.Len())
	}
}

// TestClusterVersionMismatchAborts asserts a mixed-protocol cluster fails
// the growth with the typed error instead of reassigning around the
// "incompatible" shard.
func TestClusterVersionMismatchAborts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(wire.ShardErrorBody{
			Error:    "shard protocol mismatch",
			Protocol: wire.ShardProtocolVersion + 1,
		})
	}))
	defer srv.Close()
	c := NewCluster(Config{Shards: []string{srv.URL}, Client: fastClient()})
	_, err := c.Grower("g", wire.SamplerBidirectional).GrowRange(context.Background(), 1, 2, 0, 10)
	var ve *wire.ShardVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("mixed-protocol cluster must fail typed, got %v", err)
	}
	if infos := c.Shards(); !infos[0].Alive {
		t.Fatal("a version mismatch is a deployment error, not shard death")
	}
}

// TestClusterContextCancel asserts cancellation surfaces as the context
// error and does not mark shards dead.
func TestClusterContextCancel(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, xrand.New(1))
	urls := startWorkers(t, g, 2)
	c := NewCluster(Config{Shards: urls, Client: fastClient()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Grower("g", wire.SamplerBidirectional).GrowRange(ctx, 1, 2, 0, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled growth must surface ctx error, got %v", err)
	}
	for _, info := range c.Shards() {
		if !info.Alive {
			t.Fatal("cancellation must not mark shards dead")
		}
	}
}

// TestPartitionCoversRange pins the partitioner: contiguous, in order,
// covering exactly [start, start+count) for awkward counts.
func TestPartitionCoversRange(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	c := NewCluster(Config{Shards: urls, Client: fastClient()})
	for _, tc := range [][2]int{{0, 10}, {7, 1}, {3, 2}, {100, 4097}, {5, 0}} {
		blocks := c.partition(tc[0], tc[1])
		next := tc[0]
		for _, b := range blocks {
			if b.start != next || b.count <= 0 {
				t.Fatalf("partition(%d,%d): non-contiguous blocks %+v", tc[0], tc[1], blocks)
			}
			next += b.count
		}
		if next != tc[0]+tc[1] {
			t.Fatalf("partition(%d,%d) covers up to %d", tc[0], tc[1], next)
		}
	}
}

// rootedWorker returns a worker whose shard root holds in.gbcsr, beside
// an outside.gbcsr next to the root that a symlinked file (link.gbcsr)
// and a symlinked directory (up, pointing at the root's parent) reach.
// The root is returned resolved.
func rootedWorker(t testing.TB) (*Worker, string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, "root")
	if err := os.Mkdir(root, 0o755); err != nil {
		t.Fatal(err)
	}
	g := gen.BarabasiAlbert(50, 2, xrand.New(5))
	for _, p := range []string{filepath.Join(root, "in.gbcsr"), filepath.Join(dir, "outside.gbcsr")} {
		if err := g.WriteCSRFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink("../outside.gbcsr", filepath.Join(root, "link.gbcsr")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("..", filepath.Join(root, "up")); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil, false)
	if err := w.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, root
}

// escapingKeys are graph keys that name outside.gbcsr (or nothing) from
// a rootedWorker's root.
func escapingKeys(root string) []string {
	return []string{
		filepath.Join(root, "..", "outside.gbcsr"),
		root + "/../outside.gbcsr",
		"../outside.gbcsr",
		filepath.Join(root, "link.gbcsr"),
		filepath.Join(root, "up", "outside.gbcsr"),
		filepath.Join(root, "up", "root", "link.gbcsr"),
		filepath.Join(root, "missing.gbcsr"),
		"/etc/passwd",
	}
}

// TestWorkerShardRoot: a worker opens only .gbcsr files that resolve
// inside its shard root. A file it may open is mapped once whatever name
// reaches it; "../" and symlink escapes, and keys that resolve to nothing,
// are typed 400s naming the key, and nothing outside the root opens.
func TestWorkerShardRoot(t *testing.T) {
	w, root := rootedWorker(t)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	epoch := func(key string) (int, []byte) {
		return postEpoch(t, srv.URL, wire.EpochRequest{
			Protocol: wire.ShardProtocolVersion, Graph: key,
			Sampler: wire.SamplerBidirectional, Count: 8,
		})
	}
	for _, key := range []string{
		filepath.Join(root, "in.gbcsr"),
		root + "//in.gbcsr",
		filepath.Join(root, "up", "root", "in.gbcsr"),
	} {
		if status, body := epoch(key); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", key, status, body)
		}
	}
	for _, key := range escapingKeys(root) {
		status, body := epoch(key)
		var e wire.ShardErrorBody
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
			!strings.Contains(e.Error, strconv.Quote(key)) {
			t.Fatalf("%s: status %d %s, want a 400 naming the key", key, status, body)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if want := filepath.Join(root, "in.gbcsr"); len(w.graphs) != 1 || w.graphs[want] == nil {
		t.Fatalf("resident graphs %v, want only %s", w.graphs, want)
	}
}
