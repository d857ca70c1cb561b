//go:build faultinject

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbc/internal/core"
	"gbc/internal/faultinject"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/server/client"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// TestChaos hammers a live server with mixed multi-tenant traffic while
// every fault-injection point in the stack is armed — sampler panics and
// stragglers, RNG reseed failures, registry eviction mid-solve, forced
// queue-full rejections, slow dequeues — then shuts the server down under
// load. The point is not any single response but the aggregate contract:
//
//   - every response is a valid topkResponse or a typed errorResponse with
//     a status from the documented overload set;
//   - partial results are honest (never claim convergence);
//   - the overload accounting balances exactly
//     (admitted == completed + shed + failed, degraded ⊆ shed);
//   - nothing wedges: queue empty, no busy workers or active runs, and
//     goroutines return to baseline.
//
// Run under -race for the full effect (make chaos does).
func TestChaos(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()

	m := &obs.Metrics{}
	s := New(Config{
		Workers: 4, QueueDepth: 4,
		FastLaneWorkers: 2, FastLaneDepth: 4,
		MaxCost:   5e9,
		TenantRPS: 200, TenantBurst: 50,
		Metrics: m,
	})
	ts := httptest.NewServer(s.Handler())

	reg := s.Registry()
	addGraph := func(name string, n int) {
		t.Helper()
		g := gen.BarabasiAlbert(n, 3, xrand.New(1))
		if _, err := reg.Add(name, "chaos", g); err != nil {
			t.Fatal(err)
		}
	}
	addGraph("small", 300)
	addGraph("big", 3000)
	addGraph("victim", 300)

	// Arm every injection point. Periods are chosen so each fault fires
	// many times over the run without drowning out normal completions.
	faultinject.Arm(faultinject.SamplingChunkSlow, 7, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	// Periods are per firing site, not per request: the chunk points fire
	// once per worker-chunk job and the reseed point once per sample, so
	// their periods are much larger than the per-solve points' to leave a
	// healthy fraction of solves unharmed.
	faultinject.Arm(faultinject.SamplingChunkPanic, 151, func() error {
		return errors.New("chaos: injected chunk panic")
	})
	faultinject.Arm(faultinject.SamplingReseed, 50021, func() error {
		return errors.New("chaos: injected reseed failure")
	})
	faultinject.Arm(faultinject.RegistryEvictDuringSolve, 11, func() error {
		return errors.New("chaos: graph evicted during solve")
	})
	faultinject.Arm(faultinject.SchedulerQueueFull, 17, func() error {
		return errors.New("chaos: forced queue-full")
	})
	faultinject.Arm(faultinject.SchedulerDrainDuringDequeue, 5, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})

	// Maintenance chaos: evict and re-register the victim graph while
	// requests race against it.
	maintDone := make(chan struct{})
	stopMaint := make(chan struct{})
	go func() {
		defer close(maintDone)
		for i := 0; ; i++ {
			select {
			case <-stopMaint:
				return
			case <-time.After(10 * time.Millisecond):
			}
			reg.Remove("victim")
			g := gen.BarabasiAlbert(300, 3, xrand.New(uint64(i+2)))
			reg.Add("victim", "chaos respawn", g)
		}
	}()

	// Version chaos: PATCH the small graph (toggling a chord) and the
	// victim graph (racing its evict/respawn loop) while solves stream.
	// Every outcome must be from the documented set — 200 applied, 400 for
	// a delta invalid against the current version (the victim respawns with
	// unknown edge state), 404 mid-eviction, 409 on a version conflict.
	patchDone := make(chan struct{})
	stopPatch := make(chan struct{})
	var patchesApplied atomic.Int64
	go func() {
		defer close(patchDone)
		patch := func(name, op string) int {
			body, _ := json.Marshal(map[string]any{
				op: []map[string]any{{"u": 1, "v": 299}},
			})
			req, err := http.NewRequest(http.MethodPatch,
				ts.URL+"/v1/graphs/"+name, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return 0
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return 0 // server torn down mid-run
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				patchesApplied.Add(1)
			case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
				var e errorResponse
				if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
					t.Errorf("patch %s: untyped %d body %s", name, resp.StatusCode, out)
				}
			default:
				t.Errorf("patch %s: status %d outside the contract: %s", name, resp.StatusCode, out)
			}
			return resp.StatusCode
		}
		present := false // chord (1, 299) in "small"; toggled on success
		for {
			select {
			case <-stopPatch:
				return
			case <-time.After(3 * time.Millisecond):
			}
			op := "insert"
			if present {
				op = "delete"
			}
			if patch("small", op) == http.StatusOK {
				present = !present
			}
			patch("victim", "insert")
		}
	}()

	allowedStatus := map[int]bool{
		http.StatusOK: true, http.StatusNotFound: true,
		http.StatusTooManyRequests: true, http.StatusInternalServerError: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	var badResponses atomic.Int64
	checkResponse := func(i, status int, body []byte) {
		if !allowedStatus[status] {
			t.Errorf("request %d: status %d outside the overload contract: %s", i, status, body)
			badResponses.Add(1)
			return
		}
		if status == http.StatusOK {
			var r topkResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Errorf("request %d: 200 body is not a topkResponse: %v %s", i, err, body)
				badResponses.Add(1)
				return
			}
			if r.Result.Partial {
				if r.Result.Converged || r.Result.StopReason == core.StopConverged {
					t.Errorf("request %d: partial result claims convergence: %+v", i, r.Result)
					badResponses.Add(1)
				}
			}
			if r.Degraded && r.DegradedEpsilon <= 0 {
				t.Errorf("request %d: degraded without an epsilon: %+v", i, r)
				badResponses.Add(1)
			}
			return
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("request %d: status %d body is not a typed error: %s", i, status, body)
			badResponses.Add(1)
		}
	}

	// Mixed traffic: three tenants; cheap fast-lane runs on the small
	// graph, expensive tight-ε runs on the big one (deadline-bounded so a
	// wave always terminates), races against the victim graph (which may
	// 404 mid-eviction), and a sprinkle of unknown-graph requests.
	request := func(i int) (int, []byte, error) {
		c := client.Client{
			MaxRetries: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
			Header: http.Header{"X-Tenant": []string{fmt.Sprintf("tenant-%d", i%3)}},
		}
		var req map[string]any
		switch i % 5 {
		case 0, 1:
			req = map[string]any{"graph": "small", "k": 3, "seed": i%4 + 1, "timeoutMillis": 2000}
		case 2:
			req = map[string]any{"graph": "big", "k": 8, "epsilon": 0.02, "seed": i%3 + 1, "timeoutMillis": 150}
		case 3:
			req = map[string]any{"graph": "victim", "k": 3, "seed": 1, "timeoutMillis": 2000}
		default:
			req = map[string]any{"graph": "no-such-graph", "k": 3}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		status, body, err := c.PostJSON(ctx, ts.URL+"/v1/topk", req)
		return status, body, err
	}

	const requests = 120
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := request(i)
			if err != nil {
				t.Errorf("request %d: transport-level failure: %v", i, err)
				return
			}
			checkResponse(i, status, body)
		}(i)
		if i == requests-20 {
			// Final wave lands on a draining server: Shutdown mid-traffic.
			go s.Shutdown(context.Background())
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(stopPatch)
	<-patchDone
	close(stopMaint)
	<-maintDone
	s.Shutdown(context.Background())
	ts.Close()

	st := m.Snapshot()
	if st.RequestsAdmitted != st.RequestsCompleted+st.RequestsShed+st.RequestsFailed {
		t.Errorf("overload accounting broken: admitted=%d completed=%d shed=%d failed=%d",
			st.RequestsAdmitted, st.RequestsCompleted, st.RequestsShed, st.RequestsFailed)
	}
	if st.RequestsDegraded > st.RequestsShed {
		t.Errorf("degraded (%d) exceeds shed (%d)", st.RequestsDegraded, st.RequestsShed)
	}
	if st.RequestsAdmitted == 0 || st.RequestsCompleted == 0 {
		t.Errorf("chaos run admitted/completed nothing: %+v", st)
	}
	if applied := patchesApplied.Load(); applied == 0 || st.GraphPatches < applied {
		t.Errorf("patch chaos: %d applied over HTTP but GraphPatches=%d",
			applied, st.GraphPatches)
	}
	if st.QueueDepth != 0 || st.ActiveRuns != 0 || st.BusyWorkers != 0 {
		t.Errorf("wedged state after shutdown: queue=%d active=%d busy=%d",
			st.QueueDepth, st.ActiveRuns, st.BusyWorkers)
	}

	// Goroutine accounting: sample growth joins its lane goroutines before
	// returning, so only a few for the HTTP machinery winding down are
	// slack. Anything beyond that is a leak (a wedged scheduler worker or
	// an unjoined sampling lane).
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= baseline+10
	})
	t.Logf("chaos: %d requests, stats %+v", requests, st)
}

// TestChaosShardKill runs a deterministic solve on a coordinator backed by
// two shard workers while the shard/epoch-error fault point kills one of
// them mid-run: the coordinator must mark the victim dead, reassign its
// index ranges to the survivor, and finish with a response bit-identical
// to a single-node server's — then the overload accounting must balance
// exactly as in every other chaos scenario.
func TestChaosShardKill(t *testing.T) {
	defer faultinject.Reset()

	mkGraph := func() *graph.Graph { return gen.BarabasiAlbert(300, 3, xrand.New(7)) }
	topkBody := `{"graph":"g","k":8,"seed":7,"sampling":"deterministic","freshness":"exact"}`

	solve := func(t *testing.T, url string) wire.Result {
		t.Helper()
		resp, err := http.Post(url+"/v1/topk", "application/json", bytes.NewBufferString(topkBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("topk status %d: %s", resp.StatusCode, body)
		}
		var tr topkResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		tr.Result.ElapsedMillis = 0 // wall-clock is the one legitimately varying field
		return tr.Result
	}

	// Single-node reference: same graph, same request, no shards.
	ref := New(Config{Workers: 2, Metrics: &obs.Metrics{}})
	if _, err := ref.Registry().Add("g", "chaos", mkGraph()); err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	want := solve(t, refSrv.URL)
	ref.Shutdown(context.Background())
	refSrv.Close()

	// Two shard workers over the same (index-pure) graph content.
	workerURLs := make([]string, 2)
	for i := range workerURLs {
		w := shard.NewWorker(nil, false)
		w.AddGraph("g", mkGraph())
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		workerURLs[i] = srv.URL
	}

	m := &obs.Metrics{}
	s := New(Config{Workers: 2, Shards: workerURLs, Metrics: m})
	defer s.Shutdown(context.Background())
	e, err := s.Registry().Add("g", "chaos", mkGraph())
	if err != nil {
		t.Fatal(err)
	}
	e.Shard, e.ShardKey = s.Cluster(), "g"
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The armed fault fires exactly once: whichever worker draws it answers
	// one epoch request with 500 and is marked dead — a mid-run shard kill.
	var fired atomic.Int64
	disarm := faultinject.Arm(faultinject.ShardEpochError, 1, func() error {
		if fired.Add(1) == 1 {
			return errors.New("injected shard loss")
		}
		return nil
	})
	defer disarm()

	got := solve(t, ts.URL)
	if fired.Load() == 0 {
		t.Fatal("shard/epoch-error never fired — the run did not exercise the kill")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded result diverged from single-node after shard kill:\n  got  %+v\n  want %+v", got, want)
	}

	// The cluster surface must show the kill: one dead shard, retries
	// counted, the survivor carrying samples.
	infos := s.Cluster().Shards()
	live := 0
	for _, info := range infos {
		if info.Alive {
			live++
		}
	}
	if live != 1 {
		t.Errorf("cluster liveness after kill: %d live of %d (%+v)", live, len(infos), infos)
	}
	st := m.Snapshot()
	if st.ShardRetries == 0 {
		t.Error("reassigned ranges must count shard retries")
	}
	if st.Shards != 2 || st.ShardEpochs == 0 || st.ShardBytesMerged == 0 {
		t.Errorf("shard counters not fed: %+v", st)
	}
	if st.RequestsAdmitted != st.RequestsCompleted+st.RequestsShed+st.RequestsFailed {
		t.Errorf("overload accounting broken: admitted=%d completed=%d shed=%d failed=%d",
			st.RequestsAdmitted, st.RequestsCompleted, st.RequestsShed, st.RequestsFailed)
	}
	if st.RequestsCompleted == 0 {
		t.Error("the run must complete despite the shard kill")
	}
}
