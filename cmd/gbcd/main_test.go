package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"testing"
	"time"

	"gbc/internal/server/client"
)

// TestDaemonLifecycle drives the daemon end to end in-process: start on an
// OS-assigned port, upload a generated graph, query top-K twice (the
// second must succeed against the same warm registry entry), then cancel
// the context and require a clean graceful drain.
func TestDaemonLifecycle(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-drain-grace", "2s"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	urls := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, func(u string) { urls <- u }) }()

	var url string
	select {
	case url = <-urls:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	post := func(path string, body map[string]any) (int, []byte) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	if status, body := post("/v1/graphs", map[string]any{
		"name": "ba", "generator": "ba", "n": 500, "degree": 3,
	}); status != http.StatusCreated {
		t.Fatalf("add graph: %d %s", status, body)
	}
	// Queries go through the retrying client — the recommended consumer
	// path, which honors Retry-After if the daemon sheds.
	rc := client.Client{MaxRetries: 3, BaseDelay: 20 * time.Millisecond}
	for i := 0; i < 2; i++ {
		status, body, err := rc.PostJSON(ctx, url+"/v1/topk", map[string]any{"graph": "ba", "k": 5})
		if err != nil {
			t.Fatalf("topk %d: %v", i, err)
		}
		if status != http.StatusOK {
			t.Fatalf("topk %d: %d %s", i, status, body)
		}
		var r struct {
			Result struct {
				Group []int64 `json:"group"`
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Result.Group) != 5 {
			t.Fatalf("topk %d: bad body (%v): %s", i, err, body)
		}
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := vars["gbc"]; !ok {
		t.Fatal("/debug/vars does not publish the gbc metrics")
	}

	cancel() // SIGTERM equivalent
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestParseOverloadFlags pins the overload-control and capacity flags onto
// their server.Config fields, and rejects the removed cost-admission and
// fast-lane flags instead of silently leaving every later flag at its
// default.
func TestParseOverloadFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-workers", "3",
		"-queue", "16",
		"-tenant-rps", "2.5",
		"-max-body", "4096",
		"-sample-bytes", "1048576",
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Workers != 3 || cfg.server.QueueDepth != 16 {
		t.Errorf("Workers, QueueDepth = %d, %d", cfg.server.Workers, cfg.server.QueueDepth)
	}
	if cfg.server.TenantRPS != 2.5 {
		t.Errorf("TenantRPS = %g", cfg.server.TenantRPS)
	}
	if cfg.server.MaxBodyBytes != 4096 {
		t.Errorf("MaxBodyBytes = %d", cfg.server.MaxBodyBytes)
	}
	if cfg.server.SampleBytes != 1<<20 {
		t.Errorf("SampleBytes = %d", cfg.server.SampleBytes)
	}
	for _, removed := range []string{"-max-cost", "-fastlane-threshold"} {
		if _, err := parseFlags([]string{removed, "1e6", "-tenant-rps", "2.5"}, flag.ContinueOnError); err == nil {
			t.Errorf("%s parsed without an error", removed)
		}
	}
}

func TestDaemonBadAddr(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "256.256.256.256:1"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Fatal("expected listen error")
	}
}
