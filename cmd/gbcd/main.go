// Command gbcd serves top-K group betweenness centrality over HTTP/JSON.
//
// It keeps named graphs resident in an LRU registry and bounds solver
// concurrency with a FIFO-queued worker pool. Each graph keeps one sample
// family per seed it has served: the family stores the samples its runs
// drew, so a later query on the same (graph, seed) — any K, ε or
// algorithm — draws only the samples no earlier run drew; it memoizes
// converged answers, which answer identical or ε-dominated repeats on the
// same version; and identical concurrent queries wait on its in-flight
// run. All families share one byte budget (-sample-bytes, LRU eviction).
// Graphs are versioned: PATCH applies an edge delta as a new immutable
// version (optionally guarded by ifVersion), stored samples are repaired
// forward, and responses say how they were produced (servedFrom: solve |
// cache | coalesced).
//
//	gbcd -addr :8080
//	curl -s localhost:8080/v1/graphs -d '{"name":"ba","generator":"ba","n":2000,"degree":4}'
//	curl -s localhost:8080/v1/topk   -d '{"graph":"ba","k":10,"epsilon":0.1}'
//	curl -s -X PATCH localhost:8080/v1/graphs/ba -d '{"insert":[{"u":0,"v":9}]}'
//	curl -s localhost:8080/v1/graphs/ba          # shape, version history, cache stats
//
// SIGINT/SIGTERM drains gracefully: admissions stop (503), in-flight runs
// get the -drain-grace period to finish or return best-so-far partial
// results, then the process exits.
//
// gbcd also scales out horizontally: -shard runs the process as a shard
// worker (it opens .gbcsr graphs from shared storage on demand and answers
// epoch draw requests over the frozen shard wire protocol), and -shards
// turns a normal daemon into a coordinator that dispatches sample growth
// for .gbcsr-path graphs across those workers — deterministic responses
// stay bit-identical to a single-node solve.
//
//	gbcd -shard -addr :9001 &
//	gbcd -shard -addr :9002 &
//	gbcd -addr :8080 -shards http://localhost:9001,http://localhost:9002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gbc/internal/faultinject"
	"gbc/internal/obs"
	"gbc/internal/server"
	"gbc/internal/shard"
)

func main() {
	cfg := parseFlags(os.Args[1:], flag.ExitOnError)
	// GBC_FAULTS arms the fault-injection harness — a no-op unless the
	// binary was built with -tags faultinject (chaos testing only).
	if spec := os.Getenv("GBC_FAULTS"); spec != "" {
		if err := faultinject.ArmFromEnv(spec); err != nil {
			fmt.Fprintln(os.Stderr, "gbcd:", err)
			os.Exit(1)
		}
		if faultinject.Enabled {
			fmt.Println("gbcd: fault injection armed:", spec)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gbcd:", err)
		os.Exit(1)
	}
}

type config struct {
	addr       string
	drainGrace time.Duration
	shardMode  bool
	shards     string
	server     server.Config
}

func parseFlags(args []string, onError flag.ErrorHandling) config {
	fs := flag.NewFlagSet("gbcd", onError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&cfg.server.Workers, "workers", 0, "concurrent solver runs (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.server.QueueDepth, "queue", 0, "pending-run queue depth (0 = 64)")
	fs.IntVar(&cfg.server.MaxGraphs, "max-graphs", 0, "resident graph limit (0 = 16)")
	fs.Int64Var(&cfg.server.SampleBytes, "sample-bytes", 0, "bytes of stored samples all graphs' sample families may retain before the least recently used are dropped (0 = 256 MiB)")
	fs.DurationVar(&cfg.server.DefaultTimeout, "default-timeout", 0, "per-run deadline when the request names none (0 = 30s)")
	fs.DurationVar(&cfg.server.MaxTimeout, "max-timeout", 0, "cap on requested per-run deadlines (0 = 5m)")
	fs.DurationVar(&cfg.drainGrace, "drain-grace", 10*time.Second, "how long in-flight runs may finish after SIGTERM before being cut to partial results")
	fs.Float64Var(&cfg.server.MaxCost, "max-cost", 0, "admission-control bound on total estimated run cost queued+running, in (n+m)·eps^-2·log(n/gamma) units (0 = unlimited)")
	fs.Float64Var(&cfg.server.FastLaneThreshold, "fastlane-threshold", 0, "route runs at or below this estimated cost through the small-job fast lane (0 = default 1e7, negative = disable)")
	fs.Float64Var(&cfg.server.TenantRPS, "tenant-rps", 0, "per-tenant /v1/topk requests per second, keyed on the X-Tenant header (0 = unlimited)")
	fs.Int64Var(&cfg.server.MaxBodyBytes, "max-body", 0, "request body size limit for non-upload endpoints (0 = 1 MiB)")
	fs.BoolVar(&cfg.shardMode, "shard", false, "run as a shard worker: serve epoch draw requests over the shard wire protocol instead of the full API")
	fs.StringVar(&cfg.shards, "shards", "", "comma-separated shard-worker base URLs; non-empty makes this daemon a coordinator that dispatches sample growth for .gbcsr-path graphs across them")
	fs.DurationVar(&cfg.server.ShardEpochTimeout, "shard-epoch-timeout", 0, "per-epoch deadline on one shard worker before its range is reassigned (0 = 30s)")
	fs.Parse(args)
	if cfg.shards != "" {
		for _, u := range strings.Split(cfg.shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.server.Shards = append(cfg.server.Shards, u)
			}
		}
	}
	return cfg
}

// run starts the daemon and blocks until ctx cancels and the drain
// completes. ready, when non-nil, is called with the base URL once the
// listener is accepting (the smoke test and unit tests hook it).
func run(ctx context.Context, cfg config, ready func(url string)) error {
	if cfg.shardMode {
		return runShard(ctx, cfg, ready)
	}
	cfg.server.Metrics = obs.Published()
	srv := server.New(cfg.server)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	fmt.Printf("gbcd: listening on %s\n", url)
	if ready != nil {
		ready(url)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Printf("gbcd: draining (grace %v)\n", cfg.drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	// Drain order matters: the scheduler first, so queued and in-flight
	// runs finish (or go partial at grace expiry) while their HTTP
	// connections are still alive to carry the responses; only then close
	// the listener and idle connections.
	srv.Shutdown(grace)
	if err := httpSrv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	fmt.Println("gbcd: drained, exiting")
	return nil
}

// runShard serves the shard-worker surface: epoch draw requests against
// .gbcsr graphs the worker opens from its filesystem on first use. A
// worker holds no solver state — losing one mid-run only reassigns its
// index ranges — so its drain is just closing the listener in-flight
// requests included, then unmapping the resident graphs.
func runShard(ctx context.Context, cfg config, ready func(url string)) error {
	worker := shard.NewWorker(obs.Published(), true)
	defer worker.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	fmt.Printf("gbcd: listening on %s\n", url)
	if ready != nil {
		ready(url)
	}

	httpSrv := &http.Server{Handler: worker.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Printf("gbcd: shard draining (grace %v)\n", cfg.drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr
	fmt.Println("gbcd: shard drained, exiting")
	return nil
}
