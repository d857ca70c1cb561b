package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gbc/internal/bfs"
	"gbc/internal/core"
	"gbc/internal/coverage"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// probeSizes are the amounts of work each isolated layer timing does.
type probeSizes struct {
	pairs, dijkstraPairs, grow, shardRange, reps int
}

func sizesFor(c config) probeSizes {
	if c.smoke {
		return probeSizes{pairs: 200, dijkstraPairs: 50, grow: 1024, shardRange: 1024, reps: 3}
	}
	return probeSizes{pairs: 2000, dijkstraPairs: 300, grow: 8192, shardRange: 8192, reps: 20}
}

func probeWeightedNodes(c config) int {
	if c.smoke {
		return 100
	}
	return weightedNodes
}

// layerProbe times each layer's public functions in isolation on g (and
// on the weighted graph wg for the Dijkstra sampler), and checks the
// results agree where two paths must give the same answer: parallel and
// sequential growth, repair and cold regrowth, shard fetch and local draw.
// The shard fetch goes to two loopback shard workers holding g.
func layerProbe(ctx context.Context, c config, g, wg *graph.Graph, tr *tracer, rep *report) error {
	sz := sizesFor(c)
	r := xrand.NewStream(c.seed, streamProbe)
	l := rep.layer
	timed := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.add(name, 0, 0, t0, t1)
		return t1.Sub(t0), err
	}

	// bfs: the per-pair samplers.
	bd := bfs.NewBidirectional(g)
	pr := xrand.New(r.Uint64())
	d, _ := timed("bfs.bidirectional", func() error {
		for i := 0; i < sz.pairs; i++ {
			s, t := pr.IntnPair(g.N())
			bd.Sample(int32(s), int32(t), pr)
		}
		return nil
	})
	l["bfs.bidir_ns_per_sample"] = float64(d.Nanoseconds()) / float64(sz.pairs)
	l["bfs.bidir_edges_per_sample"] = float64(bd.EdgesScanned) / float64(sz.pairs)
	dj := bfs.NewDijkstra(wg)
	d, _ = timed("bfs.dijkstra", func() error {
		for i := 0; i < sz.dijkstraPairs; i++ {
			s, t := pr.IntnPair(wg.N())
			dj.Sample(int32(s), int32(t), pr)
		}
		return nil
	})
	l["bfs.dijkstra_ns_per_sample"] = float64(d.Nanoseconds()) / float64(sz.dijkstraPairs)

	// sampling: one set grown sequentially, one with a worker per CPU.
	workers := runtime.GOMAXPROCS(0)
	setSeed := r.Uint64()
	seq := sampling.NewSetFor(g, xrand.New(setSeed))
	d1, err := timed("sampling.grow.w1", func() error { return seq.GrowToCtx(ctx, sz.grow) })
	if err != nil {
		return err
	}
	m := &obs.Metrics{}
	par := sampling.NewSetFor(g, xrand.New(setSeed))
	par.Workers, par.Metrics = workers, m
	dn, err := timed("sampling.grow.wn", func() error { return par.GrowToCtx(ctx, sz.grow) })
	if err != nil {
		return err
	}
	if !sameSets(seq, par) {
		rep.mismatch("probe: growth with %d workers differs from sequential growth", workers)
	}
	l["sampling.grow_ns_per_sample_w1"] = float64(d1.Nanoseconds()) / float64(sz.grow)
	l["sampling.grow_ns_per_sample_wn"] = float64(dn.Nanoseconds()) / float64(sz.grow)
	l["sampling.parallel_speedup"] = ratio(float64(d1), float64(dn))
	l["sampling.idle_frac"] = ratio(float64(m.Snapshot().SamplerIdleNanos), float64(workers)*float64(dn.Nanoseconds()))

	// graph + sampling: an edge PATCH's delta, incremental repair of the
	// grown set, and the cold regrowth repair replaces.
	delta := edgeDelta(g, r)
	var ng *graph.Graph
	d, err = timed("graph.apply_delta", func() (err error) { ng, err = graph.ApplyDelta(g, delta); return err })
	if err != nil {
		return err
	}
	l["graph.apply_delta_ms"] = ms(d)
	var st sampling.RepairStats
	d, err = timed("sampling.repair", func() (err error) { st, err = seq.Repair(ng, delta); return err })
	if err != nil {
		return err
	}
	l["sampling.repair_ms"] = ms(d)
	l["sampling.repaired_frac"] = ratio(float64(st.Regenerated), float64(st.Samples))
	cold := sampling.NewSetFor(ng, xrand.New(setSeed))
	d, err = timed("sampling.cold_regrow", func() error { return cold.GrowToCtx(ctx, sz.grow) })
	if err != nil {
		return err
	}
	l["sampling.cold_regrow_ms"] = ms(d)
	if !sameSets(seq, cold) {
		rep.mismatch("probe: repaired set differs from a cold regrowth on the patched graph")
	}

	// shard + wire: one index range fetched through the cluster, drawn
	// locally, and pushed through the GBSP payload codec.
	sw, err := startShardWorkers(2, map[string]*graph.Graph{"probe": g})
	if err != nil {
		return err
	}
	defer sw.close()
	seed0, seed1 := r.Uint64(), r.Uint64()
	drawer, err := sampling.NewDrawer(g, wire.SamplerBidirectional, seed0, seed1)
	if err != nil {
		return err
	}
	var local coverage.PathArena
	local.Reset()
	dl, err := timed("sampling.draw_range", func() error { return drawer.DrawRange(ctx, &local, 0, sz.shardRange) })
	if err != nil {
		return err
	}
	grower := shard.NewCluster(shard.Config{Shards: sw.urls}).Grower("probe", wire.SamplerBidirectional)
	if _, err := grower.GrowRange(ctx, seed0, seed1, 0, 64); err != nil { // opens the graph on the workers
		return err
	}
	var fetched []*coverage.PathArena
	df, err := timed("shard.grow_range", func() (err error) {
		fetched, err = grower.GrowRange(ctx, seed0, seed1, 0, sz.shardRange)
		return err
	})
	if err != nil {
		return err
	}
	var merged coverage.PathArena
	merged.Reset()
	for _, a := range fetched {
		merged.AppendArena(a)
	}
	if !slices.Equal(merged.Nodes, local.Nodes) || !slices.Equal(merged.Offsets, local.Offsets) {
		rep.mismatch("probe: shard-fetched range differs from the same range drawn locally")
	}
	l["shard.fetch_ns_per_sample"] = float64(df.Nanoseconds()) / float64(sz.shardRange)
	l["shard.overhead_ratio"] = ratio(float64(df), float64(dl))

	// shard + core: one solve whose sample sets grow through the cluster,
	// the way a gbcd coordinator grows them, against the same solve grown
	// locally.
	sm := &obs.Metrics{}
	remote := shard.NewCluster(shard.Config{Shards: sw.urls, Metrics: sm}).Grower("probe", wire.SamplerBidirectional)
	opts := core.Options{K: 20, Epsilon: 0.2, Seed: sessionSeed(r)}
	sharded := opts
	sharded.SamplerSet = func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
		s := sampling.NewSetFor(g, r)
		s.Remote = remote
		return s
	}
	var fromShards *core.Result
	if _, err := timed("shard.solve", func() (err error) { fromShards, err = core.Solve(ctx, g, sharded); return err }); err != nil {
		return err
	}
	localRes, err := core.Solve(ctx, g, opts)
	if err != nil {
		return err
	}
	if !sameResult(fromShards, localRes) {
		rep.mismatch("probe: a solve grown through the shard workers differs from the same solve grown locally")
	}
	l["shard.epochs_per_solve"] = float64(sm.Snapshot().ShardEpochs)
	l["shard.retries"] = float64(sm.Snapshot().ShardRetries)

	payload := wire.ArenaPayload{Count: local.Len(), Offsets: local.Offsets, Nodes: local.Nodes, Obs: local.Obs}
	buf := payload.AppendBinary(nil)
	d, _ = timed("wire.arena_encode", func() error {
		for i := 0; i < sz.reps; i++ {
			buf = payload.AppendBinary(buf[:0])
		}
		return nil
	})
	l["wire.arena_encode_ns_per_sample"] = float64(d.Nanoseconds()) / float64(sz.reps*sz.shardRange)
	l["shard.bytes_per_sample"] = float64(len(buf)) / float64(sz.shardRange)
	d, err = timed("wire.arena_decode", func() error {
		for i := 0; i < sz.reps; i++ {
			if _, err := wire.DecodeArenaPayload(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l["wire.arena_decode_ns_per_sample"] = float64(d.Nanoseconds()) / float64(sz.reps*sz.shardRange)

	// graph: the .gbcsr round trip.
	path := filepath.Join(c.workdir, fmt.Sprintf("probe-%d.gbcsr", os.Getpid()))
	defer os.Remove(path)
	d, err = timed("graph.csr_write", func() error { return g.WriteCSRFile(path) })
	if err != nil {
		return err
	}
	l["graph.csr_write_ms"] = ms(d)
	var opened *graph.Graph
	d, err = timed("graph.csr_open", func() (err error) { opened, err = graph.OpenCSR(path); return err })
	if err != nil {
		return err
	}
	l["graph.csr_open_ms"] = ms(d)
	if opened.N() != g.N() || opened.M() != g.M() {
		rep.mismatch("probe: .gbcsr round trip changed the graph shape")
	}
	return opened.Close()
}

// sameSets compares two sample sets by length, null count and the greedy
// group they yield.
func sameSets(a, b *sampling.Set) bool {
	ga, ca := a.Greedy(10)
	gb, cb := b.Greedy(10)
	return a.Len() == b.Len() && a.Unreachable == b.Unreachable && ca == cb && slices.Equal(ga, gb)
}

// wireEncodeProbe times the JSON encoding of a solve's wire result, the
// body of every /v1/topk answer.
func wireEncodeProbe(res *core.Result, rep *report) error {
	untraced := *res
	untraced.Trace = nil // served answers carry no trace
	w := wire.FromResult(core.AlgAdaAlg, len(res.Group), &untraced, nil)
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := json.Marshal(w); err != nil {
			return err
		}
	}
	rep.layer["wire.result_encode_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
	return nil
}
