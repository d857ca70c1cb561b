package bfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// updateStream re-records the digests. The point of the stream tests is
// that a faster kernel reproduces the recorded stream, so re-record only
// for a deliberate change of what a sampler draws.
var updateStream = flag.Bool("update", false, "rewrite the testdata/*_stream.json digests from the current samplers")

const (
	streamGoldenPath         = "testdata/sample_stream.json"
	dijkstraStreamGoldenPath = "testdata/dijkstra_stream.json"
)

// streamPairs is the number of uniform pairs drawn per shape.
const streamPairs = 5000

// streamDigest freezes one shape's sample stream: a SHA-256 over every
// AppendSample draw (path, σ bits, Dist, Reachable, ObsF/ObsB and the
// draw's RNG's next output), and one over SigmaDist on the same pairs.
// The EdgesScanned totals after each pass are hashed too and kept readable.
type streamDigest struct {
	Samples          string `json:"samples"`
	SampleEdges      int64  `json:"sampleEdges"`
	SigmaDist        string `json:"sigmaDist"`
	SigmaDistEdges   int64  `json:"sigmaDistEdges"`
	UnreachablePairs int    `json:"unreachablePairs"`
}

// streamShape is one graph the sample stream is pinned on.
type streamShape struct {
	name string
	g    *graph.Graph
}

// streamShapes are sparse and dense preferential attachment (m/n ≈ 2 and
// ≈ 13), a directed preferential-attachment graph with unreachable pairs,
// and a Watts–Strogatz ring.
func streamShapes() []streamShape {
	return []streamShape{
		{"ba-sparse", gen.BarabasiAlbert(3000, 2, xrand.New(181))},
		{"ba-dense", gen.BarabasiAlbert(1500, 13, xrand.New(182))},
		{"dpa", gen.DirectedPreferential(3000, 3, 0.3, xrand.New(183))},
		{"ws", gen.WattsStrogatz(3000, 3, 0.05, xrand.New(184))},
	}
}

// streamPairList is streamPairs uniform pairs of distinct nodes of g.
func streamPairList(g *graph.Graph, seed uint64) [][2]int32 {
	pr := xrand.New(seed)
	pairs := make([][2]int32, streamPairs)
	for i := range pairs {
		a, b := pr.IntnPair(g.N())
		pairs[i] = [2]int32{int32(a), int32(b)}
	}
	return pairs
}

// sampleStream draws the shape's pairs through one sampler, each draw on
// its own RNG stream as sampling lanes do, and digests the outputs. It also
// counts the reachable draws whose last expansion was forward and
// backward, the two ways the meeting level is finished.
func sampleStream(g *graph.Graph) (out streamDigest, forwardLast, backwardLast int) {
	bd := NewBidirectional(g)
	pairs := streamPairList(g, 185)
	r := xrand.New(0)
	h := sha256.New()
	var rec []byte
	var buf []int32
	for i, p := range pairs {
		r.Reseed(186, uint64(i))
		var smp Sample
		smp, buf = bd.AppendSample(buf[:0], p[0], p[1], r)
		rec = rec[:0]
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(smp.Path)))
		for _, v := range smp.Path {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(v))
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(smp.Sigma))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(smp.Dist))
		switch {
		case !smp.Reachable:
			rec = append(rec, 0)
			out.UnreachablePairs++
		case bd.crossed:
			rec = append(rec, 1)
			forwardLast++
		default:
			rec = append(rec, 1)
			backwardLast++
		}
		rec = binary.LittleEndian.AppendUint32(rec, uint32(smp.ObsF))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(smp.ObsB))
		rec = binary.LittleEndian.AppendUint64(rec, r.Uint64())
		h.Write(rec)
	}
	out.SampleEdges = bd.EdgesScanned
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(out.SampleEdges)))
	out.Samples = hex.EncodeToString(h.Sum(nil))

	h.Reset()
	start := bd.EdgesScanned
	for _, p := range pairs {
		sigma, dist, ok := bd.SigmaDist(p[0], p[1])
		rec = rec[:0]
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(sigma))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(dist))
		if ok {
			rec = append(rec, 1)
		} else {
			rec = append(rec, 0)
		}
		h.Write(rec)
	}
	out.SigmaDistEdges = bd.EdgesScanned - start
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(out.SigmaDistEdges)))
	out.SigmaDist = hex.EncodeToString(h.Sum(nil))
	return out, forwardLast, backwardLast
}

// TestBidirectionalSampleStream pins the bidirectional sampler's output
// stream on four graph shapes to digests recorded before the meeting-level
// fast path existed: paths, σ, distances, observation bounds, RNG
// consumption and the EdgesScanned count must all be unchanged by any
// optimisation of the kernel. Every shape must finish some searches on
// each side.
func TestBidirectionalSampleStream(t *testing.T) {
	got := map[string]streamDigest{}
	for _, sh := range streamShapes() {
		var fwd, bwd int
		got[sh.name], fwd, bwd = sampleStream(sh.g)
		t.Logf("%s: last expansion forward %d, backward %d, unreachable %d",
			sh.name, fwd, bwd, got[sh.name].UnreachablePairs)
		if fwd == 0 || bwd == 0 {
			t.Errorf("%s: last expansion forward %d times, backward %d; want both", sh.name, fwd, bwd)
		}
	}
	checkStreamGolden(t, streamGoldenPath, got)
	if got["dpa"].UnreachablePairs == 0 {
		t.Error("dpa: no unreachable pairs; the shape no longer exercises the unreachable exit")
	}
}

// checkStreamGolden compares the digests with the golden file at path, or
// rewrites it under -update.
func checkStreamGolden(t *testing.T, path string, got map[string]streamDigest) {
	t.Helper()
	if *updateStream {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]streamDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d shapes, the test draws %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: stream %+v, golden %+v", name, g, w)
		}
	}
}

// withStreamWeights is g with each edge weighted by weight(r), in edge
// order.
func withStreamWeights(g *graph.Graph, seed uint64, weight func(*xrand.Rand) float64) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(g.N(), g.Directed())
	g.Edges(func(u, v int32) bool {
		b.AddWeightedEdge(u, v, weight(r))
		return true
	})
	wg, err := b.Build()
	if err != nil {
		panic(err)
	}
	return wg
}

// dijkstraStreamShapes are preferential attachment with weights 1..8 at
// n = 400 (the shape of gbcbench solve-mix's weighted graph), directed
// preferential attachment with weights 1..8 and unreachable pairs, and a
// Watts–Strogatz ring with dyadic weights k/4, k in 1..8.
func dijkstraStreamShapes() []streamShape {
	oneToEight := func(r *xrand.Rand) float64 { return float64(1 + r.Intn(8)) }
	quarters := func(r *xrand.Rand) float64 { return float64(1+r.Intn(8)) / 4 }
	return []streamShape{
		{"ba-400", withStreamWeights(gen.BarabasiAlbert(400, 3, xrand.New(191)), 192, oneToEight)},
		{"dpa", withStreamWeights(gen.DirectedPreferential(1500, 3, 0.3, xrand.New(193)), 194, oneToEight)},
		{"ws", withStreamWeights(gen.WattsStrogatz(1500, 3, 0.05, xrand.New(195)), 196, quarters)},
	}
}

// dijkstraStream is sampleStream for the weighted sampler: it digests each
// AppendSample draw's path, σ bits, Dist, WeightedDist bits (reachable
// draws), Reachable and the draw's RNG's next output, then SigmaDist's σ
// and d bits and reachability on the same pairs, each with the
// EdgesScanned total after its pass.
func dijkstraStream(g *graph.Graph) (out streamDigest) {
	dj := NewDijkstra(g)
	pairs := streamPairList(g, 197)
	r := xrand.New(0)
	h := sha256.New()
	var rec []byte
	var buf []int32
	for i, p := range pairs {
		r.Reseed(198, uint64(i))
		var smp Sample
		smp, buf = dj.AppendSample(buf[:0], p[0], p[1], r)
		rec = rec[:0]
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(smp.Path)))
		for _, v := range smp.Path {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(v))
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(smp.Sigma))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(smp.Dist))
		if smp.Reachable {
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(dj.WeightedDist))
			rec = append(rec, 1)
		} else {
			rec = append(rec, 0)
			out.UnreachablePairs++
		}
		rec = binary.LittleEndian.AppendUint64(rec, r.Uint64())
		h.Write(rec)
	}
	out.SampleEdges = dj.EdgesScanned
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(out.SampleEdges)))
	out.Samples = hex.EncodeToString(h.Sum(nil))

	h.Reset()
	start := dj.EdgesScanned
	for _, p := range pairs {
		sigma, dist, ok := dj.SigmaDist(p[0], p[1])
		rec = rec[:0]
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(sigma))
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(dist))
		if ok {
			rec = append(rec, 1)
		} else {
			rec = append(rec, 0)
		}
		h.Write(rec)
	}
	out.SigmaDistEdges = dj.EdgesScanned - start
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(out.SigmaDistEdges)))
	out.SigmaDist = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestDijkstraSampleStream pins the weighted sampler's output stream on
// three graph shapes to digests recorded with the bidirectional Dijkstra:
// paths, σ, hop and weighted distances, RNG consumption and the
// EdgesScanned count must all be unchanged by any later optimisation of
// the kernel.
func TestDijkstraSampleStream(t *testing.T) {
	got := map[string]streamDigest{}
	for _, sh := range dijkstraStreamShapes() {
		got[sh.name] = dijkstraStream(sh.g)
		t.Logf("%s: %d edges scanned per draw, unreachable %d",
			sh.name, got[sh.name].SampleEdges/streamPairs, got[sh.name].UnreachablePairs)
	}
	checkStreamGolden(t, dijkstraStreamGoldenPath, got)
	if got["dpa"].UnreachablePairs == 0 {
		t.Error("dpa: no unreachable pairs; the shape no longer exercises the unreachable exit")
	}
}
