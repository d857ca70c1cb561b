package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzMaxNodes keeps fuzz inputs from allocating large graphs; correctness
// does not depend on the limit's value.
const fuzzMaxNodes = 1 << 12

// checkParsedGraph asserts the structural invariants every successfully
// parsed graph must satisfy, then round-trips it through WriteEdgeList.
func checkParsedGraph(t *testing.T, g *Graph, directed, weighted bool) {
	t.Helper()
	n := g.N()
	if n > fuzzMaxNodes {
		t.Fatalf("parsed %d nodes, above the %d limit", n, fuzzMaxNodes)
	}
	if g.Directed() != directed {
		t.Fatalf("directedness mismatch")
	}
	if g.Weighted() != weighted {
		t.Fatalf("weightedness mismatch: got %v", g.Weighted())
	}
	seen := make(map[int64]bool, n)
	for v := int32(0); int(v) < n; v++ {
		l := g.Label(v)
		if l < 0 {
			t.Fatalf("node %d has negative label %d", v, l)
		}
		if seen[l] {
			t.Fatalf("label %d appears twice", l)
		}
		seen[l] = true
	}
	g.Edges(func(u, v int32) bool {
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			t.Fatalf("edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			t.Fatalf("self-loop (%d,%d) survived", u, v)
		}
		if weighted {
			w, ok := g.Weight(u, v)
			if !ok {
				t.Fatalf("edge (%d,%d) reported by Edges but absent", u, v)
			}
			if !(w > 0) || math.IsInf(w, 1) {
				t.Fatalf("edge (%d,%d) has invalid weight %g", u, v, w)
			}
		}
		return true
	})

	// Round trip: writing and re-reading must succeed and preserve the
	// edge count (isolated nodes — e.g. from dropped self-loops — are not
	// written, so the node count may shrink).
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var g2 *Graph
	var err error
	if weighted {
		g2, err = ReadWeightedEdgeListLimit(&buf, directed, fuzzMaxNodes)
	} else {
		g2, err = ReadEdgeListLimit(&buf, directed, fuzzMaxNodes)
	}
	if err != nil {
		t.Fatalf("round trip failed to parse: %v", err)
	}
	if g2.M() != g.M() {
		t.Fatalf("round trip changed edge count: %d -> %d", g.M(), g2.M())
	}
	if g2.N() > g.N() {
		t.Fatalf("round trip grew node count: %d -> %d", g.N(), g2.N())
	}
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"), false)
	f.Add([]byte("# comment\n% comment\n10 20\n20 30\n"), true)
	f.Add([]byte("5 5\n"), false)
	f.Add([]byte("9223372036854775807 1\n"), false)
	f.Add([]byte("-3 4\n"), false)
	f.Add([]byte("0 1 extra fields are fine\n"), false)
	f.Add([]byte(""), true)
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		g, err := ReadEdgeListLimit(bytes.NewReader(data), directed, fuzzMaxNodes)
		if err != nil {
			return // rejected inputs just must not crash or hang
		}
		checkParsedGraph(t, g, directed, false)
	})
}

func FuzzReadWeightedEdgeList(f *testing.F) {
	f.Add([]byte("0 1 1.5\n1 2 2\n"), false)
	f.Add([]byte("0 1 0\n"), false)
	f.Add([]byte("0 1 -2\n"), true)
	f.Add([]byte("0 1 NaN\n"), false)
	f.Add([]byte("0 1 Inf\n"), false)
	f.Add([]byte("0 1 1e308\n2 3 5e-324\n"), true)
	f.Add([]byte("1 2\n"), false)
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		g, err := ReadWeightedEdgeListLimit(bytes.NewReader(data), directed, fuzzMaxNodes)
		if err != nil {
			return
		}
		// Empty inputs build an unweighted 0-node graph; only inputs with
		// at least one edge are weighted.
		checkParsedGraph(t, g, directed, g.M() > 0)
	})
}

// FuzzDecodeCSR drives the binary .gbcsr reader with arbitrary bytes:
// truncated or corrupt headers, overflowing section offsets and mismatched
// checksums must all surface as *FormatError — never a panic, and never an
// allocation beyond what the input's own size justifies (every section
// length is validated against the file size before arrays materialize).
func FuzzDecodeCSR(f *testing.F) {
	// Seed with valid images of each flag combination, plus classic
	// corruptions of one of them.
	seeds := [][]byte{}
	for _, g := range []*Graph{
		MustFromEdges(6, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}),
		MustFromEdges(6, true, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}}),
		MustFromEdges(0, false, nil),
	} {
		var buf bytes.Buffer
		if err := g.WriteCSR(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	wb := NewBuilder(4, false)
	wb.AddWeightedEdge(0, 1, 2.5)
	wb.AddWeightedEdge(1, 2, 0.125)
	if wg, err := wb.Build(); err == nil {
		var buf bytes.Buffer
		wg.WriteCSR(&buf)
		seeds = append(seeds, buf.Bytes())
	}
	base := seeds[0]
	truncated := base[:len(base)/3]
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)-2] ^= 0x10 // payload corruption → section CRC
	headerCorrupt := append([]byte(nil), base...)
	headerCorrupt[16] = 0xff // header corruption → header CRC
	hugeN := append([]byte(nil), base...)
	copy(hugeN[16:24], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	seeds = append(seeds, truncated, flipped, headerCorrupt, hugeN,
		[]byte{}, csrMagic[:], []byte("not a gbcsr file at all"))
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeCSR(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("DecodeCSR error %v (type %T) is not a *FormatError", err, err)
			}
			return
		}
		// Accepted images must satisfy the full Graph contract: in-range
		// sorted adjacency, valid weights, and a clean re-serialization.
		if g.N() > 0 {
			_ = g.OutNeighbors(0)
			_ = g.InNeighbors(int32(g.N() - 1))
		}
		g.Edges(func(u, v int32) bool {
			if u < 0 || int(u) >= g.N() || v < 0 || int(v) >= g.N() {
				t.Fatalf("edge (%d,%d) out of range [0,%d)", u, v, g.N())
			}
			if g.Weighted() {
				if w, ok := g.Weight(u, v); !ok || !(w > 0) || math.IsInf(w, 1) {
					t.Fatalf("edge (%d,%d) weight %g ok=%v invalid", u, v, w, ok)
				}
			}
			return true
		})
		var buf bytes.Buffer
		if err := g.WriteCSR(&buf); err != nil {
			t.Fatalf("re-serializing an accepted graph failed: %v", err)
		}
		if _, err := DecodeCSR(buf.Bytes()); err != nil {
			t.Fatalf("re-serialized image rejected: %v", err)
		}
	})
}

func TestReadEdgeListNodeLimit(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "0 %d\n", 100+i)
	}
	if _, err := ReadEdgeListLimit(strings.NewReader(sb.String()), false, 5); err == nil {
		t.Fatal("expected node-limit error")
	}
	// The same input parses fine with a sufficient limit.
	if _, err := ReadEdgeListLimit(strings.NewReader(sb.String()), false, 1000); err != nil {
		t.Fatal(err)
	}
	// Re-used ids do not count against the limit.
	small := "0 1\n1 2\n2 0\n0 2\n1 0\n"
	if _, err := ReadEdgeListLimit(strings.NewReader(small), false, 3); err != nil {
		t.Fatalf("limit 3 should admit 3 distinct nodes: %v", err)
	}
}

func TestReadWeightedEdgeListRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"0 1 Inf\n", "0 1 +Inf\n", "0 1 NaN\n", "0 1 0\n", "0 1 -1\n"} {
		if _, err := ReadWeightedEdgeList(strings.NewReader(bad), false); err == nil {
			t.Fatalf("weight input %q must be rejected", bad)
		}
	}
	if _, err := ReadWeightedEdgeList(strings.NewReader("0 1 1e308\n"), false); err != nil {
		t.Fatalf("large finite weight rejected: %v", err)
	}
}

// applyDeltaInput encodes a FuzzApplyDelta input: the node count, the base
// graph's edges, then each delta's edges closed by 0xff. A delta edge is
// deleted if the version it applies to has it and inserted otherwise.
func applyDeltaInput(n int, base [][2]byte, deltas ...[][2]byte) []byte {
	data := []byte{byte(n - 1), byte(len(base))}
	for _, e := range base {
		data = append(data, e[0], e[1], 3)
	}
	for _, d := range deltas {
		for _, e := range d {
			data = append(data, e[0], e[1], 5)
		}
		data = append(data, 0xff)
	}
	return data
}

// FuzzApplyDelta checks ApplyDelta against the Builder oracle. The bytes
// build a graph of at most 40 nodes (byte 0 is n − 1, byte 1 the number of
// base edges, then one (u, v, weight) triple per edge) and a chain of up to
// 16 deltas: each further triple toggles edge (u, v), a deletion when the
// current version has it and an insertion otherwise, and a 0xff byte closes
// a delta. Every version must equal, CSR for CSR, a Builder fed its edge
// set, and applying a delta must leave the version it applies to intact.
func FuzzApplyDelta(f *testing.F) {
	path := func(n int) [][2]byte {
		var es [][2]byte
		for v := 0; v+1 < n; v++ {
			es = append(es, [2]byte{byte(v), byte(v + 1)})
		}
		return es
	}
	var ring [][2]byte
	for v := 0; v < 8; v++ {
		ring = append(ring, [2]byte{byte(v), byte((v + 3) % 8)})
	}
	for _, in := range [][]byte{
		// Touches node 0 and node n−1.
		applyDeltaInput(10, path(10), [][2]byte{{0, 9}, {0, 1}, {8, 9}}),
		// An isolated node gains its first edge.
		applyDeltaInput(6, path(4), [][2]byte{{5, 2}}),
		// A row loses its only edge.
		applyDeltaInput(6, [][2]byte{{0, 1}, {1, 2}, {4, 1}}, [][2]byte{{4, 1}}),
		// Adjacent touched rows.
		applyDeltaInput(8, path(8), [][2]byte{{2, 5}, {3, 4}, {4, 7}}),
		// Every row touched.
		applyDeltaInput(8, path(8), ring),
		// Chained deltas, the last one re-inserting what the first deleted.
		applyDeltaInput(7, path(7), [][2]byte{{1, 2}, {0, 6}}, [][2]byte{{2, 4}, {6, 0}}, [][2]byte{{1, 2}, {3, 5}}),
		// Every edge deleted, then one inserted.
		applyDeltaInput(5, path(3), path(3), [][2]byte{{4, 0}}),
	} {
		f.Add(in, false, false)
		f.Add(in, true, true)
	}
	f.Add(applyDeltaInput(10, path(10), [][2]byte{{9, 0}, {1, 0}}), true, false)
	f.Add(applyDeltaInput(6, path(4), [][2]byte{{5, 2}, {2, 0}}), false, true)
	f.Fuzz(func(t *testing.T, data []byte, directed, weighted bool) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%40
		edges := int(data[1])
		data = data[2:]
		weight := func(b byte) float64 { return float64(1+b%8) / 2 }
		b := NewBuilder(n, directed)
		for ; edges > 0 && len(data) >= 3; edges-- {
			u, v := int32(int(data[0])%n), int32(int(data[1])%n)
			if weighted {
				b.AddWeightedEdge(u, v, weight(data[2]))
			} else {
				b.AddEdge(u, v)
			}
			data = data[3:]
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		// A weighted builder whose every edge was a self-loop builds an
		// unweighted graph.
		weighted = g.Weighted()
		for deltas := 0; len(data) > 0 && deltas < 16; deltas++ {
			d := &Delta{}
			named := make(map[[2]int32]bool)
			for ; len(data) >= 3 && data[0] != 0xff; data = data[3:] {
				u, v := int32(int(data[0])%n), int32(int(data[1])%n)
				key := [2]int32{u, v}
				if !directed && v < u {
					key = [2]int32{v, u}
				}
				if u == v || named[key] {
					continue
				}
				named[key] = true
				e := DeltaEdge{U: u, V: v}
				if g.HasEdge(u, v) {
					d.Delete = append(d.Delete, e)
					continue
				}
				if weighted {
					e.W = weight(data[2])
				}
				d.Insert = append(d.Insert, e)
			}
			data = data[min(1, len(data)):]

			before := edgeSet(g)
			set := applyToSet(g, d)
			ng, err := ApplyDelta(g, d)
			if err != nil {
				t.Fatalf("delta %d %+v: %v", deltas, *d, err)
			}
			if !reflect.DeepEqual(edgeSet(g), before) {
				t.Fatalf("delta %d changed the version it applied to", deltas)
			}
			if ng.Weighted() != weighted {
				t.Fatalf("delta %d: weighted %v, want %v", deltas, ng.Weighted(), weighted)
			}
			// The Builder builds no weighted graph without edges, so a
			// weighted version that lost its last edge is compared with the
			// unweighted empty graph, rows only.
			if len(set) == 0 && weighted {
				rows := *ng
				rows.outWts, rows.inWts = nil, nil
				sameCSR(t, &rows, rebuild(t, n, directed, false, set))
			} else {
				sameCSR(t, ng, rebuild(t, n, directed, weighted, set))
			}
			g = ng
		}
	})
}
