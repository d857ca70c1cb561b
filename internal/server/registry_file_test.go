package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gbc/internal/core"
	"gbc/internal/graph"
	"gbc/internal/obs"
)

// writeCSRGraph serializes a test graph to a .gbcsr file and returns its
// path.
func writeCSRGraph(t *testing.T, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gbcsr")
	if err := testGraph(t, seed).WriteCSRFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRegistryFileBackedEvictionDuringSolve is the refcounted-unmap
// guarantee, exercised under -race in CI: evicting a file-backed graph
// while a solve is in flight must keep the mapping alive until the last
// reference is released, and only then unmap and settle the mapped-bytes
// gauge.
func TestRegistryFileBackedEvictionDuringSolve(t *testing.T) {
	for round := 0; round < 3; round++ {
		m := &obs.Metrics{}
		r := NewRegistry(1, 0, m)
		fg, err := graph.OpenCSR(writeCSRGraph(t, uint64(round+1)))
		if err != nil {
			t.Fatal(err)
		}
		mappedBytes := fg.MappedBytes()
		if _, err := r.Add("file", "gbcsr", fg); err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot().GraphBytesMapped; got != mappedBytes {
			t.Fatalf("GraphBytesMapped after Add = %d, want %d", got, mappedBytes)
		}
		e, ok := r.Get("file")
		if !ok {
			t.Fatal("file graph missing")
		}
		var wg sync.WaitGroup
		var res *core.Result
		var solveErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, solveErr = e.Solve(context.Background(), core.Options{K: 4, Seed: 9}, m)
		}()
		// Race the eviction with the in-flight solve (registry cap is 1).
		if _, err := r.Add("evictor", "", testGraph(t, 99)); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if solveErr != nil {
			t.Fatal(solveErr)
		}
		if res.Group == nil {
			t.Fatal("solve returned no group")
		}
		// Evicted but still referenced: the mapping must still be intact
		// and readable.
		if got := m.Snapshot().GraphBytesMapped; got != mappedBytes {
			t.Fatalf("mapping released while referenced: gauge = %d, want %d", got, mappedBytes)
		}
		if e.Graph().N() == 0 || len(e.Graph().OutNeighbors(0)) == 0 {
			t.Fatal("evicted-but-referenced graph unreadable")
		}
		e.Release()
		if got := m.Snapshot().GraphBytesMapped; got != 0 {
			t.Fatalf("GraphBytesMapped after last release = %d, want 0", got)
		}
	}
}

// TestRegistryFileBackedSolveMatchesInMemory: a solve against the
// .gbcsr-loaded graph must be bit-identical to the same solve against the
// same graph built in memory.
func TestRegistryFileBackedSolveMatchesInMemory(t *testing.T) {
	opts := core.Options{K: 5, Seed: 11, Epsilon: 0.25}
	mem, err := core.Solve(context.Background(), testGraph(t, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := graph.OpenCSR(writeCSRGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer fg.Close()
	file, err := core.Solve(context.Background(), fg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripElapsed(mem), stripElapsed(file)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("file-backed solve differs from in-memory solve:\n  %+v\n  %+v", a, b)
	}
}

// TestFileSourceEndpoint drives the new "file" source of POST /v1/graphs
// end to end and asserts the storage counters move.
func TestFileSourceEndpoint(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	path := writeCSRGraph(t, 4)

	status, body := post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "csr", "path": path,
	})
	if status != http.StatusCreated {
		t.Fatalf("file source add: %d %s", status, body)
	}
	var info graphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	want := testGraph(t, 4)
	if info.Nodes != want.N() || info.Edges != want.M() {
		t.Fatalf("file graph shape %d/%d, want %d/%d", info.Nodes, info.Edges, want.N(), want.M())
	}

	s := m.Snapshot()
	if s.RegistryFileLoads != 1 {
		t.Fatalf("RegistryFileLoads = %d, want 1", s.RegistryFileLoads)
	}
	if s.GraphLoadNanos <= 0 {
		t.Fatalf("GraphLoadNanos = %d, want > 0", s.GraphLoadNanos)
	}
	if s.GraphBytesMapped <= 0 {
		// Heap fallback platforms report 0; the gauge moving is only
		// required where mmap exists.
		if g, err := graph.OpenCSR(path); err == nil {
			mapped := g.Mapped()
			g.Close()
			if mapped {
				t.Fatalf("GraphBytesMapped = %d on an mmap platform, want > 0", s.GraphBytesMapped)
			}
		}
	}

	// A solve against the file-backed graph works.
	status, body = post(t, ts.URL+"/v1/topk", map[string]any{
		"graph": "csr", "k": 4, "seed": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("topk on file graph: %d %s", status, body)
	}

	// Text edge lists load through the same source, sniffed by magic.
	txt := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(txt, []byte("0 1\n1 2\n2 0\n0 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, body = post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "txt", "path": txt,
	})
	if status != http.StatusCreated {
		t.Fatalf("file edge list add: %d %s", status, body)
	}

	// Failure modes: missing file, corrupt .gbcsr, unknown format — all
	// typed 400s naming the offending field.
	for _, tc := range []struct {
		name  string
		req   map[string]any
		field string
	}{
		{"missing", map[string]any{"name": "m1", "path": path + ".nope"}, "path"},
		{"badformat", map[string]any{"name": "m2", "path": path, "format": "parquet"}, "format"},
		{"twosources", map[string]any{"name": "m3", "path": path, "generator": "ba", "n": 10, "degree": 2}, ""},
	} {
		status, body := post(t, ts.URL+"/v1/graphs", tc.req)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d %s, want 400", tc.name, status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != tc.field {
			t.Fatalf("%s: field %q, want %q", tc.name, er.Field, tc.field)
		}
	}

	// Corrupt .gbcsr fails loudly with a format error.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.gbcsr")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	status, body = post(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "bad", "path": bad,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt gbcsr: %d %s, want 400", status, body)
	}
}

// TestFileSourceDuplicateNameUnmaps: a file-backed graph rejected for a
// duplicate name must release its mapping immediately.
func TestFileSourceDuplicateNameUnmaps(t *testing.T) {
	_, ts, m := newTestServer(t, Config{})
	path := writeCSRGraph(t, 4)
	if status, body := post(t, ts.URL+"/v1/graphs", map[string]any{"name": "g", "path": path}); status != http.StatusCreated {
		t.Fatalf("add: %d %s", status, body)
	}
	mapped := m.Snapshot().GraphBytesMapped
	if status, _ := post(t, ts.URL+"/v1/graphs", map[string]any{"name": "g", "path": path}); status != http.StatusConflict {
		t.Fatalf("duplicate add status %d, want 409", status)
	}
	if got := m.Snapshot().GraphBytesMapped; got != mapped {
		t.Fatalf("duplicate add leaked mapping: gauge %d, want %d", got, mapped)
	}
}
