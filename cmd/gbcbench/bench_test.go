package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, the contract the
// benchmark's result lines must keep.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/gbcbench" {
		t.Errorf("paths = %v, want [cmd/gbcbench]", bf.Paths)
	}
}

// TestSmokeEveryWorkload runs each workload traced for about a second on
// reduced inputs; a traced run measures the end-to-end metrics as well as
// the per-layer ones. Every metric must be measured, no operation may fail
// and every answer must verify.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			c := config{workload: w.name, seed: 1, seconds: 1, trace: true, smoke: true,
				workdir: dir, spans: filepath.Join(dir, "spans.jsonl")}
			tr := newTracer()
			rep, err := w.run(context.Background(), c, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.wrong {
				t.Errorf("wrong answer: %s", m)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d; want some attempted and none failed", rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				if v, ok := rep.e2e[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (measured %v), want finite and > 0", d.name, v, ok)
				}
			}
			for _, d := range perLayer {
				if v, ok := rep.layer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (measured %v), want finite", d.name, v, ok)
				}
			}
			if tr.len() == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestResultLine checks the command-line contract: the last line of
// standard output is one JSON object with exactly the keys correct,
// attempted, failed and metrics, carrying every metric with its unit.
func TestResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		dir := t.TempDir()
		code := run(context.Background(), []string{"--workload", "serve-patch", "--seed", "3", "--seconds", "1",
			"--trace", trace, "-smoke", "-workdir", dir}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d, stderr:\n%s\nstdout:\n%s", trace, code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: result keys = %v", trace, res)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want a value in %s", trace, d.name, m, d.unit)
			}
		}
		if trace == "1" {
			if _, err := os.Stat(filepath.Join(dir, "spans-serve-patch.jsonl")); err != nil {
				t.Errorf("span file: %v", err)
			}
		}
	}
}
