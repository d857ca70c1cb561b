package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzServer is shared across fuzz iterations — building a Server per input
// would drown the fuzzer in setup. No graphs are registered, so any
// structurally valid topk request 404s; everything else must be a typed
// 4xx. The property under test is the decode path: arbitrary bytes must
// never panic the handler or produce an untyped error body.
func fuzzPost(f *testing.F, path string) {
	s := New(Config{MaxBodyBytes: 1 << 16, MaxUploadBytes: 1 << 16})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic fails the fuzz run
		code := rec.Code
		if code == http.StatusCreated {
			return // a graph request the fuzzer legitimately assembled
		}
		if code != http.StatusBadRequest && code != http.StatusNotFound &&
			code != http.StatusConflict {
			t.Fatalf("status %d for body %q", code, body)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("error body is not a typed errorResponse: %q", rec.Body.Bytes())
		}
		if e.Error == "" {
			t.Fatalf("empty error message for body %q", body)
		}
	})
}

func FuzzTopKDecode(f *testing.F) {
	f.Add([]byte(`{"graph":"g","k":3}`))
	f.Add([]byte(`{"graph":"g","k":-1}`))
	f.Add([]byte(`{"graph":"g","k":3,"epsilon":1e999}`))
	f.Add([]byte(`{"graph":"g","k":3,"epsilon":-0.5}`))
	f.Add([]byte(`{"graph":"g","k":3,"gamma":"NaN"}`))
	f.Add([]byte(`{"graph":"g","k":9223372036854775807,"timeoutMillis":-5}`))
	f.Add([]byte(`{"graph":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"algorithm":"EXHAUST","k":0}`))
	f.Add([]byte(`{"graph":"g","k":3,"forward":true}`))
	fuzzPost(f, "/v1/topk")
}

// FuzzGraphPatchDecode targets PATCH /v1/graphs/{name} with a real graph
// registered: arbitrary bytes must never panic, every failure must be a
// typed 4xx, and the graph's version must only ever move forward — an
// accepted patch bumps it by one, a rejected one leaves it alone.
func FuzzGraphPatchDecode(f *testing.F) {
	f.Add([]byte(`{"insert":[{"u":0,"v":5}]}`))
	f.Add([]byte(`{"delete":[{"u":0,"v":1}]}`))
	f.Add([]byte(`{"insert":[{"u":0,"v":5}],"delete":[{"u":0,"v":5}]}`))
	f.Add([]byte(`{"insert":[{"u":-1,"v":5}]}`))
	f.Add([]byte(`{"insert":[{"u":3,"v":3}]}`))
	f.Add([]byte(`{"insert":[{"u":0,"v":5,"w":1e999}]}`))
	f.Add([]byte(`{"insert":[{"u":0,"v":99999999}]}`))
	f.Add([]byte(`{"ifVersion":-3,"insert":[{"u":0,"v":5}]}`))
	f.Add([]byte(`{"ifVersion":7,"insert":[{"u":0,"v":5}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"insert":`))
	f.Add([]byte(`null`))

	s := New(Config{MaxBodyBytes: 1 << 16, MaxUploadBytes: 1 << 16})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	// A 12-node ring: edges (i, i+1 mod 12), so the fuzzer has both present
	// and absent edges within reach of small integers.
	var sb bytes.Buffer
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%12)
	}
	add, _ := json.Marshal(map[string]any{"name": "g", "edgeList": sb.String()})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(add))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		f.Fatalf("seed graph: %d %s", rec.Code, rec.Body.Bytes())
	}
	version := func() int {
		e, ok := s.Registry().Get("g")
		if !ok {
			f.Fatal("graph g disappeared")
		}
		defer e.Release()
		return e.CurrentVersion()
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := version()
		req := httptest.NewRequest(http.MethodPatch, "/v1/graphs/g", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic fails the fuzz run
		after := version()
		switch rec.Code {
		case http.StatusOK:
			if after != before+1 {
				t.Fatalf("accepted patch moved version %d -> %d, want +1 (body %q)",
					before, after, body)
			}
			var pr patchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || pr.Version != after {
				t.Fatalf("malformed patch response %q (err %v)", rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest, http.StatusConflict:
			if after != before {
				t.Fatalf("rejected patch (%d) moved version %d -> %d (body %q)",
					rec.Code, before, after, body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("untyped error body %q", rec.Body.Bytes())
			}
			if rec.Code == http.StatusConflict && e.CurrentVersion != before {
				t.Fatalf("409 without the current version: %q", rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

func FuzzGraphDecode(f *testing.F) {
	f.Add([]byte(`{"name":"g","generator":"ba","n":10,"degree":2}`))
	f.Add([]byte(`{"name":"g","generator":"ba","n":-10,"degree":2}`))
	f.Add([]byte(`{"name":"../etc","generator":"ba","n":10,"degree":2}`))
	f.Add([]byte(`{"name":"g","edgeList":"0 1\n1 99999999999999999999\n"}`))
	f.Add([]byte(`{"name":"g","dataset":"GrQc","scale":1e999}`))
	f.Add([]byte(`{"name":"g","generator":"ws","n":4,"degree":2,"p":2}`))
	f.Add([]byte(`{"name":"g"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`0`))
	fuzzPost(f, "/v1/graphs")
}
