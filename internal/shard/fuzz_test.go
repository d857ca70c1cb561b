package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// fuzzMaxCount skips epoch requests that are valid but merely slow: a
// worker draws up to maxEpochCount samples per request, which says nothing
// new about the decoder and would starve the fuzzer.
const fuzzMaxCount = 1 << 12

// FuzzWorkerEpoch feeds arbitrary bodies to POST /v1/shard/epoch, the
// untrusted input of a shard worker. The worker must never panic; it
// answers 200 with a payload that decodes to exactly the requested range,
// or a typed JSON error with a 4xx status. Its shard root holds one
// .gbcsr file, and no key — "../", a symlinked file or directory — may
// open a file outside the root.
func FuzzWorkerEpoch(f *testing.F) {
	valid := func(req wire.EpochRequest) []byte {
		b, _ := json.Marshal(req)
		return b
	}
	ok := wire.EpochRequest{
		Protocol: wire.ShardProtocolVersion, Graph: "g",
		Sampler: wire.SamplerBidirectional, Seed0: 7, Seed1: 11, Start: 5, Count: 20,
	}
	f.Add(valid(ok))
	for _, mut := range []func(*wire.EpochRequest){
		func(r *wire.EpochRequest) { r.Protocol = 99 },
		func(r *wire.EpochRequest) { r.Graph = "nope" },
		func(r *wire.EpochRequest) { r.Sampler = "dijkstra" },
		func(r *wire.EpochRequest) { r.Sampler = "warp" },
		func(r *wire.EpochRequest) { r.Start = -1 },
		func(r *wire.EpochRequest) { r.Count = maxEpochCount + 1 },
	} {
		r := ok
		mut(&r)
		f.Add(valid(r))
	}
	f.Add([]byte(`{"protocol":1,"graph":"g","sampler":"forward","start":9223372036854775807,"count":3}`))
	f.Add([]byte(`{"protocol":1`))
	f.Add([]byte(`null`))

	w, root := rootedWorker(f)
	w.AddGraph("g", gen.BarabasiAlbert(60, 2, xrand.New(3)))
	for _, key := range append(escapingKeys(root), filepath.Join(root, "in.gbcsr")) {
		r := ok
		r.Graph = key
		f.Add(valid(r))
	}
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func() {
			w.mu.Lock()
			defer w.mu.Unlock()
			for key := range w.graphs {
				if key != "g" && !within(root, key) {
					t.Fatalf("opened %q, outside the shard root %q", key, root)
				}
			}
		}()
		// Decode the way the handler does (first JSON value, trailing bytes
		// ignored) to know the range it will draw.
		var req wire.EpochRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			req.Count > fuzzMaxCount && req.Count <= maxEpochCount {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/epoch", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			p, err := wire.DecodeArenaPayload(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("200 body does not decode: %v", err)
			}
			if p.Start != req.Start || p.Count != req.Count {
				t.Fatalf("payload range [%d, +%d), request [%d, +%d)", p.Start, p.Count, req.Start, req.Count)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d outside 200/4xx: %s", rec.Code, rec.Body)
		}
		var e wire.ShardErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d body is not a typed error: %s", rec.Code, rec.Body)
		}
	})
}
