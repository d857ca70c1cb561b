package wire

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func samplePayload() *ArenaPayload {
	return &ArenaPayload{
		Start:   4096,
		Count:   3,
		Offsets: []int32{0, 2, 2, 5}, // path, null sample, path
		Nodes:   []int32{7, 9, 1, 4, 2},
		Obs:     []int32{3, 2, 0, 0, 5, 1},
	}
}

func TestArenaPayloadRoundTrip(t *testing.T) {
	p := samplePayload()
	data := p.AppendBinary(nil)
	back, err := DecodeArenaPayload(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", p, back)
	}
}

func TestArenaPayloadNoObsRoundTrip(t *testing.T) {
	p := samplePayload()
	p.Obs = []int32{}
	back, err := DecodeArenaPayload(p.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Obs) != 0 {
		t.Fatalf("obs-free payload grew bounds: %+v", back)
	}
}

// TestArenaPayloadFrozenLayout pins the exact bytes of the binary header —
// the cross-build interoperation commitment. A failure here means the
// layout changed without a ShardProtocolVersion bump.
func TestArenaPayloadFrozenLayout(t *testing.T) {
	p := &ArenaPayload{Start: 1, Count: 1, Offsets: []int32{0, 1}, Nodes: []int32{2}, Obs: []int32{3, 4}}
	got := p.AppendBinary(nil)
	want := []byte{
		'G', 'B', 'S', 'P', // magic
		2, 0, 0, 0, // protocol version, uint32 LE
		1, 0, 0, 0, 0, 0, 0, 0, // start
		1, 0, 0, 0, 0, 0, 0, 0, // count
		1, 0, 0, 0, 0, 0, 0, 0, // nodes length
		2, 0, 0, 0, 0, 0, 0, 0, // obs length
		0, 0, 0, 0, 1, 0, 0, 0, // offsets [0, 1]
		2, 0, 0, 0, // nodes [2]
		3, 0, 0, 0, 4, 0, 0, 0, // obs [3, 4]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen layout changed:\n  got:  %v\n  want: %v", got, want)
	}
}

func TestArenaPayloadVersionMismatch(t *testing.T) {
	data := samplePayload().AppendBinary(nil)
	data[4] = 99 // corrupt the version field
	_, err := DecodeArenaPayload(data)
	var ve *ShardVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("version mismatch must be typed, got %v", err)
	}
	if ve.Got != 99 || ve.Want != ShardProtocolVersion {
		t.Fatalf("wrong versions in error: %+v", ve)
	}
}

func TestArenaPayloadRejectsMalformed(t *testing.T) {
	good := samplePayload().AppendBinary(nil)
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-2],
		"badMagic":  append([]byte("XXXX"), good[4:]...),
		"overlong":  append(append([]byte{}, good...), 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := DecodeArenaPayload(data); err == nil {
			t.Errorf("%s payload must be rejected", name)
		}
	}
	// Non-monotone offsets and a final offset disagreeing with the nodes
	// section must both fail the arena invariants.
	bad := &ArenaPayload{Start: 0, Count: 2, Offsets: []int32{0, 3, 1}, Nodes: []int32{1}, Obs: nil}
	if _, err := DecodeArenaPayload(bad.AppendBinary(nil)); err == nil {
		t.Error("decreasing offsets must be rejected")
	}
	bad = &ArenaPayload{Start: 0, Count: 1, Offsets: []int32{0, 5}, Nodes: []int32{1}, Obs: nil}
	if _, err := DecodeArenaPayload(bad.AppendBinary(nil)); err == nil {
		t.Error("final offset beyond nodes section must be rejected")
	}
}

// TestShardStableFieldNames pins the JSON keys of the shard control
// messages, mirroring TestStableFieldNames for Result.
func TestShardStableFieldNames(t *testing.T) {
	req := EpochRequest{Protocol: ShardProtocolVersion, Graph: "g", Sampler: SamplerBidirectional,
		Seed0: 1, Seed1: 2, Start: 3, Count: 4}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"protocol", "graph", "sampler", "seed0", "seed1", "start", "count"} {
		if _, ok := m[key]; !ok {
			t.Errorf("epoch request key %q missing from %s", key, data)
		}
	}

	st := ShardStatus{Protocol: ShardProtocolVersion, Graphs: []string{"g"},
		Epochs: 1, Samples: 2, DrawNanos: 3}
	data, err = json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	m = nil
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"protocol", "graphs", "epochs", "samples", "drawNanos"} {
		if _, ok := m[key]; !ok {
			t.Errorf("shard status key %q missing from %s", key, data)
		}
	}
}

func TestEpochRequestRoundTrip(t *testing.T) {
	req := EpochRequest{Protocol: ShardProtocolVersion, Graph: "/tmp/g.gbcsr",
		Sampler: SamplerDijkstra, Seed0: 12345678901234567890, Seed1: 42, Start: 8192, Count: 4096}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back EpochRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", req, back)
	}
}
