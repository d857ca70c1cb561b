// Shard protocol: the frozen coordinator↔shard-worker messages of sharded
// sampling serving. A coordinator gbcd drives the adaptive outer loop and
// broadcasts epoch sample budgets; shard workers draw disjoint sample-index
// ranges over the same graph and return their path arenas. Like Result,
// these shapes are an API commitment between gbcd builds from adjacent
// commits: additions are allowed, renames and removals are not, and every
// message carries ShardProtocolVersion so a mismatched pair fails loudly
// with a typed *ShardVersionError instead of silently mis-decoding.
//
// Control messages (EpochRequest, ShardStatus, ShardErrorBody) travel as
// JSON like the rest of the serving API. The epoch *response* is the hot
// payload — every sampled path of the range — and travels as the
// length-prefixed binary ArenaPayload encoding instead: a fixed
// little-endian header carrying all section lengths, followed by the raw
// int32 sections of the path arena (offsets, nodes, observation bounds).
package wire

import (
	"encoding/binary"
	"fmt"
)

// ShardProtocolVersion is the version every shard message carries. Bump it
// whenever an encoding below changes shape or meaning; coordinator and
// worker refuse to interoperate across a bump.
const ShardProtocolVersion = 2

// Sampler kind names as they travel in an EpochRequest. They select which
// per-pair sampler the worker draws with; the coordinator picks the kind
// exactly as the solver would for its graph (weighted → dijkstra, forward
// ablation → forward, else bidirectional).
const (
	SamplerBidirectional = "bidirectional"
	SamplerForward       = "forward"
	SamplerDijkstra      = "dijkstra"
)

// ShardVersionError reports a protocol-version mismatch between a
// coordinator and a shard worker.
type ShardVersionError struct {
	Got, Want int
}

func (e *ShardVersionError) Error() string {
	return fmt.Sprintf("wire: shard protocol version %d, want %d — coordinator and shard builds disagree", e.Got, e.Want)
}

// EpochRequest is the JSON body of POST /v1/shard/epoch: draw samples
// [Start, Start+Count) of the per-index RNG streams derived from
// (Seed0, Seed1) over the named graph, with the named sampler kind, and
// return the arena as a binary ArenaPayload. Sample content is a pure
// function of (seeds, index), so the same request always yields the same
// bytes regardless of which worker serves it.
type EpochRequest struct {
	// Protocol is ShardProtocolVersion; the worker rejects a mismatch.
	Protocol int `json:"protocol"`
	// Graph keys the graph on the worker: a .gbcsr path every worker can
	// open read-only, or a name pre-registered on the worker.
	Graph string `json:"graph"`
	// Sampler is the sampler kind name (SamplerBidirectional, …).
	Sampler string `json:"sampler"`
	// Seed0 and Seed1 are the sample set's per-index stream seeds: sample i
	// draws from stream (Seed0, Seed1+i).
	Seed0 uint64 `json:"seed0"`
	Seed1 uint64 `json:"seed1"`
	// Start and Count delimit the global sample-index range to draw.
	Start int `json:"start"`
	Count int `json:"count"`
}

// ShardStatus is the JSON body of GET /v1/shard/status: the worker's
// protocol version and serving counters, polled by the coordinator's
// /v1/cluster surface.
type ShardStatus struct {
	Protocol int `json:"protocol"`
	// Graphs lists the graph keys the worker currently holds open.
	Graphs []string `json:"graphs"`
	// Epochs and Samples count the epoch requests served and the samples
	// drawn since the worker started; DrawNanos is the cumulative wall time
	// spent drawing, so samples/sec is Samples / (DrawNanos/1e9).
	Epochs    int64 `json:"epochs"`
	Samples   int64 `json:"samples"`
	DrawNanos int64 `json:"drawNanos"`
}

// ShardErrorBody is the JSON body of every non-2xx shard-worker response.
// Protocol lets the coordinator distinguish a version refusal (worker and
// coordinator builds disagree — surface a *ShardVersionError, do not
// retry) from an ordinary failure.
type ShardErrorBody struct {
	Error    string `json:"error"`
	Protocol int    `json:"protocol,omitempty"`
}

// arenaPayloadMagic brands a binary epoch response, and arenaHeaderSize is
// the frozen byte length of the header: magic, version uint32, then four
// uint64 section descriptors (start, count, nodes length, obs length), all
// little-endian. The offsets section has count+1 entries by the arena
// invariant, so its length needs no descriptor.
const (
	arenaPayloadMagic = "GBSP"
	arenaHeaderSize   = 4 + 4 + 8*4
)

// ArenaPayload is the binary epoch response: one contiguous block of
// sampled paths in global index order, in the flat arena layout the
// coverage engine consumes directly (path k is Nodes[Offsets[k]:
// Offsets[k+1]]; a null sample is an empty range; Obs carries two
// observation-bound values per path when the sampler records them).
type ArenaPayload struct {
	// Start is the global index of the block's first sample.
	Start int
	// Count is the number of sealed paths.
	Count int
	// Offsets has Count+1 entries, Offsets[0] == 0, non-decreasing.
	Offsets []int32
	// Nodes holds the concatenated path nodes.
	Nodes []int32
	// Obs is empty or holds 2·Count observation bounds (ObsF, ObsB per
	// sample), which the coordinator needs for incremental sample repair.
	Obs []int32
}

// AppendBinary appends the frozen binary encoding of p to dst and returns
// the extended slice.
func (p *ArenaPayload) AppendBinary(dst []byte) []byte {
	dst = append(dst, arenaPayloadMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, ShardProtocolVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Start))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.Nodes)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.Obs)))
	dst = appendInt32s(dst, p.Offsets)
	dst = appendInt32s(dst, p.Nodes)
	dst = appendInt32s(dst, p.Obs)
	return dst
}

func appendInt32s(dst []byte, vs []int32) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// DecodeArenaPayload decodes and validates a binary epoch response. It
// returns a *ShardVersionError on a protocol mismatch and a plain error on
// a malformed payload (bad magic, truncated sections, inconsistent arena
// invariants) — a coordinator must treat the latter like a transport
// failure of that shard, not trust partial data.
func DecodeArenaPayload(data []byte) (*ArenaPayload, error) {
	if len(data) < arenaHeaderSize {
		return nil, fmt.Errorf("wire: arena payload truncated: %d bytes, want at least %d", len(data), arenaHeaderSize)
	}
	if string(data[:4]) != arenaPayloadMagic {
		return nil, fmt.Errorf("wire: arena payload has bad magic %q", data[:4])
	}
	if v := int(binary.LittleEndian.Uint32(data[4:])); v != ShardProtocolVersion {
		return nil, &ShardVersionError{Got: v, Want: ShardProtocolVersion}
	}
	p := &ArenaPayload{
		Start: int(binary.LittleEndian.Uint64(data[8:])),
		Count: int(binary.LittleEndian.Uint64(data[16:])),
	}
	nodesLen := int(binary.LittleEndian.Uint64(data[24:]))
	obsLen := int(binary.LittleEndian.Uint64(data[32:]))
	if p.Start < 0 || p.Count < 0 || nodesLen < 0 || obsLen < 0 {
		return nil, fmt.Errorf("wire: arena payload has negative section descriptor")
	}
	// Bound each section by the body before summing them: a descriptor
	// near 2^62 would otherwise wrap the byte count below and slip a
	// huge allocation past the length check.
	if body := (len(data) - arenaHeaderSize) / 4; p.Count >= body || nodesLen > body || obsLen > body {
		return nil, fmt.Errorf("wire: arena payload section descriptors exceed its %d bytes", len(data))
	}
	want := arenaHeaderSize + 4*((p.Count+1)+nodesLen+obsLen)
	if len(data) != want {
		return nil, fmt.Errorf("wire: arena payload is %d bytes, header describes %d", len(data), want)
	}
	if obsLen != 0 && obsLen != 2*p.Count {
		return nil, fmt.Errorf("wire: arena payload has %d obs entries for %d samples (want 0 or %d)", obsLen, p.Count, 2*p.Count)
	}
	rest := data[arenaHeaderSize:]
	p.Offsets, rest = readInt32s(rest, p.Count+1)
	p.Nodes, rest = readInt32s(rest, nodesLen)
	p.Obs, _ = readInt32s(rest, obsLen)
	if p.Offsets[0] != 0 {
		return nil, fmt.Errorf("wire: arena payload offsets must start at 0, got %d", p.Offsets[0])
	}
	for k := 1; k <= p.Count; k++ {
		if p.Offsets[k] < p.Offsets[k-1] {
			return nil, fmt.Errorf("wire: arena payload offsets decrease at path %d", k)
		}
	}
	if int(p.Offsets[p.Count]) != nodesLen {
		return nil, fmt.Errorf("wire: arena payload final offset %d != nodes length %d", p.Offsets[p.Count], nodesLen)
	}
	return p, nil
}

func readInt32s(data []byte, n int) ([]int32, []byte) {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out, data[4*n:]
}
