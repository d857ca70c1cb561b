package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeArenaPayload feeds arbitrary bytes to the shard payload
// decoder, which reads what a shard worker sent over the network. It must
// never panic; whatever it accepts must satisfy the arena invariants and
// re-encode to the exact input bytes.
func FuzzDecodeArenaPayload(f *testing.F) {
	f.Add(samplePayload().AppendBinary(nil))
	f.Add((&ArenaPayload{Offsets: []int32{0}}).AppendBinary(nil))
	// A nodes descriptor of 2^62+1 wraps the byte count to this 48-byte
	// input's length unless each section is bounded before summing.
	wrap := []byte(arenaPayloadMagic)
	wrap = binary.LittleEndian.AppendUint32(wrap, ShardProtocolVersion)
	wrap = binary.LittleEndian.AppendUint64(wrap, 0)       // start
	wrap = binary.LittleEndian.AppendUint64(wrap, 0)       // count
	wrap = binary.LittleEndian.AppendUint64(wrap, 1<<62+1) // nodes length
	wrap = binary.LittleEndian.AppendUint64(wrap, 0)       // obs length
	wrap = append(wrap, make([]byte, 8)...)
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeArenaPayload(data)
		if err != nil {
			return
		}
		if len(p.Offsets) != p.Count+1 || int(p.Offsets[p.Count]) != len(p.Nodes) {
			t.Fatalf("accepted payload breaks the arena invariants: %+v", p)
		}
		if len(p.Obs) != 0 && len(p.Obs) != 2*p.Count {
			t.Fatalf("accepted payload has %d obs entries for %d samples", len(p.Obs), p.Count)
		}
		if again := p.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n  in  %x\n  out %x", data, again)
		}
	})
}
