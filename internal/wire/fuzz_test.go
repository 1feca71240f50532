package wire

import (
	"errors"
	"math"
	"testing"
)

// FuzzWireDecode drives the decoder over arbitrary bytes: it must never
// panic, and anything it rejects must carry the typed ErrCorrupt sentinel
// (possibly via ErrVersion). The seed corpus covers the interesting
// boundaries — valid frames, the retired frame types, truncations at every
// structural edge, an oversized declared count, and a hostile length
// prefix.
func FuzzWireDecode(f *testing.F) {
	valid := EncodeDeliver(nil, 2, 7, 0x1234, []Envelope{
		{Dst: 1, Src: 2, Val: 3.5},
		{Dst: 300, Src: 70000, Val: -1},
	})
	f.Add(valid)
	f.Add(EncodeDeliver(nil, 2, 7, 0, nil))
	// The retired frame type 0x02 (a checkpoint's round once rode in it),
	// now an unknown type to every decoder.
	f.Add([]byte{'V', 'W', Version, 0x02, 3, 0, 0, 0, 2, 9, 0})
	// Longest varints: a full-width trace context and vertex id.
	f.Add(EncodeDeliver(nil, 1, 1<<20, math.MaxUint64, []Envelope{{Dst: math.MaxUint32, Val: -0.5}}))
	// The retired frame type 0x03 (a checkpointed inbox once rode in it),
	// holding one envelope.
	f.Add([]byte{'V', 'W', Version, 0x03, 7, 0, 0, 0, 1, 5, 6, 0, 0, 0xe0, 0x40})
	f.Add([]byte{})
	f.Add(valid[:3])                                                       // truncated header
	f.Add(valid[:headerLen])                                               // header only, payload missing
	f.Add(valid[:len(valid)-1])                                            // truncated final envelope
	f.Add([]byte{'V', 'W', 9, FrameDeliver, 0, 0, 0, 0})                   // bad version
	f.Add([]byte{'V', 'W', Version, 0x7f, 0, 0, 0, 0})                     // unknown type
	f.Add([]byte{'V', 'W', Version, FrameDeliver, 0xff, 0xff, 0xff, 0xff}) // hostile length
	// Oversized declared count with a tiny payload.
	f.Add([]byte{'V', 'W', Version, FrameDeliver, 6, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0x7f})
	// Version-1 layout (no trace field) under the old version byte: must be
	// rejected with ErrVersion before the payload is parsed.
	f.Add([]byte{'V', 'W', 1, FrameDeliver, 3, 0, 0, 0, 2, 7, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, envs, err := DecodeDeliver(data, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeDeliver: untyped error %v", err)
		}
		if err == nil && h.Count != len(envs) {
			t.Fatalf("DecodeDeliver: header count %d, decoded %d", h.Count, len(envs))
		}
		if err == nil {
			// A frame we accept must re-encode to the identical bytes —
			// the codec is canonical.
			re := EncodeDeliver(nil, h.From, h.Round, h.Trace, envs)
			if string(re) != string(data) {
				t.Fatalf("accepted frame is not canonical:\n in %x\nout %x", data, re)
			}
		}
	})
}
