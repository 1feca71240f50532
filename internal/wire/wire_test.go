package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vcmt/internal/graph"
)

func randEnvelopes(rng *rand.Rand, n int) []Envelope {
	out := make([]Envelope, n)
	for i := range out {
		// Bias toward small IDs (short varints) but cover the full range.
		var d, s uint32
		switch rng.Intn(3) {
		case 0:
			d, s = rng.Uint32()%128, rng.Uint32()%128
		case 1:
			d, s = rng.Uint32()%100000, rng.Uint32()%100000
		default:
			d, s = rng.Uint32(), rng.Uint32()
		}
		out[i] = Envelope{
			Dst: graph.VertexID(d),
			Src: graph.VertexID(s),
			Val: math.Float32frombits(rng.Uint32()),
		}
	}
	return out
}

// envEqual compares by bit pattern: NaN payloads must round-trip too.
func envEqual(a, b Envelope) bool {
	return a.Dst == b.Dst && a.Src == b.Src &&
		math.Float32bits(a.Val) == math.Float32bits(b.Val)
}

func TestDeliverRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		batch := randEnvelopes(rng, rng.Intn(300))
		from, round := rng.Intn(1000), rng.Intn(100000)
		tc := TraceContext(0)
		if rng.Intn(3) > 0 { // cover both "no context" and full-range ids
			tc = TraceContext(rng.Uint64())
		}
		frame := EncodeDeliver(nil, from, round, tc, batch)
		h, got, err := DecodeDeliver(frame, nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if h.From != from || h.Round != round || h.Trace != tc || h.Count != len(batch) {
			t.Fatalf("trial %d: header %+v, want from=%d round=%d trace=%d count=%d", trial, h, from, round, tc, len(batch))
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d envelopes, want %d", trial, len(got), len(batch))
		}
		for i := range batch {
			if !envEqual(got[i], batch[i]) {
				t.Fatalf("trial %d: envelope %d: got %+v want %+v", trial, i, got[i], batch[i])
			}
		}
	}
}

func TestDecodeAppendsToDst(t *testing.T) {
	a := []Envelope{{Dst: 1, Src: 2, Val: 3}}
	frame := EncodeDeliver(nil, 0, 1, 0, []Envelope{{Dst: 9, Src: 8, Val: 7}})
	_, got, err := DecodeDeliver(frame, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Dst != 1 || got[1].Dst != 9 {
		t.Fatalf("append semantics broken: %+v", got)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	batch := []Envelope{{Dst: 5, Src: 2, Val: 1.5}, {Dst: 300, Src: 70000, Val: -4}}
	frame := EncodeDeliver(nil, 3, 7, 42, batch)
	cases := map[string][]byte{
		"empty":              nil,
		"truncated header":   frame[:5],
		"truncated payload":  frame[:len(frame)-2],
		"bad magic":          append([]byte{'x', 'y'}, frame[2:]...),
		"retired frame type": append([]byte{'V', 'W', Version, 0x03}, frame[4:]...), // once the checkpoint inbox frame
		"trailing bytes":     append(append([]byte(nil), frame...), 0xff),
	}
	// Oversized declared count: a frame claiming 2^20 envelopes with a
	// near-empty payload must be rejected before any allocation.
	huge := EncodeDeliver(nil, 0, 1, 0, nil)
	huge = huge[:len(huge)-1] // drop count=0
	huge = append(huge, 0x80, 0x80, 0x40)
	huge[4] = byte(len(huge) - headerLen) // fix payload length
	cases["oversized count"] = huge
	// Corrupt length prefix larger than MaxFrameBytes.
	big := append([]byte(nil), frame...)
	big[4], big[5], big[6], big[7] = 0xff, 0xff, 0xff, 0xff
	cases["huge length prefix"] = big
	for name, f := range cases {
		if _, _, err := DecodeDeliver(f, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	frame := EncodeDeliver(nil, 1, 2, 0, nil)
	frame[2] = 9
	_, _, err := DecodeDeliver(frame, nil)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version errors must also satisfy ErrCorrupt, got %v", err)
	}
}

// Version-1 frames (no trace field) are rejected outright rather than
// dual-decoded: accepting two encodings of the same values would break the
// canonical re-encode identity FuzzWireDecode enforces. The version byte
// is checked before any payload parsing, so the old layout never reaches
// the field decoders.
func TestDecodeRejectsVersion1Frames(t *testing.T) {
	frame := EncodeDeliver(nil, 3, 7, 0, []Envelope{{Dst: 5, Src: 2, Val: 1.5}})
	frame[2] = 1
	if _, _, err := DecodeDeliver(frame, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 deliver frame: got %v, want ErrVersion", err)
	}
}

func TestDecodeErrorLeavesDstUnchanged(t *testing.T) {
	frame := EncodeDeliver(nil, 0, 1, 0, []Envelope{{Dst: 1, Src: 2, Val: 3}, {Dst: 4, Src: 5, Val: 6}})
	frame = frame[:len(frame)-2] // truncate mid-envelope
	frame[4] = byte(len(frame) - headerLen)
	dst := []Envelope{{Dst: 42}}
	_, got, err := DecodeDeliver(frame, dst)
	if err == nil {
		t.Fatal("want error for truncated envelope")
	}
	if len(got) != 1 || got[0].Dst != 42 {
		t.Fatalf("dst mutated on error: %+v", got)
	}
}

func TestEnvelopeSizeMatchesEncoding(t *testing.T) {
	for _, c := range []struct {
		e    Envelope
		size int
	}{
		{Envelope{}, 6},
		{Envelope{Dst: 127, Src: 127, Val: 1}, 6},
		{Envelope{Dst: 128, Src: 16384, Val: -1}, 9},
		{Envelope{Dst: math.MaxUint32, Src: math.MaxUint32, Val: float32(math.Inf(1))}, 14},
	} {
		if got := len(appendEnvelope(nil, c.e)); got != c.size {
			t.Fatalf("envelope %+v: encoded %d bytes, want %d", c.e, got, c.size)
		}
	}
}

// TestDeliverBytesPinned holds the Deliver frame to its exact bytes: the
// header, 1-, 2- and 3-byte varints, a non-zero trace context and the
// float32 bit patterns.
func TestDeliverBytesPinned(t *testing.T) {
	frame := EncodeDeliver(nil, 1, 200, 0x10000, []Envelope{
		{Dst: 5, Src: 300, Val: 1.5},
		{Dst: 70000, Src: 0, Val: -2},
	})
	want := []byte{
		'V', 'W', 2, 0x01, 22, 0, 0, 0, // magic, version, type, payload length
		0x01, 0xc8, 0x01, 0x80, 0x80, 0x04, 0x02, // from 1, round 200, trace 0x10000, count 2
		0x05, 0xac, 0x02, 0x00, 0x00, 0xc0, 0x3f, // dst 5, src 300, 1.5
		0xf0, 0xa2, 0x04, 0x00, 0x00, 0x00, 0x00, 0xc0, // dst 70000, src 0, -2
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("Deliver frame\n got %x\nwant %x", frame, want)
	}
	h, got, err := DecodeDeliver(want, nil)
	if err != nil || h != (DeliverHeader{From: 1, Round: 200, Trace: 0x10000, Count: 2}) || len(got) != 2 {
		t.Fatalf("decoding the pinned frame: %+v, %d envelopes, %v", h, len(got), err)
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer has length %d", len(*b))
	}
	*b = EncodeDeliver(*b, 1, 5, 0, nil)
	PutBuf(b)
	s := GetEnvelopes()
	if len(*s) != 0 {
		t.Fatalf("pooled slice has length %d", len(*s))
	}
	*s = append(*s, Envelope{Dst: 1})
	PutEnvelopes(s)
}
