// Package wire implements the runtime's versioned little-endian binary
// protocol for hot-path payloads: message envelopes in coalesced delivery
// batches. It replaces gob on internal/rpcrt's delivery path, where gob's
// reflection-driven encoding and per-connection type framing made both
// throughput and byte accounting unstable (the encoded size of the first
// value on a connection differs from every later one).
//
// Frame layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       2     magic "VW"
//	2       1     protocol version (currently 2)
//	3       1     frame type (FrameDeliver)
//	4       4     payload length in bytes (uint32)
//	8       n     payload
//
// Payload:
//
//	Deliver    uvarint(from) uvarint(round) uvarint(trace) uvarint(count) count×envelope
//
// The trace field (version 2) carries an optional TraceContext — the span
// id of the RPC that produced the frame — so receiver-side spans can
// parent under the sender's span cluster-wide. Zero means "no context"
// and costs a single byte.
//
// An envelope is uvarint(dst) uvarint(src) float32bits(val) — vertex IDs
// are varint-compressed (most graphs have far fewer than 2^28 vertices,
// so IDs usually take 1–4 bytes instead of a fixed 4), while the payload
// value keeps its exact IEEE-754 bit pattern so encode/decode round-trips
// are bit-identical and the runtime's determinism contract is unaffected.
//
// Every decoder rejects malformed input with an error wrapping ErrCorrupt
// (version mismatches additionally wrap ErrVersion) and never panics;
// FuzzWireDecode in this package enforces that. The canonical varints, the
// bounds checks and the root of ErrCorrupt are internal/rec's. Encoded
// sizes are pure functions of the encoded values, which is what lets the
// runtime count exact wire bytes deterministically across replays and
// crash recovery.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"vcmt/internal/graph"
	"vcmt/internal/rec"
)

// Version is the protocol version stamped into every frame header.
// Version 2 added the trace-context field to Deliver payloads; version-1
// frames are rejected with ErrVersion (the codec is canonical: accepting
// two encodings of the same values would break the re-encode identity the
// fuzzer enforces).
const Version = 2

// TraceContext is the optional trace-correlation value carried by Deliver
// frames: the sender's span id. Zero means "no context".
type TraceContext uint64

// FrameDeliver, the one frame type, carries one coalesced batch of
// envelopes from one worker to one peer, tagged with the sender and the
// round. Types 0x02 and 0x03 are retired: the decoder rejects them like any
// unknown type.
const FrameDeliver byte = 0x01

const (
	magic0    = 'V'
	magic1    = 'W'
	headerLen = 8

	// minEnvelopeBytes is the smallest possible encoded envelope:
	// 1-byte dst varint + 1-byte src varint + 4-byte float32.
	minEnvelopeBytes = 6
)

// MaxFrameBytes bounds the payload length a decoder will accept. It
// exists so a corrupt or hostile length prefix cannot drive a huge
// allocation; 128 MiB is far above any frame the runtime produces
// (MaxDeliverEnvelopes caps delivery frames around 200 KiB).
const MaxFrameBytes = 1 << 27

// MaxDeliverEnvelopes is the coalescing limit: flushOutboxes-style senders
// split a peer's outbox into chunks of at most this many envelopes per
// Deliver frame, keeping individual RPCs bounded while still amortizing
// per-call overhead over thousands of messages.
const MaxDeliverEnvelopes = 16384

// ErrCorrupt is the sentinel wrapped by every decode error in this
// package. errors.Is(err, ErrCorrupt) identifies malformed input; it wraps
// rec.ErrCorrupt.
var ErrCorrupt = rec.Sentinel("wire: corrupt frame")

// ErrVersion is wrapped by decode errors caused by an unsupported
// protocol version. It wraps ErrCorrupt, so version errors satisfy both
// errors.Is(err, ErrVersion) and errors.Is(err, ErrCorrupt).
var ErrVersion = fmt.Errorf("unsupported protocol version: %w", ErrCorrupt)

// Envelope is one routed message: destination vertex, source vertex, and
// the task-specific scalar payload. internal/rpcrt aliases its Message
// type to Envelope so vertex programs construct these directly.
type Envelope struct {
	Dst graph.VertexID
	Src graph.VertexID
	Val float32
}

// DeliverHeader is the routing header decoded from a Deliver frame.
type DeliverHeader struct {
	From  int          // sending worker index
	Round int          // superstep the batch belongs to
	Trace TraceContext // sender's span id, 0 when tracing is off
	Count int          // number of envelopes in the batch
}

// ---------------------------------------------------------------------------
// Encoding

func appendEnvelope(buf []byte, e Envelope) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.Dst))
	buf = binary.AppendUvarint(buf, uint64(e.Src))
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(e.Val))
}

// EncodeDeliver appends a Deliver frame for batch to buf and returns the
// extended buffer. Callers batching into pooled buffers pass *GetBuf().
func EncodeDeliver(buf []byte, from, round int, tc TraceContext, batch []Envelope) []byte {
	start := len(buf)
	buf = append(buf, magic0, magic1, Version, FrameDeliver, 0, 0, 0, 0) // the length is patched in below
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(tc))
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, e := range batch {
		buf = appendEnvelope(buf, e)
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-headerLen))
	return buf
}

// ---------------------------------------------------------------------------
// Decoding

// DecodeDeliver decodes a Deliver frame, appending its envelopes to dst
// (pass a pooled slice from GetEnvelopes to avoid allocation). The input
// must be exactly one frame: trailing bytes beyond the declared payload
// length are rejected. On error dst is returned unchanged — a corrupt frame
// never applies partially.
func DecodeDeliver(frame []byte, dst []Envelope) (DeliverHeader, []Envelope, error) {
	c := rec.NewCursor(frame, ErrCorrupt)
	hdr, plen := c.Bytes(4), c.U32()
	switch {
	case c.Err() != nil:
	case hdr[0] != magic0 || hdr[1] != magic1:
		c.Fail("bad magic %#02x%02x", hdr[0], hdr[1])
	case hdr[2] != Version:
		return DeliverHeader{}, dst, fmt.Errorf("wire: version %d: %w", hdr[2], ErrVersion)
	case hdr[3] != FrameDeliver:
		c.Fail("frame type %#02x, want %#02x", hdr[3], FrameDeliver)
	case plen > MaxFrameBytes:
		c.Fail("payload length %d exceeds limit %d", plen, MaxFrameBytes)
	case int(plen) != c.Len():
		c.Fail("payload length %d, have %d bytes", plen, c.Len())
	}
	from, round, trace, count := c.Uvarint(), c.Uvarint(), c.Uvarint(), c.Uvarint()
	if from > math.MaxInt32 || round > math.MaxInt32 {
		c.Fail("header field overflow")
	}
	// Each envelope needs at least minEnvelopeBytes, so a count exceeding
	// that share of the payload is corrupt and must not drive an allocation.
	if count > uint64(c.Len()/minEnvelopeBytes) {
		c.Fail("envelope count %d exceeds payload capacity %d", count, c.Len())
	}
	if err := c.Err(); err != nil {
		return DeliverHeader{}, dst, err
	}
	mark := len(dst)
	var ids uint64
	for range count {
		d, s := c.Uvarint(), c.Uvarint()
		ids |= d | s
		dst = append(dst, Envelope{Dst: graph.VertexID(d), Src: graph.VertexID(s), Val: math.Float32frombits(c.U32())})
	}
	if ids > math.MaxUint32 {
		c.Fail("vertex id overflows uint32")
	}
	if err := c.Done(); err != nil {
		return DeliverHeader{}, dst[:mark], err
	}
	return DeliverHeader{From: int(from), Round: int(round), Trace: TraceContext(trace), Count: int(count)}, dst, nil
}

// ---------------------------------------------------------------------------
// Pools

// maxPooledBuf caps the encode buffers kept in the pool; oversized ones
// (a pathological batch) are dropped rather than pinned forever.
const maxPooledBuf = 8 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a pooled, length-zero byte buffer for frame encoding.
// net/rpc's Client.Go gob-encodes arguments synchronously before it
// returns, so the buffer may be recycled as soon as the call is issued.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf recycles a buffer obtained from GetBuf.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

var envPool = sync.Pool{New: func() any {
	s := make([]Envelope, 0, 1024)
	return &s
}}

// maxPooledEnvelopes caps pooled decode slices, mirroring maxPooledBuf.
const maxPooledEnvelopes = 4 * MaxDeliverEnvelopes

// GetEnvelopes returns a pooled, length-zero envelope slice for decoding.
func GetEnvelopes() *[]Envelope {
	return envPool.Get().(*[]Envelope)
}

// PutEnvelopes recycles a slice obtained from GetEnvelopes.
func PutEnvelopes(s *[]Envelope) {
	if cap(*s) > maxPooledEnvelopes {
		return
	}
	*s = (*s)[:0]
	envPool.Put(s)
}
