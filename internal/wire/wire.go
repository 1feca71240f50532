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
// FuzzWireDecode in this package enforces that. Encoded sizes are pure
// functions of the encoded values, which is what lets the runtime count
// exact wire bytes deterministically across replays and crash recovery.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"vcmt/internal/graph"
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
// package. errors.Is(err, ErrCorrupt) identifies malformed input.
var ErrCorrupt = errors.New("wire: corrupt frame")

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
// Sizes

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EnvelopeSize returns the exact encoded size of e in bytes.
func EnvelopeSize(e Envelope) int {
	return uvarintLen(uint64(e.Dst)) + uvarintLen(uint64(e.Src)) + 4
}

// envelopesSize returns the summed encoded size of batch.
func envelopesSize(batch []Envelope) int {
	n := 0
	for _, e := range batch {
		n += EnvelopeSize(e)
	}
	return n
}

// DeliverSize returns the exact encoded size, header included, of the
// Deliver frame EncodeDeliver(nil, from, round, tc, batch) would produce.
func DeliverSize(from, round int, tc TraceContext, batch []Envelope) int {
	return headerLen + uvarintLen(uint64(from)) + uvarintLen(uint64(round)) +
		uvarintLen(uint64(tc)) + uvarintLen(uint64(len(batch))) + envelopesSize(batch)
}

// ---------------------------------------------------------------------------
// Encoding

// beginFrame appends an 8-byte header with a zero length slot and returns
// the extended buffer plus the header's offset for endFrame.
func beginFrame(buf []byte, ftype byte) ([]byte, int) {
	start := len(buf)
	buf = append(buf, magic0, magic1, Version, ftype, 0, 0, 0, 0)
	return buf, start
}

// endFrame patches the payload length into the header begun at start.
func endFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+4:start+8], uint32(len(buf)-start-headerLen))
	return buf
}

func appendEnvelope(buf []byte, e Envelope) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.Dst))
	buf = binary.AppendUvarint(buf, uint64(e.Src))
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(e.Val))
}

// EncodeDeliver appends a Deliver frame for batch to buf and returns the
// extended buffer. Callers batching into pooled buffers pass *GetBuf().
func EncodeDeliver(buf []byte, from, round int, tc TraceContext, batch []Envelope) []byte {
	buf, start := beginFrame(buf, FrameDeliver)
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(tc))
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, e := range batch {
		buf = appendEnvelope(buf, e)
	}
	return endFrame(buf, start)
}

// ---------------------------------------------------------------------------
// Decoding

func corrupt(format string, args ...any) error {
	return fmt.Errorf("wire: "+format+": %w", append(args, ErrCorrupt)...)
}

// parseFrame validates the header of a complete frame and returns its
// payload. The input must be exactly one frame: trailing bytes beyond the
// declared payload length are rejected.
func parseFrame(frame []byte, wantType byte) ([]byte, error) {
	if len(frame) < headerLen {
		return nil, corrupt("truncated header: %d bytes", len(frame))
	}
	if frame[0] != magic0 || frame[1] != magic1 {
		return nil, corrupt("bad magic %#02x%02x", frame[0], frame[1])
	}
	if frame[2] != Version {
		return nil, fmt.Errorf("wire: version %d: %w", frame[2], ErrVersion)
	}
	if frame[3] != wantType {
		return nil, corrupt("frame type %#02x, want %#02x", frame[3], wantType)
	}
	plen := binary.LittleEndian.Uint32(frame[4:8])
	if plen > MaxFrameBytes {
		return nil, corrupt("payload length %d exceeds limit %d", plen, MaxFrameBytes)
	}
	if uint32(len(frame)-headerLen) != plen || len(frame)-headerLen < 0 {
		return nil, corrupt("payload length %d, have %d bytes", plen, len(frame)-headerLen)
	}
	return frame[headerLen:], nil
}

// uvarint decodes one uvarint from b, returning the value and the rest.
// Non-minimal encodings (e.g. 0x80 0x00 for zero) are rejected: every
// value has exactly one valid encoding, so accepted frames are canonical
// and encoded sizes are pure functions of the values.
func uvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corrupt("bad %s varint", what)
	}
	if n != uvarintLen(v) {
		return 0, nil, corrupt("non-minimal %s varint", what)
	}
	return v, b[n:], nil
}

// decodeEnvelopes appends count envelopes decoded from b to dst. The
// caller has already verified count against the remaining byte budget.
func decodeEnvelopes(b []byte, count int, dst []Envelope) ([]Envelope, []byte, error) {
	for i := 0; i < count; i++ {
		var d, s uint64
		var err error
		if d, b, err = uvarint(b, "dst"); err != nil {
			return dst, nil, err
		}
		if s, b, err = uvarint(b, "src"); err != nil {
			return dst, nil, err
		}
		if d > math.MaxUint32 || s > math.MaxUint32 {
			return dst, nil, corrupt("vertex id overflows uint32")
		}
		if len(b) < 4 {
			return dst, nil, corrupt("truncated value")
		}
		dst = append(dst, Envelope{
			Dst: graph.VertexID(d),
			Src: graph.VertexID(s),
			Val: math.Float32frombits(binary.LittleEndian.Uint32(b)),
		})
		b = b[4:]
	}
	return dst, b, nil
}

// checkCount validates a declared envelope count against the bytes left:
// each envelope needs at least minEnvelopeBytes, so a count exceeding
// rest/min is corrupt and must not drive an allocation.
func checkCount(count uint64, rest int) (int, error) {
	if count > uint64(rest/minEnvelopeBytes) {
		return 0, corrupt("envelope count %d exceeds payload capacity %d", count, rest)
	}
	return int(count), nil
}

// DecodeDeliver decodes a Deliver frame, appending its envelopes to dst
// (pass a pooled slice from GetEnvelopes to avoid allocation). On error
// dst is returned unchanged — a corrupt frame never applies partially.
func DecodeDeliver(frame []byte, dst []Envelope) (DeliverHeader, []Envelope, error) {
	var h DeliverHeader
	b, err := parseFrame(frame, FrameDeliver)
	if err != nil {
		return h, dst, err
	}
	var from, round, trace, count uint64
	if from, b, err = uvarint(b, "from"); err != nil {
		return h, dst, err
	}
	if round, b, err = uvarint(b, "round"); err != nil {
		return h, dst, err
	}
	if trace, b, err = uvarint(b, "trace"); err != nil {
		return h, dst, err
	}
	if count, b, err = uvarint(b, "count"); err != nil {
		return h, dst, err
	}
	if from > math.MaxInt32 || round > math.MaxInt32 {
		return h, dst, corrupt("header field overflow")
	}
	n, err := checkCount(count, len(b))
	if err != nil {
		return h, dst, err
	}
	mark := len(dst)
	out, b, err := decodeEnvelopes(b, n, dst)
	if err != nil {
		return h, dst[:mark], err
	}
	if len(b) != 0 {
		return h, dst[:mark], corrupt("%d trailing bytes", len(b))
	}
	h = DeliverHeader{From: int(from), Round: int(round), Trace: TraceContext(trace), Count: n}
	return h, out, nil
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
