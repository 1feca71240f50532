package wire

import (
	"math/rand"
	"testing"

	"vcmt/internal/graph"
)

// benchBatch builds a delivery batch shaped like real rpcrt traffic: IDs
// drawn from a million-vertex range (mostly 3-byte varints).
func benchBatch(n int) []Envelope {
	rng := rand.New(rand.NewSource(42))
	batch := make([]Envelope, n)
	for i := range batch {
		batch[i] = Envelope{
			Dst: graph.VertexID(rng.Intn(1 << 20)),
			Src: graph.VertexID(rng.Intn(1 << 20)),
			Val: rng.Float32() * 100,
		}
	}
	return batch
}

const benchBatchSize = 4096

// warmPools leaves a pooled frame buffer and envelope slice that hold the
// whole batch, so that no timed iteration regrows one: called after the
// benchmark framework's GC and before the timer starts.
func warmPools(batch []Envelope) {
	buf, sl := GetBuf(), GetEnvelopes()
	*buf = EncodeDeliver((*buf)[:0], 1, 3, 0, batch)
	_, out, err := DecodeDeliver(*buf, (*sl)[:0])
	if err != nil {
		panic(err)
	}
	*sl = out[:0]
	PutEnvelopes(sl)
	PutBuf(buf)
}

// BenchmarkDeliverWireEncode measures encoding one coalesced Deliver frame
// into a pooled buffer — the sender half of flushOutboxes.
func BenchmarkDeliverWireEncode(b *testing.B) {
	batch := benchBatch(benchBatchSize)
	b.SetBytes(int64(len(EncodeDeliver(nil, 1, 3, 0, batch))))
	warmPools(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		frame := EncodeDeliver((*buf)[:0], 1, 3, 0, batch)
		*buf = frame
		PutBuf(buf)
	}
}

// BenchmarkDeliverWireDecode measures decoding one Deliver frame into a
// pooled envelope slice — the receiver half of Worker.Deliver.
func BenchmarkDeliverWireDecode(b *testing.B) {
	batch := benchBatch(benchBatchSize)
	frame := EncodeDeliver(nil, 1, 3, 0, batch)
	b.SetBytes(int64(len(frame)))
	warmPools(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl := GetEnvelopes()
		_, out, err := DecodeDeliver(frame, (*sl)[:0])
		if err != nil {
			b.Fatal(err)
		}
		*sl = out[:0]
		PutEnvelopes(sl)
	}
}

// BenchmarkDeliverWire is the full payload round-trip of one Deliver RPC
// on the binary codec: encode the batch, decode it on the other side.
func BenchmarkDeliverWire(b *testing.B) {
	batch := benchBatch(benchBatchSize)
	b.SetBytes(int64(len(EncodeDeliver(nil, 1, 3, 0, batch))))
	warmPools(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		frame := EncodeDeliver((*buf)[:0], 1, 3, 0, batch)
		sl := GetEnvelopes()
		_, out, err := DecodeDeliver(frame, (*sl)[:0])
		if err != nil {
			b.Fatal(err)
		}
		*sl = out[:0]
		PutEnvelopes(sl)
		*buf = frame
		PutBuf(buf)
	}
}
