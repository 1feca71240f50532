package ooc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/rec"
)

// FuzzPartitionDecode drives the partition reader over arbitrary bytes: it
// must never panic, anything it rejects must carry the typed ErrCorrupt
// sentinel (possibly via ErrVersion), and any file it fully accepts must
// re-encode canonically to the identical bytes. The seed corpus covers
// valid files of both kinds, truncations at structural edges, bad versions,
// hostile length prefixes and a count mismatch.
func FuzzPartitionDecode(f *testing.F) {
	for _, seed := range partitionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The runner's read buffer, then the smallest one decoding allows,
		// which drives every refill and oversized-record path on short
		// inputs: both must decode the same records or reject.
		kind, weighted, msgs, edges, err := decodeAll(data, readBufLen)
		_, _, msgs2, edges2, err2 := decodeAll(data, binary.MaxVarintLen64)
		if (err == nil) != (err2 == nil) || fmt.Sprint(msgs, edges) != fmt.Sprint(msgs2, edges2) {
			t.Fatalf("buffer size changed the decode: %v / %v", err, err2)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		// Accepted files must be canonical: re-encoding the decoded records
		// reproduces the input bit-for-bit.
		var re bytes.Buffer
		w := new(Writer)
		w.start(&re, kind, weighted)
		for _, m := range msgs {
			w.AppendMessage(m.dst, m.payload)
		}
		for _, e := range edges {
			wts := e.wts
			if !weighted {
				wts = nil
			} else if wts == nil {
				wts = []float32{}
			}
			w.AppendEdges(e.v, e.nbrs, wts)
		}
		if _, err := w.Finish(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted file is not canonical:\n in %x\nout %x", data, re.Bytes())
		}
	})
}

// partitionSeeds is the decoders' seed corpus: valid files of both kinds,
// truncations at structural edges, bad versions, hostile length prefixes
// and CRC-valid files the decoder must reject.
func partitionSeeds() [][]byte {
	var seeds [][]byte
	var msgFile bytes.Buffer
	mw := new(Writer)
	mw.start(&msgFile, KindMessages, false)
	mw.AppendMessage(1, []byte("alpha"))
	mw.AppendMessage(300, nil)
	mw.AppendMessage(1<<31, []byte{0xff, 0x00})
	mw.Finish()
	seeds = append(seeds, msgFile.Bytes())

	var edgeFile bytes.Buffer
	ew := new(Writer)
	ew.start(&edgeFile, KindEdges, false)
	ew.AppendEdges(0, []graph.VertexID{1, 2, 3}, nil)
	ew.AppendEdges(7, nil, nil)
	ew.Finish()
	seeds = append(seeds, edgeFile.Bytes())

	var wEdgeFile bytes.Buffer
	ww := new(Writer)
	ww.start(&wEdgeFile, KindEdges, true)
	ww.AppendEdges(2, []graph.VertexID{9}, []float32{1.5})
	ww.Finish()
	seeds = append(seeds, wEdgeFile.Bytes())

	var empty bytes.Buffer
	zw := new(Writer)
	zw.start(&empty, KindMessages, false)
	zw.Finish()
	seeds = append(seeds, empty.Bytes())

	valid := msgFile.Bytes()
	seeds = append(seeds, []byte{})
	seeds = append(seeds, valid[:3])                                             // truncated header
	seeds = append(seeds, valid[:headerLen])                                     // header only
	seeds = append(seeds, valid[:len(valid)-1])                                  // truncated trailer
	seeds = append(seeds, valid[:len(valid)-rec.TrailerLen-1])                   // missing count+trailer
	seeds = append(seeds, []byte{partMagic0, partMagic1, 9, KindMessages, 0})    // bad version
	seeds = append(seeds, []byte{partMagic0, partMagic1, Version, 0x7f, 0})      // unknown kind
	seeds = append(seeds, []byte{partMagic0, partMagic1, Version, KindEdges, 4}) // unknown flag
	// Hostile record length.
	seeds = append(seeds, append(append([]byte{}, valid[:headerLen]...), 0xff, 0xff, 0xff, 0xff, 0x7f))
	// A weighted edge record whose degree overflows degree*5.
	seeds = append(seeds, overflowingDegree())
	// CRC-valid files the decoder must reject: two-byte varints ending in a
	// zero byte, as a destination and as a neighbor, and descending vertices.
	seeds = append(seeds, rawFile(KindMessages, []byte{0x81, 0x00, 'x'}))
	seeds = append(seeds, rawFile(KindEdges, []byte{0, 1, 0x85, 0x00}))
	seeds = append(seeds, rawFile(KindEdges, []byte{2, 1, 0}, []byte{0, 1, 1}))
	return seeds
}

// FuzzSelectiveDecode decodes arbitrary bytes as edge records twice, as
// Window does whatever the header's kind: in full, and with an arbitrary
// bitset of the vertices whose neighbors to decode. Neither may panic. When
// the full decode accepts, the selective one accepts too, with the same
// records, the marked ones' neighbors and weights, and degree 0 for the
// rest; a selective rejection is ErrCorrupt, so the full decode rejects
// too. The read buffer's size must not change the selective decode.
func FuzzSelectiveDecode(f *testing.F) {
	for i, seed := range partitionSeeds() {
		f.Add(seed, []byte{0x55, byte(i)})
	}
	// Vertex 1's neighbor is malformed: only a decode that marks it fails.
	f.Add(rawFile(KindEdges, []byte{0, 2, 5, 7}, []byte{1, 1, 0x85, 0x00}, []byte{9, 0}), []byte{0x01})
	f.Add(rawFile(KindEdges, []byte{0, 2, 5, 7}, []byte{1, 1, 0x85, 0x00}, []byte{9, 0}), []byte{0x02})
	f.Fuzz(func(t *testing.T, data, set []byte) {
		want := make([]uint64, (len(set)+7)/8)
		for i, c := range set {
			want[i/8] |= uint64(c) << (i % 8 * 8)
		}
		full, errFull := decodeEdges(data, readBufLen, nil)
		sel, err := decodeEdges(data, readBufLen, want)
		sel2, err2 := decodeEdges(data, binary.MaxVarintLen64, want)
		if (err == nil) != (err2 == nil) || fmt.Sprint(sel) != fmt.Sprint(sel2) {
			t.Fatalf("buffer size changed the selective decode: %v / %v", err, err2)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			if errFull == nil {
				t.Fatalf("selective decode rejects what the full decode accepts: %v", err)
			}
			return
		}
		if errFull != nil {
			return
		}
		if !slices.Equal(sel.Verts, full.Verts) {
			t.Fatalf("records %v, full decode %v", sel.Verts, full.Verts)
		}
		at, sat := 0, 0 // the record's first neighbor in full.Adj and sel.Adj
		for i, v := range full.Verts {
			deg := int(full.Degs[i])
			if !inSet(want, v) {
				if sel.Degs[i] != 0 {
					t.Fatalf("unmarked vertex %d has degree %d", v, sel.Degs[i])
				}
				at += deg
				continue
			}
			if int(sel.Degs[i]) != deg || len(sel.Adj) < sat+deg || !slices.Equal(sel.Adj[sat:sat+deg], full.Adj[at:at+deg]) {
				t.Fatalf("marked vertex %d: degree %d, want %d, or its neighbors differ", v, sel.Degs[i], deg)
			}
			if len(full.Wts) > 0 && (len(sel.Wts) < sat+deg || !slices.EqualFunc(sel.Wts[sat:sat+deg], full.Wts[at:at+deg], sameBits)) {
				t.Fatalf("marked vertex %d: weights differ", v)
			}
			at, sat = at+deg, sat+deg
		}
		wts := 0
		if len(full.Wts) > 0 {
			wts = sat
		}
		if len(sel.Adj) != sat || len(sel.Wts) != wts {
			t.Fatalf("%d neighbors and %d weights decoded, want %d and %d", len(sel.Adj), len(sel.Wts), sat, wts)
		}
	})
}

// decodeEdges decodes data's records as edge records, whatever the header's
// kind, through a read buffer of bufLen bytes: the neighbors of only the
// vertices in want, or of all when want is nil.
func decodeEdges(data []byte, bufLen int, want []uint64) (e EdgeList, err error) {
	var r Reader
	r.dec.Reset(nil, bufLen, ErrCorrupt) // init keeps this buffer
	if err = r.init(bytes.NewReader(data)); err == nil {
		err = r.decode(&e, nil, anyID, want)
	}
	return e, err
}

// inSet reports whether the bitset set holds v.
func inSet(set []uint64, v graph.VertexID) bool {
	return int(v>>6) < len(set) && set[v>>6]&(1<<(v&63)) != 0
}

// sameBits compares two weights bit for bit, so that NaN equals itself.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// overflowingDegree is a weighted edge file holding one record, vertex 0
// with degree 0x3333333333333334 and 4 body bytes: degree*5 wraps to 4, so a
// multiplied bound would take it for a record that fits.
func overflowingDegree() []byte {
	body := binary.AppendUvarint([]byte{0}, 0x3333333333333334)
	body = append(body, 1, 2, 3, 4)
	file := []byte{partMagic0, partMagic1, Version, KindEdges, flagWeighted}
	return append(binary.AppendUvarint(file, uint64(len(body))), body...)
}

// anyID bounds vertex IDs by the width of a VertexID alone.
const anyID = 1 << 32

// rawFile frames bodies as an unweighted partition of kind with a true
// record count and CRC trailer, so the decoder meets the bodies as they are.
func rawFile(kind byte, bodies ...[]byte) []byte {
	file := []byte{partMagic0, partMagic1, Version, kind, 0}
	for _, b := range bodies {
		file = append(binary.AppendUvarint(file, uint64(len(b))), b...)
	}
	file = binary.AppendUvarint(append(file, 0), uint64(len(bodies)))
	return binary.LittleEndian.AppendUint64(file, rec.CRC(0, file))
}

// decodeAll decodes a whole partition through the constructor every Reader
// starts with, using a read buffer of bufLen bytes.
func decodeAll(data []byte, bufLen int) (kind byte, weighted bool, msgs []msgRec, edges []edgeRec, err error) {
	var r Reader
	r.dec.Reset(nil, bufLen, ErrCorrupt) // init keeps this buffer
	if err := r.init(bytes.NewReader(data)); err != nil {
		return 0, false, nil, nil, err
	}
	msgs, edges, err = readAll(&r)
	return r.kind, r.weighted, msgs, edges, err
}

// readAll decodes r's records, the ones before the first fault when there
// is one, allowing any VertexID.
func readAll(r *Reader) (msgs []msgRec, edges []edgeRec, err error) {
	if r.kind == KindMessages {
		var ib Inbox
		err = r.ReadMessages(&ib, anyID)
		for i, dst := range ib.Dsts {
			msgs = append(msgs, msgRec{dst, ib.Payload(i)})
		}
		return msgs, nil, err
	}
	var e EdgeList
	err = r.ReadEdges(&e, anyID)
	at := 0
	for i, v := range e.Verts {
		end := at + int(e.Degs[i])
		er := edgeRec{v: v, nbrs: e.Adj[at:end]}
		if r.weighted {
			er.wts = e.Wts[at:end]
		}
		edges, at = append(edges, er), end
	}
	return nil, edges, err
}
