package ooc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	var msgFile bytes.Buffer
	mw := NewWriter(&msgFile, KindMessages, false)
	mw.AppendMessage(1, []byte("alpha"))
	mw.AppendMessage(300, nil)
	mw.AppendMessage(1<<31, []byte{0xff, 0x00})
	mw.Finish()
	f.Add(msgFile.Bytes())

	var edgeFile bytes.Buffer
	ew := NewWriter(&edgeFile, KindEdges, false)
	ew.AppendEdges(0, []graph.VertexID{1, 2, 3}, nil)
	ew.AppendEdges(7, nil, nil)
	ew.Finish()
	f.Add(edgeFile.Bytes())

	var wEdgeFile bytes.Buffer
	ww := NewWriter(&wEdgeFile, KindEdges, true)
	ww.AppendEdges(2, []graph.VertexID{9}, []float32{1.5})
	ww.Finish()
	f.Add(wEdgeFile.Bytes())

	var empty bytes.Buffer
	NewWriter(&empty, KindMessages, false).Finish()
	f.Add(empty.Bytes())

	valid := msgFile.Bytes()
	f.Add([]byte{})
	f.Add(valid[:3])                                             // truncated header
	f.Add(valid[:headerLen])                                     // header only
	f.Add(valid[:len(valid)-1])                                  // truncated trailer
	f.Add(valid[:len(valid)-rec.TrailerLen-1])                   // missing count+trailer
	f.Add([]byte{partMagic0, partMagic1, 9, KindMessages, 0})    // bad version
	f.Add([]byte{partMagic0, partMagic1, Version, 0x7f, 0})      // unknown kind
	f.Add([]byte{partMagic0, partMagic1, Version, KindEdges, 4}) // unknown flag
	// Hostile record length.
	f.Add(append(append([]byte{}, valid[:headerLen]...), 0xff, 0xff, 0xff, 0xff, 0x7f))
	// A weighted edge record whose degree overflows degree*5.
	f.Add(overflowingDegree())
	// CRC-valid files the decoder must reject: two-byte varints ending in a
	// zero byte, as a destination and as a neighbor, and descending vertices.
	f.Add(rawFile(KindMessages, []byte{0x81, 0x00, 'x'}))
	f.Add(rawFile(KindEdges, []byte{0, 1, 0x85, 0x00}))
	f.Add(rawFile(KindEdges, []byte{2, 1, 0}, []byte{0, 1, 1}))

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
		w := NewWriter(&re, kind, weighted)
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
	if r.Kind() == KindMessages {
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
		if r.Weighted() {
			er.wts = e.Wts[at:end]
		}
		edges, at = append(edges, er), end
	}
	return nil, edges, err
}
