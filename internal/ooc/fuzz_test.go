package ooc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"vcmt/internal/graph"
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
	f.Add(valid[:len(valid)-trailerLen-1])                       // missing count+trailer
	f.Add([]byte{partMagic0, partMagic1, 9, KindMessages, 0})    // bad version
	f.Add([]byte{partMagic0, partMagic1, Version, 0x7f, 0})      // unknown kind
	f.Add([]byte{partMagic0, partMagic1, Version, KindEdges, 4}) // unknown flag
	// Hostile record length.
	f.Add(append(append([]byte{}, valid[:headerLen]...), 0xff, 0xff, 0xff, 0xff, 0x7f))

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

// decodeAll decodes a whole partition through the constructor every Reader
// starts with, using a read buffer of bufLen bytes.
func decodeAll(data []byte, bufLen int) (kind byte, weighted bool, msgs []msgRec, edges []edgeRec, err error) {
	r := Reader{buf: make([]byte, bufLen)}
	if err := r.init(bytes.NewReader(data)); err != nil {
		return 0, false, nil, nil, err
	}
	for {
		if r.Kind() == KindMessages {
			dst, payload, err := r.NextMessage()
			if err != nil {
				return r.kind, r.weighted, msgs, edges, eofNil(err)
			}
			msgs = append(msgs, msgRec{dst, append([]byte(nil), payload...)})
			continue
		}
		v, nbrs, wts, err := r.NextEdges()
		if err != nil {
			return r.kind, r.weighted, msgs, edges, eofNil(err)
		}
		edges = append(edges, edgeRec{
			v:    v,
			nbrs: append([]graph.VertexID(nil), nbrs...),
			wts:  append([]float32(nil), wts...),
		})
	}
}

func eofNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}
