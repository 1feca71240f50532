package tasks

import (
	"bytes"
	"errors"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/graph"
)

// FuzzSourceTableLoad feeds arbitrary prog sections to an MSSP and a BKHS
// batch's LoadState, seeded with the images TestBatchSnapshotImagesPinned
// pins: each must load or fail with ckpt.ErrCorrupt, never panic, and a
// section that loads must save back to exactly its bytes.
func FuzzSourceTableLoad(f *testing.F) {
	const n, k = 200, 3
	g := graph.GenerateChungLu(n, 800, 2.5, 11)
	part := graph.HashPartition(n, k)
	sources := []graph.VertexID{3, 41, 77, 120, 199}
	mssp := func(count int) Batch[DistMsg] {
		j, err := NewMSSP(g, part, MSSPConfig{Sources: sources})
		if err != nil {
			f.Fatal(err)
		}
		return j.NextBatch(count)
	}
	bkhs := func(count int) Batch[HopMsg] {
		prog, err := NewBKHS(g, part, BKHSConfig{Sources: sources, K: 3}).NextBatch(count)
		if err != nil {
			f.Fatal(err)
		}
		return prog
	}
	for _, img := range [][]byte{
		steppedImage(f, g, part, mssp(len(sources))),
		steppedImage(f, g, part, bkhs(len(sources))),
		steppedImage(f, g, part, bkhs(2)),
	} {
		f.Add(img)
		f.Add(img[:len(img)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireLoadsOrCorrupt(t, mssp(len(sources)), data)
		requireLoadsOrCorrupt(t, bkhs(len(sources)), data)
	})
}

// steppedImage is prog's state image three supersteps into its run.
func steppedImage[M any](tb testing.TB, g *graph.Graph, part *graph.Partition, prog Batch[M]) []byte {
	tb.Helper()
	e := engine.New(g, part, prog, nil, engine.Options[M]{Seed: 7, Workers: 1})
	for range 3 {
		if err := e.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	img, err := prog.AppendState(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func requireLoadsOrCorrupt[M any](t *testing.T, prog Batch[M], data []byte) {
	t.Helper()
	if err := prog.LoadState(data); err != nil {
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("load failed with %v, want ckpt.ErrCorrupt", err)
		}
		return
	}
	got, err := prog.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("a loaded section saves back to %d other bytes (was %d)", len(got), len(data))
	}
}
