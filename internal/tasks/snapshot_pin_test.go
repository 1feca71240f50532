package tasks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/graph"
)

// TestBatchSnapshotImagesPinned pins the AppendState image of an MSSP and a
// BKHS batch cut mid-run: the dimensions, then one row of n per batch
// source, then the per-machine counts. The image is a checkpoint's prog
// section, so its bytes may not move when the programs change how they hold
// the tables in memory. It also checks that LoadState → AppendState gives
// the image back and that an image of another batch size is corrupt.
func TestBatchSnapshotImagesPinned(t *testing.T) {
	const (
		n, k, rounds = 200, 3, 3
	)
	g := graph.GenerateChungLu(n, 800, 2.5, 11)
	part := graph.HashPartition(n, k)
	sources := []graph.VertexID{3, 41, 77, 120, 199}
	mssp := func(count int) Batch[DistMsg] {
		j, err := NewMSSP(g, part, MSSPConfig{Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		return j.NextBatch(count)
	}
	bkhs := func(count int) Batch[HopMsg] {
		prog, err := NewBKHS(g, part, BKHSConfig{Sources: sources, K: 3}).NextBatch(count)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	t.Run("mssp", func(t *testing.T) {
		requireSnapshotPinned(t, g, part, mssp, len(sources), rounds,
			"11b3b0673146822e5b11d80d073890ea8742d990cc889568aa452e60b8c5663b")
	})
	t.Run("bkhs", func(t *testing.T) {
		requireSnapshotPinned(t, g, part, bkhs, len(sources), rounds,
			"782f3ef0105f464bd1ca97b30331a7469792720a212c0004efc1025ea2237c49")
	})
}

// requireSnapshotPinned runs a batch of count sources for rounds supersteps
// and checks its state image against want, the round trip through a fresh
// batch, and that a batch of count-1 sources rejects the image.
func requireSnapshotPinned[M any](t *testing.T, g *graph.Graph, part *graph.Partition,
	batch func(count int) Batch[M], count, rounds int, want string) {
	t.Helper()
	prog := batch(count)
	e := engine.New(g, part, prog, nil, engine.Options[M]{Seed: 7, Workers: 1})
	for range rounds {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	img, err := prog.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("state image sha256 %s (%d bytes), want %s", got, len(img), want)
	}
	fresh := batch(count)
	if err := fresh.LoadState(img); err != nil {
		t.Fatalf("LoadState of an intact image: %v", err)
	}
	again, err := fresh.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, img) {
		t.Errorf("LoadState → AppendState gives %d bytes that differ from the %d-byte image", len(again), len(img))
	}
	if err := batch(count - 1).LoadState(img); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("LoadState of a %d-source image into a %d-source batch: %v, want ckpt.ErrCorrupt", count, count-1, err)
	}
}
