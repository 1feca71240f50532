package ckpt

import (
	"fmt"
	"testing"
)

// benchSnapshot builds a synthetic worker snapshot shaped like the
// runtimes' real ones: a message inbox and a vertex state table, totalling
// roughly stateBytes of payload.
func benchSnapshot(step, stateBytes int) *Snapshot {
	s := &Snapshot{Step: step}
	inbox := make([]byte, stateBytes/4)
	for i := range inbox {
		inbox[i] = byte(i * 31)
	}
	s.Add("inbox", inbox)

	state := make([]byte, stateBytes-len(inbox))
	for i := range state {
		state[i] = byte(i * 17)
	}
	s.Add("prog", state)
	return s
}

// BenchmarkCheckpointWrite measures the full Save path — encode, checksum,
// atomic temp-file write, rename, prune — at worker-snapshot sizes.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			m := &Manager{Dir: b.TempDir()}
			snap := benchSnapshot(1, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Step = i + 1
				if _, err := m.Save(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointRecover measures the restore path — discover the
// latest file, read, checksum-verify, decode into sections.
func BenchmarkCheckpointRecover(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			m := &Manager{Dir: b.TempDir()}
			if _, err := m.Save(benchSnapshot(7, size)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, _, err := m.Latest()
				if err != nil {
					b.Fatal(err)
				}
				if snap == nil || snap.Step != 7 || snap.Get("prog") == nil {
					b.Fatal("bad snapshot")
				}
			}
		})
	}
}
