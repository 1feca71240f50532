package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
)

func sample() *Snapshot {
	s := &Snapshot{Step: 42}
	s.Add("meta", []byte{1, 2, 3})
	s.Add("outbox", bytes.Repeat([]byte{0xAB}, 1000))
	s.Add("empty", nil)
	s.Add("rng", []byte("0123456789abcdef"))
	return s
}

// encode is the snapshot's file image: what WriteTo writes into a buffer,
// which must be exactly the byte count it reports.
func encode(s *Snapshot) []byte {
	var b bytes.Buffer
	if n, err := s.WriteTo(&b); err != nil || n != int64(b.Len()) {
		panic(fmt.Sprintf("WriteTo reported %d bytes, %v; wrote %d", n, err, b.Len()))
	}
	return b.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	data := encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Step != s.Step {
		t.Fatalf("step %d, want %d", got.Step, s.Step)
	}
	if len(got.Sections) != len(s.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(s.Sections))
	}
	for i, sec := range s.Sections {
		if got.Sections[i].Name != sec.Name || !bytes.Equal(got.Sections[i].Data, sec.Data) {
			t.Fatalf("section %d mismatch", i)
		}
	}
	if !bytes.Equal(encode(got), data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestDecodeDetectsEveryByteFlip(t *testing.T) {
	data := encode(sample())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5A
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}

// TestDecodeRejectsOtherVersion re-checksums a snapshot under another
// version word: the checksum passes, and the version is corruption.
func TestDecodeRejectsOtherVersion(t *testing.T) {
	data := encode(sample())
	binary.LittleEndian.PutUint32(data[len(magic):], version+1)
	body := data[:len(data)-8]
	binary.LittleEndian.PutUint64(data[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version %d snapshot: got %v, want ErrCorrupt", version+1, err)
	}
}

func TestDecodeTruncation(t *testing.T) {
	data := encode(sample())
	for n := 0; n < len(data); n += 7 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

// TestManagerSaveLatestPrune: a higher-step file from an earlier run does
// not survive Save — every Save leaves exactly the file it wrote, so Latest
// returns this run's snapshot, never the stale one.
func TestManagerSaveLatestPrune(t *testing.T) {
	dir := t.TempDir()
	m := &Manager{Dir: dir, Prefix: "w0-"}
	stale := &Snapshot{Step: 40}
	stale.Add("prog", []byte("an earlier run"))
	if _, err := m.Save(stale); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 5; step++ {
		s := &Snapshot{Step: step}
		s.Add("prog", []byte{byte(step)})
		n, err := m.Save(s)
		if err != nil {
			t.Fatalf("Save step %d: %v", step, err)
		}
		if n <= 0 {
			t.Fatalf("Save step %d reported %d bytes", step, n)
		}
		steps, err := m.steps()
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != 1 || steps[0] != step {
			t.Fatalf("after Save step %d the directory holds steps %v, want [%d]", step, steps, step)
		}
	}
	got, path, err := m.Latest()
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if got == nil || got.Step != 5 || !bytes.Equal(got.Get("prog"), []byte{5}) {
		t.Fatalf("Latest = %+v, want step 5", got)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("Latest path %q not in %q", path, dir)
	}
}

func TestManagerPrefixIsolation(t *testing.T) {
	dir := t.TempDir()
	a := &Manager{Dir: dir, Prefix: "w0-"}
	b := &Manager{Dir: dir, Prefix: "w1-"}
	sa := &Snapshot{Step: 3}
	sa.Add("x", []byte("aaa"))
	sb := &Snapshot{Step: 7}
	sb.Add("x", []byte("bbb"))
	if _, err := a.Save(sa); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Save(sb); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Latest()
	if err != nil || got.Step != 3 {
		t.Fatalf("a.Latest = %v, %v; want step 3", got, err)
	}
	got, _, err = b.Latest()
	if err != nil || got.Step != 7 {
		t.Fatalf("b.Latest = %v, %v; want step 7", got, err)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	m := &Manager{Dir: filepath.Join(t.TempDir(), "missing")}
	s, _, err := m.Latest()
	if err != nil || s != nil {
		t.Fatalf("Latest on missing dir = %v, %v; want nil, nil", s, err)
	}
}

func TestLatestCorruptFileIsError(t *testing.T) {
	dir := t.TempDir()
	m := &Manager{Dir: dir}
	s := &Snapshot{Step: 9}
	s.Add("meta", []byte("payload"))
	if _, err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-000000009"+FileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Latest(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest on corrupt file = %v, want ErrCorrupt", err)
	}
}
