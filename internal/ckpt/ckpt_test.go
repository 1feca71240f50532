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

// TestSaveRemovesStaleTempFiles: a Save that died between creating its
// temp file and renaming it leaves the file behind; the next Save of the
// same participant removes it, and leaves another participant's alone.
func TestSaveRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"w0-tmp-123456", "w1-tmp-654321"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manager{Dir: dir, Prefix: "w0-"}
	for step := 1; step <= 3; step++ {
		s := &Snapshot{Step: step}
		s.Add("prog", []byte{byte(step)})
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[w0-000000003.vck w1-tmp-654321]" {
		t.Fatalf("after three Saves the directory holds %v", names)
	}
}

// link makes a snapshot of step holding a prog section of size bytes, a
// delta of parent when parent >= 0.
func link(step, parent, size int) *Snapshot {
	s := &Snapshot{Step: step}
	s.Add("prog", bytes.Repeat([]byte{byte(step)}, size))
	if parent >= 0 {
		s.Add(ParentSection, binary.LittleEndian.AppendUint64(nil, uint64(parent)))
	}
	return s
}

// chainBuilder is a Cut builder that makes deltas of deltaSize bytes and
// bases of baseSize, recording the parents Cut asked for.
func chainBuilder(step *int, asked *[]int, baseSize, deltaSize int) func(int) (*Snapshot, error) {
	return func(parent int) (*Snapshot, error) {
		*asked = append(*asked, parent)
		if parent < 0 {
			return link(*step, -1, baseSize), nil
		}
		return link(*step, parent, deltaSize), nil
	}
}

// TestCutChains walks Cut through a chain's life: a base, deltas up to
// maxChain snapshots, then a base again; only the live chain stays on disk,
// and Latest returns its newest snapshot linked down to its base.
func TestCutChains(t *testing.T) {
	dir := t.TempDir()
	m := &Manager{Dir: dir, Prefix: "w0-"}
	var step int
	var asked []int
	build := chainBuilder(&step, &asked, minDeltaBase, 100)
	for step = 1; step <= maxChain+2; step++ {
		n, delta, err := m.Cut(build)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := step != 1 && step != maxChain+1
		if delta != wantDelta {
			t.Fatalf("step %d: delta %v, want %v (Cut asked for parents %v)", step, delta, wantDelta, asked)
		}
		want := link(step, -1, minDeltaBase)
		if delta {
			want = link(step, step-1, 100)
		}
		if n != want.Len() {
			t.Fatalf("step %d: %d bytes written, want %d", step, n, want.Len())
		}
		steps, err := m.steps()
		if err != nil {
			t.Fatal(err)
		}
		if first := steps[0]; len(steps) != step-first+1 || first != 1 && first != maxChain+1 {
			t.Fatalf("after step %d the directory holds steps %v", step, steps)
		}
	}
	fresh := &Manager{Dir: dir, Prefix: "w0-"}
	got, _, err := fresh.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != maxChain+2 || got.Prev == nil || got.Prev.Step != maxChain+1 || got.Prev.Prev != nil {
		t.Fatalf("Latest loaded step %d linked to %+v", got.Step, got.Prev)
	}
	// The loaded chain is the live one: the next Cut extends it.
	step = maxChain + 3
	if _, delta, err := fresh.Cut(build); err != nil || !delta {
		t.Fatalf("Cut after Latest: delta %v, %v; want a delta", delta, err)
	}
}

// TestCutRebasesLargeDeltas: a delta longer than half its chain's base is
// rebuilt as a base, and a base under minDeltaBase starts no chain.
func TestCutRebasesLargeDeltas(t *testing.T) {
	for _, c := range []struct {
		name            string
		base, delta     int
		wantSecondDelta bool
	}{
		{"small delta", minDeltaBase, minDeltaBase / 4, true},
		{"large delta", minDeltaBase, minDeltaBase/2 + 100, false},
		{"small base", minDeltaBase / 2, 10, false},
	} {
		m := &Manager{Dir: t.TempDir()}
		var step int
		var asked []int
		build := chainBuilder(&step, &asked, c.base, c.delta)
		for step = 1; step <= 2; step++ {
			if _, delta, err := m.Cut(build); err != nil || delta != (step == 2 && c.wantSecondDelta) {
				t.Fatalf("%s: step %d delta %v, %v (asked %v)", c.name, step, delta, err, asked)
			}
		}
	}
}

// TestLatestRejectsBrokenChains: a chain whose base is missing, or whose
// middle link is damaged or is another step's snapshot, is an error
// wrapping ErrCorrupt, never a silent restore of the newest delta alone.
func TestLatestRejectsBrokenChains(t *testing.T) {
	write := func(t *testing.T) (*Manager, string) {
		dir := t.TempDir()
		m := &Manager{Dir: dir}
		var step int
		var asked []int
		build := chainBuilder(&step, &asked, minDeltaBase, 10)
		for step = 1; step <= 3; step++ {
			if _, _, err := m.Cut(build); err != nil {
				t.Fatal(err)
			}
		}
		return m, dir
	}
	for name, damage := range map[string]func(dir string) error{
		"missing base": func(dir string) error { return os.Remove(filepath.Join(dir, "ckpt-000000001.vck")) },
		"damaged link": func(dir string) error {
			path := filepath.Join(dir, "ckpt-000000002.vck")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 1
			return os.WriteFile(path, data, 0o644)
		},
		"foreign link": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "ckpt-000000002.vck"), encode(link(7, -1, 10)), 0o644)
		},
		"bad parent section": func(dir string) error {
			s := link(3, 2, 10)
			s.Sections[1].Data = s.Sections[1].Data[:7]
			return os.WriteFile(filepath.Join(dir, "ckpt-000000003.vck"), encode(s), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, dir := write(t)
			if got, _, err := m.Latest(); err != nil || got.Step != 3 {
				t.Fatalf("intact chain: step %v, %v", got, err)
			}
			if err := damage(dir); err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Latest(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Latest = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSaveRefusesForeignDeltas: a delta that does not extend the live
// chain is refused, and a failed Save leaves no chain to extend.
func TestSaveRefusesForeignDeltas(t *testing.T) {
	m := &Manager{Dir: t.TempDir()}
	if _, err := m.Save(link(2, 1, 10)); err == nil {
		t.Fatal("a delta with no live chain was saved")
	}
	if _, err := m.Save(link(1, -1, minDeltaBase)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(link(3, 2, 10)); err == nil {
		t.Fatal("a delta of step 2 extended a chain ending at step 1")
	}
	if _, err := m.Save(link(4, 1, 10)); err == nil {
		t.Fatal("the failed Save left its chain live")
	}
}
