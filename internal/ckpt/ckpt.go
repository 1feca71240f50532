// Package ckpt implements superstep checkpointing for both runtimes: the
// simulated engine (internal/engine) and the net/rpc runtime
// (internal/rpcrt). A checkpoint is a versioned, checksummed snapshot of
// everything a runtime needs to resume from a superstep barrier: the
// superstep itself, recorded once in the container header (Snapshot.Step),
// and the runtime's named sections — the engine's buffered outboxes, RNG
// streams and program state, a worker's inbox, counters and program state —
// so each runtime defines its own layout without changing the container.
//
// Files are written atomically (temp file + rename) and named by superstep;
// each participant keeps exactly the file it wrote last. The CRC-64
// trailer guards against torn or corrupted files: a snapshot that fails
// the checksum is never loaded silently (Decode returns an error), which
// the fuzz tests in this package enforce. The checksum, the bounds checks
// and the root of ErrCorrupt are internal/rec's.
package ckpt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vcmt/internal/rec"
)

// Format constants. Version is bumped on breaking layout changes; Decode
// rejects files with a different version rather than guessing.
const (
	magic   = "VCKP"
	version = 1

	// FileSuffix is the checkpoint file extension.
	FileSuffix = ".vck"
)

// ErrCorrupt is wrapped by Decode errors caused by damaged bytes (bad
// magic or version, truncation, or checksum mismatch), and by the
// runtimes' section decoders. It wraps rec.ErrCorrupt.
var ErrCorrupt = rec.Sentinel("ckpt: corrupt checkpoint")

// Section is one named blob inside a snapshot.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is one checkpoint: the superstep it was cut at plus the
// runtime-defined sections.
type Snapshot struct {
	Step     int
	Sections []Section
}

// Add appends a section.
func (s *Snapshot) Add(name string, data []byte) {
	s.Sections = append(s.Sections, Section{Name: name, Data: data})
}

// Get returns the first section with the given name, or nil if absent.
func (s *Snapshot) Get(name string) []byte {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec.Data
		}
	}
	return nil
}

// WriteTo writes the snapshot's encoding to w and returns the bytes
// written: magic, version, step, section count, sections (length-prefixed
// name and data), and a trailing CRC-64 (ECMA) over everything before it.
// Section data goes out as it is, never copied into a file image; the
// checksum is folded over the pieces. Identical snapshots produce
// identical bytes.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var enc rec.Writer
	enc.Reset(w, 64) // buffers the small fields; section data goes out uncopied
	enc.Bytes([]byte(magic))
	enc.U32(version)
	enc.U64(uint64(s.Step))
	enc.U32(uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		if len(sec.Name) > 1<<16-1 {
			panic("ckpt: section name too long")
		}
		enc.U16(uint16(len(sec.Name)))
		enc.Bytes([]byte(sec.Name))
		enc.U64(uint64(len(sec.Data)))
		enc.Span(sec.Data)
	}
	return enc.Finish()
}

// Decode parses and verifies a snapshot. Damaged bytes — wrong magic or
// version, truncation, oversized lengths, or a checksum mismatch — yield an
// error wrapping ErrCorrupt; a snapshot is never silently mis-loaded.
func Decode(data []byte) (*Snapshot, error) {
	body, err := rec.Checked(data, ErrCorrupt)
	if err != nil {
		return nil, err
	}
	c := rec.NewCursor(body, ErrCorrupt)
	if string(c.Bytes(uint64(len(magic)))) != magic {
		return nil, c.Fail("bad magic")
	}
	if v := c.U32(); v != version {
		return nil, c.Fail("unsupported version %d (want %d)", v, version)
	}
	s := &Snapshot{Step: int(c.U64())}
	for i := c.U32(); i > 0 && c.Err() == nil; i-- {
		name := string(c.Bytes(uint64(c.U16())))
		s.Add(name, append([]byte(nil), c.Bytes(c.U64())...))
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and decodes one checkpoint file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Manager writes and discovers the checkpoints of one participant (one
// engine run, or one rpcrt worker) inside a directory. Multiple
// participants share a directory by using distinct prefixes.
type Manager struct {
	// Dir is the checkpoint directory; created on first Save.
	Dir string
	// Prefix distinguishes this participant's files ("ckpt-" if empty).
	Prefix string
}

func (m *Manager) prefix() string {
	if m.Prefix == "" {
		return "ckpt-"
	}
	return m.Prefix
}

func (m *Manager) path(step int) string {
	return filepath.Join(m.Dir, fmt.Sprintf("%s%09d%s", m.prefix(), step, FileSuffix))
}

// Save writes the snapshot atomically through WriteTo (temp file in the
// same directory, fsync-free rename), removes every other checkpoint of this
// participant whatever its step, and returns the number of bytes written.
// Runs restart at step 1, so a higher-step file in a reused directory
// belongs to an earlier run and must never outlive — or be restored in
// place of — the file just written.
func (m *Manager) Save(s *Snapshot) (int64, error) {
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(m.Dir, m.prefix()+"tmp-*")
	if err != nil {
		return 0, err
	}
	n, err := s.WriteTo(tmp)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), m.path(s.Step)); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	steps, err := m.steps()
	if err != nil {
		return 0, err
	}
	for _, step := range steps {
		if step == s.Step {
			continue
		}
		if err := os.Remove(m.path(step)); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// steps lists this participant's checkpoint steps in ascending order.
func (m *Manager) steps() ([]int, error) {
	entries, err := os.ReadDir(m.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var steps []int
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, m.prefix()) || !strings.HasSuffix(name, FileSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, m.prefix()), FileSuffix)
		step, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// Latest loads the highest-step checkpoint — after a Save, the one it
// wrote — or returns (nil, "", nil) when none exists. A damaged latest
// checkpoint is an error, not a silent fallback.
func (m *Manager) Latest() (*Snapshot, string, error) {
	steps, err := m.steps()
	if err != nil || len(steps) == 0 {
		return nil, "", err
	}
	path := m.path(steps[len(steps)-1])
	s, err := Load(path)
	if err != nil {
		return nil, "", err
	}
	return s, path, nil
}
