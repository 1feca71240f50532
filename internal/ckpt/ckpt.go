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
// each participant keeps exactly the files of its newest snapshot's chain:
// a base and the deltas after it (see Manager.Cut). The CRC-64
// trailer guards against torn or corrupted files: a snapshot that fails
// the checksum is never loaded silently (Decode returns an error), which
// the fuzz tests in this package enforce. The checksum, the bounds checks
// and the root of ErrCorrupt are internal/rec's.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// ParentSection makes a snapshot a delta of the step it holds (uint64 LE).
const ParentSection = "parent"

// Snapshot is one checkpoint: the superstep it was cut at plus the
// runtime-defined sections.
type Snapshot struct {
	Step     int
	Sections []Section
	Prev     *Snapshot // the snapshot a delta applies to, as Latest loads it
}

// Parent returns the step s is a delta of, or -1 for a base; a malformed
// parent section is an error wrapping ErrCorrupt.
func (s *Snapshot) Parent() (int, error) {
	for _, sec := range s.Sections {
		if sec.Name == ParentSection {
			if len(sec.Data) != 8 || binary.LittleEndian.Uint64(sec.Data) >= uint64(s.Step) {
				return 0, rec.Errorf(ErrCorrupt, "step %d names no earlier parent", s.Step)
			}
			return int(binary.LittleEndian.Uint64(sec.Data)), nil
		}
	}
	return -1, nil
}

// Len returns the length of s's encoding: what WriteTo writes.
func (s *Snapshot) Len() int64 {
	n := int64(len(magic) + 4 + 8 + 4 + rec.TrailerLen)
	for _, sec := range s.Sections {
		n += int64(2 + len(sec.Name) + 8 + len(sec.Data))
	}
	return n
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

// Due reports whether the barrier after superstep round takes a
// checkpoint: the one after round 1, so a crash at any later step has a
// snapshot to restore, and the one after every interval-th round. An
// interval of zero or less means 8.
func Due(round, interval int) bool {
	if interval <= 0 {
		interval = 8
	}
	return round == 1 || round%interval == 0
}

// Manager writes and discovers the checkpoints of one participant (one
// engine run, or one rpcrt worker) inside a directory. Multiple
// participants share a directory by using distinct prefixes.
type Manager struct {
	// Dir is the checkpoint directory; created on first Save.
	Dir string
	// Prefix distinguishes this participant's files ("ckpt-" if empty).
	Prefix string

	chain   []int // the live chain's steps, base first, as Save or Latest left it
	baseLen int64 // its base's length
}

// A chain holds at most maxChain snapshots after a base of minDeltaBase
// bytes or more; a smaller file costs what creating and removing it does.
const (
	maxChain     = 16
	minDeltaBase = 16 << 10
)

func (m *Manager) prefix() string {
	if m.Prefix == "" {
		return "ckpt-"
	}
	return m.Prefix
}

func (m *Manager) path(step int) string {
	return filepath.Join(m.Dir, fmt.Sprintf("%s%09d%s", m.prefix(), step, FileSuffix))
}

// Cut saves build(parent): a delta of the live chain's newest step, or a
// base if parent is -1 — as it is without a live chain, with a full or
// small one, and on the rebuild of a delta over half the base's size. It
// reports the bytes written and whether they hold a delta.
func (m *Manager) Cut(build func(parent int) (*Snapshot, error)) (int64, bool, error) {
	parent := -1
	if n := len(m.chain); n > 0 && n < maxChain && m.baseLen >= minDeltaBase {
		parent = m.chain[n-1]
	}
	s, err := build(parent)
	if err == nil && s.Get(ParentSection) != nil && 2*s.Len() > m.baseLen {
		s, err = build(-1)
	}
	if err != nil {
		m.chain = nil
		return 0, false, err
	}
	n, err := m.Save(s)
	return n, s.Get(ParentSection) != nil, err
}

// Save writes the snapshot atomically through WriteTo (temp file in the
// same directory, fsync-free rename), removes every other checkpoint of this
// participant but the chain s ends, whatever its step, and every temp file
// a Save that died left, and returns the number of bytes written. A delta
// must extend the live chain. Runs restart at step 1 with a base, so a
// higher-step file in a reused directory belongs to an earlier run and must
// never outlive — or be restored in place of — the file just written.
func (m *Manager) Save(s *Snapshot) (int64, error) {
	chain := m.chain
	m.chain = nil // until this Save succeeds, the next snapshot is a base
	switch parent, err := s.Parent(); {
	case err != nil:
		return 0, err
	case parent < 0:
		chain = nil
	case len(chain) == 0 || chain[len(chain)-1] != parent:
		return 0, fmt.Errorf("ckpt: the delta of step %d does not extend the live chain %v", s.Step, chain)
	}
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
	if len(chain) == 0 {
		m.baseLen = n
	}
	chain = append(chain, s.Step)
	steps, err := m.steps()
	if err != nil {
		return 0, err
	}
	tmps, _ := filepath.Glob(filepath.Join(m.Dir, m.prefix()+"tmp-*")) // errs only on a malformed pattern
	for _, step := range steps {
		if !slices.Contains(chain, step) {
			tmps = append(tmps, m.path(step))
		}
	}
	for _, path := range tmps {
		if err := os.Remove(path); err != nil {
			return 0, err
		}
	}
	m.chain = chain
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
// wrote — or returns (nil, "", nil) when none exists; a delta comes with
// its chain (via Prev), which the next Cut extends. A damaged checkpoint or
// a missing link is an error, not a silent fallback.
func (m *Manager) Latest() (*Snapshot, string, error) {
	m.chain = nil
	steps, err := m.steps()
	if err != nil || len(steps) == 0 {
		return nil, "", err
	}
	path := m.path(steps[len(steps)-1])
	s, err := Load(path)
	if err != nil {
		return nil, "", err
	}
	var chain []int
	for at := s; ; at = at.Prev {
		chain = append([]int{at.Step}, chain...)
		parent, err := at.Parent()
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		if parent < 0 {
			m.chain, m.baseLen = chain, at.Len()
			return s, path, nil
		}
		if at.Prev, err = Load(m.path(parent)); err != nil || at.Prev.Step != parent {
			return nil, "", fmt.Errorf("%s: link %d: %w (%v)", path, parent, ErrCorrupt, err)
		}
	}
}
