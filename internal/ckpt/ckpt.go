// Package ckpt is the crash-consistent checkpoint/restore subsystem of the
// simulator: it persists the complete run state (engine cursor, capacitor
// bank, NVP progress, scheduler state including DBN weights, RNG stream
// positions, fault-injector state and observer counters) in a versioned,
// self-describing file format, written atomically with a rolling previous
// generation — a SIGKILL at any instant leaves either the previous or the
// new checkpoint valid, never a torn one.
//
// This is the simulator-side analogue of the platform it models: a
// nonvolatile node checkpoints its architectural state through power
// failures; the simulation stack holds itself to the same standard (see
// DESIGN.md §8). The headline property, enforced by this package's tests:
// a run killed at an arbitrary point and resumed from its last checkpoint
// produces a final metrics digest bit-identical to the uninterrupted run.
package ckpt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/sim"
)

// Magic identifies a checkpoint file; FormatVersion the envelope schema.
// The payload carries its own schema version (sim.RunStateVersion).
const (
	Magic         = "solarsched-ckpt"
	FormatVersion = 1
)

// DefaultInterval is the wall-clock throttle the CLIs apply to periodic
// checkpoint writes: at most one durable (fsynced) checkpoint per second.
// It bounds checkpoint I/O to well under 5% of run time for any workload
// while losing at most one second of progress to a kill.
const DefaultInterval = time.Second

// Header is the self-describing first line of a checkpoint file, sealed
// by atomicio: a reader can validate a checkpoint — or detect a torn
// one — from the header alone plus one hash pass.
type Header struct {
	atomicio.Envelope
	Seq           uint64 `json:"seq"`
	SchedulerName string `json:"scheduler"`
	ConfigDigest  string `json:"config_digest"`
	NextPeriod    int    `json:"next_period"`
	atomicio.Checksum
}

var envelope = atomicio.Envelope{Magic: Magic, Version: FormatVersion}

// Encode serializes a RunState into a sealed checkpoint.
func Encode(rs *sim.RunState, seq uint64) ([]byte, error) {
	payload, err := json.Marshal(rs)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode payload: %w", err)
	}
	return atomicio.Seal(&Header{
		Envelope:      envelope,
		Seq:           seq,
		SchedulerName: rs.SchedulerName,
		ConfigDigest:  rs.ConfigDigest,
		NextPeriod:    rs.NextPeriod,
	}, payload)
}

// Decode verifies a sealed checkpoint and decodes its RunState. Every
// failure wraps atomicio.ErrCorrupt: the file is torn, truncated or
// foreign, and callers fall back to the previous generation.
func Decode(data []byte) (*sim.RunState, Header, error) {
	hdr := Header{Envelope: envelope}
	payload, err := atomicio.Unseal(&hdr, data)
	if err != nil {
		return nil, hdr, err
	}
	var rs sim.RunState
	if err := json.Unmarshal(payload, &rs); err != nil {
		return nil, hdr, fmt.Errorf("%w: %s: decode payload: %v", atomicio.ErrCorrupt, Magic, err)
	}
	return &rs, hdr, nil
}

// Store persists checkpoints at a fixed path with one rolling previous
// generation (path + ".prev") and an append-only journal (path +
// ".journal") auditing every save. The write protocol guarantees that a
// kill at any instant leaves at least one loadable generation:
//
//  1. the new checkpoint is written to a temp file and fsynced;
//  2. the current checkpoint (if any) is renamed to ".prev";
//  3. the temp file is renamed to the checkpoint path;
//  4. the directory is fsynced.
//
// A kill between 2 and 3 leaves only ".prev"; a torn temp file never
// reaches either name; and a torn read (checksum mismatch) falls back to
// the previous generation in Load.
type Store struct {
	path string
	seq  uint64
}

// NewStore returns a store at path, creating the parent directory. The
// sequence number continues from the newest loadable generation at the
// path (the previous one if a kill or a torn write lost the newest), so
// resumed runs keep a monotonic journal.
func NewStore(path string) (*Store, error) {
	if path == "" {
		return nil, fmt.Errorf("ckpt: empty store path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	st := &Store{path: path}
	if _, hdr, _, err := st.Load(); err == nil {
		st.seq = hdr.Seq
	}
	return st, nil
}

// StoreInDir opens (or creates) a checkpoint store named after a free-form
// run identifier inside dir — the serving daemon checkpoints each fleet
// member under its job/run ID this way. The name is sanitized into a safe
// filename: anything outside [A-Za-z0-9._-] becomes '_', so IDs like
// "wam/proposed/seed3" cannot escape the directory.
func StoreInDir(dir, name string) (*Store, error) {
	if dir == "" || name == "" {
		return nil, fmt.Errorf("ckpt: empty store dir or name")
	}
	safe := []byte(name)
	for i, b := range safe {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
		default:
			safe[i] = '_'
		}
	}
	// A sanitized name of only dots could still traverse; forbid it.
	if s := string(safe); s == "." || s == ".." {
		return nil, fmt.Errorf("ckpt: unusable store name %q", name)
	}
	return NewStore(filepath.Join(dir, string(safe)+".ckpt"))
}

// Path returns the checkpoint path.
func (st *Store) Path() string { return st.path }

// PrevPath returns the previous-generation path.
func (st *Store) PrevPath() string { return st.path + ".prev" }

// JournalPath returns the journal path.
func (st *Store) JournalPath() string { return st.path + ".journal" }

// Save persists one RunState as the newest generation.
func (st *Store) Save(rs *sim.RunState) error {
	st.seq++
	data, err := Encode(rs, st.seq)
	if err != nil {
		return err
	}
	dir := filepath.Dir(st.path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(st.path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(e error) error {
		tmp.Close()
		os.Remove(tmpName)
		return e
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Roll the current generation out of the way, then publish the new one.
	// Both renames are atomic; a kill between them leaves ".prev" valid.
	if _, err := os.Stat(st.path); err == nil {
		if err := os.Rename(st.path, st.PrevPath()); err != nil {
			os.Remove(tmpName)
			return err
		}
	}
	if err := os.Rename(tmpName, st.path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := atomicio.SyncDir(dir); err != nil {
		return err
	}
	st.journal(rs)
	return nil
}

// journal appends one audit line per successful save. The journal is an
// operator aid (what was checkpointed when), not part of the recovery
// protocol; errors are deliberately not propagated into the run.
func (st *Store) journal(rs *sim.RunState) {
	f, err := os.OpenFile(st.JournalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	line, err := json.Marshal(struct {
		Seq        uint64    `json:"seq"`
		Time       time.Time `json:"time"`
		NextPeriod int       `json:"next_period"`
		Scheduler  string    `json:"scheduler"`
	}{st.seq, time.Now().UTC(), rs.NextPeriod, rs.SchedulerName})
	if err != nil {
		return
	}
	w.Write(line)
	w.WriteByte('\n')
	w.Flush()
}

// Load reads the newest valid generation: the checkpoint path first, the
// previous generation if the newest is missing or torn. It returns the
// state, the header it was stored under, and whether the previous
// generation had to be used.
func (st *Store) Load() (*sim.RunState, Header, bool, error) {
	rs, hdr, errCur := st.loadOne(st.path)
	if errCur == nil {
		return rs, hdr, false, nil
	}
	rs, hdr, errPrev := st.loadOne(st.PrevPath())
	if errPrev == nil {
		return rs, hdr, true, nil
	}
	return nil, Header{}, false, fmt.Errorf("ckpt: no loadable checkpoint at %s (%w; prev: %v)",
		st.path, errCur, errPrev)
}

func (st *Store) loadOne(path string) (*sim.RunState, Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, err
	}
	return Decode(data)
}

// Sink returns the Save method in the shape sim.RunOptions.Sink expects.
func (st *Store) Sink() func(*sim.RunState) error {
	return st.Save
}

// Throttle returns a sim.RunOptions.Gate passing at most once per min of
// wall time. Skipping a checkpoint never changes simulation results — it
// only coarsens the resume point — so gating bounds the checkpoint
// overhead (state capture plus the fsync pair of Save) to a fixed cost
// per wall-clock interval, independent of how fast the simulation runs.
// The engine bypasses the gate for the final flush on cancellation.
func Throttle(min time.Duration) func() bool {
	var last time.Time
	return func() bool {
		if !last.IsZero() && time.Since(last) < min {
			return false
		}
		last = time.Now()
		return true
	}
}
