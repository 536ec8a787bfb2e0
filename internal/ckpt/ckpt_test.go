package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarsched/internal/atomicio"
	"solarsched/internal/sim"
	"solarsched/internal/supercap"
)

func sampleState(next int) *sim.RunState {
	return &sim.RunState{
		Version:       sim.RunStateVersion,
		SchedulerName: "inter-lsa",
		ConfigDigest:  "deadbeef",
		NextPeriod:    next,
		Bank: supercap.BankState{
			Caps: []supercap.CapacitorState{
				{C: 10, V: 2.2, P: supercap.DefaultParams()},
			},
		},
		LastEnergy: 1.5,
		Result:     &sim.Result{SchedulerName: "inter-lsa", PeriodMisses: make([]int, next)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rs := sampleState(7)
	data, err := Encode(rs, 42)
	if err != nil {
		t.Fatal(err)
	}
	back, hdr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 42 || hdr.SchedulerName != "inter-lsa" || hdr.NextPeriod != 7 {
		t.Fatalf("header %+v", hdr)
	}
	if back.NextPeriod != rs.NextPeriod || back.ConfigDigest != rs.ConfigDigest ||
		back.LastEnergy != rs.LastEnergy || back.Bank.Caps[0].V != rs.Bank.Caps[0].V {
		t.Fatalf("round trip changed state: %+v", back)
	}
}

// The envelope-level corruption cases live in atomicio's FuzzUnseal;
// these are the checkpoint-specific ones.
func TestDecodeRejectsCorruption(t *testing.T) {
	artifact := atomicio.Envelope{Magic: "solarsched-art", Version: 1, Label: "sizing:00"}
	foreign, err := atomicio.Seal(&atomicio.Bare{Envelope: artifact}, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	undecodable, err := atomicio.Seal(&Header{Envelope: envelope}, []byte(`{"next_period":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"store artifact":      foreign,
		"undecodable payload": undecodable,
	}
	for name, d := range cases {
		if _, _, err := Decode(d); !errors.Is(err, atomicio.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestCheckpointFixture pins the on-disk format: a checkpoint written by
// an earlier build (nodesim run -scheduler inter on wam, bank 2,10) must
// still load, and re-encoding its state must give the same bytes.
func TestCheckpointFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "inter-wam.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	rs, hdr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 191 || hdr.NextPeriod != 191 || hdr.SchedulerName != "inter-task-lsa/wcma" {
		t.Fatalf("header %+v", hdr)
	}
	again, err := Encode(rs, hdr.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded checkpoint differs from the fixture:\n got %.300q\nwant %.300q", again, data)
	}
}

func TestStoreSaveLoadAndRollingPrev(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	st, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Save(sampleState(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.PrevPath()); !os.IsNotExist(err) {
		t.Fatalf("prev generation exists after first save: %v", err)
	}
	if err := st.Save(sampleState(2)); err != nil {
		t.Fatal(err)
	}

	rs, hdr, usedPrev, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if usedPrev {
		t.Fatal("loaded prev although newest is valid")
	}
	if rs.NextPeriod != 2 || hdr.Seq != 2 {
		t.Fatalf("loaded next=%d seq=%d, want 2/2", rs.NextPeriod, hdr.Seq)
	}

	// Tear the newest generation: Load must fall back to prev.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, hdr, usedPrev, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !usedPrev || rs.NextPeriod != 1 || hdr.Seq != 1 {
		t.Fatalf("fallback: usedPrev=%v next=%d seq=%d, want true/1/1", usedPrev, rs.NextPeriod, hdr.Seq)
	}

	// With both generations torn, Load must fail loudly.
	if err := os.WriteFile(st.PrevPath(), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Load(); err == nil {
		t.Fatal("load succeeded with both generations torn")
	}
}

func TestStoreSeqContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	st, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Save(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(sampleState(4)); err != nil {
		t.Fatal(err)
	}
	_, hdr, _, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", hdr.Seq)
	}
}

// A reopened store must continue the sequence from the newest loadable
// generation even when the newest file is gone (a kill between rotating
// it to .prev and publishing the new one) or torn.
func TestStoreSeqMonotonicWhenNewestLost(t *testing.T) {
	cases := map[string]struct {
		lose    func(st *Store) error
		wantSeq uint64
	}{
		"killed mid-rotation": {func(st *Store) error { return os.Rename(st.Path(), st.PrevPath()) }, 5},
		"newest torn":         {func(st *Store) error { return os.WriteFile(st.Path(), []byte("torn"), 0o644) }, 4},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			st, err := NewStore(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 4; i++ {
				if err := st.Save(sampleState(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.lose(st); err != nil {
				t.Fatal(err)
			}
			st2, err := NewStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := st2.Save(sampleState(5)); err != nil {
				t.Fatal(err)
			}
			if _, hdr, _, err := st2.Load(); err != nil || hdr.Seq != tc.wantSeq {
				t.Fatalf("seq after reopen = %d (err %v), want %d", hdr.Seq, err, tc.wantSeq)
			}
		})
	}
}

func TestStoreJournalAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := st.Save(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2:\n%s", len(lines), data)
	}
	for _, l := range lines {
		if !strings.Contains(l, `"scheduler":"inter-lsa"`) {
			t.Fatalf("journal line missing scheduler: %s", l)
		}
	}
}

func TestStoreLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := st.Save(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
