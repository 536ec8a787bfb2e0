package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleState(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated payload": data[:len(data)-5],
		"flipped byte":      append(append([]byte(nil), data[:len(data)-3]...), data[len(data)-3]^0x40, data[len(data)-2], data[len(data)-1]),
		"no header line":    []byte("garbage with no newline"),
		"foreign magic":     []byte(`{"magic":"other","version":1,"payload_bytes":0,"payload_sha256":""}` + "\n"),
		"future version":    []byte(`{"magic":"solarsched-ckpt","version":999,"payload_bytes":0,"payload_sha256":""}` + "\n"),
	}
	for name, d := range cases {
		if _, _, err := Decode(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
