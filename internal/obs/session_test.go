package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openSession opens a session whose profiles and metrics land in dir.
func openSession(t *testing.T, dir string) *Session {
	t.Helper()
	f := &Flags{
		CPUProfile: filepath.Join(dir, "cpu.pb.gz"),
		TracePath:  filepath.Join(dir, "exec.trace"),
		MemProfile: filepath.Join(dir, "heap.pb.gz"),
		Metrics:    true,
		Format:     FormatProm,
		Out:        filepath.Join(dir, "metrics.prom"),
		LogFormat:  LogText,
	}
	s, err := f.Open(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionFailingBodyFlushesAndEmits pins Open's one rule: a body that
// fails still leaves a gzip CPU profile, an execution trace and a heap
// profile behind, the metrics are emitted, and the body's error is the
// one returned.
func TestSessionFailingBodyFlushesAndEmits(t *testing.T) {
	ResetDefault()
	dir := t.TempDir()
	boom := errors.New("boom")
	body := func() (err error) {
		s := openSession(t, dir)
		defer s.Close(&err)
		if s.Reg != Default() {
			t.Error("-metrics session does not report to the default registry")
		}
		s.Reg.Counter("session_work_total").Add(3)
		return boom
	}
	if err := body(); err != boom {
		t.Fatalf("body error = %v, want %v", err, boom)
	}
	cpu, err := os.ReadFile(filepath.Join(dir, "cpu.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu) < 2 || cpu[0] != 0x1f || cpu[1] != 0x8b {
		t.Fatalf("CPU profile is not a gzip stream (%d bytes)", len(cpu))
	}
	for _, name := range []string{"exec.trace", "heap.pb.gz"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not flushed: %v", name, err)
		}
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "session_work_total 3") {
		t.Fatalf("metrics not emitted after a failed body:\n%s", prom)
	}
}

// TestSessionCleanupErrorOnlyWhenBodySucceeds: a cleanup failure (here an
// unwritable heap profile path) becomes the error of a successful body
// but never masks the error of a failed one.
func TestSessionCleanupErrorOnlyWhenBodySucceeds(t *testing.T) {
	for _, bodyErr := range []error{nil, errors.New("boom")} {
		f := &Flags{MemProfile: filepath.Join(t.TempDir(), "missing", "heap.pb.gz")}
		s, err := f.Open(false)
		if err != nil {
			t.Fatal(err)
		}
		if s.Reg != nil {
			t.Error("session without -metrics has a registry")
		}
		err = bodyErr
		s.Close(&err)
		if bodyErr != nil && err != bodyErr {
			t.Fatalf("cleanup error %v masked the body's error", err)
		}
		if bodyErr == nil && err == nil {
			t.Fatal("heap profile failure not reported")
		}
	}
}

func TestSessionOpenRejectsLogFormat(t *testing.T) {
	f := &Flags{LogFormat: "xml"}
	if _, err := f.Open(false); !errors.Is(err, ErrLogFormat) {
		t.Fatalf("Open = %v, want ErrLogFormat", err)
	}
}
