package nvp

import (
	"testing"

	"solarsched/internal/task"
)

func TestSetStateRoundTrip(t *testing.T) {
	g := task.ECG()
	live := MustNewSet(g)
	live.Run(live.FilterRunnable([]int{0, 1, 2}), nil, 30)
	live.CheckDeadlines(g.Tasks[0].Deadline + 1)

	restored := MustNewSet(g)
	if err := restored.Restore(live.State()); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.N(); n++ {
		if live.Remaining(n) != restored.Remaining(n) {
			t.Fatalf("task %d remaining %v != %v", n, live.Remaining(n), restored.Remaining(n))
		}
		if live.Missed(n) != restored.Missed(n) {
			t.Fatalf("task %d missed %v != %v", n, live.Missed(n), restored.Missed(n))
		}
	}
	if live.Misses() != restored.Misses() {
		t.Fatalf("misses %d != %d", live.Misses(), restored.Misses())
	}
}

func TestSetRestoreRejectsShapeMismatch(t *testing.T) {
	s := MustNewSet(task.ECG())
	st := MustNewSet(task.WAM()).State()
	if len(st.Remaining) == len(s.State().Remaining) {
		t.Skip("benchmarks have equal task counts; mismatch not exercised")
	}
	if err := s.Restore(st); err == nil {
		t.Fatal("restore with wrong task count accepted")
	}
}

// SaveTo/RestoreFrom round-trip the state through caller scratch without
// allocating, and a later change to the set leaves the saved copy intact.
func TestSetSaveToRestoreFrom(t *testing.T) {
	g := task.ECG()
	live := MustNewSet(g)
	live.Run(live.FilterRunnable([]int{0, 1, 2}), nil, 30)
	live.CheckDeadlines(g.Tasks[0].Deadline + 1)
	want := live.State()

	rem, missed := make([]float64, g.N()), make([]bool, g.N())
	if a := testing.AllocsPerRun(10, func() { live.SaveTo(rem, missed) }); a != 0 {
		t.Fatalf("SaveTo: %v allocs", a)
	}
	live.ResetPeriod()
	live.RestoreFrom(rem, missed)
	got := live.State()
	for n := 0; n < g.N(); n++ {
		if got.Remaining[n] != want.Remaining[n] || got.Missed[n] != want.Missed[n] {
			t.Fatalf("task %d: remaining %v/%v missed %v/%v", n,
				got.Remaining[n], want.Remaining[n], got.Missed[n], want.Missed[n])
		}
	}
}
