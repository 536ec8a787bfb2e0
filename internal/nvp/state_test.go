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
