package nvp

import (
	"testing"
	"testing/quick"

	"solarsched/internal/rng"
	"solarsched/internal/task"
)

func twoTaskGraph() *task.Graph {
	tasks := []task.Task{
		{ID: 0, Name: "a", ExecTime: 120, Power: 0.01, Deadline: 600, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.02, Deadline: 1800, NVP: 0},
	}
	return task.NewGraph("two", tasks, []task.Edge{{From: 0, To: 1}}, 1)
}

func TestNewSetFullRemaining(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	if s.Remaining(0) != 120 || s.Remaining(1) != 60 {
		t.Fatalf("remaining = %v, %v", s.Remaining(0), s.Remaining(1))
	}
	if s.Done(0) || s.Missed(0) {
		t.Fatal("fresh set already done/missed")
	}
}

func TestReadyHonorsDependence(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	if !s.Ready(0) {
		t.Fatal("root task not ready")
	}
	if s.Ready(1) {
		t.Fatal("dependent task ready before predecessor done")
	}
	s.Run([]int{0}, nil, 120)
	if !s.Done(0) {
		t.Fatal("task 0 should be done")
	}
	if !s.Ready(1) {
		t.Fatal("dependent task not ready after predecessor done")
	}
}

func TestRunDecrementsAndReportsPower(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	p := s.Run([]int{0}, nil, 60)
	if p != 0.01 {
		t.Fatalf("load power = %v", p)
	}
	if s.Remaining(0) != 60 {
		t.Fatalf("remaining = %v", s.Remaining(0))
	}
	// Over-running clamps at zero.
	s.Run([]int{0}, nil, 1e6)
	if s.Remaining(0) != 0 {
		t.Fatal("remaining went negative")
	}
}

func TestFilterRunnableOneTaskPerNVP(t *testing.T) {
	tasks := []task.Task{
		{ID: 0, Name: "a", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 0},
		{ID: 2, Name: "c", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 1},
	}
	g := task.NewGraph("three", tasks, nil, 2)
	s := MustNewSet(g)
	got := s.FilterRunnable([]int{1, 0, 2})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterRunnable = %v, want [1 2]", got)
	}
}

func TestFilterRunnableSkipsDoneAndMissed(t *testing.T) {
	g := twoTaskGraph()
	s := MustNewSet(g)
	s.Run([]int{0}, nil, 120) // finish task 0
	if got := s.FilterRunnable([]int{0, 1}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FilterRunnable = %v, want [1]", got)
	}
	s.CheckDeadlines(1800) // task 1 unfinished at its deadline
	if got := s.FilterRunnable([]int{1}); len(got) != 0 {
		t.Fatalf("missed task still runnable: %v", got)
	}
}

func TestCheckDeadlines(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	// At t=600 task 0 (deadline 600) has not run: it misses; task 1
	// (deadline 1800) does not.
	newly := s.CheckDeadlines(600)
	if len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("newly missed = %v", newly)
	}
	if !s.Missed(0) || s.Missed(1) {
		t.Fatal("miss flags wrong")
	}
	// A second check does not double-count.
	if again := s.CheckDeadlines(600); len(again) != 0 {
		t.Fatalf("re-check re-reported misses: %v", again)
	}
	if s.Misses() != 1 {
		t.Fatalf("Misses = %d", s.Misses())
	}
}

func TestCompletedTaskNeverMisses(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	s.Run([]int{0}, nil, 120)
	if newly := s.CheckDeadlines(600); len(newly) != 0 {
		t.Fatalf("completed task reported missed: %v", newly)
	}
}

func TestMissedPredecessorBlocksDependent(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	s.CheckDeadlines(600) // task 0 misses and is aborted
	if s.Ready(1) {
		t.Fatal("dependent of a missed task became ready")
	}
	// It will then miss its own deadline too.
	s.CheckDeadlines(1800)
	if s.Misses() != 2 {
		t.Fatalf("Misses = %d, want 2", s.Misses())
	}
}

func TestResetPeriod(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	s.Run([]int{0}, nil, 120)
	s.CheckDeadlines(1800)
	s.ResetPeriod()
	if s.Remaining(0) != 120 || s.Misses() != 0 || s.Done(0) {
		t.Fatal("ResetPeriod did not restore state")
	}
}

func TestPendingEnergy(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	want := 120*0.01 + 60*0.02
	if got := s.PendingEnergy(); got != want {
		t.Fatalf("PendingEnergy = %v, want %v", got, want)
	}
	s.Run([]int{0}, nil, 60)
	if got := s.PendingEnergy(); got != want-0.6 {
		t.Fatalf("PendingEnergy after run = %v", got)
	}
	s.CheckDeadlines(600) // abort task 0
	if got := s.PendingEnergy(); got != 60*0.02 {
		t.Fatalf("PendingEnergy after miss = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := MustNewSet(twoTaskGraph())
	c := s.Clone()
	c.Run([]int{0}, nil, 120)
	if s.Remaining(0) != 120 {
		t.Fatal("Clone shares remaining state")
	}
}

// Property: under random run/check sequences, misses never exceed N, a done
// task never runs again, and remaining times stay in [0, S_n].
func TestStateInvariantsProperty(t *testing.T) {
	g := task.WAM()
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := MustNewSet(g)
		elapsed := 0.0
		for i := 0; i < 50; i++ {
			order := src.Perm(g.N())
			run := s.FilterRunnable(order)
			for _, n := range run {
				if s.Done(n) || s.Missed(n) {
					return false
				}
			}
			s.Run(run, nil, 60)
			elapsed += 60
			s.CheckDeadlines(elapsed)
			for n := range g.Tasks {
				r := s.Remaining(n)
				if r < 0 || r > g.Tasks[n].ExecTime {
					return false
				}
			}
		}
		return s.Misses() <= g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
