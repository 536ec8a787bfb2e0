package nvp

import (
	"fmt"
	"math"
	"testing"

	"solarsched/internal/rng"
	"solarsched/internal/task"
)

func scaledGraph() *task.Graph {
	return task.NewGraph("sg", []task.Task{
		{ID: 0, Name: "a", ExecTime: 120, Power: 0.040, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.020, Deadline: 1800, NVP: 1},
	}, nil, 2)
}

func TestRunScaledProgressAndPower(t *testing.T) {
	s := MustNewSet(scaledGraph())
	p := s.Run([]int{0, 1}, []float64{0.5, 1.0}, 60)
	if s.Remaining(0) != 90 {
		t.Fatalf("half-speed remaining = %v, want 90", s.Remaining(0))
	}
	if s.Remaining(1) != 0 {
		t.Fatalf("full-speed remaining = %v, want 0", s.Remaining(1))
	}
	want := 0.040*0.125 + 0.020 // 0.5³ and 1³
	if d := p - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("power = %v, want %v", p, want)
	}
}

func TestRunScaledClampsAtZero(t *testing.T) {
	s := MustNewSet(scaledGraph())
	s.Run([]int{1}, []float64{1}, 1e6)
	if s.Remaining(1) != 0 {
		t.Fatal("remaining went negative")
	}
}

func TestRunScaledPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	MustNewSet(scaledGraph()).Run([]int{0, 1}, []float64{1}, 60)
}

func TestRunScaledPanicsOnBadSpeed(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("speed %v accepted", f)
				}
			}()
			MustNewSet(scaledGraph()).Run([]int{0}, []float64{f}, 60)
		}()
	}
}

// The reference for Run: the separate full-speed and DVFS paths it
// replaced, kept verbatim apart from their names.

func (s *Set) refRun(selected []int, dt float64) (loadPower float64) {
	for _, n := range selected {
		s.remaining[n] -= dt
		if s.remaining[n] < 0 {
			s.remaining[n] = 0
		}
		loadPower += s.G.Tasks[n].Power
	}
	return loadPower
}

func (s *Set) refRunScaled(selected []int, speeds []float64, powerExp, dt float64) (loadPower float64) {
	if len(selected) != len(speeds) {
		panic(fmt.Sprintf("nvp: %d tasks but %d speeds", len(selected), len(speeds)))
	}
	for i, n := range selected {
		f := speeds[i]
		if f <= 0 || f > 1 {
			panic(fmt.Sprintf("nvp: speed %v out of (0,1]", f))
		}
		s.remaining[n] -= f * dt
		if s.remaining[n] < 0 {
			s.remaining[n] = 0
		}
		loadPower += s.G.Tasks[n].Power * refPow(f, powerExp)
	}
	return loadPower
}

func refPow(base, exp float64) float64 {
	switch exp {
	case 1:
		return base
	case 2:
		return base * base
	case 3:
		return base * base * base
	}
	out := 1.0
	for i := 0; i < int(exp); i++ {
		out *= base
	}
	return out
}

// Run with nil speeds must equal the former full-speed path, and with
// speeds the former DVFS path at the cube law, bit for bit.
func TestRunMatchesReference(t *testing.T) {
	src := rng.New(7)
	for round := 0; round < 500; round++ {
		n := 1 + src.Intn(8)
		tasks := make([]task.Task, n)
		for i := range tasks {
			tasks[i] = task.Task{ID: i, ExecTime: src.Range(1, 600),
				Power: src.Range(0.001, 0.08), Deadline: 1800, NVP: i}
		}
		g := task.NewGraph("ref", tasks, nil, n)
		got, want := MustNewSet(g), MustNewSet(g)
		sel := src.Perm(n)[:1+src.Intn(n)]
		dt := src.Range(1, 120)
		var speeds []float64
		if src.Bool(0.5) {
			for range sel {
				speeds = append(speeds, 1-src.Float64())
			}
		}
		p := got.Run(sel, speeds, dt)
		var q float64
		if speeds == nil {
			q = want.refRun(sel, dt)
		} else {
			q = want.refRunScaled(sel, speeds, 3, dt)
		}
		if math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("round %d: load %v, reference %v", round, p, q)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got.Remaining(i)) != math.Float64bits(want.Remaining(i)) {
				t.Fatalf("round %d: task %d remaining %v, reference %v", round, i, got.Remaining(i), want.Remaining(i))
			}
		}
	}
}
