// Package nvp tracks the execution state of a task period on the node's
// nonvolatile processors. NVPs (ferroelectric flip-flop processors, the
// paper's refs [13, 14]) retain state across power interruptions with
// microsecond wake-up, so in this model a task can be suspended at any slot
// boundary at zero cost and resumed later — exactly the preemption model of
// §3.1. The Set type maintains the paper's S'_{i,j,m}(n) remaining-time
// variables, dependence readiness, one-task-per-NVP exclusivity and
// deadline-miss bookkeeping (the θ step function of eq. (5)).
package nvp

import (
	"fmt"

	"solarsched/internal/task"
)

// Set is the per-period execution state of a task graph on its NVPs.
// Tasks in one period are independent of other periods (§3.1), so the set
// is reset at every period boundary.
type Set struct {
	G *task.Graph

	remaining []float64 // S'_n, seconds of execution left
	missed    []bool    // θ fired: deadline passed with work remaining

	// Scratch behind FilterRunnable and CheckDeadlines, so the per-slot
	// calls allocate nothing.
	run   []int
	busy  []bool
	newly []int
}

// NewSet returns a fresh execution state with every task's full execution
// time remaining. It returns an error — not a panic — on degenerate input
// (nil graph, no NVPs, or a task bound to an NVP outside the graph's
// range): a fault-injecting simulator must survive bad configs.
func NewSet(g *task.Graph) (*Set, error) {
	if g == nil {
		return nil, fmt.Errorf("nvp: nil graph")
	}
	if g.NumNVPs <= 0 {
		return nil, fmt.Errorf("nvp: graph %q has %d NVPs", g.Name, g.NumNVPs)
	}
	for n, t := range g.Tasks {
		if t.NVP < 0 || t.NVP >= g.NumNVPs {
			return nil, fmt.Errorf("nvp: task %d bound to NVP %d of %d", n, t.NVP, g.NumNVPs)
		}
	}
	s := newSet(g)
	s.ResetPeriod()
	return s, nil
}

func newSet(g *task.Graph) *Set {
	return &Set{
		G:         g,
		remaining: make([]float64, g.N()),
		missed:    make([]bool, g.N()),
		run:       make([]int, 0, g.N()),
		busy:      make([]bool, g.NumNVPs),
		newly:     make([]int, 0, g.N()),
	}
}

// MustNewSet is NewSet for call sites whose graph is already validated
// (planner-local simulations on engine-checked configs); it panics on the
// errors NewSet would return.
func MustNewSet(g *task.Graph) *Set {
	s, err := NewSet(g)
	if err != nil {
		panic(err)
	}
	return s
}

// ResetPeriod starts a new period: all remaining times return to S_n and
// miss flags clear.
func (s *Set) ResetPeriod() {
	for i, t := range s.G.Tasks {
		s.remaining[i] = t.ExecTime
		s.missed[i] = false
	}
}

// Remaining returns S'_n for task n.
func (s *Set) Remaining(n int) float64 { return s.remaining[n] }

// Done reports whether task n has completed this period.
func (s *Set) Done(n int) bool { return s.remaining[n] <= 0 }

// Missed reports whether task n has missed its deadline this period.
func (s *Set) Missed(n int) bool { return s.missed[n] }

// Ready reports whether task n can execute now: not finished, not aborted
// by a deadline miss, and all dependence predecessors completed
// (constraint (7): τ_l starts only when every τ_n with W_{n,l}=1 is done).
func (s *Set) Ready(n int) bool {
	if s.remaining[n] <= 0 || s.missed[n] {
		return false
	}
	for _, p := range s.G.Predecessors(n) {
		if s.remaining[p] > 0 {
			return false
		}
	}
	return true
}

// FilterRunnable takes a priority-ordered candidate list and returns the
// subset that can legally run in one slot: ready tasks only, at most one
// per NVP (constraint (9)), first candidate per NVP wins. The result
// preserves the input order. It is the set's own scratch, valid until the
// next call.
func (s *Set) FilterRunnable(order []int) []int {
	busy := s.busy
	clear(busy)
	out := s.run[:0]
	for _, n := range order {
		if n < 0 || n >= s.G.N() {
			panic(fmt.Sprintf("nvp: task id %d out of range", n))
		}
		if !s.Ready(n) {
			continue
		}
		k := s.G.Tasks[n].NVP
		if busy[k] {
			continue
		}
		busy[k] = true
		out = append(out, n)
	}
	s.run = out
	return out
}

// Run executes the given tasks for one slot of dt seconds (eq. (4)) and
// returns the total load power (W) of the slot. Callers must pass a list
// already filtered by FilterRunnable. A nil speeds runs every task at full
// speed; otherwise speeds holds one DVFS speed f ∈ (0, 1] per task, and
// task n advances f·dt seconds of work while drawing P_n·f³ watts — the
// cube law of voltage-frequency scaling (see internal/dvfs).
func (s *Set) Run(selected []int, speeds []float64, dt float64) (loadPower float64) {
	if speeds != nil && len(selected) != len(speeds) {
		panic(fmt.Sprintf("nvp: %d tasks but %d speeds", len(selected), len(speeds)))
	}
	// Full speed is f = 1 on the same path: 1·dt == dt and P·(1·1·1) == P
	// exactly in IEEE 754, so nil speeds cost no separate loop.
	for i, n := range selected {
		f := 1.0
		if speeds != nil {
			f = speeds[i]
			if f <= 0 || f > 1 {
				panic(fmt.Sprintf("nvp: speed %v out of (0,1]", f))
			}
		}
		s.remaining[n] -= f * dt
		if s.remaining[n] < 0 {
			s.remaining[n] = 0
		}
		loadPower += s.G.Tasks[n].Power * (f * f * f)
	}
	return loadPower
}

// CheckDeadlines fires the θ function at a slot boundary: every task whose
// deadline is at or before elapsed seconds into the period and that still
// has work remaining is marked missed (and aborted). It returns the tasks
// newly missed at this boundary, in the set's own scratch, valid until the
// next call.
func (s *Set) CheckDeadlines(elapsed float64) []int {
	newly := s.newly[:0]
	for n, t := range s.G.Tasks {
		if !s.missed[n] && s.remaining[n] > 0 && t.Deadline <= elapsed+1e-9 {
			s.missed[n] = true
			newly = append(newly, n)
		}
	}
	s.newly = newly
	return newly
}

// Misses returns the number of tasks that have missed their deadline this
// period so far.
func (s *Set) Misses() int {
	c := 0
	for _, m := range s.missed {
		if m {
			c++
		}
	}
	return c
}

// PendingEnergy returns the energy (J) still required to finish every task
// that is neither done nor missed — a lower bound on what the rest of the
// period must supply for a zero-miss finish.
func (s *Set) PendingEnergy() float64 {
	sum := 0.0
	for n, t := range s.G.Tasks {
		if s.remaining[n] > 0 && !s.missed[n] {
			sum += s.remaining[n] * t.Power
		}
	}
	return sum
}

// Clone returns an independent copy of the execution state (for planners).
func (s *Set) Clone() *Set {
	out := newSet(s.G)
	copy(out.remaining, s.remaining)
	copy(out.missed, s.missed)
	return out
}
