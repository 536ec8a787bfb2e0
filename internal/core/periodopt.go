package core

import (
	"math"
	"sort"

	"solarsched/internal/sim"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// ClosedSubsets enumerates every dependence-closed task subset of g as a
// boolean mask: a subset is closed when each member's predecessors are all
// members (constraint (7) makes any other subset wasteful — a dependent
// whose predecessor is excluded can never run). The full and empty sets are
// always included. Masks are returned in ascending popcount order.
func ClosedSubsets(g *task.Graph) [][]bool {
	n := g.N()
	if n > 16 {
		panic("core: ClosedSubsets limited to 16 tasks")
	}
	var out [][]bool
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, e := range g.Edges {
			if m&(1<<uint(e.To)) != 0 && m&(1<<uint(e.From)) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		mask := make([]bool, n)
		for i := 0; i < n; i++ {
			mask[i] = m&(1<<uint(i)) != 0
		}
		out = append(out, mask)
	}
	sort.SliceStable(out, func(a, b int) bool {
		return popcount(out[a]) < popcount(out[b])
	})
	return out
}

func popcount(mask []bool) int {
	c := 0
	for _, b := range mask {
		if b {
			c++
		}
	}
	return c
}

// Option is one entry of the paper's LUT (eq. (13)): a feasible period
// outcome for a given capacitor, start voltage and solar profile — the
// executed-task set te, the pattern index α, the misses it costs and the
// capacitor energy it consumes.
type Option struct {
	Misses      int
	Te          []bool  // the allowed (and thus executed-intent) task set
	Alpha       float64 // eq. (18) index for the fine-grained stage choice
	CapConsumed float64 // E^c of eq. (15); negative = net charge
	FinalV      float64
}

// periodEval is the reused state behind LUT.PeriodOptions: the graph's
// closed subsets, enumerated once, each subset's recorded task trajectory,
// and the period runner, capacitor and candidate and Pareto scratch that
// every entry's evaluation shares.
type periodEval struct {
	subsets [][]bool
	runner  *sim.PeriodRunner
	cap     supercap.Capacitor
	cands   []Option
	best    []Option // per miss count, the highest-FinalV candidate
	seen    []bool   // per miss count, whether best holds a candidate

	// The trajectories and α of every subset, recorded against powers.
	// They stay valid while a query's powers are bit-equal to powers: the
	// DP queries every (capacitor, bucket) entry of a new profile in one
	// stretch, so one recording serves them all.
	trajs  []sim.Trajectory
	alphas []float64
	powers []float64
	valid  bool
}

func newPeriodEval(pc PlanConfig) periodEval {
	n := pc.Graph.N()
	subsets := ClosedSubsets(pc.Graph)
	return periodEval{
		subsets: subsets,
		runner:  sim.NewPeriodRunner(pc.Graph, pc.Base.SlotSeconds, pc.DirectEff),
		best:    make([]Option, n+1),
		seen:    make([]bool, n+1),
		trajs:   make([]sim.Trajectory, len(subsets)),
		alphas:  make([]float64, len(subsets)),
	}
}

// PeriodOptions simulates every dependence-closed subset of the graph over
// one period (slot powers `powers`) on capacitor capIdx starting at voltage
// v0, using the §5.2 fine-grained stage selected by each subset's α. It
// returns the Pareto frontier: for each achievable miss count the option
// with the highest final voltage (equivalently the lowest consumed energy),
// sorted by misses ascending.
//
// This is the inner optimization of §4.2 (eqs. (15)–(17)); with N ≤ 8 tasks
// the 2^N enumeration is exact — the paper's O(2^(N·Ns)) search collapsed
// by the observation that within a period only the task *set* matters once
// the fine-grained stage is fixed.
//
// Each subset's task side is recorded once per distinct powers and replayed
// on this entry's capacitor (sim.PeriodRunner.Replay): only the energy
// physics runs until the first brownout trim, and the kernel finishes the
// period from there. The result is bit-identical to simulating every subset
// from scratch.
//
// The subsets, the stages, the period runner and the capacitor are the
// table's own and are reused by every call. So every option's Te is one of
// the table's subset masks, shared by all its entries and by the Decision.Te
// and sim.PeriodPlan.Allowed built from them. Nothing writes to an
// Option.Te, a Decision.Te or a PeriodPlan.Allowed in place, and nothing
// may: copy a mask before changing it.
func (l *LUT) PeriodOptions(capIdx int, v0 float64, powers []float64) []Option {
	pc, e := l.pc, &l.eval
	if !e.recordedFor(powers) {
		e.record(l, powers)
	}
	e.cap = supercap.Capacitor{C: pc.Capacitances[capIdx], P: pc.Params}
	cands := e.cands[:0]
	replayed := 0
	for i, te := range e.subsets {
		alpha := e.alphas[i]
		e.cap.V = v0
		out := e.runner.Replay(&e.trajs[i], &e.cap, powers, te, l.stages.Pick(alpha))
		replayed += out.Replayed
		cands = append(cands, Option{
			Misses:      out.Missed,
			Te:          te,
			Alpha:       alpha,
			CapConsumed: out.CapConsumed,
			FinalV:      out.FinalV,
		})
	}
	e.cands = cands
	l.mReplaySlots.Add(float64(replayed))
	l.mKernelSlots.Add(float64(len(e.subsets)*len(powers) - replayed))
	return e.paretoFront(cands)
}

// recordedFor reports whether the trajectories were recorded against
// slot powers bit-equal to powers.
func (e *periodEval) recordedFor(powers []float64) bool {
	if !e.valid || len(powers) != len(e.powers) {
		return false
	}
	for i, p := range powers {
		if math.Float64bits(p) != math.Float64bits(e.powers[i]) {
			return false
		}
	}
	return true
}

// record re-records every subset's trajectory and α against powers.
func (e *periodEval) record(l *LUT, powers []float64) {
	g := l.pc.Graph
	harvest := 0.0
	for _, p := range powers {
		harvest += p
	}
	harvest *= l.pc.Base.SlotSeconds
	for i, te := range e.subsets {
		e.alphas[i] = Alpha(g, te, harvest)
		e.runner.Record(&e.trajs[i], powers, te, l.stages.Pick(e.alphas[i]))
	}
	e.powers = append(e.powers[:0], powers...)
	e.valid = true
	l.mRecords.Add(float64(len(e.subsets)))
}

// paretoFront keeps, for each miss count, the option with the highest
// final voltage (the first on ties), then drops options dominated by a
// cheaper-or-equal option with fewer misses. The result is freshly
// allocated: the LUT keeps it.
func (e *periodEval) paretoFront(options []Option) []Option {
	clear(e.seen)
	for _, o := range options {
		if !e.seen[o.Misses] || o.FinalV > e.best[o.Misses].FinalV {
			e.best[o.Misses], e.seen[o.Misses] = o, true
		}
	}
	// Compact the kept options to the front of best; kept ≤ m, so no
	// unread slot is overwritten.
	kept := 0
	bestV := -1.0
	for m, ok := range e.seen {
		// An option with more misses must buy strictly more final energy to
		// be worth keeping.
		if ok && e.best[m].FinalV > bestV {
			e.best[kept] = e.best[m]
			kept++
			bestV = e.best[m].FinalV
		}
	}
	return append([]Option(nil), e.best[:kept]...)
}
