package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"solarsched/internal/obs"
	"solarsched/internal/rng"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// The slow reference: the period optimizer as it was before the LUT
// hoisted its set-up. Every call re-enumerates the closed subsets, and every
// subset gets a fresh policy, capacitor and period simulation. The code is
// verbatim apart from the ref names; refRunPeriodOnCap is a fresh
// PeriodRunner per call, which FuzzSlotKernel holds to the pre-kernel
// period loop. FuzzPeriodOptions holds LUT.PeriodOptions to it bit for bit.

func refFinePolicy(g *task.Graph, alpha, delta float64) sim.SlotPolicy {
	if math.Abs(1-alpha) > delta {
		return sched.CheapestFirstPolicy(g)
	}
	return sched.NewIntraMatch(g).Policy()
}

func refRunPeriodOnCap(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy sim.SlotPolicy, dt, directEff float64) sim.PeriodOutcome {
	return sim.NewPeriodRunner(g, dt, directEff).Run(cap, powers, allowed, policy)
}

func refPeriodOptions(capC, v0 float64, powers []float64, pc PlanConfig) []Option {
	g := pc.Graph
	dt := pc.Base.SlotSeconds
	harvest := 0.0
	for _, p := range powers {
		harvest += p
	}
	harvest *= dt

	subsets := ClosedSubsets(g)
	options := make([]Option, 0, len(subsets))
	for _, te := range subsets {
		alpha := Alpha(g, te, harvest)
		policy := refFinePolicy(g, alpha, pc.Delta)
		cap_ := supercap.New(capC, pc.Params)
		cap_.V = v0
		out := refRunPeriodOnCap(cap_, powers, g, te, policy, dt, pc.DirectEff)
		options = append(options, Option{
			Misses:      out.Missed,
			Te:          te,
			Alpha:       alpha,
			CapConsumed: out.CapConsumed,
			FinalV:      out.FinalV,
		})
	}
	return refParetoByMissesEnergy(options)
}

func refParetoByMissesEnergy(options []Option) []Option {
	bestAt := map[int]Option{}
	for _, o := range options {
		cur, ok := bestAt[o.Misses]
		if !ok || o.FinalV > cur.FinalV {
			bestAt[o.Misses] = o
		}
	}
	misses := make([]int, 0, len(bestAt))
	for m := range bestAt {
		misses = append(misses, m)
	}
	sort.Ints(misses)
	out := make([]Option, 0, len(misses))
	bestV := -1.0
	for _, m := range misses {
		o := bestAt[m]
		// An option with more misses must buy strictly more final energy to
		// be worth keeping.
		if o.FinalV > bestV {
			out = append(out, o)
			bestV = o.FinalV
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffOptions(got, want []Option) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d options, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Misses != w.Misses || !slices.Equal(g.Te, w.Te) || !sameBits(g.Alpha, w.Alpha) ||
			!sameBits(g.CapConsumed, w.CapConsumed) || !sameBits(g.FinalV, w.FinalV) {
			return fmt.Sprintf("option %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// randomPlanConfig draws a feasible DAG of up to 8 tasks on random NVPs and
// a bank of 1–3 capacitors, over one 30-slot period of 60 s.
func randomPlanConfig(src *rng.Source, nTasks int) PlanConfig {
	n := 1 + nTasks%8
	nvps := 1 + src.Intn(n)
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			ID: i, Name: fmt.Sprintf("t%d", i),
			ExecTime: src.Range(10, 220), // a chain of 8 fits the period
			Power:    src.Range(0.001, 0.08),
			NVP:      src.Intn(nvps),
		}
	}
	var edges []task.Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if src.Bool(0.25) {
				edges = append(edges, task.Edge{From: a, To: b})
			}
		}
	}
	tb := solar.TimeBase{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: 30, SlotSeconds: 60}
	period := tb.PeriodSeconds()
	g := task.NewGraph("fuzz", tasks, edges, nvps)
	finish, err := g.EarliestFinish()
	if err != nil {
		panic(err)
	}
	for i := range g.Tasks {
		g.Tasks[i].Deadline = src.Range(finish[i], period)
	}
	caps := make([]float64, 1+src.Intn(3))
	for i := range caps {
		caps[i] = src.Range(0.5, 50)
	}
	pc := DefaultPlanConfig(g, tb, caps)
	pc.Delta = src.Range(0, 1)
	return pc
}

// randomPowers draws one period of slot powers: all dark, all surplus (more
// than every task together draws) or mixed.
func randomPowers(src *rng.Source, pc PlanConfig) []float64 {
	powers := make([]float64, pc.Base.SlotsPerPeriod)
	switch src.Intn(4) {
	case 0: // dark
	case 1:
		for i := range powers {
			powers[i] = src.Range(0.6, 1)
		}
	default:
		for i := range powers {
			if src.Bool(0.7) {
				powers[i] = src.Range(0, 0.15)
			}
		}
	}
	return powers
}

func checkPeriodOptions(t *testing.T, seed uint64, nTasks uint8) {
	t.Helper()
	src := rng.New(seed)
	pc := randomPlanConfig(src, int(nTasks))
	l := NewLUT(pc)
	// Several powers vectors on one table, each shared by several entries:
	// the first entry of a vector records every subset's trajectory, the
	// rest replay it, whole or up to a mid-period resume, and the next
	// vector invalidates it. The reused runner, capacitor, stages and
	// trajectories must carry nothing from one entry to the next.
	var powers []float64
	for p := 0; p < 3; p++ {
		if p < 2 {
			powers = randomPowers(src, pc)
		} else {
			// The last vector rewritten in place, as a caller's reused
			// buffer would be: the table must compare values, not slices.
			copy(powers, randomPowers(src, pc))
		}
		for e := 0; e < 4; e++ {
			capIdx := src.Intn(len(pc.Capacitances))
			v0 := src.Range(pc.Params.VLow, pc.Params.VHigh)
			switch e {
			case 0:
				v0 = pc.Params.VLow
			case 1:
				v0 = pc.Params.VHigh
			}
			got := l.PeriodOptions(capIdx, v0, powers)
			want := refPeriodOptions(pc.Capacitances[capIdx], v0, powers, pc)
			if d := diffOptions(got, want); d != "" {
				t.Fatalf("powers %d entry %d (cap %d, v0 %v): %s", p, e, capIdx, v0, d)
			}
		}
	}
}

// FuzzPeriodOptions checks the LUT's period optimizer against the slow
// reference bit for bit: misses, Te, α, consumed energy and final voltage
// of every Pareto option.
func FuzzPeriodOptions(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed, uint8(seed*5))
	}
	f.Fuzz(checkPeriodOptions)
}

// The paper's workloads on the evaluation configuration.
func TestPeriodOptionsMatchesReference(t *testing.T) {
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		pc, tr := testConfig(g, 1)
		l := NewLUT(pc)
		for p := 0; p < tr.Base.PeriodsPerDay; p += 5 {
			powers := tr.PeriodPowers(0, p)
			for c := range pc.Capacitances {
				for _, v0 := range []float64{pc.Params.VLow, 2.2, pc.Params.VHigh} {
					got := l.PeriodOptions(c, v0, powers)
					want := refPeriodOptions(pc.Capacitances[c], v0, powers, pc)
					if d := diffOptions(got, want); d != "" {
						t.Fatalf("%s period %d cap %d v0 %v: %s", g.Name, p, c, v0, d)
					}
				}
			}
		}
	}
}

// allocConfig is the evaluation configuration of g with the period split
// into the given number of slots.
func allocConfig(g *task.Graph, slots int) (PlanConfig, []float64) {
	tb := solar.TimeBase{Days: 1, PeriodsPerDay: 48, SlotsPerPeriod: slots, SlotSeconds: 1800 / float64(slots)}
	pc := DefaultPlanConfig(g, tb, []float64{2, 10, 50})
	powers := make([]float64, slots)
	for i := range powers {
		powers[i] = 0.004 * float64(i%7) // partly matched, partly short
	}
	return pc, powers
}

// Building a LUT entry allocates per entry, never per slot: the count is
// the same at 30 and at 60 slots per period.
func TestPeriodOptionsAllocsIndependentOfSlots(t *testing.T) {
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		var allocs [2]float64
		for i, slots := range []int{30, 60} {
			pc, powers := allocConfig(g, slots)
			l := NewLUT(pc)
			allocs[i] = testing.AllocsPerRun(20, func() { l.PeriodOptions(1, 2.4, powers) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocs per entry at 30 slots, %v at 60", g.Name, allocs[0], allocs[1])
		}
	}
}

// A whole period on the runner, and so every slot of it, allocates nothing
// under either fine-grained stage.
func TestPeriodRunnerAllocatesNothing(t *testing.T) {
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		pc, powers := allocConfig(g, 30)
		stages := NewFineStages(g, pc.Delta)
		runner := sim.NewPeriodRunner(g, pc.Base.SlotSeconds, pc.DirectEff)
		cap := supercap.New(10, pc.Params)
		for _, alpha := range []float64{100, 1} {
			policy := stages.Pick(alpha)
			allocs := testing.AllocsPerRun(20, func() {
				cap.V = 2.4
				runner.Run(cap, powers, nil, policy)
			})
			if allocs != 0 {
				t.Errorf("%s α=%v: %v allocs per period", g.Name, alpha, allocs)
			}
		}
	}
}

// A replay allocates nothing either: not on physics alone, and not when it
// resumes the kernel mid-period. The empty capacitor makes the dark slots
// trim and the full one carries most of the period.
func TestPeriodRunnerReplayAllocatesNothing(t *testing.T) {
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		pc, powers := allocConfig(g, 30)
		stages := NewFineStages(g, pc.Delta)
		runner := sim.NewPeriodRunner(g, pc.Base.SlotSeconds, pc.DirectEff)
		cap := supercap.New(10, pc.Params)
		var tr sim.Trajectory
		for _, alpha := range []float64{100, 1} {
			policy := stages.Pick(alpha)
			runner.Record(&tr, powers, nil, policy)
			for _, v0 := range []float64{pc.Params.VLow, 2.4, pc.Params.VHigh} {
				allocs := testing.AllocsPerRun(20, func() {
					cap.V = v0
					runner.Replay(&tr, cap, powers, nil, policy)
				})
				if allocs != 0 {
					t.Errorf("%s α=%v v0=%v: %v allocs per replay", g.Name, alpha, v0, allocs)
				}
			}
		}
	}
}

// The table's work counters: one recording per subset and powers vector,
// and every simulated slot counted once, by the kernel or by a replay.
func TestPeriodOptionsCountsSlotsByPath(t *testing.T) {
	g := task.ECG()
	pc, tr := testConfig(g, 1)
	reg := obs.NewRegistry()
	pc.Observer = reg
	l := NewLUT(pc)
	subsets := float64(len(ClosedSubsets(g)))
	entries := 0.0
	for _, p := range []int{10, 24, 40} {
		powers := tr.PeriodPowers(0, p)
		for c := range pc.Capacitances {
			for _, v0 := range []float64{pc.Params.VLow, 2.2, pc.Params.VHigh} {
				l.PeriodOptions(c, v0, powers)
				entries++
			}
		}
	}
	kernel := reg.Counter("core_period_slots_total", obs.L("path", "kernel")).Value()
	replay := reg.Counter("core_period_slots_total", obs.L("path", "replay")).Value()
	if records := reg.Counter("core_trajectory_records_total").Value(); records != 3*subsets {
		t.Errorf("%v recordings, want %v", records, 3*subsets)
	}
	if want := entries * subsets * float64(pc.Base.SlotsPerPeriod); kernel+replay != want || kernel == 0 || replay == 0 {
		t.Errorf("slots: %v kernel + %v replay, want %v in total from both", kernel, replay, want)
	}
}
