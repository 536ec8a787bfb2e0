package sim

import (
	"slices"

	"solarsched/internal/nvp"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// PeriodOutcome summarizes one simulated period on a single capacitor —
// the quantities the offline optimizer of §4.2 needs: the misses, the
// executed-task set te_{i,j}(n) (eq. (17)), and the super-capacitor energy
// consumed E^c_{i,j} (eq. (15), negative when the period charged the
// capacitor on net).
type PeriodOutcome struct {
	Missed int
	// Executed (te) marks the tasks that ran at least one slot. It is the
	// runner's scratch, valid until its next Run or Replay.
	Executed    []bool
	CapConsumed float64 // usable-energy drop of the capacitor (J)
	FinalV      float64
	Delivered   float64 // J delivered to the NVPs
	Harvested   float64 // J of solar input over the period
	// Replayed counts the leading slots Replay settled from the trajectory
	// on the energy physics alone; the remaining slots ran through the
	// kernel. Run replays none.
	Replayed int
}

// PeriodRunner simulates periods in isolation on one capacitor — the
// planner's scoring loop. The slots run through the engine's own kernel on
// a one-capacitor bank, so leakage, brownout trimming and deadline misses
// match the full engine exactly. A runner keeps its kernel, bank, task
// state and slot view across runs, so scoring many candidate periods
// allocates nothing per slot. It is not safe for concurrent use.
type PeriodRunner struct {
	k        slotKernel
	bank     supercap.Bank
	sv       SlotView
	executed []bool
}

// NewPeriodRunner returns a runner for graph g with slots of dt seconds and
// the given direct-channel efficiency.
func NewPeriodRunner(g *task.Graph, dt, directEff float64) *PeriodRunner {
	r := &PeriodRunner{
		k:        slotKernel{ts: nvp.MustNewSet(g), dt: dt, directEff: directEff},
		bank:     supercap.Bank{Caps: make([]*supercap.Capacitor, 1)},
		executed: make([]bool, g.N()),
	}
	r.k.bank = &r.bank
	r.sv = SlotView{Bank: &r.bank, Tasks: r.k.ts, DirectEff: directEff}
	r.sv.Base.SlotSeconds = dt
	return r
}

// Run simulates one period from a fresh task state: cap is the storage,
// powers are the slot solar powers, allowed masks the task set (nil = all),
// and policy picks the slot-level execution order. The capacitor is
// mutated; pass a clone to explore hypotheticals.
func (r *PeriodRunner) Run(cap *supercap.Capacitor, powers []float64, allowed []bool, policy SlotPolicy) PeriodOutcome {
	r.begin(cap, powers, allowed)
	r.k.ts.ResetPeriod()
	clear(r.executed)
	out := PeriodOutcome{}
	startUsable := cap.UsableEnergy()
	r.runFrom(&out, 0, powers, policy)
	return r.finish(out, cap, startUsable)
}

func (r *PeriodRunner) begin(cap *supercap.Capacitor, powers []float64, allowed []bool) {
	r.bank.Caps[0] = cap
	r.k.allowed = allowed
	r.sv.Cap = cap
	r.sv.Base.SlotsPerPeriod = len(powers)
}

// runFrom executes slots from..len(powers) through the kernel.
func (r *PeriodRunner) runFrom(out *PeriodOutcome, from int, powers []float64, policy SlotPolicy) {
	k, sv := &r.k, &r.sv
	for slot := from; slot < len(powers); slot++ {
		solarW := powers[slot]
		sv.Slot, sv.SolarPower = slot, solarW
		st := k.stepSlot(sv, policy(sv), solarW, slot)
		for _, n := range st.Ran {
			r.executed[n] = true
		}
		out.Delivered += st.LoadPower * k.dt
		out.Harvested += solarW * k.dt
	}
}

func (r *PeriodRunner) finish(out PeriodOutcome, cap *supercap.Capacitor, startUsable float64) PeriodOutcome {
	out.Missed = r.k.ts.Misses()
	out.Executed = r.executed
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}

// Trajectory is the task half of one period recorded without brownout
// trimming: per slot, the candidates the policy and the filter passed, their
// full-speed load, and the task state at slot start. The slot policies the
// planner uses read only task state, slot and solar power, never the
// capacitor, so until the first slot that would trim, a period's task side
// is the same on every capacitor and start voltage.
//
// A recording is valid for exactly the (powers, allowed, policy) it was
// recorded with: the caller replays it only against slot powers bit-equal
// to the recorded ones, the same allowed mask and the same policy. It is
// reused across recordings and is not safe for concurrent use.
type Trajectory struct {
	n        int       // tasks per state row
	cands    []int     // per slot: the candidates' count
	load     []float64 // per slot: their full-speed load (W)
	rem      []float64 // per slot: S'_n at slot start, n per row
	missed   []bool    // per slot: miss flags at slot start, n per row
	executed []bool    // per slot and at period end: te so far, n per row
	misses   int       // misses at period end
}

// Record runs the task half of every slot of one period from a fresh task
// state — policy, allowed mask, filter, run, deadline check — with no
// capacitor and so no trimming, and stores it in tr.
func (r *PeriodRunner) Record(tr *Trajectory, powers []float64, allowed []bool, policy SlotPolicy) {
	k, sv := &r.k, &r.sv
	n, slots := k.ts.G.N(), len(powers)
	tr.reset(n, slots)
	r.begin(nil, powers, allowed) // a policy that reads the capacitor fails loudly
	k.ts.ResetPeriod()
	clear(r.executed)
	for slot, solarW := range powers {
		row := slot * n
		k.ts.SaveTo(tr.rem[row:row+n], tr.missed[row:row+n])
		copy(tr.executed[row:row+n], r.executed)
		sv.Slot, sv.SolarPower = slot, solarW
		run := k.candidates(policy(sv))
		tr.cands[slot] = len(run)
		tr.load[slot] = k.ts.Run(run, nil, k.dt)
		for _, t := range run {
			r.executed[t] = true
		}
		k.ts.CheckDeadlines(float64(slot+1) * k.dt)
	}
	copy(tr.executed[slots*n:], r.executed)
	tr.misses = k.ts.Misses()
}

// reset sizes tr for a period of slots slots over n tasks, reusing its
// buffers. Record overwrites every element.
func (tr *Trajectory) reset(n, slots int) {
	tr.n = n
	tr.cands = slices.Grow(tr.cands[:0], slots)[:slots]
	tr.load = slices.Grow(tr.load[:0], slots)[:slots]
	tr.rem = slices.Grow(tr.rem[:0], slots*n)[:slots*n]
	tr.missed = slices.Grow(tr.missed[:0], slots*n)[:slots*n]
	tr.executed = slices.Grow(tr.executed[:0], (slots+1)*n)[:(slots+1)*n]
}

// Replay simulates the period Run would on cap, given tr recorded by Record
// for the same powers, allowed mask and policy. While the recorded load
// passes the kernel's own brownout test on this capacitor, a slot runs only
// the energy physics — settlement and leak; at the first slot that would
// trim, it restores that slot's recorded task state and finishes the period
// through the kernel. The outcome is bit-identical to Run's.
func (r *PeriodRunner) Replay(tr *Trajectory, cap *supercap.Capacitor, powers []float64, allowed []bool, policy SlotPolicy) PeriodOutcome {
	k := &r.k
	out := PeriodOutcome{}
	startUsable := cap.UsableEnergy()
	for slot, solarW := range powers {
		load := tr.load[slot]
		if tr.cands[slot] > 0 && !k.carries(cap, load, solarW) {
			row := slot * tr.n
			r.begin(cap, powers, allowed)
			k.ts.RestoreFrom(tr.rem[row:row+tr.n], tr.missed[row:row+tr.n])
			copy(r.executed, tr.executed[row:row+tr.n])
			out.Replayed = slot
			r.runFrom(&out, slot, powers, policy)
			return r.finish(out, cap, startUsable)
		}
		st := SlotStats{LoadPower: load}
		settleEnergy(cap, &st, solarW, k.dt, k.directEff)
		cap.Leak(k.dt)
		out.Delivered += load * k.dt
		out.Harvested += solarW * k.dt
	}
	out.Replayed = len(powers)
	copy(r.executed, tr.executed[len(powers)*tr.n:])
	out.Missed = tr.misses
	out.Executed = r.executed
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}
