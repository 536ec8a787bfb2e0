package sim

import (
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
	// runner's scratch, valid until its next Run.
	Executed    []bool
	CapConsumed float64 // usable-energy drop of the capacitor (J)
	FinalV      float64
	Delivered   float64 // J delivered to the NVPs
	Harvested   float64 // J of solar input over the period
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
	k, sv := &r.k, &r.sv
	r.bank.Caps[0] = cap
	k.ts.ResetPeriod()
	k.allowed = allowed
	clear(r.executed)
	sv.Cap = cap
	sv.Base.SlotsPerPeriod = len(powers)

	out := PeriodOutcome{Executed: r.executed}
	startUsable := cap.UsableEnergy()
	for slot, solarW := range powers {
		sv.Slot, sv.SolarPower = slot, solarW
		st := k.stepSlot(sv, policy(sv), solarW, slot)
		for _, n := range st.Ran {
			out.Executed[n] = true
		}
		out.Delivered += st.LoadPower * k.dt
		out.Harvested += solarW * k.dt
	}
	out.Missed = k.ts.Misses()
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}
