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
	Missed      int
	Executed    []bool  // te: tasks that ran at least one slot
	CapConsumed float64 // usable-energy drop of the capacitor (J)
	FinalV      float64
	Delivered   float64 // J delivered to the NVPs
	Harvested   float64 // J of solar input over the period
}

// RunPeriodOnCap simulates one period in isolation: the given capacitor is
// the storage, powers are the slot solar powers, allowed masks the task set
// (nil = all), and policy picks the slot-level execution order. The
// capacitor is mutated; pass a clone to explore hypotheticals. The slots run
// through the engine's own kernel on a one-capacitor bank, so leakage,
// brownout trimming and deadline misses match the full engine exactly.
func RunPeriodOnCap(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {

	k := &slotKernel{
		bank: &supercap.Bank{Caps: []*supercap.Capacitor{cap}},
		ts:   nvp.MustNewSet(g), dt: dt, directEff: directEff, allowed: allowed,
	}
	out := PeriodOutcome{Executed: make([]bool, g.N())}
	startUsable := cap.UsableEnergy()
	sv := &SlotView{Cap: cap, Bank: k.bank, Tasks: k.ts, DirectEff: directEff}
	sv.Base.SlotSeconds = dt
	sv.Base.SlotsPerPeriod = len(powers)
	for slot, solarW := range powers {
		sv.Slot, sv.SolarPower = slot, solarW
		st := k.stepSlot(sv, policy(sv), solarW, slot)
		for _, n := range st.Ran {
			out.Executed[n] = true
		}
		out.Delivered += st.LoadPower * dt
		out.Harvested += solarW * dt
	}
	out.Missed = k.ts.Misses()
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}
