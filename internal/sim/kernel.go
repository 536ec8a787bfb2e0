package sim

import (
	"fmt"
	"math"

	"solarsched/internal/nvp"
	"solarsched/internal/supercap"
)

// SlotStats is the energy ledger of one executed slot.
type SlotStats struct {
	// Ran lists the tasks that actually executed. It may alias the
	// kernel's scratch: callers that keep it past the slot copy it.
	Ran            []int
	Trimmed        int     // runnable tasks dropped on brownout
	LoadPower      float64 // W delivered to the NVPs
	SurplusOffered float64 // J offered to the capacitor input
	Stored         float64 // J actually stored (after η_chr·η_cycle and spill)
	DrawnOut       float64 // J delivered by the capacitor output
	Leaked         float64 // J lost to self-discharge across the whole bank
}

// slotKernel is the slot-level energy model of eqs. (1)–(5). Engine.run
// and the planner's PeriodRunner both execute their slots through it —
// the planner on a one-capacitor bank — so the offline optimizer scores
// candidate periods with exactly the physics the node runs online.
type slotKernel struct {
	bank      *supercap.Bank
	ts        *nvp.Set
	dt        float64
	directEff float64
	allowed   []bool         // the period's task mask; nil permits every task
	speeds    SpeedScheduler // nil runs every task at full speed

	order []int     // scratch: the allowed-filtered candidate list
	f     []float64 // scratch: the clamped per-task speeds
}

// stepSlot executes one powered slot (slot is its index in the period).
// Its task half is the policy's order masked and filtered (candidates),
// the run and the deadline check; its energy half is the brownout trim,
// the settlement and the leak. In order, it:
//  1. masks the priority-ordered candidate list with the period's allowed set;
//  2. filters it for readiness and NVP exclusivity;
//  3. asks the SpeedScheduler, if any, for one speed per survivor;
//  4. trims the list from the tail until the direct channel plus the active
//     capacitor can carry the load (brownout: a trimmed NVP simply retains
//     its state);
//  5. runs the survivors;
//  6. draws the deficit from the active capacitor and offers it the surplus;
//  7. leaks every capacitor of the bank;
//  8. fires the deadline misses of the slot boundary.
//
// sv is only handed to the SpeedScheduler. It mutates the bank and the
// task set.
func (k *slotKernel) stepSlot(sv *SlotView, order []int, solarW float64, slot int) SlotStats {
	run := k.candidates(order)
	runnable := len(run)
	var speeds []float64
	if k.speeds != nil {
		speeds = k.clampedSpeeds(k.speeds.Speeds(sv, run), len(run))
	}
	cap := k.bank.Active()
	for len(run) > 0 && !k.carries(cap, k.load(run, speeds), solarW) {
		run = run[:len(run)-1]
	}
	if speeds != nil {
		speeds = speeds[:len(run)]
	}
	st := SlotStats{Ran: run, Trimmed: runnable - len(run)}
	st.LoadPower = k.ts.Run(run, speeds, k.dt)
	settleEnergy(cap, &st, solarW, k.dt, k.directEff)
	st.Leaked = k.endSlot(slot)
	return st
}

// candidates is steps 1–2 of stepSlot: the order masked with the allowed
// set, then filtered for readiness and NVP exclusivity. The result is the
// task set's scratch.
func (k *slotKernel) candidates(order []int) []int {
	if k.allowed != nil {
		order = k.filterAllowed(order)
	}
	return k.ts.FilterRunnable(order)
}

// load is the power (W) the run list draws at the given speeds (nil = full
// speed), summed in list order.
func (k *slotKernel) load(run []int, speeds []float64) float64 {
	load := 0.0
	for i, n := range run {
		p := k.ts.G.Tasks[n].Power
		if speeds != nil {
			f := speeds[i]
			p = p * f * f * f
		}
		load += p
	}
	return load
}

// carries is the brownout test: whether the direct channel plus cap can
// carry a load of loadW watts over one slot of solarW input.
func (k *slotKernel) carries(cap *supercap.Capacitor, loadW, solarW float64) bool {
	directCap := solarW * k.directEff // W available at the load via direct channel
	deficit := (loadW - directCap) * k.dt
	return deficit <= cap.Deliverable()+1e-12
}

// endSlot applies the wall-clock physics every slot ends with, powered or
// not: the whole bank leaks and the deadlines at the slot boundary fire.
// It returns the joules leaked.
func (k *slotKernel) endSlot(slot int) float64 {
	before := bankEnergy(k.bank)
	k.bank.LeakAll(k.dt)
	leaked := before - bankEnergy(k.bank)
	k.ts.CheckDeadlines(float64(slot+1) * k.dt)
	return leaked
}

func (k *slotKernel) filterAllowed(order []int) []int {
	out := k.order[:0]
	for _, n := range order {
		if n >= 0 && n < len(k.allowed) && k.allowed[n] {
			out = append(out, n)
		}
	}
	k.order = out
	return out
}

// clampedSpeeds copies the scheduler's speeds into scratch, clamped to
// [MinDVFSSpeed, 1].
func (k *slotKernel) clampedSpeeds(speeds []float64, n int) []float64 {
	if len(speeds) != n {
		panic(fmt.Sprintf("sim: %d speeds for %d tasks", len(speeds), n))
	}
	out := k.f[:0]
	for _, f := range speeds {
		out = append(out, math.Min(1, math.Max(MinDVFSSpeed, f)))
	}
	k.f = out
	return out
}

// settleEnergy routes the slot's energy: the load draws from the direct
// channel first, the deficit comes from the capacitor, and the remaining
// solar input charges it.
func settleEnergy(cap *supercap.Capacitor, st *SlotStats, solarW, dt, directEff float64) {
	directCap := solarW * directEff
	directUsed := math.Min(st.LoadPower, directCap)
	if deficit := (st.LoadPower - directUsed) * dt; deficit > 1e-15 {
		st.DrawnOut = cap.Discharge(deficit)
	}
	// Solar input power not consumed by the load is offered to the storage
	// channel. The load consumed directUsed/directEff at the panel side.
	surplusW := solarW
	if directEff > 0 {
		surplusW = solarW - directUsed/directEff
	}
	if surplusW > 1e-15 {
		st.SurplusOffered = surplusW * dt
		st.Stored = cap.Charge(st.SurplusOffered)
	}
}

func bankEnergy(b *supercap.Bank) float64 {
	sum := 0.0
	for _, c := range b.Caps {
		sum += c.Energy()
	}
	return sum
}
