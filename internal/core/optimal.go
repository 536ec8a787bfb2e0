package core

import (
	"fmt"

	"solarsched/internal/sim"
	"solarsched/internal/solar"
)

// Optimal is the static optimal scheduler of §4.2: the long-term DP run
// once over the *true* solar trace, then replayed. The paper uses it both
// as the upper bound ("Optimal" in Figures 8 and 9) and as the source of
// ANN training samples.
type Optimal struct {
	stages    *FineStages
	plan      PlanResult
	decisions []Decision
}

// NewOptimal plans the whole trace. The trace's time base must match the
// configuration's.
func NewOptimal(pc PlanConfig, tr *solar.Trace) (*Optimal, error) {
	plan, err := PlanTrace(pc, tr)
	if err != nil {
		return nil, err
	}
	return NewOptimalFromPlan(pc, tr, plan)
}

// PlanTrace runs the long-term DP of §4.2 over the whole trace and returns
// the plan. It is plain data (JSON-serializable), so a batch runner can
// compute it once per configuration and replay it into any number of
// Optimal instances via NewOptimalFromPlan.
func PlanTrace(pc PlanConfig, tr *solar.Trace) (PlanResult, error) {
	if err := pc.Validate(); err != nil {
		return PlanResult{}, err
	}
	if tr.Base != pc.Base {
		return PlanResult{}, fmt.Errorf("core: trace base %+v != config base %+v", tr.Base, pc.Base)
	}
	powers := make([][]float64, tr.Base.TotalPeriods())
	for d := 0; d < tr.Base.Days; d++ {
		for p := 0; p < tr.Base.PeriodsPerDay; p++ {
			powers[tr.Base.PeriodIndex(d, p)] = tr.PeriodPowers(d, p)
		}
	}
	return PlanHorizon(NewLUT(pc), powers, 0, 0, pc.Params.VLow), nil
}

// NewOptimalFromPlan wraps a precomputed plan as the replay scheduler
// without re-running the DP. Each call builds its own fine-grained
// stages, so the returned scheduler shares no mutable state with its
// siblings and is safe to run concurrently with them.
func NewOptimalFromPlan(pc PlanConfig, tr *solar.Trace, plan PlanResult) (*Optimal, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	if tr.Base != pc.Base {
		return nil, fmt.Errorf("core: trace base %+v != config base %+v", tr.Base, pc.Base)
	}
	if got, want := len(plan.Decisions), tr.Base.TotalPeriods(); got != want {
		return nil, fmt.Errorf("core: plan covers %d periods, trace has %d", got, want)
	}
	return &Optimal{stages: NewFineStages(pc.Graph, pc.Delta), plan: plan, decisions: plan.Decisions}, nil
}

// Name implements sim.Scheduler.
func (o *Optimal) Name() string { return "optimal" }

// Plan exposes the DP result (decisions, predicted misses, expansions).
func (o *Optimal) Plan() PlanResult { return o.plan }

// Decision returns the planned decision of a flat period index.
func (o *Optimal) Decision(flat int) Decision { return o.decisions[flat] }

// BeginPeriod implements sim.Scheduler: replay the planned capacitor and
// task set for this period.
func (o *Optimal) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	d := o.decisions[v.Base.PeriodIndex(v.Day, v.Period)]
	return sim.PeriodPlan{SwitchTo: d.CapIdx, Migrate: true, Allowed: d.Te}
}

// Slot implements sim.Scheduler.
func (o *Optimal) Slot(v *sim.SlotView) []int {
	return o.stages.Pick(o.decisions[v.Base.PeriodIndex(v.Day, v.Period)].Alpha)(v)
}
