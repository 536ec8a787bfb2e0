package sim_test

import (
	"context"
	"testing"

	"solarsched/internal/core"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// fixedPlan runs one fixed task set under one slot policy.
type fixedPlan struct {
	allowed []bool
	policy  sim.SlotPolicy
}

func (fixedPlan) Name() string { return "fixed-plan" }
func (p fixedPlan) BeginPeriod(*sim.PeriodView) sim.PeriodPlan {
	return sim.PeriodPlan{SwitchTo: -1, Allowed: p.allowed}
}
func (p fixedPlan) Slot(v *sim.SlotView) []int { return p.policy(v) }

// The planner scores a period with a PeriodRunner; the node then runs the
// chosen period through Engine.Run. On one capacitor from the cut-off
// voltage the two must agree exactly, or the DP optimizes a period the
// node never sees.
func TestEnginePlannerAgree(t *testing.T) {
	tb := solar.TimeBase{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: 30, SlotSeconds: 60}
	profiles := map[string]func(slot int) float64{
		"dark":   func(int) float64 { return 0 },
		"bright": func(int) float64 { return 0.09 },
		"ramp":   func(s int) float64 { return 0.004 * float64(s) },
		"patchy": func(s int) float64 { return []float64{0, 0.03, 0.11, 0.006}[s%4] },
	}
	for _, g := range []*task.Graph{task.ECG(), task.WAM(), task.SHM()} {
		masks := [][]bool{nil, make([]bool, g.N()), make([]bool, g.N())}
		for n := range masks[2] {
			masks[2][n] = n%2 == 0
		}
		for name, power := range profiles {
			tr := solar.NewTrace(tb)
			for s := 0; s < tb.SlotsPerPeriod; s++ {
				tr.Set(0, 0, s, power(s))
			}
			for mi, allowed := range masks {
				// α far from and close to 1 select the inter- and
				// intra-task fine stages of §5.2.
				for _, alpha := range []float64{0.1, 1} {
					eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}})
					if err != nil {
						t.Fatal(err)
					}
					policy := core.NewFineStages(g, 0.3).Pick(alpha)
					res, err := eng.Run(context.Background(), fixedPlan{allowed, policy})
					if err != nil {
						t.Fatal(err)
					}
					cap := supercap.New(10, eng.Config().Params) // at VLow, like the engine's bank
					out := sim.NewPeriodRunner(g, tb.SlotSeconds, eng.Config().DirectEff).
						Run(cap, tr.PeriodPowers(0, 0), allowed, policy)
					if res.MissedTasks() != out.Missed || res.FinalStored != cap.UsableEnergy() ||
						res.Delivered != out.Delivered {
						t.Errorf("%s/%s/mask%d/α=%v: engine misses %d stored %v delivered %v; planner %d, %v, %v",
							g.Name, name, mi, alpha, res.MissedTasks(), res.FinalStored, res.Delivered,
							out.Missed, cap.UsableEnergy(), out.Delivered)
					}
				}
			}
		}
	}
}
