package dvfs

import (
	"context"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func smallBase(days int) solar.TimeBase {
	return solar.TimeBase{Days: days, PeriodsPerDay: 4, SlotsPerPeriod: 30, SlotSeconds: 60}
}

func TestLevelFor(t *testing.T) {
	cases := map[float64]float64{
		0.0: 0.25, 0.2: 0.25, 0.25: 0.25, 0.3: 0.5,
		0.6: 0.75, 0.76: 1.0, 1.0: 1.0, 1.5: 1.0,
	}
	for need, want := range cases {
		if got := levelFor(need); got != want {
			t.Errorf("levelFor(%v) = %v, want %v", need, got, want)
		}
	}
}

func TestSlotPacesWithSlack(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(20)
	v := &sim.SlotView{Slot: 0, SolarPower: 0, Tasks: ts, Cap: cap, DirectEff: 0.95}
	v.Base = smallBase(1)
	order := s.Slot(v)
	if len(order) == 0 {
		t.Fatal("paced scheduler offered nothing at slot 0")
	}
	speeds := s.Speeds(v, order)
	// At slot 0 every task has generous slack: everything should be paced
	// below full speed.
	for i, f := range speeds {
		if f >= 1 {
			t.Fatalf("task %d at full speed despite slack (speeds %v)", order[i], speeds)
		}
	}
}

func TestSlotUrgentRunsFullSpeed(t *testing.T) {
	// lpf: S=240, effective deadline 480 − downstream chains. At a slot
	// where remaining/slack > 0.75, the pace must be 1.0.
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(20)
	// lpf's effective deadline: its own 480 shrinks through the chain; at
	// slot 1 (t=60) remaining 240 with eff deadline 480-240-... compute via
	// the schedule itself: find the slot where lpf's pace saturates.
	for slot := 0; slot < 8; slot++ {
		v := &sim.SlotView{Slot: slot, SolarPower: 0, Tasks: ts, Cap: cap, DirectEff: 0.95}
		v.Base = smallBase(1)
		order := s.Slot(v)
		speeds := s.Speeds(v, order)
		for i, n := range order {
			if n == 0 && speeds[i] == 1.0 {
				return // saturated before the deadline: pass
			}
		}
		_ = speeds
	}
	t.Fatal("lpf never reached full speed while starving")
}

func TestBoostWhenCapacitorFull(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(1e6) // slam to V_H
	v := &sim.SlotView{Slot: 0, SolarPower: 0.2, Tasks: ts, Cap: cap, DirectEff: 0.95}
	v.Base = smallBase(1)
	order := s.Slot(v)
	for _, f := range s.Speeds(v, order) {
		if f != 1 {
			t.Fatalf("no boost despite full capacitor: %v", f)
		}
	}
}

func TestSpeedsDefaultsToFull(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	v := &sim.SlotView{}
	speeds := s.Speeds(v, []int{0, 3})
	for _, f := range speeds {
		if f != 1 {
			t.Fatalf("unplanned task speed %v, want 1", f)
		}
	}
}

func TestRunScaledEnergyAdvantage(t *testing.T) {
	// Physics check: half speed does the same work in twice the time for a
	// quarter of the energy.
	g := task.NewGraph("one", []task.Task{
		{ID: 0, Name: "x", ExecTime: 120, Power: 0.040, Deadline: 1800, NVP: 0},
	}, nil, 1)
	full := nvp.MustNewSet(g)
	pFull := full.Run([]int{0}, []float64{1}, 60)
	half := nvp.MustNewSet(g)
	pHalf := half.Run([]int{0}, []float64{0.5}, 60)
	if full.Remaining(0) != 60 || half.Remaining(0) != 90 {
		t.Fatalf("progress wrong: full %v, half %v", full.Remaining(0), half.Remaining(0))
	}
	// Energy per unit work: full = P·dt per dt work; half = P/8·dt per dt/2
	// work → ratio 4.
	perWorkFull := pFull * 60 / 60
	perWorkHalf := pHalf * 60 / 30
	if ratio := perWorkFull / perWorkHalf; ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("energy-per-work ratio %v, want ~4", ratio)
	}
}

// End to end: on the four representative days the DVFS scheduler must not
// be worse than the plain intra-task matcher — pacing stretches the store.
func TestLoadTuneBeatsIntraMatch(t *testing.T) {
	tb := solar.DefaultTimeBase(4)
	tr := solar.RepresentativeDays(tb)
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		runDMR := func(s sim.Scheduler) float64 {
			eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{25}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			return res.DMR()
		}
		intra := runDMR(sched.NewIntraMatch(g))
		tuned := runDMR(NewLoadTune(g))
		if tuned > intra+0.01 {
			t.Errorf("%s: DVFS %.3f worse than intra-task %.3f", g.Name, tuned, intra)
		}
	}
}

// fixedSpeed offers every task each slot and runs them all at speed f.
type fixedSpeed struct{ f float64 }

func (fixedSpeed) Name() string                               { return "fixed-speed" }
func (fixedSpeed) BeginPeriod(*sim.PeriodView) sim.PeriodPlan { return sim.KeepCap }
func (fixedSpeed) Slot(*sim.SlotView) []int                   { return []int{0, 1} }
func (s fixedSpeed) Speeds(_ *sim.SlotView, selected []int) []float64 {
	out := make([]float64, len(selected))
	for i := range out {
		out[i] = s.f
	}
	return out
}

type firstSlot struct{ rec *sim.SlotRecord }

func (r *firstSlot) Record(rec sim.SlotRecord) {
	if r.rec == nil {
		r.rec = &rec
	}
}

func TestExecSlotDVFSTrimsWithSpeeds(t *testing.T) {
	tasks := []task.Task{
		{ID: 0, Name: "hi", ExecTime: 300, Power: 0.020, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "lo", ExecTime: 300, Power: 0.020, Deadline: 1800, NVP: 1},
	}
	g := task.NewGraph("pair", tasks, nil, 2)
	tb := solar.TimeBase{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: 30, SlotSeconds: 60}
	tr := solar.NewTrace(tb)
	tr.Set(0, 0, 0, 0.021) // solar supports exactly one full-speed task
	eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}, DirectEff: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	slot0 := func(f float64) sim.SlotRecord {
		rec := &firstSlot{}
		if _, err := eng.Run(context.Background(), fixedSpeed{f}, sim.WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
		return *rec.rec
	}
	// The capacitor starts empty, so the brownout trim drops the tail.
	if st := slot0(1); len(st.Ran) != 1 {
		t.Fatalf("ran %v, want 1 task", st.Ran)
	}
	// At quarter speed both fit (2 × 0.020·(1/64) ≪ 0.021).
	st := slot0(0.25)
	if len(st.Ran) != 2 {
		t.Fatalf("paced ran %v, want both tasks", st.Ran)
	}
	if want := 2 * 0.020 * (0.25 * 0.25 * 0.25); st.LoadW != want {
		t.Fatalf("paced load %v W, want %v", st.LoadW, want)
	}
}
