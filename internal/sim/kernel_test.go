package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/rng"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// The slow reference: the slot paths the kernel replaced — the full-speed
// slot, the DVFS slot, the engine's slot body and the planner's period
// loop — kept verbatim apart from their names and the merged nvp.Set.Run
// signature. FuzzSlotKernel holds the kernel to them bit for bit.

func refFilterAllowed(order []int, allowed []bool) []int {
	out := order[:0:0]
	for _, n := range order {
		if n >= 0 && n < len(allowed) && allowed[n] {
			out = append(out, n)
		}
	}
	return out
}

func refExecSlot(cap *supercap.Capacitor, ts *nvp.Set, order []int, solarW, dt, directEff float64) SlotStats {
	run := ts.FilterRunnable(order)
	runnable := len(run)
	directCap := solarW * directEff // W available at the load via direct channel
	for len(run) > 0 {
		load := 0.0
		for _, n := range run {
			load += ts.G.Tasks[n].Power
		}
		deficit := (load - directCap) * dt
		if deficit <= cap.Deliverable()+1e-12 {
			break
		}
		run = run[:len(run)-1]
	}
	var st SlotStats
	st.Ran = run
	st.Trimmed = runnable - len(run)
	st.LoadPower = ts.Run(run, nil, dt)
	settleEnergy(cap, &st, solarW, dt, directEff)
	return st
}

func refExecSlotDVFS(cap *supercap.Capacitor, ts *nvp.Set, order []int,
	speedsFor func(run []int) []float64, solarW, dt, directEff float64) SlotStats {

	run := ts.FilterRunnable(order)
	runnable := len(run)
	speeds := speedsFor(run)
	if len(speeds) != len(run) {
		panic(fmt.Sprintf("sim: %d speeds for %d tasks", len(speeds), len(run)))
	}
	speeds = append([]float64(nil), speeds...)
	for i, f := range speeds {
		speeds[i] = math.Min(1, math.Max(MinDVFSSpeed, f))
	}
	directCap := solarW * directEff
	for len(run) > 0 {
		load := 0.0
		for i, n := range run {
			f := speeds[i]
			load += ts.G.Tasks[n].Power * f * f * f
		}
		deficit := (load - directCap) * dt
		if deficit <= cap.Deliverable()+1e-12 {
			break
		}
		run = run[:len(run)-1]
		speeds = speeds[:len(speeds)-1]
	}
	var st SlotStats
	st.Ran = run
	st.Trimmed = runnable - len(run)
	st.LoadPower = ts.Run(run, speeds, dt)
	settleEnergy(cap, &st, solarW, dt, directEff)
	return st
}

// refEngineSlot is the engine's former powered-slot body.
func refEngineSlot(bank *supercap.Bank, ts *nvp.Set, order []int, allowed []bool,
	ss SpeedScheduler, sv *SlotView, solarW, dt, directEff float64, slot int) SlotStats {

	if allowed != nil {
		order = refFilterAllowed(order, allowed)
	}
	var st SlotStats
	if ss != nil {
		st = refExecSlotDVFS(bank.Active(), ts, order,
			func(run []int) []float64 { return ss.Speeds(sv, run) },
			solarW, dt, directEff)
	} else {
		st = refExecSlot(bank.Active(), ts, order, solarW, dt, directEff)
	}
	before := bankEnergy(bank)
	bank.LeakAll(dt)
	st.Leaked = before - bankEnergy(bank)
	ts.CheckDeadlines(float64(slot+1) * dt)
	return st
}

func refRunPeriodOnCap(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {

	ts := nvp.MustNewSet(g)
	out := PeriodOutcome{Executed: make([]bool, g.N())}
	startUsable := cap.UsableEnergy()
	for slot, solarW := range powers {
		sv := &SlotView{
			Slot: slot, SolarPower: solarW, Cap: cap, Tasks: ts,
			DirectEff: directEff,
		}
		sv.Base.SlotSeconds = dt
		sv.Base.SlotsPerPeriod = len(powers)
		order := policy(sv)
		if allowed != nil {
			order = refFilterAllowed(order, allowed)
		}
		st := refExecSlot(cap, ts, order, solarW, dt, directEff)
		for _, n := range st.Ran {
			out.Executed[n] = true
		}
		out.Delivered += st.LoadPower * dt
		out.Harvested += solarW * dt
		cap.Leak(dt)
		ts.CheckDeadlines(float64(slot+1) * dt)
	}
	out.Missed = ts.Misses()
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}

// tableSpeeds is a SpeedScheduler with a fixed speed per task.
type tableSpeeds struct {
	Scheduler
	f []float64
}

func (s tableSpeeds) Speeds(_ *SlotView, selected []int) []float64 {
	out := make([]float64, len(selected))
	for i, n := range selected {
		out[i] = s.f[n]
	}
	return out
}

// kernelCase is one random slot-level scenario: a DAG of up to 8 tasks on
// random NVPs, a bank of 1–3 capacitors at random voltages, and per-slot
// solar powers and candidate orders.
type kernelCase struct {
	g       *task.Graph
	bank    *supercap.Bank
	allowed []bool
	speeds  SpeedScheduler
	powers  []float64
	orders  [][]int
}

const kernelDt, kernelEff = 60.0, 0.95

func newKernelCase(seed uint64, nTasks uint8, dvfs, masked bool) kernelCase {
	src := rng.New(seed)
	n := 1 + int(nTasks)%8
	nvps := 1 + src.Intn(n)
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			ID: i, Name: fmt.Sprintf("t%d", i),
			ExecTime: src.Range(10, 600),
			Power:    src.Range(0.001, 0.08),
			Deadline: src.Range(kernelDt, 1800),
			NVP:      src.Intn(nvps),
		}
	}
	var edges []task.Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if src.Bool(0.2) {
				edges = append(edges, task.Edge{From: a, To: b})
			}
		}
	}
	c := kernelCase{g: task.NewGraph("fuzz", tasks, edges, nvps)}

	p := supercap.DefaultParams()
	caps := make([]float64, 1+src.Intn(3))
	for i := range caps {
		caps[i] = src.Range(0.5, 50)
	}
	c.bank = supercap.MustNewBank(caps, p)
	for _, cp := range c.bank.Caps {
		cp.V = p.VLow // empty: every deficit trims
		if src.Bool(0.7) {
			cp.V = src.Range(0, p.VHigh)
		}
	}
	c.bank.SwitchTo(src.Intn(len(caps)))

	if masked {
		c.allowed = make([]bool, n)
		for i := range c.allowed {
			c.allowed[i] = src.Bool(0.7)
		}
	}
	if dvfs {
		f := make([]float64, n)
		for i := range f {
			f[i] = 1 - src.Float64() // (0, 1]
			if src.Bool(0.3) {
				f[i] = []float64{MinDVFSSpeed, 0.5, 1}[src.Intn(3)]
			}
		}
		c.speeds = tableSpeeds{f: f}
	}
	slots := 1 + src.Intn(30)
	for s := 0; s < slots; s++ {
		var order []int
		for _, i := range src.Perm(n) {
			if src.Bool(0.8) {
				order = append(order, i)
			}
		}
		w := 0.0
		switch {
		case len(order) > 0 && src.Bool(0.25):
			// Exactly the full-speed load of a prefix of the order: the
			// trim decision sits on its boundary.
			for _, i := range order[:1+src.Intn(len(order))] {
				w += tasks[i].Power
			}
			w /= kernelEff
		case src.Bool(0.7):
			w = src.Range(0, 0.15)
		}
		c.powers = append(c.powers, w)
		if len(order) > 0 && src.Bool(0.2) {
			order = append(order, order[0]) // a duplicate candidate
		}
		c.orders = append(c.orders, order)
	}
	return c
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffStats(got, want SlotStats) string {
	if !slices.Equal(got.Ran, want.Ran) || got.Trimmed != want.Trimmed ||
		!sameBits(got.LoadPower, want.LoadPower) ||
		!sameBits(got.SurplusOffered, want.SurplusOffered) ||
		!sameBits(got.Stored, want.Stored) ||
		!sameBits(got.DrawnOut, want.DrawnOut) ||
		!sameBits(got.Leaked, want.Leaked) {
		return fmt.Sprintf("kernel %+v, reference %+v", got, want)
	}
	return ""
}

func diffState(kb, rb *supercap.Bank, kts, rts *nvp.Set) string {
	if kb.ActiveIndex() != rb.ActiveIndex() {
		return fmt.Sprintf("active cap %d vs %d", kb.ActiveIndex(), rb.ActiveIndex())
	}
	for i := range kb.Caps {
		if !sameBits(kb.Caps[i].V, rb.Caps[i].V) {
			return fmt.Sprintf("cap %d V %v vs %v", i, kb.Caps[i].V, rb.Caps[i].V)
		}
	}
	for n := range kts.G.Tasks {
		if !sameBits(kts.Remaining(n), rts.Remaining(n)) || kts.Missed(n) != rts.Missed(n) {
			return fmt.Sprintf("task %d: remaining %v/%v missed %v/%v", n,
				kts.Remaining(n), rts.Remaining(n), kts.Missed(n), rts.Missed(n))
		}
	}
	return ""
}

func checkKernelAgainstReference(t *testing.T, c kernelCase) {
	t.Helper()
	kts, rts := nvp.MustNewSet(c.g), nvp.MustNewSet(c.g)
	kb, rb := c.bank.Clone(), c.bank.Clone()
	k := &slotKernel{bank: kb, ts: kts, dt: kernelDt, directEff: kernelEff,
		allowed: c.allowed, speeds: c.speeds}
	for slot, solarW := range c.powers {
		sv := &SlotView{Slot: slot, SolarPower: solarW, DirectEff: kernelEff}
		got := k.stepSlot(sv, c.orders[slot], solarW, slot)
		want := refEngineSlot(rb, rts, c.orders[slot], c.allowed, c.speeds, sv,
			solarW, kernelDt, kernelEff, slot)
		if d := diffStats(got, want); d != "" {
			t.Fatalf("slot %d: %s", slot, d)
		}
		if d := diffState(kb, rb, kts, rts); d != "" {
			t.Fatalf("slot %d: %s", slot, d)
		}
	}

	// The planner's period loop on the active capacitor.
	policy := func(v *SlotView) []int { return c.orders[v.Slot] }
	kc, rc := c.bank.Active().Clone(), c.bank.Active().Clone()
	got := NewPeriodRunner(c.g, kernelDt, kernelEff).Run(kc, c.powers, c.allowed, policy)
	want := refRunPeriodOnCap(rc, c.powers, c.g, c.allowed, policy, kernelDt, kernelEff)
	if got.Missed != want.Missed || !slices.Equal(got.Executed, want.Executed) ||
		!sameBits(got.CapConsumed, want.CapConsumed) || !sameBits(got.FinalV, want.FinalV) ||
		!sameBits(got.Delivered, want.Delivered) || !sameBits(got.Harvested, want.Harvested) ||
		!sameBits(kc.V, rc.V) {
		t.Fatalf("PeriodRunner %+v, reference %+v", got, want)
	}
}

// FuzzSlotKernel checks the slot kernel against the reference paths bit for
// bit: the slot ledger, every capacitor voltage and the NVP state after
// every slot, plus the planner's whole-period outcome.
func FuzzSlotKernel(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed*7), seed%2 == 0, seed%5 < 2)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nTasks uint8, dvfs, masked bool) {
		checkKernelAgainstReference(t, newKernelCase(seed, nTasks, dvfs, masked))
	})
}

// execSlot runs one slot through the kernel on a one-capacitor bank.
func execSlot(cap *supercap.Capacitor, ts *nvp.Set, order []int, solarW, dt, directEff float64) SlotStats {
	k := &slotKernel{bank: &supercap.Bank{Caps: []*supercap.Capacitor{cap}},
		ts: ts, dt: dt, directEff: directEff}
	return k.stepSlot(nil, order, solarW, 0)
}

func TestBrownoutTrimsLowestPriority(t *testing.T) {
	// Two tasks on different NVPs; solar supports exactly one of them and
	// the capacitor is empty: the kernel must trim the tail of the order.
	tasks := []task.Task{
		{ID: 0, Name: "hi", ExecTime: 60, Power: 0.010, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "lo", ExecTime: 60, Power: 0.010, Deadline: 1800, NVP: 1},
	}
	g := task.NewGraph("pair", tasks, nil, 2)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams()) // starts empty
	st := execSlot(cap, ts, []int{0, 1}, 0.012, 60, 1.0)
	if len(st.Ran) != 1 || st.Ran[0] != 0 {
		t.Fatalf("Ran = %v, want [0]", st.Ran)
	}
	if ts.Remaining(0) != 0 || ts.Remaining(1) != 60 {
		t.Fatalf("remaining = %v, %v", ts.Remaining(0), ts.Remaining(1))
	}
}

func TestExecSlotUsesCapacitorForDeficit(t *testing.T) {
	tasks := []task.Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.020, Deadline: 1800, NVP: 0}}
	g := task.NewGraph("one", tasks, nil, 1)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(10)                                // plenty
	st := execSlot(cap, ts, []int{0}, 0, 60, 1.0) // no solar at all
	if len(st.Ran) != 1 {
		t.Fatalf("task did not run from storage: %v", st.Ran)
	}
	wantDraw := 0.020 * 60
	if math.Abs(st.DrawnOut-wantDraw) > 1e-9 {
		t.Fatalf("DrawnOut = %v, want %v", st.DrawnOut, wantDraw)
	}
}

func TestExecSlotStoresSurplus(t *testing.T) {
	g := task.NewGraph("idle", []task.Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 0}}, nil, 1)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	st := execSlot(cap, ts, nil, 0.05, 60, 0.95) // nothing scheduled
	if st.SurplusOffered != 0.05*60 {
		t.Fatalf("SurplusOffered = %v", st.SurplusOffered)
	}
	if st.Stored <= 0 || st.Stored >= st.SurplusOffered {
		t.Fatalf("Stored = %v of %v offered", st.Stored, st.SurplusOffered)
	}
	if st.Leaked <= 0 {
		t.Fatalf("Leaked = %v, want the slot's self-discharge", st.Leaked)
	}
	if cap.UsableEnergy() <= 0 {
		t.Fatal("capacitor did not gain energy")
	}
}

// replayCaps is the capacitor sweep a recording is replayed on: random
// sizes at voltages from below cut-off through empty and full, so a replay
// resumes the kernel at every slot a trim can first appear in, or never.
func replayCaps(src *rng.Source, p supercap.Params) []*supercap.Capacitor {
	var caps []*supercap.Capacitor
	for i := 0; i < 40; i++ {
		c := supercap.New(src.Range(0.5, 50), p)
		switch i {
		case 0:
			c.V = 0
		case 1: // c.V = p.VLow, empty
		case 2:
			c.V = p.VHigh
		default:
			c.V = p.VLow + (p.VHigh-p.VLow)*float64(i-3)/36
		}
		caps = append(caps, c)
	}
	return caps
}

// checkReplay records the case's period once, then replays it on the
// capacitor sweep and holds every replay to a fresh Run bit for bit. It
// returns the slot each replay resumed the kernel at (the slot count for a
// whole-period replay).
func checkReplay(t *testing.T, c kernelCase, seed uint64) []int {
	t.Helper()
	policy := func(v *SlotView) []int { return c.orders[v.Slot] }
	r := NewPeriodRunner(c.g, kernelDt, kernelEff)
	var tr Trajectory
	r.Record(&tr, c.powers, c.allowed, policy)
	var resumes []int
	for i, cp := range replayCaps(rng.New(seed), c.bank.Active().P) {
		rc := cp.Clone()
		want := r.Run(rc, c.powers, c.allowed, policy)
		wantExec := slices.Clone(want.Executed)
		got := r.Replay(&tr, cp, c.powers, c.allowed, policy)
		if got.Missed != want.Missed || !slices.Equal(got.Executed, wantExec) ||
			!sameBits(got.CapConsumed, want.CapConsumed) || !sameBits(got.FinalV, want.FinalV) ||
			!sameBits(got.Delivered, want.Delivered) || !sameBits(got.Harvested, want.Harvested) ||
			!sameBits(cp.V, rc.V) {
			t.Fatalf("cap %d (C %v): replay %+v (resumed at %d), Run %+v", i, cp.C, got, got.Replayed, want)
		}
		resumes = append(resumes, got.Replayed)
	}
	return resumes
}

// FuzzPeriodRunnerReplay records a random period once and checks its
// replays on many capacitors against a fresh Run of the kernel bit for bit:
// misses, executed set, consumed and delivered energy and final voltage,
// whichever slot the replay resumes the kernel at.
func FuzzPeriodRunnerReplay(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed*7), seed%5 < 2)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nTasks uint8, masked bool) {
		checkReplay(t, newKernelCase(seed, nTasks, false, masked), seed)
	})
}

// The replay corpus must take every path: whole periods on physics alone,
// a resume at the first slot and resumes mid-period.
func TestPeriodRunnerReplayCoversEveryPath(t *testing.T) {
	whole, first, mid := 0, 0, 0
	for seed := uint64(0); seed < 64; seed++ {
		c := newKernelCase(seed, uint8(seed*7), false, seed%5 < 2)
		for _, s := range checkReplay(t, c, seed) {
			switch {
			case s == len(c.powers):
				whole++
			case s == 0:
				first++
			default:
				mid++
			}
		}
	}
	if whole == 0 || first == 0 || mid == 0 {
		t.Fatalf("replays: %d whole, %d resumed at slot 0, %d mid-period", whole, first, mid)
	}
	t.Logf("replays: %d whole, %d resumed at slot 0, %d mid-period", whole, first, mid)
}
