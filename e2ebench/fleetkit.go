package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/fault"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// The helpers below drive the fleet from outside through its public API:
// fleet.Run for the untraced passes, and for traced passes the Cache
// accessors stage by stage followed by sequential Engine.Run calls, so
// every span around a layer call is that layer's self time.

var schedulerKinds = []string{"asap", "inter", "intra", "dvfs", "proposed", "hardened", "optimal"}

func graphFor(name string) (*task.Graph, error) {
	switch strings.ToLower(name) {
	case "wam":
		return task.WAM(), nil
	case "ecg":
		return task.ECG(), nil
	case "shm":
		return task.SHM(), nil
	}
	return nil, fmt.Errorf("unknown graph %q", name)
}

func multiCap(s string) bool { return s == "proposed" || s == "hardened" || s == "optimal" }

func evalTraceConfig(ts fleet.TraceSpec) (solar.GenConfig, error) {
	if ts.Kind != "gen" {
		return solar.GenConfig{}, fmt.Errorf("trace kind %q: the benchmark generates its traces", ts.Kind)
	}
	return solar.GenConfig{Base: solar.DefaultTimeBase(ts.Days), Seed: ts.Seed, DayOfYearStart: ts.DayOfYear}, nil
}

func trainTraceConfig(t *fleet.TrainSpec) solar.GenConfig {
	return solar.GenConfig{Base: solar.DefaultTimeBase(t.Days), Seed: t.Seed, DayOfYearStart: t.DayOfYear}
}

// offlineStages are the Cache accessors in dependency order, with the
// span (and per-layer metric) each one is timed under.
var offlineStages = []struct{ name, metric string }{
	{"solar.trace", "solar.trace_s"},
	{"sizing.patterns", "sizing.patterns_s"},
	{"sizing.bank", "sizing.bank_s"},
	{"core.samples", "core.samples_s"},
	{"ann.train", "ann.train_s"},
	{"core.plan", "core.plan_s"},
}

// buildStaged builds every offline artifact the resolved runs need, one
// stage at a time across all runs, mirroring what each run's Prepare asks
// the cache for. Each stage is one span under parent; reg observes the
// planner. It returns each stage's wall time.
func buildStaged(ctx context.Context, c *fleet.Cache, runs []fleet.RunSpec, reg *obs.Registry, tr *tracer, parent uint64) (map[string]time.Duration, error) {
	type prepared struct {
		rs            fleet.RunSpec
		g             *task.Graph
		eval, trainTr *solar.Trace
		bank          []float64
	}
	ps := make([]prepared, len(runs))
	for i, rs := range runs {
		g, err := graphFor(rs.Graph)
		if err != nil {
			return nil, err
		}
		ps[i] = prepared{rs: rs, g: g}
	}
	params := supercap.DefaultParams()
	bankSize := func(p prepared) int {
		if multiCap(p.rs.Scheduler) {
			return p.rs.H
		}
		return 1
	}
	trainOpts := func(p prepared) core.TrainOptions {
		topt := core.DefaultTrainOptions()
		topt.Fine.Epochs = p.rs.Train.FineEpochs
		return topt
	}
	trainPC := func(p prepared) core.PlanConfig {
		pc := core.DefaultPlanConfig(p.g, p.trainTr.Base, p.bank)
		pc.Observer = reg
		return pc
	}
	steps := map[string]func(p *prepared) error{
		"solar.trace": func(p *prepared) error {
			ec, err := evalTraceConfig(p.rs.Trace)
			if err != nil {
				return err
			}
			if p.eval, err = c.Trace(ctx, ec); err != nil {
				return err
			}
			p.trainTr, err = c.Trace(ctx, trainTraceConfig(p.rs.Train))
			return err
		},
		"sizing.patterns": func(p *prepared) error {
			_, err := c.Patterns(ctx, p.trainTr, p.g, sim.DefaultDirectEff)
			return err
		},
		"sizing.bank": func(p *prepared) error {
			var err error
			p.bank, err = c.Sizing(ctx, p.trainTr, p.g, bankSize(*p), params, sim.DefaultDirectEff)
			return err
		},
		"core.samples": func(p *prepared) error {
			if p.rs.Scheduler != "proposed" && p.rs.Scheduler != "hardened" {
				return nil
			}
			_, err := c.Samples(ctx, trainPC(*p), p.trainTr)
			return err
		},
		"ann.train": func(p *prepared) error {
			if p.rs.Scheduler != "proposed" && p.rs.Scheduler != "hardened" {
				return nil
			}
			_, err := c.Network(ctx, trainPC(*p), p.trainTr, trainOpts(*p))
			return err
		},
		"core.plan": func(p *prepared) error {
			if p.rs.Scheduler != "optimal" {
				return nil
			}
			pc := core.DefaultPlanConfig(p.g, p.eval.Base, p.bank)
			pc.Observer = reg
			_, err := c.Plan(ctx, pc, p.eval)
			return err
		},
	}
	times := make(map[string]time.Duration, len(offlineStages))
	for _, st := range offlineStages {
		h := tr.start(st.name, "", parent)
		t0 := time.Now()
		for i := range ps {
			if err := steps[st.name](&ps[i]); err != nil {
				return nil, fmt.Errorf("%s for %s: %w", st.name, ps[i].rs.ID, err)
			}
		}
		times[st.name] = time.Since(t0)
		h.end()
	}
	return times, nil
}

// simStats accumulates host cost per simulated period across runs.
type simStats struct {
	periods, slots  int64
	engineNs        map[string]int64 // Engine.Run wall per scheduler kind
	periodsBy       map[string]int64
	wallNs          int64
	slotNs, beginNs int64 // inside the scheduler, when timed
	mallocs, bytes  uint64
}

func newSimStats() *simStats {
	return &simStats{engineNs: map[string]int64{}, periodsBy: map[string]int64{}}
}

// runSequential prepares and runs every spec in order on the calling
// goroutine against a warm cache, accounting each Engine.Run's time and
// allocations in st. With a tracer each run is a span and its scheduler is
// wrapped in a timer. It returns the report in spec order.
func runSequential(ctx context.Context, specs []fleet.Spec, kinds map[string]string, c *fleet.Cache, tr *tracer, parent uint64, st *simStats) (*fleet.Report, error) {
	rep := &fleet.Report{Results: make([]fleet.RunResult, len(specs))}
	start := time.Now()
	for i, spec := range specs {
		h := tr.start("sim.run", spec.ID, parent)
		job, err := spec.Prepare(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", spec.ID, err)
		}
		eng, err := sim.New(job.Config)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", spec.ID, err)
		}
		var s sim.Scheduler = job.Scheduler
		var timer *schedTimer
		if tr != nil {
			timer = &schedTimer{inner: job.Scheduler}
			s = timer.wrap()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := eng.Run(ctx, s, job.Options...)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", spec.ID, err)
		}
		h.end()
		rep.Results[i] = fleet.RunResult{ID: spec.ID, Scheduler: job.Scheduler.Name(), Result: res, Digest: res.Digest(), Attempts: 1, Elapsed: d}
		periods := int64(len(res.PeriodMisses))
		st.periods += periods
		st.slots += periods * int64(job.Config.Trace.Base.SlotsPerPeriod)
		st.engineNs[kinds[spec.ID]] += d.Nanoseconds()
		st.periodsBy[kinds[spec.ID]] += periods
		st.wallNs += d.Nanoseconds()
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.bytes += m1.TotalAlloc - m0.TotalAlloc
		if timer != nil {
			st.slotNs += timer.slotNs
			st.beginNs += timer.beginNs
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func (st *simStats) per(x float64) float64 {
	if st.periods == 0 {
		return 0
	}
	return x / float64(st.periods)
}

// metrics writes the per-period engine metrics of untimed runs.
func (st *simStats) metrics(m map[string]float64) {
	for _, k := range schedulerKinds {
		m["sim.ns_per_period."+k] = 0
		if p := st.periodsBy[k]; p > 0 {
			m["sim.ns_per_period."+k] = float64(st.engineNs[k]) / float64(p)
		}
	}
	m["sim.allocs_per_period"] = st.per(float64(st.mallocs))
	m["sim.bytes_per_period"] = st.per(float64(st.bytes))
	m["sim.periods"] = float64(st.periods)
	m["sim.slots"] = float64(st.slots)
}

// schedSplit returns the scheduler's slot and begin-period cost and the
// engine's remainder, each per period, from runs with timed schedulers.
func (st *simStats) schedSplit() (slot, begin, engine float64) {
	return st.per(float64(st.slotNs)), st.per(float64(st.beginNs)), st.per(float64(st.wallNs - st.slotNs - st.beginNs))
}

// schedTimer times a scheduler's two entry points. wrap keeps the optional
// interfaces the engine looks for, so wrapping never changes a result.
type schedTimer struct {
	inner           sim.Scheduler
	slotNs, beginNs int64
}

func (t *schedTimer) wrap() sim.Scheduler {
	if ss, ok := t.inner.(sim.SpeedScheduler); ok {
		return timedSpeed{timed{t}, ss}
	}
	return timed{t}
}

type timed struct{ t *schedTimer }

func (w timed) Name() string { return w.t.inner.Name() }

func (w timed) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	t0 := time.Now()
	p := w.t.inner.BeginPeriod(v)
	w.t.beginNs += time.Since(t0).Nanoseconds()
	return p
}

func (w timed) Slot(v *sim.SlotView) []int {
	t0 := time.Now()
	s := w.t.inner.Slot(v)
	w.t.slotNs += time.Since(t0).Nanoseconds()
	return s
}

func (w timed) SetObserver(r *obs.Registry) {
	if o, ok := w.t.inner.(sim.Observable); ok {
		o.SetObserver(r)
	}
}

func (w timed) SetFaultInjector(inj *fault.Injector) {
	if fa, ok := w.t.inner.(sim.FaultAware); ok {
		fa.SetFaultInjector(inj)
	}
}

type timedSpeed struct {
	timed
	ss sim.SpeedScheduler
}

func (w timedSpeed) Speeds(v *sim.SlotView, selected []int) []float64 {
	t0 := time.Now()
	s := w.ss.Speeds(v, selected)
	w.t.slotNs += time.Since(t0).Nanoseconds()
	return s
}

// counter sums a registry counter over all its label sets.
func counter(s obs.Snapshot, name string) float64 {
	v := 0.0
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

// plannerMetrics reads the planner's work counters from reg.
func plannerMetrics(reg *obs.Registry, m map[string]float64) {
	s := reg.Snapshot()
	hits, misses := counter(s, "core_lut_hits_total"), counter(s, "core_lut_misses_total")
	m["core.lut_builds"] = misses
	m["core.lut_lookups"] = hits + misses
	m["core.lut_hit_ratio"] = 0
	if hits+misses > 0 {
		m["core.lut_hit_ratio"] = hits / (hits + misses)
	}
	m["core.dp_expansions"] = counter(s, "core_dp_expansions_total")
}

// decideRequests draws n decide inputs from r: a period of trace as the
// previous period's powers (one in eight is a cold start), voltages over
// the whole usable range, and random period, active capacitor and DMR.
func decideRequests(r *rng.Source, pc core.PlanConfig, trace *solar.Trace, n int) []core.DecideRequest {
	spp := trace.Base.SlotsPerPeriod
	periods := len(trace.Power) / spp
	reqs := make([]core.DecideRequest, n)
	for i := range reqs {
		v := make([]float64, len(pc.Capacitances))
		for j := range v {
			v[j] = r.Range(0, pc.Params.VHigh)
		}
		req := core.DecideRequest{
			Voltages:       v,
			AccumulatedDMR: r.Range(0, 0.3),
			PeriodOfDay:    r.Intn(pc.Base.PeriodsPerDay),
			ActiveCap:      r.Intn(len(v)),
		}
		if r.Intn(8) != 0 {
			k := r.Intn(periods)
			req.PrevPowers = trace.Power[k*spp : (k+1)*spp]
		}
		reqs[i] = req
	}
	return reqs
}

// decideMicroUs times in-process core.Decide over reqs, five times each,
// and returns the median in microseconds.
func decideMicroUs(pc core.PlanConfig, net *ann.Network, reqs []core.DecideRequest) (float64, error) {
	lat := make([]float64, 0, 5*len(reqs))
	for rep := 0; rep < 5; rep++ {
		for _, req := range reqs {
			t0 := time.Now()
			if _, err := core.Decide(pc, net, req); err != nil {
				return 0, err
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(lat), nil
}

// periodsOf returns how many periods the resolved runs simulate.
func periodsOf(runs []fleet.RunSpec) int {
	n := 0
	for _, rs := range runs {
		n += solar.DefaultTimeBase(rs.Trace.Days).TotalPeriods()
	}
	return n
}

// kindsOf maps each resolved run's ID to its scheduler kind.
func kindsOf(runs []fleet.RunSpec) map[string]string {
	m := make(map[string]string, len(runs))
	for _, rs := range runs {
		m[rs.ID] = rs.Scheduler
	}
	return m
}

// timedPasses runs fn at least once and until d has elapsed, returning each
// pass's wall time. Each pass starts after a garbage collection, outside
// its timing, so every pass starts from the same heap.
func timedPasses(ctx context.Context, d time.Duration, fn func() error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "e2ebench: pass walls (s): %.4g\n", walls)
	return walls, nil
}
