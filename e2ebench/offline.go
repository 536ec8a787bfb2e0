package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
)

// offlineColdSpec is the 16-run reference fleet (wam and ecg × inter, intra,
// proposed, optimal × trace seeds 31 and 32, H=3, 3 training days, 50
// fine-tune epochs). The planner does nearly all of its work.
//
//go:embed offline_cold_spec.json
var offlineColdSpec []byte

// offlineColdGolden is the aggregate digest of offlineColdSpec, the same
// value the repository's fleet smoke test holds it to.
const offlineColdGolden = "de6aa3389e5b00254d56e91fe3d2b4c1293c55b1cf24583d4258a64e4a76bb9b"

func loadFileSpec(b []byte) (*fleet.FileSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var fs fleet.FileSpec
	if err := dec.Decode(&fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// warmupSpec is a one-run fleet small enough to repeat: it touches every
// offline stage and the engine from an empty cache. Its trace is the only
// input of offline_cold the seed changes; the reference fleet is fixed, so
// its golden digest holds at every seed.
func warmupSpec(seed uint64) *fleet.FileSpec {
	train := fleet.TrainSpec{Days: 1, Seed: 777, DayOfYear: 80, FineEpochs: 8}
	return &fleet.FileSpec{
		Defaults: fleet.RunSpec{H: 3, Train: &train, Trace: fleet.TraceSpec{Kind: "gen", Days: 1, Seed: seed}},
		Runs:     []fleet.RunSpec{{Graph: "wam", Scheduler: "proposed"}},
	}
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func runOfflineCold(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	fs, err := loadFileSpec(offlineColdSpec)
	if err != nil {
		return nil, err
	}
	runs, err := fs.Resolved()
	if err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		specs, err := warmupSpec(p.seed).Compile(nil)
		if err != nil {
			return nil, err
		}
		if _, err := fleetPass(ctx, out, specs, fleet.NewCache(nil), ""); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	specs, err := fs.Compile(nil)
	if err != nil {
		return nil, err
	}
	coldPass := func() (*fleet.Report, error) {
		return fleetPass(ctx, out, specs, fleet.NewCache(nil), offlineColdGolden)
	}

	if p.tr != nil {
		return offlineColdTraced(ctx, p, out, runs, coldPass)
	}
	walls, err := timedPasses(ctx, p.seconds, func() error {
		_, err := coldPass()
		return err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["fleet_s"] = median(walls)
	out.metrics["sim_periods_per_s"] = float64(periodsOf(runs)) / median(walls)
	return out, nil
}

// offlineColdTraced makes three passes: one cold fleet.Run for the pool
// and cache ratios, then the staged pass untraced and traced.
func offlineColdTraced(ctx context.Context, p params, out *outcome, runs []fleet.RunSpec, coldPass func() (*fleet.Report, error)) (*outcome, error) {
	rep, err := coldPass()
	if err != nil {
		return nil, err
	}
	if err := layerMetrics(ctx, p, out, runs, rep, offlineColdGolden); err != nil {
		return nil, err
	}
	noServe(out.metrics)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// layerMetrics fills the offline, fleet and engine layer metrics: the pool
// and cache ratios from rep, a fleet.Run pass of runs, and the rest from
// two staged passes of runs, untraced and traced. The staged passes run
// every stage sequentially, so their walls differ only by the tracing.
// Both must reproduce want.
func layerMetrics(ctx context.Context, p params, out *outcome, runs []fleet.RunSpec, rep *fleet.Report, want string) error {
	m := out.metrics
	workers := runtime.GOMAXPROCS(0)
	if workers > len(runs) {
		workers = len(runs)
	}
	busy := time.Duration(0)
	for _, rr := range rep.Results {
		busy += rr.Elapsed
	}
	m["fleet.pool_busy_ratio"] = busy.Seconds() / (rep.Elapsed.Seconds() * float64(workers))
	m["fleet.cache_hit_ratio"] = rep.HitRate()

	fs := &fleet.FileSpec{Runs: runs}
	untraced, err := stagedPass(ctx, out, fs, nil, nil, want)
	if err != nil {
		return err
	}
	traced, err := stagedPass(ctx, out, fs, p.tr, obs.NewRegistry(), want)
	if err != nil {
		return err
	}
	traced.metrics(m)
	untraced.sim.metrics(m)
	m["sched.slot_ns_per_period"], m["sched.begin_ns_per_period"], m["sim.engine_ns_per_period"] = traced.sim.schedSplit()
	m["bench.trace_overhead_ratio"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
	return decideMetric(ctx, traced.cache, runs, p.seed, m)
}

// stagedResult is one staged pass: artifacts built stage by stage from an
// empty cache, then every run executed sequentially.
type stagedResult struct {
	wall   time.Duration
	stages map[string]time.Duration
	runs   time.Duration
	self   float64 // stage and run self times over the pass wall
	reg    *obs.Registry
	cache  *fleet.Cache
	sim    *simStats
}

// stagedPass builds fs's artifacts stage by stage and runs it. With a
// tracer, the stages and runs are spans under one pass span, reg observes
// the planner and the engines, and schedulers are timed. want, when
// non-empty, is the aggregate digest the runs must reproduce.
func stagedPass(ctx context.Context, out *outcome, fs *fleet.FileSpec, tr *tracer, reg *obs.Registry, want string) (*stagedResult, error) {
	runs, err := fs.Resolved()
	if err != nil {
		return nil, err
	}
	specs, err := (&fleet.FileSpec{Runs: runs}).Compile(reg)
	if err != nil {
		return nil, err
	}
	res := &stagedResult{reg: reg, cache: fleet.NewCache(nil), sim: newSimStats()}
	root := tr.start("offline.pass", "", 0)
	t0 := time.Now()
	res.stages, err = buildStaged(ctx, res.cache, runs, reg, tr, root.id())
	if err != nil {
		return nil, err
	}
	_, missesBefore := res.cache.Stats()
	runsSpan := tr.start("sim.runs", "", root.id())
	t1 := time.Now()
	rep, err := runSequential(ctx, specs, kindsOf(runs), res.cache, tr, runsSpan.id(), res.sim)
	if err != nil {
		return nil, err
	}
	res.runs = time.Since(t1)
	runsSpan.end()
	res.wall = time.Since(t0)
	root.end()

	out.attempted += int64(len(rep.Results))
	_, missesAfter := res.cache.Stats()
	out.gate(missesAfter == missesBefore, "staged build missed %d artifacts the runs needed", missesAfter-missesBefore)
	if want != "" {
		d := rep.AggregateDigest()
		out.gate(d == want, "staged pass digest %s, want %s", d, want)
	}
	sum := res.runs
	for _, d := range res.stages {
		sum += d
	}
	res.self = sum.Seconds() / res.wall.Seconds()
	if tr != nil {
		out.gate(res.self > 0.9 && res.self < 1.1, "stage self times sum to %.3f of the pass wall", res.self)
	}
	return res, nil
}

// metrics writes the offline stage timings and planner counters.
func (r *stagedResult) metrics(m map[string]float64) {
	for _, st := range offlineStages {
		m[st.metric] = r.stages[st.name].Seconds()
	}
	m["sim.runs_s"] = r.runs.Seconds()
	m["offline.self_sum_ratio"] = r.self
	plannerMetrics(r.reg, m)
}

// decideMetric times in-process core.Decide on the networks the runs
// trained, over requests drawn from seed.
func decideMetric(ctx context.Context, c *fleet.Cache, runs []fleet.RunSpec, seed uint64, m map[string]float64) error {
	r := rng.New(seed ^ 0xdec1de)
	var lat []float64
	seen := map[string]bool{}
	for _, rs := range runs {
		if rs.Scheduler != "proposed" && rs.Scheduler != "hardened" {
			continue
		}
		key := fmt.Sprintf("%s|%d|%+v", rs.Graph, rs.H, *rs.Train)
		if seen[key] {
			continue
		}
		seen[key] = true
		pc, net, err := fleet.NetworkFor(ctx, c, nil, rs.Graph, rs.H, *rs.Train)
		if err != nil {
			return err
		}
		tr, err := c.Trace(ctx, trainTraceConfig(rs.Train))
		if err != nil {
			return err
		}
		us, err := decideMicroUs(pc, net, decideRequests(r, pc, tr, 500))
		if err != nil {
			return err
		}
		lat = append(lat, us)
	}
	m["core.decide_us_p50"] = median(lat)
	return nil
}

// noServe zeroes the serving-layer metrics of a workload that does not
// start the daemon.
func noServe(m map[string]float64) {
	for _, k := range []string{
		"decide_p50_ms.r500", "decide_p99_ms.r500", "decide_p50_ms.r1000", "decide_p99_ms.r1000",
		"decide_max_rps", "loadgen.late_ms_p99", "serve.decide_handler_ms_mean",
		"serve.decide_outside_ms_mean", "serve.decides", "serve.decide_errors",
		"serve.throttled", "serve.job_s_mean", "serve.jobs_rejected",
	} {
		m[k] = 0
	}
}
