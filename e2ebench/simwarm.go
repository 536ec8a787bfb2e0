package main

import (
	"context"
	"runtime"
	"time"

	"solarsched/internal/fleet"
)

// simWarmGolden is the aggregate digest of simWarmSpec.
const simWarmGolden = "d01a86479672a9af47b4c3c9cab6d2766dc564a9d32ddfe2e60d50a0489059c0"

// quickTrain is the reduced offline configuration the warm workloads train
// with, so that set-up stays short: 2 training days, 8 fine-tune epochs.
func quickTrain() fleet.TrainSpec {
	return fleet.TrainSpec{Days: 2, Seed: 777, DayOfYear: 80, FineEpochs: 8}
}

// simWarmSpec is 18 runs, wam/ecg/shm × asap/inter/intra/dvfs/proposed/
// hardened, each over one fixed 60-day trace (the length of Fig. 9). Once
// the artifacts are warm, a pass is the slot kernel plus one DBN forward
// pass per period for the learned schedulers, with no DP. The trace is not
// drawn from the seed: the work per period follows the weather, and
// different 60-day traces moved a pass by up to 30%, which would read as
// noise. So the golden digest holds at every seed.
func simWarmSpec() *fleet.FileSpec {
	train := quickTrain()
	fs := &fleet.FileSpec{Defaults: fleet.RunSpec{
		H:     4,
		Train: &train,
		Trace: fleet.TraceSpec{Kind: "gen", Days: 60, Seed: 1, DayOfYear: 80},
	}}
	for _, g := range []string{"wam", "ecg", "shm"} {
		for _, s := range []string{"asap", "inter", "intra", "dvfs", "proposed", "hardened"} {
			fs.Runs = append(fs.Runs, fleet.RunSpec{Graph: g, Scheduler: s})
		}
	}
	return fs
}

func runSimWarm(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	fs := simWarmSpec()
	runs, err := fs.Resolved()
	if err != nil {
		return nil, err
	}
	specs, err := fs.Compile(nil)
	if err != nil {
		return nil, err
	}

	// Set-up builds the artifacts from an empty cache and makes the first
	// pass.
	var cache *fleet.Cache
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		cache = fleet.NewCache(nil)
		if _, err := fleetPass(ctx, out, specs, cache, simWarmGolden); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if p.tr != nil {
		rep, err := fleetPass(ctx, out, specs, cache, simWarmGolden)
		if err != nil {
			return nil, err
		}
		if err := layerMetrics(ctx, p, out, runs, rep, simWarmGolden); err != nil {
			return nil, err
		}
		noServe(out.metrics)
		out.metrics["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}
	walls, err := timedPasses(ctx, p.seconds, func() error {
		_, err := fleetPass(ctx, out, specs, cache, simWarmGolden)
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

// fleetPass runs the fleet once over cache, accounts its runs and checks
// that its aggregate digest is want (any digest when want is empty).
func fleetPass(ctx context.Context, out *outcome, specs []fleet.Spec, cache *fleet.Cache, want string) (*fleet.Report, error) {
	rep, err := fleet.Run(ctx, specs, fleet.Options{Cache: cache})
	if err != nil {
		return nil, err
	}
	out.attempted += int64(len(rep.Results))
	out.failed += int64(len(rep.FailedIndices()))
	out.gate(rep.FirstErr() == nil, "run failed: %v", rep.FirstErr())
	if d := rep.AggregateDigest(); want != "" && d != want {
		out.gate(false, "fleet digest %s, want %s", d, want)
	}
	return rep, nil
}
