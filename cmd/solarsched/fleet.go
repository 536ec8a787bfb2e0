// The fleet subcommand runs a batch of simulations described by a JSON
// spec file on the shared-cache worker pool of internal/fleet:
//
//	solarsched fleet [flags] <spec.json>
//
// Flags:
//
//	-workers N   worker-pool size (default GOMAXPROCS); in
//	             -coordinator-dir mode, the number of local worker
//	             processes to fork (0 = external workers only)
//	-csv FILE    write the per-run report as CSV
//	-json FILE   write the full report (metrics included) as JSON
//	-digest      print only the aggregate digest (for golden comparisons)
//	-quiet       suppress the table; errors still reach stderr
//	-store-dir D durable artifact store: offline artifacts persist across
//	             invocations and are verified + adopted on open
//	-retry-attempts N attempts per run; transient failures retry with backoff
//	-log-format  diagnostic log format: text or json
//	-metrics...  see internal/obs.Flags
//
// Distributed mode (see internal/dist):
//
//	-coordinator-dir D  shard the fleet across worker processes sharing D;
//	                    forks -workers local workers, reclaims the leases
//	                    of crashed ones, and falls back to local execution
//	                    when no workers appear
//	-worker             run as one worker process serving -coordinator-dir
//	                    (takes no spec argument; exits when the batch ends)
//	-lease-ttl          coordinator: heartbeat-loss horizon before a
//	                    claimed item is reclaimed (default 10s)
//	-straggler-after    coordinator: speculatively re-issue items claimed
//	                    longer than this (0 = off)
//	-heartbeat          worker: lease-touch cadence (default 1s)
//
// The process exits 0 when every run succeeded, 1 when any run failed and
// 130 on SIGINT/SIGTERM; a partial report is still written on interruption.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/store"
)

// runFleet is the `fleet` subcommand body, dispatched before the global
// flag.Parse so its flag set stays independent of the experiment flags.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	var f fleetFlags
	fs.IntVar(&f.workers, "workers", 0, "worker-pool size (default GOMAXPROCS)")
	fs.StringVar(&f.csvPath, "csv", "", "write the per-run report as CSV to this file")
	fs.StringVar(&f.jsonPath, "json", "", "write the full JSON report to this file")
	fs.BoolVar(&f.digestOnly, "digest", false, "print only the aggregate digest")
	quiet := fs.Bool("quiet", false, "suppress the table; errors still reach stderr")
	fs.StringVar(&f.storeDir, "store-dir", "", "durable artifact store: reuse offline artifacts across invocations")
	fs.IntVar(&f.retryAttempts, "retry-attempts", 1, "attempts per run; transient failures retry with backoff")
	fs.StringVar(&f.coordDir, "coordinator-dir", "", "distributed mode: shared coordinator directory")
	workerMode := fs.Bool("worker", false, "run as a distributed worker serving -coordinator-dir")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 10*time.Second, "coordinator: reclaim claimed items after this heartbeat silence")
	fs.DurationVar(&f.stragglerAfter, "straggler-after", 0, "coordinator: speculatively re-issue items claimed longer than this (0 = off)")
	fs.DurationVar(&f.heartbeat, "heartbeat", time.Second, "worker: lease-touch cadence")
	var of obs.Flags
	of.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarsched fleet [flags] <spec.json>\n"+
			"       solarsched fleet -worker -coordinator-dir D [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workerMode {
		if f.coordDir == "" || fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
	} else if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	s, err := of.Open(*quiet || f.digestOnly)
	if err != nil {
		return openFailed("solarsched: fleet", err)
	}
	ctx, cancel := cli.SignalContext()
	defer cancel()
	if *workerMode {
		err = runFleetWorker(ctx, s, f.coordDir, f.heartbeat)
	} else {
		err = fleetMain(ctx, s, fs.Arg(0), f)
	}
	if err != nil {
		s.Logger.Error("fleet failed", "err", err)
	}
	return cli.ExitCode(err)
}

// fleetFlags holds the fleet flags past parsing. workers is the pool
// size, or under -coordinator-dir the number of local worker processes
// to fork.
type fleetFlags struct {
	workers, retryAttempts                int
	csvPath, jsonPath, storeDir, coordDir string
	digestOnly                            bool
	leaseTTL, stragglerAfter, heartbeat   time.Duration
}

// fleetMain runs the batch of specPath — in-process, or across worker
// processes under -coordinator-dir — inside the session s, renders and
// persists its report, and closes s.
func fleetMain(ctx context.Context, s *obs.Session, specPath string, cfg fleetFlags) (err error) {
	defer s.Close(&err)
	logger, reg := s.Logger, s.Reg
	var (
		rep     *fleet.Report
		runErr  error
		durable *fleet.Cache
	)
	if cfg.coordDir != "" {
		spec, err := fleet.LoadFileSpec(specPath)
		if err != nil {
			return fmt.Errorf("loading spec %s: %w", specPath, err)
		}
		logger.Info("distributed fleet starting", "runs", len(spec.Runs),
			"spec", specPath, "dir", cfg.coordDir, "forked_workers", cfg.workers)
		rep, runErr = coordinateFleet(ctx, logger, reg, spec, cfg)
	} else {
		specs, err := fleet.LoadSpecFile(specPath, reg)
		if err != nil {
			return fmt.Errorf("loading spec %s: %w", specPath, err)
		}
		logger.Info("fleet starting", "runs", len(specs), "spec", specPath)

		opts := fleet.Options{
			Workers:  cfg.workers,
			Observer: reg,
			Retry:    fleet.RetryPolicy{MaxAttempts: cfg.retryAttempts, JitterSeed: uint64(os.Getpid())},
		}
		if cfg.storeDir != "" {
			st, err := store.Open(cfg.storeDir, store.Options{Registry: reg})
			if err != nil {
				return fmt.Errorf("opening store %s: %w", cfg.storeDir, err)
			}
			if vs, err := st.Verify(); err == nil {
				logger.Info("store opened", "dir", cfg.storeDir,
					"adopted", vs.Adopted, "quarantined", vs.Quarantined)
			}
			durable = fleet.NewDurableCache(reg, st)
			opts.Cache = durable
		}
		rep, runErr = fleet.Run(ctx, specs, opts)
	}
	// A canceled fleet still returns the partial report; render and persist
	// what completed before mapping the error onto the exit status.
	if rep != nil {
		rep.Table().Render(s.Diag)
		if cfg.digestOnly {
			fmt.Fprintln(os.Stdout, rep.AggregateDigest())
		} else {
			fmt.Fprintf(s.Diag, "  aggregate digest: %s\n", rep.AggregateDigest())
			fmt.Fprintf(s.Diag, "  cache: %d hits, %d misses (%.1f%% hit rate)\n",
				rep.CacheHits, rep.CacheMisses, 100*rep.HitRate())
			if durable != nil {
				w, cold := durable.WarmStats()
				fmt.Fprintf(s.Diag, "  store: %d warm hits, %d cold builds (%.1f%% warm)\n",
					w, cold, 100*durable.WarmHitRate())
			}
		}
		if cfg.csvPath != "" {
			if err := writeReport(cfg.csvPath, rep.WriteCSV); err != nil {
				return fmt.Errorf("writing csv %s: %w", cfg.csvPath, err)
			}
		}
		if cfg.jsonPath != "" {
			if err := writeReport(cfg.jsonPath, rep.WriteJSON); err != nil {
				return fmt.Errorf("writing json %s: %w", cfg.jsonPath, err)
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	if rep.FirstErr() != nil {
		failed := rep.FailedIndices()
		for _, i := range failed {
			logger.Error("run failed", "index", i, "run_id", rep.Results[i].ID,
				"err", rep.Results[i].Err)
		}
		return fmt.Errorf("%d of %d runs failed (spec indices %s)",
			len(failed), len(rep.Results), formatIndices(failed))
	}
	return nil
}

// formatIndices renders spec indices as a comma-separated list.
func formatIndices(xs []int) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", x)
	}
	return string(b)
}

// writeReport writes one report rendering atomically.
func writeReport(path string, render func(io.Writer) error) error {
	w, err := atomicio.NewWriter(path, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := render(w); err != nil {
		return err
	}
	return w.Commit()
}
