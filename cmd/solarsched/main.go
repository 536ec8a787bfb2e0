// Command solarsched regenerates the tables and figures of the paper's
// evaluation (§6). Each subcommand prints the corresponding rows; --csv
// additionally writes them as CSV files.
//
// Usage:
//
//	solarsched [flags] <experiment>...
//
// Experiments are listed once, in the table of experiment.go; `all` and
// `ablations` expand to their groups.
//
// The node subcommand (solarsched node workload|size|train|run) runs the
// simulated sensor node on user-supplied workloads; see node.go.
//
// The fleet subcommand (solarsched fleet <spec.json>) runs a batch of
// simulations on the internal/fleet worker pool with a shared offline
// artifact cache; see cmd/solarsched/fleet.go.
//
// The cap and trace subcommands are the super-capacitor model explorer
// and the synthetic solar trace tool; see cap.go and trace.go.
//
// Flags:
//
//	-quick          reduced configuration (smoke-test scale)
//	-csv DIR        write each table as DIR/<experiment>.csv
//	-benchmarks STR comma-separated benchmark filter for fig8
//	                (Random1,Random2,Random3,WAM,ECG,SHM)
//	-quiet          suppress tables and timing; only -metrics output
//	                reaches stdout
//	-metrics, -metrics-format, -metrics-out, -cpuprofile, -memprofile,
//	-exectrace — see internal/obs.Flags
//
// SIGINT/SIGTERM stop the running experiment at the next period boundary
// and exit with status 130; a second signal kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/experiments"
	"solarsched/internal/obs"
	"solarsched/internal/stats"
)

func main() {
	os.Exit(run())
}

// run is main's body with an exit code instead of os.Exit calls, so every
// return path — including graceful interruption — unwinds the deferred
// signal handler and maps its error honestly onto the process status.
func run() int {
	// Subcommands carry their own flag sets; dispatch before the global
	// flag.Parse so they never collide.
	if len(os.Args) > 1 {
		switch args := os.Args[2:]; os.Args[1] {
		case "node":
			return runNode(args)
		case "fleet":
			return runFleet(args)
		case "bench":
			return runBench(args)
		case "store":
			return runStore(args)
		case "model":
			return runModel(args)
		case "cap":
			return runCap(args)
		case "trace":
			return runTrace(args)
		}
	}
	quick := flag.Bool("quick", false, "run the reduced (smoke-test) configuration")
	csvDir := flag.String("csv", "", "directory to write CSV copies of each table")
	benchFilter := flag.String("benchmarks", "", "comma-separated benchmark filter for fig8")
	faultGridStr := flag.String("faults", "0,0.25,0.5,1", "comma-separated fault-intensity grid for faultsweep")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the faultsweep fault-injection streams")
	plot := flag.Bool("plot", false, "also render figures as ASCII charts")
	quiet := flag.Bool("quiet", false, "suppress diagnostics; only metrics output reaches stdout")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
		return 2
	}
	a := expArgs{cfg: experiments.Default(), benchFilter: *benchFilter, faultSeed: *faultSeed}
	if *quick {
		a.cfg = experiments.Quick()
	}
	faultGrid, err := parseGrid(*faultGridStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: %v\n", err)
		return 1
	}
	a.faultGrid = faultGrid
	s, err := of.Open(*quiet)
	if err != nil {
		return openFailed("solarsched", err)
	}
	ctx, cancel := cli.SignalContext()
	defer cancel()
	err = runExperiments(ctx, s, table, flag.Args(), a, *plot, *csvDir)
	if err != nil {
		s.Logger.Error("experiments failed", "err", err)
	}
	return cli.ExitCode(err)
}

// runExperiments runs the named experiments (groups expanded) in order
// inside the session s, rendering each table — and its chart under plot —
// to s.Diag and, with csvDir, to DIR/<name>.csv. It closes s.
func runExperiments(ctx context.Context, s *obs.Session, tbl expTable, names []string, a expArgs, plot bool, csvDir string) (err error) {
	defer s.Close(&err)
	experiments.Observer = s.Reg
	for _, name := range tbl.expand(names) {
		start := time.Now()
		span := experiments.Observer.StartSpan("experiments/" + name)
		t, chart, err := tbl.dispatch(ctx, name, a)
		span.End()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		t.Render(s.Diag)
		if plot && chart != nil {
			chart.Render(s.Diag)
		}
		fmt.Fprintf(s.Diag, "  (%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		if csvDir != "" {
			if err := writeCSV(csvDir, name, t); err != nil {
				return fmt.Errorf("writing csv for %s: %w", name, err)
			}
		}
	}
	return nil
}

// runVerbs runs the verb args[0] of a tool subcommand (node, cap, trace),
// printing usage for a missing or unknown verb.
func runVerbs(name, usage string, args []string, verbs map[string]func([]string) error) int {
	if len(args) == 0 || verbs[args[0]] == nil {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	if err := verbs[args[0]](args[1:]); err != nil {
		logger, _ := obs.NewLogger(os.Stderr, obs.LogText, false)
		logger.Error("command failed", "cmd", name+" "+args[0], "err", err)
		return cli.ExitCode(err)
	}
	return 0
}

// openFailed reports an observability session that could not open and
// returns the exit status: 2 for a bad -log-format, as for any other bad
// flag, and 1 otherwise (a profile file that cannot be created).
func openFailed(cmd string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	if errors.Is(err, obs.ErrLogFormat) {
		return 2
	}
	return 1
}

// parseGrid parses the -faults intensity grid.
func parseGrid(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || v != v {
			return nil, fmt.Errorf("bad fault intensity %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty fault-intensity grid")
	}
	return out, nil
}

func writeCSV(dir, name string, tbl *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := atomicio.NewWriter(filepath.Join(dir, name+".csv"), 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := tbl.WriteCSV(w); err != nil {
		return err
	}
	return w.Commit()
}

func usage() {
	var exps strings.Builder
	table.writeUsage(&exps)
	fmt.Fprintf(os.Stderr, `solarsched — regenerate the DAC'15 evaluation tables and figures

usage: solarsched [flags] <experiment>...

%s
node simulation:
  node workload|size|train|run
                        simulate the solar node on custom workloads
                        (see "solarsched node")

batch runs:
  fleet <spec.json>     run a batch of simulations on the shared-cache
                        worker pool (see "solarsched fleet -h")

performance:
  bench                 run the profiled benchmark suite and diff against
                        a committed BENCH_*.json (see "solarsched bench -h")

continuous learning:
  model                 inspect, promote and roll back versions in a
                        learn-dir model registry (see "solarsched model -h")

capacitor and solar tools:
  cap curves|migrate|sweep
                        super-capacitor model explorer (see "solarsched cap")
  trace gen|info|days   synthetic solar trace tool (see "solarsched trace")

flags:
`, exps.String())
	flag.PrintDefaults()
}
