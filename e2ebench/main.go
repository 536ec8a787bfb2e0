// Command e2ebench is solarsched's repository benchmark. It runs one
// workload at a given seed, checks every output against golden digests and
// in-process references, and prints one JSON result line. Run it from the
// repository root through run.sh, which builds it and the daemon:
//
//	bash e2ebench/run.sh --workload offline_cold --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how each layer metric
// maps onto the end-to-end metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind (the daemon binary, span
// files), relative to the directory the benchmark runs from.
const buildDir = ".bench_build"

type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fleet_s", "s"},
	{"sim_periods_per_s", "1/s"},
}

// perLayer are the metrics every traced run prints, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"solar.trace_s", "s"},
	{"sizing.patterns_s", "s"},
	{"sizing.bank_s", "s"},
	{"core.samples_s", "s"},
	{"ann.train_s", "s"},
	{"core.plan_s", "s"},
	{"sim.runs_s", "s"},
	{"offline.self_sum_ratio", "ratio"},
	{"core.lut_builds", "count"},
	{"core.lut_lookups", "count"},
	{"core.lut_hit_ratio", "ratio"},
	{"core.dp_expansions", "count"},
	{"fleet.cache_hit_ratio", "ratio"},
	{"fleet.pool_busy_ratio", "ratio"},
	{"sim.ns_per_period.asap", "ns"},
	{"sim.ns_per_period.inter", "ns"},
	{"sim.ns_per_period.intra", "ns"},
	{"sim.ns_per_period.dvfs", "ns"},
	{"sim.ns_per_period.proposed", "ns"},
	{"sim.ns_per_period.hardened", "ns"},
	{"sim.ns_per_period.optimal", "ns"},
	{"sched.slot_ns_per_period", "ns"},
	{"sched.begin_ns_per_period", "ns"},
	{"sim.engine_ns_per_period", "ns"},
	{"sim.allocs_per_period", "count"},
	{"sim.bytes_per_period", "B"},
	{"sim.periods", "count"},
	{"sim.slots", "count"},
	{"core.decide_us_p50", "us"},
	{"decide_p50_ms.r500", "ms"},
	{"decide_p99_ms.r500", "ms"},
	{"decide_p50_ms.r1000", "ms"},
	{"decide_p99_ms.r1000", "ms"},
	{"decide_max_rps", "1/s"},
	{"loadgen.late_ms_p99", "ms"},
	{"serve.decide_handler_ms_mean", "ms"},
	{"serve.decide_outside_ms_mean", "ms"},
	{"serve.decides", "count"},
	{"serve.decide_errors", "count"},
	{"serve.throttled", "count"},
	{"serve.job_s_mean", "s"},
	{"serve.jobs_rejected", "count"},
	{"peak_rss_mb", "MB"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// params is what every workload receives.
type params struct {
	seed    uint64
	seconds time.Duration
	// tr is nil in untraced runs.
	tr *tracer
}

// outcome is a workload's account of one run.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness gates; any entry fails the run.
	problems []string
	metrics  map[string]float64
}

func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workloadFunc{
	"offline_cold": runOfflineCold,
	"sim_warm":     runSimWarm,
	"serve_mixed":  runServeMixed,
}

// hostRecord is stamped on every result.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostRecord {
	return hostRecord{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "offline_cold, sim_warm or serve_mixed")
	seed := fs.Uint64("seed", 1, "input seed: draws the warm-up trace and the decide requests")
	seconds := fs.Int("seconds", 20, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload offline_cold|sim_warm|serve_mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	defs := endToEnd
	if *trace == 1 {
		p.tr = newTracer()
		defs = perLayer
	}
	h := host()
	out, err := wl(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if err := p.tr.write(buildDir+"/spans", fmt.Sprintf("%s-seed%d.json", *name, *seed), h); err != nil {
		fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
		return 1
	}
	line, err := render(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	for _, pr := range out.problems {
		fmt.Fprintf(stderr, "e2ebench: %s: correctness gate failed: %s\n", *name, pr)
	}
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)
	lb, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", lb)
	if !line.Correct {
		return 1
	}
	return 0
}

// render checks that the workload produced exactly the declared metric set
// with valid names and finite values, and builds the result line.
func render(out *outcome, defs []metricDef) (resultLine, error) {
	line := resultLine{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if out.attempted < 1 {
		return line, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		if err := validateMetricName(d.Name); err != nil {
			return line, err
		}
		v, ok := out.metrics[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s not measured", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return line, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(out.metrics) != len(defs) {
		var extra []string
		for k := range out.metrics {
			if _, ok := line.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return line, fmt.Errorf("undeclared metrics %v", extra)
	}
	return line, nil
}

// peakRSSMB returns the peak resident set of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
