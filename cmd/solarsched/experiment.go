// The experiment table: every experiment of experiment mode is one entry,
// and dispatch, the -plot charts, the `all`/`ablations` expansions and
// the experiment section of the usage text are all read from it.
package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"solarsched/internal/experiments"
	"solarsched/internal/stats"
	"solarsched/internal/task"
)

// expArgs carries the experiment-mode flags a run function may read.
type expArgs struct {
	cfg         experiments.Config
	benchFilter string
	faultGrid   []float64
	faultSeed   uint64
}

// experiment is one entry of the table.
type experiment struct {
	name string
	help string // one line; a "\n" continues it on the next usage line
	// group is the expansion the entry belongs to ("all", "ablations")
	// or "" for neither.
	group string
	// run simulates the experiment once and returns its table and, for
	// the figure-shaped experiments, the chart drawn from the same run
	// (nil otherwise).
	run func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error)
}

type expTable []experiment

// table lists every experiment in usage and expansion order.
var table = expTable{
	{"fig5", "regulator efficiency curves", "all", func(context.Context, expArgs) (*stats.Table, *stats.Chart, error) {
		t, series := experiments.Fig5()
		return t, &stats.Chart{Title: "Figure 5 (shape)", XLabel: "V", YLabel: "efficiency", Series: series}, nil
	}},
	{"fig7", "solar power of four representative days", "all", func(context.Context, expArgs) (*stats.Table, *stats.Chart, error) {
		t, tr := experiments.Fig7()
		var series []stats.Series
		for d := 0; d < tr.Base.Days; d++ {
			s := stats.Series{Name: fmt.Sprintf("day%d", d+1)}
			for p := 0; p < tr.Base.PeriodsPerDay; p++ {
				s.Add(float64(p)*0.5, tr.PeriodEnergy(d, p)/tr.Base.PeriodSeconds()*1000)
			}
			series = append(series, s)
		}
		return t, &stats.Chart{Title: "Figure 7 (shape)", XLabel: "hour", YLabel: "mW", Series: series}, nil
	}},
	{"table2", "energy migration efficiencies (model vs test)", "all", func(context.Context, expArgs) (*stats.Table, *stats.Chart, error) {
		t, res := experiments.Table2()
		t.AddRow("avg err", stats.Pct(res.AvgError), "", "", "max spread", stats.Pct(res.MaxSpread), "")
		return t, nil, nil
	}},
	{"fig8", "DMR comparison over four days, six benchmarks", "all", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		benchmarks, err := selectBenchmarks(a.benchFilter)
		if err != nil {
			return nil, nil, err
		}
		t, _, err := experiments.Fig8(ctx, a.cfg, benchmarks)
		return t, nil, err
	}},
	{"fig9", "two-month DMR and energy utilization (WAM)", "all", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, _, err := experiments.Fig9(ctx, a.cfg)
		return t, nil, err
	}},
	{"fig10a", "solar prediction length sweep", "all", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, res, err := experiments.Fig10a(ctx, a.cfg)
		if err != nil {
			return nil, nil, err
		}
		s := stats.Series{Name: "DMR"}
		for _, r := range res {
			s.Add(r.Hours, 100*r.DMR)
		}
		return t, &stats.Chart{Title: "Figure 10a (shape)", XLabel: "prediction hours", YLabel: "DMR %",
			Series: []stats.Series{s}, Height: 10}, nil
	}},
	{"fig10b", "distributed capacitor count sweep", "all", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, res, err := experiments.Fig10b(ctx, a.cfg)
		if err != nil {
			return nil, nil, err
		}
		eff := stats.Series{Name: "migration eff %"}
		dmr := stats.Series{Name: "DMR %"}
		for _, r := range res {
			eff.Add(float64(r.H), 100*r.MigrationEff)
			dmr.Add(float64(r.H), 100*r.DMR)
		}
		return t, &stats.Chart{Title: "Figure 10b (shape)", XLabel: "capacitors H", YLabel: "%",
			Series: []stats.Series{eff, dmr}, Height: 10}, nil
	}},
	{"overhead", "on-node algorithm cost (93.5 kHz)", "all", func(_ context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, _ := experiments.Overhead(a.cfg)
		return t, nil, nil
	}},
	{"ablation-thresholds", "delta and E_th selection thresholds", "ablations", tableOnly(experiments.AblationThresholds)},
	{"ablation-ann", "DBN layer/neuron sweep", "ablations", tableOnly(experiments.AblationANN)},
	{"ablation-guards", "online selection guards on/off", "ablations", tableOnly(experiments.AblationGuards)},
	{"ablation-predictor", "solar predictor of the Inter-task baseline", "ablations", tableOnly(experiments.AblationPredictor)},
	{"ablation-dvfs", "DVFS load-tuning extension vs baselines", "ablations", tableOnly(experiments.AblationDVFS)},
	{"robustness", "DMR distribution over independent weather draws", "", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, _, err := experiments.Robustness(ctx, a.cfg, 10)
		return t, nil, err
	}},
	{"faultsweep", "DMR vs fault intensity, hardened vs plain proposed\n(-faults grid, -fault-seed)", "", func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, _, err := experiments.FaultSweep(ctx, a.cfg, a.faultGrid, a.faultSeed)
		return t, nil, err
	}},
}

// tableOnly adapts an experiment that has no chart.
func tableOnly(fn func(context.Context, experiments.Config) (*stats.Table, error)) func(context.Context, expArgs) (*stats.Table, *stats.Chart, error) {
	return func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
		t, err := fn(ctx, a.cfg)
		return t, nil, err
	}
}

// dispatch runs the named experiment once.
func (t expTable) dispatch(ctx context.Context, name string, a expArgs) (*stats.Table, *stats.Chart, error) {
	for _, e := range t {
		if e.name == name {
			return e.run(ctx, a)
		}
	}
	return nil, nil, fmt.Errorf("unknown experiment %q", name)
}

// expand replaces each group name among args by the group's entries in
// table order; other args pass through.
func (t expTable) expand(args []string) []string {
	var out []string
	for _, arg := range args {
		n := len(out)
		for _, e := range t {
			if e.group != "" && e.group == arg {
				out = append(out, e.name)
			}
		}
		if len(out) == n {
			out = append(out, arg)
		}
	}
	return out
}

// writeUsage writes the experiment section of the usage text, with each
// group's expansion listed after its last entry.
func (t expTable) writeUsage(w io.Writer) {
	const indent = "                        "
	fmt.Fprintln(w, "experiments:")
	first := 0
	for i, e := range t {
		fmt.Fprintf(w, "  %-21s %s\n", e.name, strings.ReplaceAll(e.help, "\n", "\n"+indent))
		if i+1 < len(t) && t[i+1].group == e.group {
			continue
		}
		if e.group != "" {
			fmt.Fprintf(w, "  %-21s %s through %s\n", e.group, t[first].name, e.name)
		}
		first = i + 1
	}
}

func selectBenchmarks(filter string) ([]*task.Graph, error) {
	if filter == "" {
		return nil, nil // all
	}
	var out []*task.Graph
	for _, name := range strings.Split(filter, ",") {
		g, err := task.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}
