package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"solarsched/internal/experiments"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
	"solarsched/internal/stats"
)

func TestSelectBenchmarks(t *testing.T) {
	all, err := selectBenchmarks("")
	if err != nil || all != nil {
		t.Fatalf("empty filter: %v, %v (nil means all)", all, err)
	}
	got, err := selectBenchmarks("wam, ECG")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "WAM" || got[1].Name != "ECG" {
		t.Fatalf("selectBenchmarks = %v", got)
	}
	if _, err := selectBenchmarks("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestDispatchCheapExperiments(t *testing.T) {
	a := expArgs{cfg: experiments.Quick(), faultGrid: []float64{0, 1}, faultSeed: 1}
	for _, name := range []string{"fig5", "fig7", "table2", "overhead", "ablation-predictor", "ablation-dvfs"} {
		tbl, _, err := table.dispatch(context.Background(), name, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
	}
	if _, _, err := table.dispatch(context.Background(), "bogus", a); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentTable pins the table's shape: unique names that no group
// name shadows, every entry in the usage text, and the group expansions
// in their historical order.
func TestExperimentTable(t *testing.T) {
	var usage strings.Builder
	table.writeUsage(&usage)
	seen := map[string]bool{}
	for _, e := range table {
		if seen[e.name] {
			t.Fatalf("experiment %q listed twice", e.name)
		}
		seen[e.name] = true
		if e.run == nil || e.help == "" {
			t.Fatalf("experiment %q lacks a run function or help", e.name)
		}
		if !strings.Contains(usage.String(), "  "+e.name+" ") {
			t.Fatalf("usage does not list %q:\n%s", e.name, usage.String())
		}
	}
	for _, group := range []string{"all", "ablations"} {
		if seen[group] {
			t.Fatalf("experiment name %q shadows its group", group)
		}
	}
	got := table.expand([]string{"all", "ablations", "robustness", "faultsweep", "bogus"})
	want := []string{"fig5", "fig7", "table2", "fig8", "fig9", "fig10a", "fig10b", "overhead",
		"ablation-thresholds", "ablation-ann", "ablation-guards", "ablation-predictor", "ablation-dvfs",
		"robustness", "faultsweep", "bogus"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("expand = %v\nwant     %v", got, want)
	}
	if got := table.expand([]string{""}); len(got) != 1 || got[0] != "" {
		t.Fatalf("expand(\"\") = %v, want the empty name passed through", got)
	}
}

// TestPlotRunsExperimentOnce checks that -plot draws the chart of the run
// that produced the table instead of simulating the experiment again.
func TestPlotRunsExperimentOnce(t *testing.T) {
	tbl := append(expTable(nil), table...)
	calls := 0
	for i := range tbl {
		if tbl[i].name == "fig5" {
			inner := tbl[i].run
			tbl[i].run = func(ctx context.Context, a expArgs) (*stats.Table, *stats.Chart, error) {
				calls++
				return inner(ctx, a)
			}
		}
	}
	var of obs.Flags
	s, err := of.Open(false)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s.Diag = &out
	if err := runExperiments(context.Background(), s, tbl, []string{"fig5"}, expArgs{cfg: experiments.Quick()}, true, ""); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fig5 ran %d times under -plot, want 1", calls)
	}
	if !strings.Contains(out.String(), "Figure 5 (shape)") {
		t.Fatalf("no chart under -plot:\n%s", out.String())
	}
}

func TestParseConditions(t *testing.T) {
	got, err := parseConditions("sunny, rainy,overcast,partly-cloudy,cloudy")
	if err != nil {
		t.Fatal(err)
	}
	want := []solar.Condition{solar.Sunny, solar.Rainy, solar.Overcast, solar.PartlyCloudy, solar.PartlyCloudy}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out, err := parseConditions(""); err != nil || out != nil {
		t.Fatal("empty conditions should be nil, nil")
	}
	if _, err := parseConditions("snowy"); err == nil {
		t.Fatal("unknown condition accepted")
	}
}
