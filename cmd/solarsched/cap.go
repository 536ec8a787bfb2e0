// The cap subcommand explores the super-capacitor model interactively:
// the regulator efficiency curves, migration efficiencies for arbitrary
// (capacitance, quantity, duration) patterns, and the model-vs-reference
// comparison behind Table 2.
//
//	solarsched cap curves
//	solarsched cap migrate -c 10 -q 30 -t 400
//	solarsched cap sweep   -q 30 -t 400
//
// Every verb also accepts the observability flags (-cpuprofile,
// -memprofile, -exectrace, -metrics, -metrics-format, -metrics-out).
package main

import (
	"flag"
	"fmt"
	"os"

	"solarsched/internal/obs"
	"solarsched/internal/stats"
	"solarsched/internal/supercap"
)

const capUsage = `solarsched cap — super-capacitor model explorer

usage:
  solarsched cap curves
  solarsched cap migrate -c CAP -q JOULES -t MINUTES
  solarsched cap sweep   -q JOULES -t MINUTES
`

// runCap is the `cap` subcommand body.
func runCap(args []string) int {
	return runVerbs("cap", capUsage, args, map[string]func([]string) error{
		"curves":  capCurves,
		"migrate": capMigrate,
		"sweep":   capSweep,
	})
}

func capCurves(args []string) error {
	fs := flag.NewFlagSet("curves", flag.ExitOnError)
	return obs.WithFlags(fs, args, func() error {
		p := supercap.DefaultParams()
		t := stats.NewTable("regulator efficiencies and leakage",
			"V", "eta_chr", "eta_dis", "leak@10F (uW)", "leak@100F (uW)")
		for v := p.VLow; v <= p.VHigh+1e-9; v += 0.25 {
			t.AddRow(stats.F(v, 2), stats.Pct(p.EtaChr(v)), stats.Pct(p.EtaDis(v)),
				stats.F(p.LeakPower(v, 10)*1e6, 1), stats.F(p.LeakPower(v, 100)*1e6, 1))
		}
		t.Render(os.Stdout)
		return nil
	})
}

func capMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	c := fs.Float64("c", 10, "capacitance (F)")
	q := fs.Float64("q", 30, "migration quantity (J)")
	tm := fs.Float64("t", 400, "migration duration (min)")
	return obs.WithFlags(fs, args, func() error {
		p := supercap.DefaultParams()
		pat := supercap.Pattern{Quantity: *q, Duration: *tm * 60}
		model := supercap.MigrationEfficiency(*c, pat, p, 60)
		test := supercap.HiFiMigrationEfficiency(*c, pat, p)
		fmt.Printf("pattern: %.1f J over %.0f min on %.1f F\n", *q, *tm, *c)
		fmt.Printf("model: %s   reference: %s   error: %s\n",
			stats.Pct(model), stats.Pct(test), stats.Pct(relErr(model, test)))
		return nil
	})
}

func capSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	q := fs.Float64("q", 30, "migration quantity (J)")
	tm := fs.Float64("t", 400, "migration duration (min)")
	return obs.WithFlags(fs, args, func() error {
		p := supercap.DefaultParams()
		pat := supercap.Pattern{Quantity: *q, Duration: *tm * 60}
		t := stats.NewTable(
			fmt.Sprintf("migration efficiency sweep: %.1f J over %.0f min", *q, *tm),
			"C (F)", "model", "reference", "error")
		bestC, bestEff := 0.0, -1.0
		for _, c := range []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200} {
			m := supercap.MigrationEfficiency(c, pat, p, 60)
			h := supercap.HiFiMigrationEfficiency(c, pat, p)
			if m > bestEff {
				bestC, bestEff = c, m
			}
			t.AddRow(stats.F(c, 1), stats.Pct(m), stats.Pct(h), stats.Pct(relErr(m, h)))
		}
		t.Render(os.Stdout)
		fmt.Printf("  best capacitance: %.1f F at %s\n", bestC, stats.Pct(bestEff))
		return nil
	})
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}
