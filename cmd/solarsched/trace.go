// The trace subcommand generates, inspects and exports synthetic solar
// power traces for the node simulator.
//
//	solarsched trace gen  [-days N] [-seed S] [-doy D] [-conditions list] [-out file.csv]
//	solarsched trace info [-in file.csv]
//	solarsched trace days                      # the four representative days
//
// Conditions are a comma-separated list of sunny, partly-cloudy, overcast,
// rainy; days beyond the list follow the weather Markov chain.
//
// Every verb also accepts the observability flags (-cpuprofile,
// -memprofile, -exectrace, -metrics, -metrics-format, -metrics-out).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
	"solarsched/internal/stats"
)

const traceUsage = `solarsched trace — synthetic solar trace tool

usage:
  solarsched trace gen  [-days N] [-seed S] [-doy D] [-conditions list] [-out file.csv]
  solarsched trace info [-in file.csv]
  solarsched trace days
`

// runTrace is the `trace` subcommand body.
func runTrace(args []string) int {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	return runVerbs("trace", traceUsage, args, map[string]func([]string) error{
		"gen":  func(args []string) error { return traceGen(ctx, args) },
		"info": traceInfo,
		"days": traceDays,
	})
}

func traceGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	days := fs.Int("days", 7, "number of days")
	seed := fs.Uint64("seed", 1, "generator seed")
	doy := fs.Int("doy", 80, "day-of-year of the first day (seasonal envelope)")
	conds := fs.String("conditions", "", "comma-separated weather pins")
	out := fs.String("out", "", "CSV output path (default stdout)")
	return obs.WithFlags(fs, args, func() error {
		conditions, err := parseConditions(*conds)
		if err != nil {
			return err
		}
		tr, err := solar.Generate(solar.GenConfig{
			Base:           solar.DefaultTimeBase(*days),
			Seed:           *seed,
			DayOfYearStart: *doy,
			Conditions:     conditions,
		})
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err // interrupted before publishing: leave any old file intact
		}
		if *out == "" {
			return tr.WriteCSV(os.Stdout)
		}
		w, err := atomicio.NewWriter(*out, 0o644)
		if err != nil {
			return err
		}
		defer w.Abort()
		if err := tr.WriteCSV(w); err != nil {
			return err
		}
		return w.Commit()
	})
}

func parseConditions(s string) ([]solar.Condition, error) {
	if s == "" {
		return nil, nil
	}
	var out []solar.Condition
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "sunny":
			out = append(out, solar.Sunny)
		case "partly-cloudy", "cloudy":
			out = append(out, solar.PartlyCloudy)
		case "overcast":
			out = append(out, solar.Overcast)
		case "rainy":
			out = append(out, solar.Rainy)
		default:
			return nil, fmt.Errorf("unknown condition %q", name)
		}
	}
	return out, nil
}

func traceInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "CSV trace path (default stdin)")
	return obs.WithFlags(fs, args, func() error {
		r := os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		tr, err := solar.ReadCSV(r)
		if err != nil {
			return err
		}
		printTraceSummary(tr)
		return nil
	})
}

func traceDays(args []string) error {
	fs := flag.NewFlagSet("days", flag.ExitOnError)
	return obs.WithFlags(fs, args, func() error {
		printTraceSummary(solar.RepresentativeDays(solar.DefaultTimeBase(4)))
		return nil
	})
}

func printTraceSummary(tr *solar.Trace) {
	tb := tr.Base
	fmt.Printf("trace: %d days × %d periods × %d slots of %.0fs\n",
		tb.Days, tb.PeriodsPerDay, tb.SlotsPerPeriod, tb.SlotSeconds)
	fmt.Printf("total harvest: %.1f J, peak power: %.1f mW\n\n",
		tr.TotalEnergy(), tr.PeakPower()*1000)
	t := stats.NewTable("per-day summary", "day", "energy (J)", "peak (mW)", "sunlit periods")
	for d := 0; d < tb.Days; d++ {
		peak, sunlit := 0.0, 0
		for p := 0; p < tb.PeriodsPerDay; p++ {
			if e := tr.PeriodEnergy(d, p); e > 0 {
				sunlit++
			}
			for s := 0; s < tb.SlotsPerPeriod; s++ {
				if w := tr.At(d, p, s); w > peak {
					peak = w
				}
			}
		}
		t.AddRow(stats.F(float64(d+1), 0), stats.F(tr.DayEnergy(d), 1),
			stats.F(peak*1000, 1), stats.F(float64(sunlit), 0))
	}
	t.Render(os.Stdout)
}
