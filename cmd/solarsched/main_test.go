package main

import (
	"context"
	"testing"

	"solarsched/internal/experiments"
	"solarsched/internal/solar"
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
	cfg := experiments.Quick()
	for _, name := range []string{"fig5", "fig7", "table2", "overhead", "ablation-predictor", "ablation-dvfs"} {
		tbl, err := dispatch(context.Background(), name, cfg, "", []float64{0, 1}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
	}
	if _, err := dispatch(context.Background(), "bogus", cfg, "", []float64{0, 1}, 1); err == nil {
		t.Fatal("unknown experiment accepted")
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
