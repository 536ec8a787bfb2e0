package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarsched/internal/obs"
)

func TestParseBank(t *testing.T) {
	got, err := parseBank("2, 10,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 10 || got[2] != 50 {
		t.Fatalf("parseBank = %v", got)
	}
	for _, bad := range []string{"", "abc", "1,-2", "0"} {
		if _, err := parseBank(bad); err == nil {
			t.Errorf("parseBank(%q) accepted", bad)
		}
	}
}

func TestLoadWorkloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeWorkload(f, "ecg"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := loadWorkload(path, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "ECG" || g.N() != 6 {
		t.Fatalf("loaded %s with %d tasks", g.Name, g.N())
	}
	if _, err := loadWorkload("", 1800); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := loadWorkload(filepath.Join(dir, "missing.json"), 1800); err == nil {
		t.Error("missing file accepted")
	}
}

// TestEndToEndMetricsEmission is the acceptance test of the
// instrumentation layer: a full offline train plus a closed-loop run of
// the proposed scheduler, with -metrics, must emit Prometheus-text and
// JSON snapshots covering the paper's key quantities — slots simulated,
// deadline misses, DMR, per-channel Joules, capacitor switches, DP solve
// time and DBN training epochs.
func TestEndToEndMetricsEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the DBN; skipped with -short")
	}
	obs.ResetDefault()
	dir := t.TempDir()
	workload := filepath.Join(dir, "ecg.json")
	model := filepath.Join(dir, "model.json")
	promOut := filepath.Join(dir, "run.prom")
	jsonOut := filepath.Join(dir, "run.json")

	f, err := os.Create(workload)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeWorkload(f, "ecg"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := nodeTrain([]string{
		"-workload", workload, "-days", "2", "-seed", "7", "-bank", "2,10",
		"-o", model, "-quiet",
		"-metrics", "-metrics-format", "summary", "-metrics-out", filepath.Join(dir, "train.txt"),
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	run := func(format, out string) {
		t.Helper()
		if err := nodeRun([]string{
			"-workload", workload, "-scheduler", "proposed", "-model", model,
			"-bank", "2,10", "-quiet",
			"-metrics", "-metrics-format", format, "-metrics-out", out,
		}); err != nil {
			t.Fatalf("run (%s): %v", format, err)
		}
	}
	run("prom", promOut)
	run("json", jsonOut)

	required := []string{
		"sim_slots_total",
		"sim_deadline_misses_total",
		"sim_dmr",
		"sim_channel_joules_total",
		"sim_cap_switches_total",
		"core_dp_solve_seconds",
		"ann_pretrain_epochs_total",
		"ann_finetune_epochs_total",
	}
	prom, err := os.ReadFile(promOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range required {
		if !strings.Contains(string(prom), name) {
			t.Errorf("prometheus output missing %s", name)
		}
	}
	if !strings.Contains(string(prom), `sim_channel_joules_total{channel="direct"}`) ||
		!strings.Contains(string(prom), `sim_channel_joules_total{channel="stored"}`) {
		t.Error("prometheus output missing per-channel Joule series")
	}
	if !strings.Contains(string(prom), `obs_span_count{path="sim/run"}`) {
		t.Error("prometheus output missing run span aggregates")
	}

	raw, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	byName := map[string]bool{}
	for _, c := range snap.Counters {
		byName[c.Name] = true
		if c.Name == "sim_slots_total" && c.Value <= 0 {
			t.Error("sim_slots_total is zero after a full run")
		}
		if c.Name == "ann_pretrain_epochs_total" && c.Value <= 0 {
			t.Error("ann_pretrain_epochs_total is zero after training")
		}
	}
	for _, g := range snap.Gauges {
		byName[g.Name] = true
	}
	for _, h := range snap.Histograms {
		byName[h.Name] = true
		if h.Name == "core_dp_solve_seconds" && h.Count == 0 {
			t.Error("core_dp_solve_seconds has no observations")
		}
	}
	for _, name := range required {
		if !byName[name] {
			t.Errorf("JSON snapshot missing %s", name)
		}
	}
	if len(snap.Spans) == 0 {
		t.Error("JSON snapshot has no span aggregates")
	}
}

func TestTrainingTraceDeterministic(t *testing.T) {
	a, err := trainingTrace(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainingTrace(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy() != b.TotalEnergy() {
		t.Fatal("training trace not deterministic")
	}
}
