package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{2000, 990}, // p99 leaves 20 beyond
		{1000, 990}, // exactly 10 beyond
		{999, 950},
		{500, 950}, // p99 would rest on 5 samples
		{100, 900},
		{40, 750},
		{20, 500},
		{19, 0},
	}
	for _, c := range cases {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if !supported(990, 2000) || supported(990, 500) {
		t.Errorf("p99 must be valid at 2000 samples and not at 500")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	xs[0] = math.Inf(1)
	if got := percentile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("a failed request must sort last, got max %v", got)
	}
}

// A stall in one request must show in the latency of every request that was
// due while it lasted: open-loop timing starts at the due time, not the send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	reqs := openLoop(context.Background(), time.Now(), 1000, 60, 1, time.Minute, func(_, i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	r := toRung(1000, reqs)
	for i := 0; i < 5; i++ {
		if r.LatencyMs[i] > 40 {
			t.Fatalf("request %d before the stall took %.1f ms", i, r.LatencyMs[i])
		}
	}
	// Request 6 was due 1 ms after request 5 and could only be sent once
	// the stall ended.
	if r.LatencyMs[6] < 90 || r.LateMs[6] < 90 {
		t.Errorf("request 6 after a %v stall: latency %.1f ms, late %.1f ms; want both >= 90", stall, r.LatencyMs[6], r.LateMs[6])
	}
	if r.passes(decideLimitMs) {
		t.Errorf("a rung whose p99 absorbed a %v stall must not pass", stall)
	}
}

func TestOpenLoopUnsentRequestsMiss(t *testing.T) {
	reqs := openLoop(context.Background(), time.Now(), 1000, 50, 1, 20*time.Millisecond, func(_, i int) error {
		time.Sleep(5 * time.Millisecond) // 200/s against a 1000/s schedule
		return nil
	})
	r := toRung(1000, reqs)
	unsent := 0
	for i, q := range reqs {
		if q.unsent {
			unsent++
			if !math.IsInf(r.LatencyMs[i], 1) {
				t.Fatalf("unsent request %d has latency %v, want +Inf", i, r.LatencyMs[i])
			}
		}
	}
	if unsent == 0 {
		t.Fatal("a generator past its cutoff must stop sending")
	}
}

func flatRung(rate float64, n int, latMs, lateMs float64) rungResult {
	r := rungResult{Rate: rate}
	for i := 0; i < n; i++ {
		r.LatencyMs = append(r.LatencyMs, latMs)
		r.LateMs = append(r.LateMs, lateMs)
	}
	return r
}

func TestMaxPassingRate(t *testing.T) {
	ok := func(rate float64) rungResult { return flatRung(rate, 2000, 5, 0) }
	slow := flatRung(1500, 3000, 80, 0)

	if got := maxPassingRate([]rungResult{ok(500), ok(1000), slow, ok(2000)}, 50); got != 1000 {
		t.Errorf("a passing rung above a failing one must not count: got %v, want 1000", got)
	}
	if got := maxPassingRate([]rungResult{ok(1000), ok(500)}, 50); got != 1000 {
		t.Errorf("rung order must not matter: got %v, want 1000", got)
	}
	if got := maxPassingRate([]rungResult{slow}, 50); got != 0 {
		t.Errorf("no passing rung: got %v, want 0", got)
	}

	few := flatRung(500, 500, 5, 0)
	if few.passes(50) {
		t.Error("500 samples cannot support a p99, so the rung cannot pass")
	}

	// Latencies within the limit, but the generator ends the rung 200 ms
	// behind schedule: the backlog grew.
	behind := flatRung(2000, 4000, 5, 0)
	for i := range behind.LateMs {
		behind.LateMs[i] = 200 * float64(i) / float64(len(behind.LateMs))
	}
	if !behind.backlogGrew(50) || behind.passes(50) {
		t.Error("a rung whose generator fell behind must not pass")
	}

	// 2% of requests failed: failures are misses, so p99 misses the limit.
	failing := flatRung(1000, 2000, 5, 0)
	for i := 0; i < 40; i++ {
		failing.LatencyMs[i] = math.Inf(1)
	}
	if failing.passes(50) {
		t.Error("a rung with 2% failed requests must not pass a p99 limit")
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "decide_p99_ms.r1000", "sim.ns_per_period.asap", "9lives", "a-b"} {
		if err := validateMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a b", "p99/ms", "décide", ".hidden", "-x", "x{le=1}", strings.Repeat("a", 65)} {
		if err := validateMetricName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// The metric tables the program prints must be the ones BENCHMARK.json
// declares, in name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if err := validateMetricName(want[i].Name); err != nil {
				t.Error(err)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
