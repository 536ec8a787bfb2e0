// Package sizing implements the offline super-capacitor sizing step of
// §4.1: derive each day's energy-migration pattern from an ASAP schedule
// (eq. (2)), search the capacitance minimizing that day's migration loss
// (eq. (10)), then cluster the per-day optima into the H physical
// capacitors of the distributed bank.
package sizing

import (
	"fmt"
	"math"
	"sort"

	"solarsched/internal/nvp"
	"solarsched/internal/sched"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// DayPattern is one day's energy-migration pattern: the per-slot migrated
// energy ΔE of eq. (2) under an ASAP schedule. Positive entries are surplus
// offered to the storage channel, negative entries are deficits requested
// from it.
type DayPattern struct {
	Deltas      []float64 // J per slot
	SlotSeconds float64
}

// MigrationPattern computes a day's ΔE series: the ASAP schedule runs every
// ready task as early as possible (energy-unconstrained, per §4.1), and the
// difference between the harvest and the load in each slot is the migrated
// energy.
func MigrationPattern(tr *solar.Trace, day int, g *task.Graph, directEff float64) DayPattern {
	tb := tr.Base
	dt := tb.SlotSeconds
	pat := DayPattern{Deltas: make([]float64, tb.SlotsPerDay()), SlotSeconds: dt}
	order := sched.EDFPolicy(g)(nil)
	ts := nvp.MustNewSet(g)
	i := 0
	for p := 0; p < tb.PeriodsPerDay; p++ {
		ts.ResetPeriod()
		for s := 0; s < tb.SlotsPerPeriod; s++ {
			load := ts.Run(ts.FilterRunnable(order), nil, dt)
			solarW := tr.At(day, p, s)
			// ΔE at the storage-channel boundary: harvest minus the panel-side
			// draw of the load through the direct channel.
			pat.Deltas[i] = (solarW - load/directEff) * dt
			i++
		}
	}
	return pat
}

// PatternLoss simulates the pattern on a capacitor of c farads and returns
// the total migration loss of eq. (10): unstored or unconvertible surplus,
// undeliverable or conversion-lost deficit, and leakage.
func PatternLoss(c float64, pat DayPattern, p supercap.Params) float64 {
	cap_ := supercap.New(c, p)
	loss := 0.0
	for _, dE := range pat.Deltas {
		if dE > 0 {
			stored := cap_.Charge(dE)
			loss += dE - stored
		} else if dE < 0 {
			want := -dE
			got := cap_.Discharge(want)
			// Conversion loss of what was delivered plus the shortfall.
			eta := p.EtaDis(cap_.V) * p.EtaCycle(c)
			if eta > 0 && got > 0 {
				loss += got * (1/eta - 1)
			}
			loss += want - got
		}
		before := cap_.Energy()
		cap_.Leak(pat.SlotSeconds)
		loss += before - cap_.Energy()
	}
	return loss
}

// OptimalCapacity searches [cMin, cMax] farads (log-spaced grid with local
// refinement) for the capacitance minimizing PatternLoss on the given day
// pattern. It returns the best capacitance and its loss.
func OptimalCapacity(pat DayPattern, p supercap.Params, cMin, cMax float64) (bestC, bestLoss float64) {
	if cMin <= 0 || cMax <= cMin {
		panic(fmt.Sprintf("sizing: bad capacitance range [%g, %g]", cMin, cMax))
	}
	const coarse = 25
	bestC, bestLoss = cMin, math.Inf(1)
	lo, hi := math.Log(cMin), math.Log(cMax)
	for i := 0; i < coarse; i++ {
		c := math.Exp(lo + (hi-lo)*float64(i)/(coarse-1))
		if l := PatternLoss(c, pat, p); l < bestLoss {
			bestC, bestLoss = c, l
		}
	}
	// Local refinement around the coarse winner.
	span := (hi - lo) / (coarse - 1)
	for i := -4; i <= 4; i++ {
		c := bestC * math.Exp(span*float64(i)/5)
		if c < cMin || c > cMax {
			continue
		}
		if l := PatternLoss(c, pat, p); l < bestLoss {
			bestC, bestLoss = c, l
		}
	}
	return bestC, bestLoss
}

// Patterns computes every day's migration pattern in one pass. The result
// depends only on (trace, graph, directEff) — not on the capacitor
// parameters — so it can be computed once and shared between SizeBank and
// BankMigrationEfficiency, or cached by a batch runner.
func Patterns(tr *solar.Trace, g *task.Graph, directEff float64) []DayPattern {
	pats := make([]DayPattern, tr.Base.Days)
	for d := range pats {
		pats[d] = MigrationPattern(tr, d, g, directEff)
	}
	return pats
}

// DayOptima returns the per-day optimal capacitances {C_i^opt} and each
// day's harvested energy (the clustering feature of §4.1).
func DayOptima(tr *solar.Trace, g *task.Graph, p supercap.Params, directEff float64) (caps, dayEnergy []float64) {
	return DayOptimaFromPatterns(Patterns(tr, g, directEff), tr, p)
}

// DayOptimaFromPatterns is DayOptima on precomputed patterns; pats[d] must
// be day d's pattern of tr.
func DayOptimaFromPatterns(pats []DayPattern, tr *solar.Trace, p supercap.Params) (caps, dayEnergy []float64) {
	if len(pats) != tr.Base.Days {
		panic(fmt.Sprintf("sizing: %d patterns for a %d-day trace", len(pats), tr.Base.Days))
	}
	caps = make([]float64, tr.Base.Days)
	dayEnergy = make([]float64, tr.Base.Days)
	for d := 0; d < tr.Base.Days; d++ {
		caps[d], _ = OptimalCapacity(pats[d], p, 0.5, 200)
		dayEnergy[d] = tr.DayEnergy(d)
	}
	return caps, dayEnergy
}

// Cluster1D runs k-means on a one-dimensional feature and returns the
// cluster index of every point. Initialization is by quantiles, so the
// result is deterministic.
func Cluster1D(features []float64, k int) []int {
	n := len(features)
	if k <= 0 {
		panic("sizing: k must be positive")
	}
	if k > n {
		k = n
	}
	sorted := append([]float64(nil), features...)
	sort.Float64s(sorted)
	centers := make([]float64, k)
	for i := range centers {
		centers[i] = sorted[(2*i+1)*n/(2*k)]
	}
	assign := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, f := range features {
			best := 0
			for c := 1; c < k; c++ {
				if math.Abs(f-centers[c]) < math.Abs(f-centers[best]) {
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sum := make([]float64, k)
		cnt := make([]int, k)
		for i, f := range features {
			sum[assign[i]] += f
			cnt[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centers[c] = sum[c] / float64(cnt[c])
			}
		}
		if !changed {
			break
		}
	}
	return assign
}

// SizeBank performs the full §4.1 procedure: per-day optima, clustering by
// day solar energy into H groups, and averaging the optima within each
// group. The result is sorted ascending and deduplicated (so the bank may
// come out smaller than H when days are homogeneous).
func SizeBank(tr *solar.Trace, g *task.Graph, h int, p supercap.Params, directEff float64) []float64 {
	return SizeBankFromPatterns(Patterns(tr, g, directEff), tr, h, p)
}

// SizeBankFromPatterns is SizeBank on precomputed day patterns.
func SizeBankFromPatterns(pats []DayPattern, tr *solar.Trace, h int, p supercap.Params) []float64 {
	caps, energy := DayOptimaFromPatterns(pats, tr, p)
	assign := Cluster1D(energy, h)
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for i, c := range assign {
		sum[c] += caps[i]
		cnt[c]++
	}
	var out []float64
	for c, s := range sum {
		out = append(out, s/float64(cnt[c]))
	}
	sort.Float64s(out)
	// Deduplicate near-identical capacitances (within 5 %).
	dedup := out[:0]
	for _, c := range out {
		if len(dedup) == 0 || c > dedup[len(dedup)-1]*1.05 {
			dedup = append(dedup, c)
		}
	}
	return dedup
}

// BankMigrationEfficiency estimates the average migration efficiency a
// sized bank achieves over a day: each day's pattern is run on the bank
// member closest to that day's optimum, and the efficiency is
// 1 − loss/|ΔE| (the Figure 10(b) metric).
func BankMigrationEfficiency(tr *solar.Trace, g *task.Graph, bank []float64, p supercap.Params, directEff float64) float64 {
	return BankMigrationEfficiencyFromPatterns(Patterns(tr, g, directEff), bank, p)
}

// BankMigrationEfficiencyFromPatterns is BankMigrationEfficiency on
// precomputed day patterns.
func BankMigrationEfficiencyFromPatterns(pats []DayPattern, bank []float64, p supercap.Params) float64 {
	if len(bank) == 0 {
		panic("sizing: empty bank")
	}
	totalLoss, totalMoved := 0.0, 0.0
	for _, pat := range pats {
		best := math.Inf(1)
		for _, c := range bank {
			if l := PatternLoss(c, pat, p); l < best {
				best = l
			}
		}
		moved := 0.0
		for _, dE := range pat.Deltas {
			moved += math.Abs(dE)
		}
		totalLoss += best
		totalMoved += moved
	}
	if totalMoved == 0 {
		return 1
	}
	eff := 1 - totalLoss/totalMoved
	if eff < 0 {
		return 0
	}
	return eff
}
