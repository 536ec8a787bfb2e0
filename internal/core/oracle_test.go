package core

import (
	"math"
	"slices"
	"testing"

	"solarsched/internal/rng"
	"solarsched/internal/supercap"
)

// migrated is the exact start voltage of capacitor to after the day-boundary
// migration of capacitor from's energy at voltage v, as bestExactFirst
// computes it.
func migrated(pc PlanConfig, from, to int, v float64) float64 {
	src := supercap.New(pc.Capacitances[from], pc.Params)
	src.V = v
	dst := supercap.New(pc.Capacitances[to], pc.Params)
	dst.Charge(src.Discharge(src.Deliverable()))
	return dst.V
}

// oracleValue is the exhaustive search the DP must reproduce: every sequence
// of capacitor choices (a switch only at a day boundary) and per-period LUT
// options over the horizon, scored like planHorizon — the misses plus the
// terminal energy tie — with the first period at the exact start voltage.
// It reads the table's entries and builds none.
func oracleValue(l *LUT, powers [][]float64, startPeriodOfDay, startCap int, startV float64) float64 {
	pc := l.Config()
	boundary := func(t int) bool { return (startPeriodOfDay+t)%pc.Base.PeriodsPerDay == 0 }
	var tail func(t, c, b int) float64
	tail = func(t, c, b int) float64 {
		if t == len(powers) {
			return -energyTie * float64(b)
		}
		best := math.Inf(1)
		for c2 := range pc.Capacitances {
			b2 := b
			if c2 != c {
				if !boundary(t) {
					continue
				}
				b2, _ = l.TransferBucket(c, b, c2)
			}
			for _, o := range l.Options(c2, b2, powers[t]) {
				best = math.Min(best, float64(o.Misses)+tail(t+1, c2, l.BucketOf(c2, o.FinalV)))
			}
		}
		return best
	}
	best := math.Inf(1)
	for c := range pc.Capacitances {
		v := startV
		if c != startCap {
			if !boundary(0) {
				continue
			}
			v = migrated(pc, startCap, c, startV)
		}
		for _, o := range l.PeriodOptions(c, v, powers[0]) {
			best = math.Min(best, float64(o.Misses)+tail(1, c, l.BucketOf(c, o.FinalV)))
		}
	}
	return best
}

// planValue scores a plan's decisions as the DP scores a path: it follows
// the capacitor switches and the chosen options' final buckets through the
// table and sums the misses onto the terminal energy tie back to front.
func planValue(t *testing.T, l *LUT, powers [][]float64, startCap int, startV float64, res PlanResult) float64 {
	t.Helper()
	pick := func(opts []Option, d Decision) Option {
		for _, o := range opts {
			if o.Misses == d.PredictedMisses && slices.Equal(o.Te, d.Te) {
				return o
			}
		}
		t.Fatalf("decision %+v is none of the options %+v", d, opts)
		return Option{}
	}
	pc := l.Config()
	d := res.Decisions[0]
	v := startV
	if d.CapIdx != startCap {
		v = migrated(pc, startCap, d.CapIdx, startV)
	}
	o := pick(l.PeriodOptions(d.CapIdx, v, powers[0]), d)
	misses := []int{o.Misses}
	c, b := d.CapIdx, l.BucketOf(d.CapIdx, o.FinalV)
	for p := 1; p < len(powers); p++ {
		d := res.Decisions[p]
		if d.CapIdx != c {
			b, _ = l.TransferBucket(c, b, d.CapIdx)
			c = d.CapIdx
		}
		o := pick(l.Options(c, b, powers[p]), d)
		misses = append(misses, o.Misses)
		b = l.BucketOf(c, o.FinalV)
	}
	val := -energyTie * float64(b)
	for p := len(misses) - 1; p >= 0; p-- {
		val = float64(misses[p]) + val
	}
	return val
}

// The DP teacher is optimal over its own table: on random graphs and
// powers, over horizons of one to three periods on two capacitors with day
// boundaries inside, its plan scores exactly the minimum an exhaustive
// search over every capacitor and option sequence finds.
func TestPlanHorizonMatchesExhaustiveOracle(t *testing.T) {
	switched := 0
	for seed := uint64(0); seed < 48; seed++ {
		src := rng.New(seed)
		pc := randomPlanConfig(src, int(seed*5))
		pc.Capacitances = []float64{src.Range(0.5, 5), src.Range(5, 50)}
		pc.Base.Days, pc.Base.PeriodsPerDay = 2, 2
		l := NewLUT(pc)
		powers := make([][]float64, 1+src.Intn(3))
		for p := range powers {
			powers[p] = randomPowers(src, pc)
		}
		startDay := src.Intn(2)
		startCap := src.Intn(2)
		startV := src.Range(pc.Params.VLow, pc.Params.VHigh)

		res := PlanHorizon(l, powers, startDay, startCap, startV)
		builds := l.Builds
		want := oracleValue(l, powers, startDay, startCap, startV)
		if l.Builds != builds {
			t.Fatalf("seed %d: the oracle built %d entries the DP never queried", seed, l.Builds-builds)
		}
		if got := planValue(t, l, powers, startCap, startV, res); got != want {
			t.Fatalf("seed %d (%d periods from period-of-day %d): plan scores %v, oracle %v",
				seed, len(powers), startDay, got, want)
		}
		for p, d := range res.Decisions {
			if (p == 0 && d.CapIdx != startCap) || (p > 0 && d.CapIdx != res.Decisions[p-1].CapIdx) {
				switched++
				break
			}
		}
	}
	if switched == 0 {
		t.Fatal("no plan switched capacitors: the day-boundary branch went untested")
	}
	t.Logf("%d of 48 plans switched capacitors", switched)
}
