package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 500 samples rests on five values and says little.
const minBeyond = 10

// tailPercentiles are the candidates for a timing's reported tail, highest
// first, in per-mille so the sample-count rule stays in integer math.
var tailPercentiles = []int{999, 990, 950, 900, 750, 500}

// supported reports whether n samples leave at least minBeyond samples
// beyond the permille-th percentile.
func supported(permille, n int) bool {
	return n*(1000-permille) >= minBeyond*1000
}

// tailPermille returns the highest candidate percentile that n samples
// support, or 0 when not even the median is supported.
func tailPermille(n int) int {
	for _, p := range tailPercentiles {
		if supported(p, n) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. +Inf entries (failed requests) sort last.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rungResult is one step of the open-loop rate ladder.
type rungResult struct {
	Rate float64
	// LatencyMs holds one entry per request sent, measured from the
	// request's due time; a failed request is +Inf, so it misses any limit.
	LatencyMs []float64
	// LateMs is how far behind schedule each request was sent, in send
	// order.
	LateMs []float64
}

// backlogGrew reports whether the generator ended the rung further behind
// schedule than the latency limit: the requests were arriving faster than
// they were answered.
func (r rungResult) backlogGrew(limitMs float64) bool {
	n := len(r.LateMs)
	if n == 0 {
		return true
	}
	tail := r.LateMs[n-(n+9)/10:]
	return median(tail) > limitMs
}

// passes reports whether the rung met the limit: p99 is supported by the
// sample count, p99 (failures counting as misses) is within limitMs, and
// the backlog did not grow.
func (r rungResult) passes(limitMs float64) bool {
	if !supported(990, len(r.LatencyMs)) || r.backlogGrew(limitMs) {
		return false
	}
	lat := append([]float64(nil), r.LatencyMs...)
	return percentile(lat, 0.99) <= limitMs
}

// maxPassingRate returns the highest rate of the ladder such that it and
// every lower rung pass, or 0 when the lowest rung fails. Requiring the
// whole prefix keeps one lucky rung above a failing one from setting the
// figure.
func maxPassingRate(rungs []rungResult, limitMs float64) float64 {
	sorted := append([]rungResult(nil), rungs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rate < sorted[j].Rate })
	best := 0.0
	for _, r := range sorted {
		if !r.passes(limitMs) {
			break
		}
		best = r.Rate
	}
	return best
}

// summary states the rung's sample count, median and highest supported
// percentile, with failures shown as +Inf.
func (r rungResult) summary(limitMs float64) string {
	lat := append([]float64(nil), r.LatencyMs...)
	s := fmt.Sprintf("rung %.0f/s: n=%d p50=%.3fms", r.Rate, len(lat), percentile(lat, 0.5))
	if pm := tailPermille(len(lat)); pm > 500 {
		s += fmt.Sprintf(" p%g=%.3fms", float64(pm)/10, percentile(lat, float64(pm)/1000))
	}
	return s + fmt.Sprintf(" pass=%v", r.passes(limitMs))
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateMetricName enforces the result format's metric-name rule:
// letters, digits, '_', '.' and '-', starting with a letter or digit, at
// most 64 characters.
func validateMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricNameRE)
	}
	return nil
}
