package main

import (
	"math"
	"sort"
	"time"
)

// p99MinSamples is the smallest sample count for which the benchmark
// reports a 99th percentile: at 1 000 samples, at least ten lie beyond it.
const p99MinSamples = 1000

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, the "inclusive" method of Python's
// statistics.quantiles. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// p99 returns the 99th percentile of xs and true, or false when xs holds
// fewer than p99MinSamples samples, so that a reported p99 always has at
// least ten samples beyond it.
func p99(xs []float64) (float64, bool) {
	if len(xs) < p99MinSamples {
		return 0, false
	}
	return quantile(xs, 0.99), true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
