package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs need not be sorted;
// it is not modified. An empty input yields NaN.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest of p99.9, p99 and p90 that still has
// at least ten samples beyond it, and returns that percentile (as 99.9,
// 99 or 90) with its value. ok is false when even p90 has fewer than ten
// samples beyond it (fewer than 100 samples): such a tail is one or two
// outliers, not a percentile.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		beyond := float64(len(xs)) * (1 - p/100)
		if beyond >= 10-1e-9 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// sumOfMedians adds up each key's median: the time of one pass over a
// fixed list of operations, with every operation's noisy samples reduced
// to their median first.
func sumOfMedians(samples map[string][]float64) float64 {
	sum := 0.0
	for _, xs := range samples {
		sum += median(xs)
	}
	return sum
}

// perKeyMedianMean groups samples by key, takes each group's median and
// returns the mean of those medians. Workloads whose operations differ in
// kind (the four cluster cells) use it so that a run's figure does not
// depend on how many samples of each kind it happened to collect.
func perKeyMedianMean(keys []string, xs []float64) float64 {
	groups := map[string][]float64{}
	for i, k := range keys {
		groups[k] = append(groups[k], xs[i])
	}
	if len(groups) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, g := range groups {
		sum += median(g)
	}
	return sum / float64(len(groups))
}
