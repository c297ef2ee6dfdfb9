package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of the samples by
// the nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. The input need not be sorted; it is not modified. An empty
// input yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile — the rule under which a percentile is worth reporting at all
// (p99 needs 1,000 samples, p90 needs 100).
func supported(n int, p float64) bool {
	return n-nearestRank(n, p) >= 10
}

// median is the 50th percentile by nearest rank.
func median(samples []float64) float64 { return percentile(samples, 50) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the spread rule of -compare is defined on. Fewer than two samples
// have no spread: both quartiles equal the sample.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the first and the third quartile.
func iqr(samples []float64) float64 {
	q1, q3 := quartiles(samples)
	return q3 - q1
}

// spread is the interquartile distance as a share of the median.
func spread(samples []float64) float64 {
	m := exactMedian(samples)
	if m == 0 {
		return 0
	}
	return iqr(samples) / math.Abs(m)
}

// exactMedian is the textbook median (mean of the two middle values for an
// even count), used when comparing sets of runs; latency percentiles use
// nearest rank instead so that every reported value is an observed sample.
func exactMedian(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
